#include "HostTrace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace hostperf {

HostTrace::HostTrace() : origin(std::chrono::steady_clock::now()) {}

int64_t
HostTrace::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

int
HostTrace::begin(const std::string &name, int parent, int point,
                 const std::string &detail)
{
    HostSpan s;
    s.name = name;
    s.detail = detail;
    s.parent = parent;
    s.point = point;
    s.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mtx);
    const auto tid = threadIds.emplace(
        std::this_thread::get_id(), static_cast<int>(threadIds.size()));
    s.thread = tid.first->second;
    list.push_back(std::move(s));
    return static_cast<int>(list.size()) - 1;
}

void
HostTrace::end(int id)
{
    const int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mtx);
    list[static_cast<size_t>(id)].endNs = t;
}

std::vector<HostSpan>
HostTrace::spans() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return list;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

bool
HostTrace::writeChromeJson(const std::string &path) const
{
    const std::vector<HostSpan> all = spans();
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    bool first = true;
    for (size_t i = 0; i < all.size(); ++i) {
        const HostSpan &s = all[i];
        if (s.endNs < 0)
            continue;
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"host\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %zu, \"parent\": %d, \"point\": %d, "
                     "\"detail\": \"%s\"}}",
                     first ? "" : ",\n", jsonEscape(s.name).c_str(),
                     s.thread, s.startNs * 1e-3,
                     (s.endNs - s.startNs) * 1e-3, i, s.parent, s.point,
                     jsonEscape(s.detail).c_str());
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

double
selfSeconds(const std::vector<HostSpan> &spans, int id)
{
    const HostSpan &self = spans[static_cast<size_t>(id)];
    std::vector<std::pair<int64_t, int64_t>> kids;
    for (const HostSpan &s : spans)
        if (s.parent == id && s.endNs >= 0)
            kids.emplace_back(std::max(s.startNs, self.startNs),
                              std::min(s.endNs, self.endNs));
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = self.startNs;
    for (const auto &[b, e] : kids) {
        const int64_t from = std::max(b, reach);
        if (e > from) {
            covered += e - from;
            reach = e;
        }
    }
    return self.seconds() - covered * 1e-9;
}

bool
descendsFrom(const std::vector<HostSpan> &spans, int id, int ancestor)
{
    while (id >= 0) {
        if (id == ancestor)
            return true;
        id = spans[static_cast<size_t>(id)].parent;
    }
    return false;
}

} // namespace hostperf
