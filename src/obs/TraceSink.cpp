#include "obs/TraceSink.hpp"

#include <algorithm>
#include <cstdio>

#include "util/Logging.hpp"
#include "util/StringUtils.hpp"

namespace gsuite {

namespace {

const struct {
    const char *name;
    unsigned bit;
} kComponentNames[] = {
    {"engine", TraceEngine},
    {"sm", TraceSm},
    {"memplan", TraceMemPlan},
};

std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

bool
tryParseTraceComponents(const std::string &csv, unsigned &mask)
{
    unsigned out = 0;
    for (const std::string &raw : split(csv, ',')) {
        const std::string part = trim(raw);
        if (part.empty())
            continue;
        if (part == "all") {
            out |= TraceAllComponents;
            continue;
        }
        if (part == "none")
            continue;
        bool found = false;
        for (const auto &def : kComponentNames)
            if (part == def.name) {
                out |= def.bit;
                found = true;
                break;
            }
        if (!found)
            return false;
    }
    mask = out;
    return true;
}

unsigned
parseTraceComponents(const std::string &csv)
{
    unsigned mask = 0;
    if (!tryParseTraceComponents(csv, mask))
        fatal("unknown trace component in '%s' (expected a comma "
              "list of: all, none, engine, sm, memplan)",
              csv.c_str());
    return mask;
}

std::string
traceComponentNames(unsigned mask)
{
    if ((mask & TraceAllComponents) == TraceAllComponents)
        return "all";
    if ((mask & TraceAllComponents) == 0)
        return "none";
    std::string out;
    for (const auto &def : kComponentNames)
        if (mask & def.bit) {
            if (!out.empty())
                out += ',';
            out += def.name;
        }
    return out;
}

TraceSink::TraceSink(const TraceSinkOptions &o) : opts(o) {}

int
TraceSink::addTrack(const std::string &process,
                    const std::string &thread)
{
    if (!opts.enabled)
        return -1;
    auto track = std::make_unique<Track>();
    track->process = process;
    track->thread = thread;
    tracks.push_back(std::move(track));
    return static_cast<int>(tracks.size()) - 1;
}

void
TraceSink::push(int track, TraceEvent ev)
{
    if (!opts.enabled || track < 0)
        return;
    Track &t = *tracks[static_cast<size_t>(track)];
    if (t.events.size() >= opts.trackCapacity) {
        ++t.dropped;
        return;
    }
    t.events.push_back(std::move(ev));
}

void
TraceSink::span(int track, uint64_t ts, uint64_t dur,
                std::string name, std::string args)
{
    if (!opts.enabled)
        return;
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::Span;
    ev.ts = ts;
    ev.dur = dur;
    ev.name = std::move(name);
    ev.args = std::move(args);
    push(track, std::move(ev));
}

void
TraceSink::counter(int track, uint64_t ts, std::string name,
                   std::string series)
{
    if (!opts.enabled)
        return;
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::Counter;
    ev.ts = ts;
    ev.name = std::move(name);
    ev.args = std::move(series);
    push(track, std::move(ev));
}

uint64_t
TraceSink::droppedEvents() const
{
    uint64_t n = 0;
    for (const auto &t : tracks)
        n += t->dropped;
    return n;
}

uint64_t
TraceSink::eventCount() const
{
    uint64_t n = 0;
    for (const auto &t : tracks)
        n += t->events.size();
    return n;
}

uint64_t
TraceSink::spanCount() const
{
    uint64_t n = 0;
    for (const auto &t : tracks)
        for (const TraceEvent &ev : t->events)
            n += ev.phase == TraceEvent::Phase::Span ? 1 : 0;
    return n;
}

uint64_t
TraceSink::counterCount() const
{
    uint64_t n = 0;
    for (const auto &t : tracks)
        for (const TraceEvent &ev : t->events)
            n += ev.phase == TraceEvent::Phase::Counter ? 1 : 0;
    return n;
}

size_t
TraceSink::heapFootprintBytes() const
{
    size_t n = tracks.capacity() * sizeof(tracks[0]);
    for (const auto &t : tracks)
        n += sizeof(Track) +
             t->events.capacity() * sizeof(TraceEvent);
    return n;
}

namespace {

void
appendEvent(std::string &out, bool &first, const TraceEvent &ev,
            int pid, int tid)
{
    if (!first)
        out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += escapeJson(ev.name);
    out += "\",\"ph\":\"";
    switch (ev.phase) {
    case TraceEvent::Phase::Span: out += 'X'; break;
    case TraceEvent::Phase::Counter: out += 'C'; break;
    }
    out += "\",\"pid\":" + std::to_string(pid);
    out += ",\"tid\":" + std::to_string(tid);
    out += ",\"ts\":" + std::to_string(ev.ts);
    if (ev.phase == TraceEvent::Phase::Span)
        out += ",\"dur\":" + std::to_string(ev.dur);
    if (!ev.args.empty())
        out += ",\"args\":{" + ev.args + "}";
    else if (ev.phase == TraceEvent::Phase::Counter)
        out += ",\"args\":{}";
    out += "}";
}

void
appendMeta(std::string &out, bool &first, const char *kind,
           const std::string &value, int pid, int tid)
{
    if (!first)
        out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += kind;
    out += "\",\"ph\":\"M\",\"pid\":" + std::to_string(pid);
    out += ",\"tid\":" + std::to_string(tid);
    out += ",\"args\":{\"name\":\"" + escapeJson(value) + "\"}}";
}

} // namespace

std::string
TraceSink::toChromeJson() const
{
    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    // pid per unique process name (from 1, first-seen track order);
    // tid per track (from 1, registration order).
    std::vector<std::string> processes;
    std::vector<int> pidOf(tracks.size(), 0);
    for (size_t i = 0; i < tracks.size(); ++i) {
        const std::string &proc = tracks[i]->process;
        size_t at = processes.size();
        for (size_t p = 0; p < processes.size(); ++p)
            if (processes[p] == proc) {
                at = p;
                break;
            }
        if (at == processes.size()) {
            processes.push_back(proc);
            appendMeta(out, first, "process_name", proc,
                       1 + static_cast<int>(at), 0);
        }
        pidOf[i] = 1 + static_cast<int>(at);
    }
    for (size_t i = 0; i < tracks.size(); ++i) {
        const Track &t = *tracks[i];
        const int tid = 1 + static_cast<int>(i);
        appendMeta(out, first, "thread_name", t.thread, pidOf[i],
                   tid);
        // Stable sort: equal timestamps keep append order, so the
        // exported stream is a pure function of the recorded events,
        // never of writer interleaving.
        std::vector<const TraceEvent *> ordered;
        ordered.reserve(t.events.size());
        for (const TraceEvent &ev : t.events)
            ordered.push_back(&ev);
        std::stable_sort(ordered.begin(), ordered.end(),
                         [](const TraceEvent *a, const TraceEvent *b) {
                             return a->ts < b->ts;
                         });
        for (const TraceEvent *ev : ordered)
            appendEvent(out, first, *ev, pidOf[i], tid);
    }
    out += "\n],\n";
    out += "\"displayTimeUnit\":\"ms\",\n";
    out += "\"otherData\":{";
    out += "\"clock\":\"simulated cycles (1 trace us = 1 cycle)\"";
    out += ",\"obs_events\":" + std::to_string(eventCount());
    out += ",\"obs_spans\":" + std::to_string(spanCount());
    out += ",\"obs_counters\":" + std::to_string(counterCount());
    out += ",\"trace_dropped_events\":" +
           std::to_string(droppedEvents());
    out += "}}\n";
    return out;
}

void
TraceSink::writeFile(const std::string &path) const
{
    const std::string json = toChromeJson();
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open trace output '%s'", path.c_str());
    const size_t wrote =
        std::fwrite(json.data(), 1, json.size(), f);
    if (std::fclose(f) != 0 || wrote != json.size())
        fatal("short write to trace output '%s'", path.c_str());
}

} // namespace gsuite
