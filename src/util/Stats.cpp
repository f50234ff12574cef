#include "util/Stats.hpp"

namespace gsuite {

void
StatSet::set(const std::string &name, double value)
{
    stats[name] = value;
}

double
StatSet::get(const std::string &name) const
{
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second;
}

bool
StatSet::has(const std::string &name) const
{
    return stats.find(name) != stats.end();
}

std::vector<std::string>
StatSet::names() const
{
    std::vector<std::string> out;
    out.reserve(stats.size());
    for (const auto &[name, value] : stats)
        out.push_back(name);
    return out;
}

} // namespace gsuite
