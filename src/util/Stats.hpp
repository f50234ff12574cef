/**
 * @file
 * Lightweight named-statistics registry.
 *
 * The simulator and profiler expose their measurements through named
 * scalar statistics so bench harnesses can query metrics generically,
 * the way nvprof / GPGPU-Sim expose counters by name.
 */

#ifndef GSUITE_UTIL_STATS_HPP
#define GSUITE_UTIL_STATS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gsuite {

/** A named group of scalar statistics. */
class StatSet
{
  public:
    /** Set the named value. */
    void set(const std::string &name, double value);

    /** Read a value; returns 0 for unknown names. */
    double get(const std::string &name) const;

    /** True if the stat exists. */
    bool has(const std::string &name) const;

    /** All names in sorted order. */
    std::vector<std::string> names() const;

  private:
    std::map<std::string, double> stats;
};

} // namespace gsuite

#endif // GSUITE_UTIL_STATS_HPP
