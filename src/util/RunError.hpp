/**
 * @file
 * Typed run-failure taxonomy shared by the engine and the suite: a
 * failed benchmark point carries a machine-readable kind (config /
 * oom / timeout), not just a message string, so sweeps and CI
 * emitters all speak one error vocabulary.
 *
 * Throwers raise RunException; BenchSession catches it (plus
 * std::bad_alloc, classified as Oom) and records the kind in the
 * SweepResult, which ResultStore surfaces as an `error_kind` CSV/JSON
 * column. Exceptions without a taxonomy land as RunError::Unknown.
 */

#ifndef GSUITE_UTIL_RUNERROR_HPP
#define GSUITE_UTIL_RUNERROR_HPP

#include <stdexcept>
#include <string>

namespace gsuite {

/** Why a run (sweep point, launch) failed. */
enum class RunError {
    None,    ///< did not fail
    Config,  ///< invalid or inconsistent configuration
    Oom,     ///< memory exhaustion (host or modeled device)
    Timeout, ///< watchdog: simulated-cycle ceiling reached
    Unknown, ///< failed without a taxonomy (legacy throwers)
};

/** Stable lowercase name ("config", "timeout", ...). */
const char *runErrorName(RunError e);

/** Exception carrying a RunError kind alongside the message. */
class RunException : public std::runtime_error
{
  public:
    RunException(RunError kind, const std::string &what)
        : std::runtime_error(what), errKind(kind)
    {
    }

    RunError kind() const { return errKind; }

  private:
    RunError errKind;
};

} // namespace gsuite

#endif // GSUITE_UTIL_RUNERROR_HPP
