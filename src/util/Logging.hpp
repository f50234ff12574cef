/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: fatal() is for user error (bad
 * configuration, invalid arguments) and performs a normal exit with an
 * error code; panic() is for internal invariant violations (a gsuite
 * bug) and aborts. inform()/warn() report status without stopping.
 *
 * Verbosity is leveled. The initial level comes from the
 * SUITE_LOG_LEVEL environment variable ("quiet", "normal",
 * "verbose", or the matching integer 0-2; unset/unknown = normal)
 * and can be overridden programmatically with setLogLevel().
 * Every message is written to stderr with a single fwrite so lines
 * from concurrent sweep threads never interleave mid-line, and each
 * line carries the calling thread's log prefix (ScopedLogPrefix) so
 * suite sessions can label output per bench point.
 */

#ifndef GSUITE_UTIL_LOGGING_HPP
#define GSUITE_UTIL_LOGGING_HPP

#include <cstdarg>
#include <string>

namespace gsuite {

/** Verbosity levels for inform()-style messages. */
enum class LogLevel {
    Quiet = 0,
    Normal = 1,
    Verbose = 2,
};

/** Set the global verbosity; messages above the level are suppressed. */
void setLogLevel(LogLevel level);

/** Current global verbosity (initialized from SUITE_LOG_LEVEL). */
LogLevel logLevel();

/** Print an informative status message (printf-style). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a verbose-only status message (printf-style). */
void informVerbose(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Warn about suspicious but non-fatal conditions (printf-style). */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error (bad config, bad arguments) and
 * exit(1). Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation (a gsuite bug) and abort().
 * Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Panic with @p what when @p cond holds. Inline and allocation-free:
 * hot simulator paths check invariants on every cycle.
 *
 * @param cond Violation condition.
 * @param what Description used in the panic message.
 */
inline void
panicIf(bool cond, const char *what)
{
    if (cond) [[unlikely]]
        panic("%s", what);
}

/**
 * RAII log prefix for the calling thread: every message the thread
 * reports while the scope is alive is prefixed "[label] ". Scopes
 * nest (inner label wins, outer restored on destruction). The suite
 * uses this to tag all output of one bench point with its point
 * label.
 */
class ScopedLogPrefix
{
  public:
    explicit ScopedLogPrefix(std::string label);
    ~ScopedLogPrefix();

    ScopedLogPrefix(const ScopedLogPrefix &) = delete;
    ScopedLogPrefix &operator=(const ScopedLogPrefix &) = delete;

  private:
    std::string saved;
};

} // namespace gsuite

#endif // GSUITE_UTIL_LOGGING_HPP
