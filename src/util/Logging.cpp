#include "util/Logging.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace gsuite {

namespace {

/** Parse SUITE_LOG_LEVEL once; unset/unknown = Normal. */
LogLevel
levelFromEnv()
{
    const char *env = std::getenv("SUITE_LOG_LEVEL");
    if (!env || !*env)
        return LogLevel::Normal;
    if (!std::strcmp(env, "quiet") || !std::strcmp(env, "0"))
        return LogLevel::Quiet;
    if (!std::strcmp(env, "normal") || !std::strcmp(env, "1"))
        return LogLevel::Normal;
    if (!std::strcmp(env, "verbose") || !std::strcmp(env, "2"))
        return LogLevel::Verbose;
    std::fprintf(stderr,
                 "warn: SUITE_LOG_LEVEL=%s not recognized "
                 "(want quiet|normal|verbose or 0-2)\n",
                 env);
    return LogLevel::Normal;
}

LogLevel &
levelRef()
{
    static LogLevel level = levelFromEnv();
    return level;
}

std::string &
prefixRef()
{
    thread_local std::string prefix;
    return prefix;
}

/**
 * Render "<tag><prefix>message\n" into one buffer and write it with
 * a single fwrite so concurrent sweep threads never interleave
 * mid-line.
 */
void
vreport(const char *tag, const char *fmt, va_list args)
{
    va_list measure;
    va_copy(measure, args);
    const int body = std::vsnprintf(nullptr, 0, fmt, measure);
    va_end(measure);

    std::string line = tag;
    line += prefixRef();
    if (body > 0) {
        const size_t head = line.size();
        line.resize(head + static_cast<size_t>(body) + 1);
        std::vsnprintf(&line[head],
                       static_cast<size_t>(body) + 1, fmt, args);
        line.resize(head + static_cast<size_t>(body));
    }
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), stderr);
}

} // namespace

void
setLogLevel(LogLevel level)
{
    levelRef() = level;
}

LogLevel
logLevel()
{
    return levelRef();
}

ScopedLogPrefix::ScopedLogPrefix(std::string label)
    : saved(prefixRef())
{
    std::string prefix = "[";
    prefix += label;
    prefix += "] ";
    prefixRef() = std::move(prefix);
}

ScopedLogPrefix::~ScopedLogPrefix()
{
    prefixRef() = saved;
}

void
inform(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Normal)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("info: ", fmt, args);
    va_end(args);
}

void
informVerbose(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Verbose)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("info: ", fmt, args);
    va_end(args);
}

void
warn(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Normal)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("warn: ", fmt, args);
    va_end(args);
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("fatal: ", fmt, args);
    va_end(args);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("panic: ", fmt, args);
    va_end(args);
    std::abort();
}

} // namespace gsuite
