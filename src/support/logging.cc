#include "support/logging.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <mutex>

namespace ark::support {

namespace {

/** Severity tag attached to each emitted log line. */
enum class LogSeverity : int {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Panic = 3,
};

LogLevel globalLevel = LogLevel::Normal;

std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

const char *
severityTag(LogSeverity severity)
{
    switch (severity) {
    case LogSeverity::Debug:
        return "debug";
    case LogSeverity::Info:
        return "info";
    case LogSeverity::Warn:
        return "warn";
    case LogSeverity::Panic:
        return "panic";
    }
    return "info";
}

/** "HH:MM:SS.mmm" wall-clock stamp for the current moment. */
std::string
timestamp()
{
    using namespace std::chrono;
    const auto now = system_clock::now();
    const auto ms =
        duration_cast<milliseconds>(now.time_since_epoch()) % 1000;
    const std::time_t t = system_clock::to_time_t(now);
    std::tm tm{};
#if defined(_WIN32)
    localtime_s(&tm, &t);
#else
    localtime_r(&t, &tm);
#endif
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d.%03d", tm.tm_hour,
                  tm.tm_min, tm.tm_sec, static_cast<int>(ms.count()));
    return buf;
}

/**
 * Formats and writes one complete line to stderr under the logging
 * mutex. Building the whole line first and writing it with a single
 * call keeps concurrent workers' messages from interleaving mid-line.
 */
void
emit(LogSeverity severity, const std::string &message)
{
    std::string line = timestamp();
    line += " ";
    line += severityTag(severity);
    line += ": ";
    line += message;
    line += "\n";

    std::lock_guard<std::mutex> lock(logMutex());
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

LogLevel
logLevel()
{
    return globalLevel;
}

void
inform(const std::string &message)
{
    if (globalLevel >= LogLevel::Normal)
        emit(LogSeverity::Info, message);
}

void
warn(const std::string &message)
{
    emit(LogSeverity::Warn, message);
}

void
debug(const std::string &message)
{
    if (globalLevel >= LogLevel::Debug)
        emit(LogSeverity::Debug, message);
}

void
panic(const std::string &message)
{
    emit(LogSeverity::Panic, message);
    std::abort();
}

} // namespace ark::support
