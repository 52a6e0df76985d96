#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace screp {

namespace {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kWarn)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level.load(std::memory_order_relaxed));
}

namespace internal {

bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         g_log_level.load(std::memory_order_relaxed);
}

void LogMessage(LogLevel level, const char* file, int line,
                const std::string& message) {
  if (!LogEnabled(level)) return;
  std::fprintf(stderr, "[%s] %s:%d: %s\n", LevelName(level), file, line,
               message.c_str());
}

void CheckFailed(const char* file, int line, const char* condition,
                 const std::string& message) {
  std::fprintf(stderr, "[FATAL] %s:%d: check failed: %s %s\n", file, line,
               condition, message.c_str());
  std::abort();
}

}  // namespace internal

}  // namespace screp
