#include "src/util/log.hpp"

#include <atomic>
#include <iostream>

namespace xlf {
namespace {

// Read by every log line, on worker threads too.
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::string* g_capture = nullptr;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }
void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
void set_log_capture(std::string* sink) { g_capture = sink; }

void log_message(LogLevel level, const std::string& msg) {
  if (level < log_level()) return;
  std::string line = std::string("[xlf ") + level_name(level) + "] " + msg + "\n";
  if (g_capture != nullptr) {
    *g_capture += line;
  } else {
    std::cerr << line;
  }
}

}  // namespace xlf
