// Minimal leveled logger.
//
// The simulator and the reliability manager emit occasional diagnostic
// lines (reconfiguration events, calibration summaries). A global
// level keeps example/bench output clean by default while tests can
// raise verbosity when debugging. A line below the level costs one
// relaxed load: it builds no stream and formats none of its operands.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace xlf {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

LogLevel log_level();
void set_log_level(LogLevel level);

// Sink for captured output in tests; nullptr restores stderr.
void set_log_capture(std::string* sink);

void log_message(LogLevel level, const std::string& msg);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {
    if (level >= log_level()) stream_.emplace();
  }
  ~LogLine() {
    if (stream_.has_value()) log_message(level_, stream_->str());
  }
  template <class T>
  LogLine& operator<<(const T& value) {
    if (stream_.has_value()) *stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  // Engaged only when the line is at or above the level at creation.
  std::optional<std::ostringstream> stream_;
};
}  // namespace detail

inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::kDebug); }
inline detail::LogLine log_info() { return detail::LogLine(LogLevel::kInfo); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::kWarn); }
inline detail::LogLine log_error() { return detail::LogLine(LogLevel::kError); }

}  // namespace xlf
