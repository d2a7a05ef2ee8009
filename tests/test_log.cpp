#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "src/util/log.hpp"

namespace xlf {
namespace {

// An operand that counts how often it is formatted.
struct Counted {
  int* formatted;
  friend std::ostream& operator<<(std::ostream& out, const Counted& c) {
    ++*c.formatted;
    return out << "counted";
  }
};

// Restores the level and the capture sink however a test ends.
class LogTest : public testing::Test {
 protected:
  void SetUp() override {
    saved_ = log_level();
    set_log_capture(&captured_);
  }
  void TearDown() override {
    set_log_capture(nullptr);
    set_log_level(saved_);
  }

  std::string captured_;
  LogLevel saved_ = LogLevel::kWarn;
};

TEST_F(LogTest, LinesBelowTheLevelFormatNothing) {
  set_log_level(LogLevel::kWarn);
  int formatted = 0;
  log_debug() << "t " << Counted{&formatted} << " -> " << 7;
  log_info() << "t " << Counted{&formatted} << " -> " << 7;
  EXPECT_EQ(formatted, 0);
  EXPECT_EQ(captured_, "");

  set_log_level(LogLevel::kOff);
  log_error() << Counted{&formatted};
  EXPECT_EQ(formatted, 0);
  EXPECT_EQ(captured_, "");
}

TEST_F(LogTest, LinesAtOrAboveTheLevelAreUnchanged) {
  set_log_level(LogLevel::kInfo);
  int formatted = 0;
  log_info() << "reliability manager: t " << 3 << " -> " << 4 << " at "
             << 12500.5 << " cycles " << Counted{&formatted};
  log_warn() << "warned";
  log_debug() << "dropped " << Counted{&formatted};
  EXPECT_EQ(formatted, 1);
  EXPECT_EQ(captured_,
            "[xlf INFO] reliability manager: t 3 -> 4 at 12500.5 cycles "
            "counted\n"
            "[xlf WARN] warned\n");
}

}  // namespace
}  // namespace xlf
