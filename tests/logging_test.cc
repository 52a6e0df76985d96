#include "common/logging.h"

#include <gtest/gtest.h>

#include <string>

namespace screp {
namespace {

/// Restores the process-wide threshold when a test ends.
class LoggingTest : public ::testing::Test {
 protected:
  void TearDown() override { SetLogLevel(saved_); }

  const LogLevel saved_ = GetLogLevel();
};

TEST_F(LoggingTest, SuppressedLevelDoesNotEvaluateOperands) {
  SetLogLevel(LogLevel::kWarn);
  int evaluated = 0;
  auto operand = [&evaluated]() {
    ++evaluated;
    return std::string("costly");
  };
  ::testing::internal::CaptureStderr();
  SCREP_LOG(kDebug) << "value " << operand();
  SCREP_LOG(kInfo) << operand() << operand();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(evaluated, 0);
}

TEST_F(LoggingTest, EnabledLevelStillPrints) {
  SetLogLevel(LogLevel::kDebug);
  int evaluated = 0;
  auto operand = [&evaluated]() {
    ++evaluated;
    return 42;
  };
  ::testing::internal::CaptureStderr();
  SCREP_LOG(kDebug) << "answer=" << operand();
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(evaluated, 1);
  EXPECT_NE(out.find("[DEBUG]"), std::string::npos) << out;
  EXPECT_NE(out.find("answer=42"), std::string::npos) << out;
}

TEST_F(LoggingTest, LogIsOneStatementInsideAnUnbracedIf) {
  SetLogLevel(LogLevel::kWarn);
  bool else_taken = false;
  ::testing::internal::CaptureStderr();
  if (else_taken)
    SCREP_LOG(kWarn) << "not reached";
  else
    else_taken = true;
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_TRUE(else_taken);
}

}  // namespace
}  // namespace screp
