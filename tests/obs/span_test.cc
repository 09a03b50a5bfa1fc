#include "tmerge/obs/span.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

namespace tmerge::obs {
namespace {

TEST(SpanTest, RecordsScopeDuration) {
  SetEnabled(true);
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("test.span.seconds");
  {
    ScopedSpan span(hist);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(hist.Count(), 1);
  EXPECT_GE(hist.Sum(), 0.005);
  SetEnabled(false);
}

TEST(SpanTest, StopReturnsSecondsAndDisarms) {
  SetEnabled(true);
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("test.span.seconds");
  ScopedSpan span(hist);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  double seconds = span.Stop();
  EXPECT_GE(seconds, 0.002);
  EXPECT_DOUBLE_EQ(span.Stop(), 0.0);  // Second stop is a no-op.
  EXPECT_EQ(hist.Count(), 1);          // Destructor records nothing more.
  SetEnabled(false);
}

TEST(SpanTest, DisarmedWhenRuntimeDisabled) {
  SetEnabled(false);
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("test.span.seconds");
  {
    ScopedSpan span(hist);
  }
  EXPECT_EQ(hist.Count(), 0);
}

// Arm state is latched at construction: enabling mid-span must not make
// the destructor record into a histogram it never timed against.
TEST(SpanTest, EnableAfterConstructionDoesNotArm) {
  SetEnabled(false);
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("test.span.seconds");
  {
    ScopedSpan span(hist);
    SetEnabled(true);
  }
  EXPECT_EQ(hist.Count(), 0);
  SetEnabled(false);
}

TEST(SpanTest, MacroRecordsIntoDefaultRegistry) {
  SetEnabled(true);
  DefaultRegistry().Reset();
  {
    TMERGE_SPAN("test.macro.span.seconds");
    TMERGE_SPAN("test.macro.span2.seconds");  // Two spans in one scope.
  }
  RegistrySnapshot snapshot = DefaultRegistry().Snapshot();
  SetEnabled(false);
  EXPECT_EQ(snapshot.histograms.at("test.macro.span.seconds").count, 1);
  EXPECT_EQ(snapshot.histograms.at("test.macro.span2.seconds").count, 1);
}

}  // namespace
}  // namespace tmerge::obs
