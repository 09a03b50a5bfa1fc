#include "tmerge/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tmerge::obs {
namespace {

std::vector<std::int64_t> ValuesOfThread(const TraceSnapshot& snapshot,
                                         std::int32_t thread_index) {
  std::vector<std::int64_t> values;
  for (const TraceEvent& event : snapshot.events) {
    if (event.thread_index == thread_index) {
      values.push_back(event.args[0].value);
    }
  }
  return values;
}

TEST(TraceRecorderTest, StoppedByDefaultAndRecordIsANoOp) {
  TraceRecorder recorder;
  EXPECT_FALSE(recorder.recording());
  recorder.Record("trace.test.event", TracePhase::kInstant);
  TraceSnapshot snapshot = recorder.Snapshot();
  EXPECT_TRUE(snapshot.events.empty());
  EXPECT_EQ(snapshot.total_recorded, 0);
}

TEST(TraceRecorderTest, RecordCapturesFieldsAndArgs) {
  TraceRecorder recorder;
  recorder.Start();
  recorder.RecordAt(1500, "trace.test.span", TracePhase::kBegin, 0.25,
                    TraceArg{"camera", 7}, TraceArg{"window", 3});
  recorder.Stop();
  TraceSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.events.size(), 1u);
  const TraceEvent& event = snapshot.events[0];
  EXPECT_STREQ(event.name, "trace.test.span");
  EXPECT_EQ(event.phase, TracePhase::kBegin);
  EXPECT_EQ(event.steady_ns, 1500);
  EXPECT_EQ(event.sim_seconds, 0.25);
  EXPECT_STREQ(event.args[0].key, "camera");
  EXPECT_EQ(event.args[0].value, 7);
  EXPECT_STREQ(event.args[1].key, "window");
  EXPECT_EQ(event.args[1].value, 3);
}

TEST(TraceRecorderTest, StopFreezesAndBufferedEventsStayReadable) {
  TraceRecorder recorder;
  recorder.Start();
  recorder.Record("trace.test.event", TracePhase::kInstant);
  recorder.Stop();
  recorder.Record("trace.test.late", TracePhase::kInstant);
  TraceSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.events.size(), 1u);
  EXPECT_STREQ(snapshot.events[0].name, "trace.test.event");
}

TEST(TraceRecorderTest, StartClearsPreviousRecording) {
  TraceRecorder recorder;
  recorder.Start();
  recorder.Record("trace.test.first", TracePhase::kInstant);
  recorder.Start();  // Restart = fresh flight.
  recorder.Record("trace.test.second", TracePhase::kInstant);
  recorder.Stop();
  TraceSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.events.size(), 1u);
  EXPECT_STREQ(snapshot.events[0].name, "trace.test.second");
}

TEST(TraceRecorderTest, RingWraparoundKeepsNewestEvents) {
  TraceRecorderOptions options;
  options.events_per_thread = 4;  // Already a power of two.
  TraceRecorder recorder(options);
  recorder.Start();
  for (std::int64_t i = 0; i < 11; ++i) {
    recorder.RecordAt(i, "trace.test.event", TracePhase::kInstant,
                      kTraceNoSimTime, TraceArg{"i", i});
  }
  recorder.Stop();
  TraceSnapshot snapshot = recorder.Snapshot();
  EXPECT_EQ(snapshot.total_recorded, 11);
  ASSERT_EQ(snapshot.events.size(), 4u);  // The flight-recorder contract.
  EXPECT_EQ(ValuesOfThread(snapshot, 0),
            (std::vector<std::int64_t>{7, 8, 9, 10}));
}

TEST(TraceRecorderTest, MultiThreadWraparoundKeepsNewestPerThread) {
  constexpr int kThreads = 4;
  constexpr std::int64_t kEvents = 1000;
  TraceRecorderOptions options;
  options.events_per_thread = 64;
  TraceRecorder recorder(options);
  recorder.Start();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (std::int64_t i = 0; i < kEvents; ++i) {
        recorder.Record("trace.test.event", TracePhase::kInstant,
                        kTraceNoSimTime, TraceArg{"i", i});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  recorder.Stop();

  TraceSnapshot snapshot = recorder.Snapshot();
  EXPECT_EQ(snapshot.total_recorded, kThreads * kEvents);
  EXPECT_EQ(snapshot.dropped_threads, 0);
  ASSERT_EQ(snapshot.events.size(), static_cast<std::size_t>(kThreads * 64));
  // Thread indices are registration-ordered; which OS thread got which
  // index is scheduling-dependent, but each index must hold exactly the
  // newest 64 events of its thread, in record order.
  std::vector<std::int64_t> expected;
  for (std::int64_t i = kEvents - 64; i < kEvents; ++i) expected.push_back(i);
  for (std::int32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ValuesOfThread(snapshot, t), expected) << "thread " << t;
  }
}

TEST(TraceRecorderTest, SnapshotWhileRecordingSeesOnlyConsistentEvents) {
  // A reader racing a wrapping writer must never surface a torn slot:
  // every event it returns carries the name/value pairing some complete
  // write published. With a 2-slot ring and a tight writer loop this
  // exercises the seqlock reject paths heavily.
  TraceRecorderOptions options;
  options.events_per_thread = 2;
  TraceRecorder recorder(options);
  recorder.Start();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      recorder.Record("trace.test.event", TracePhase::kInstant,
                      kTraceNoSimTime, TraceArg{"i", i++});
    }
  });
  for (int round = 0; round < 200; ++round) {
    TraceSnapshot snapshot = recorder.Snapshot();
    EXPECT_LE(snapshot.events.size(), 2u);
    for (const TraceEvent& event : snapshot.events) {
      EXPECT_STREQ(event.name, "trace.test.event");
      EXPECT_STREQ(event.args[0].key, "i");
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  recorder.Stop();
}

TEST(TraceRecorderTest, MemoryIsBoundedAndExcessThreadsAreDropped) {
  TraceRecorderOptions options;
  options.events_per_thread = 16;
  options.max_threads = 2;
  TraceRecorder recorder(options);
  recorder.Start();
  EXPECT_EQ(recorder.ApproxMemoryBytes(), 0u);  // Rings are lazy.

  auto record_some = [&recorder] {
    for (int i = 0; i < 100; ++i) {
      recorder.Record("trace.test.event", TracePhase::kInstant);
    }
  };
  std::thread(record_some).join();
  const std::size_t per_thread = recorder.ApproxMemoryBytes();
  EXPECT_GT(per_thread, 0u);
  std::thread(record_some).join();
  EXPECT_EQ(recorder.ApproxMemoryBytes(), 2 * per_thread);
  // Third thread: over max_threads, dropped, no new ring.
  std::thread(record_some).join();
  recorder.Stop();
  EXPECT_EQ(recorder.ApproxMemoryBytes(), 2 * per_thread);

  TraceSnapshot snapshot = recorder.Snapshot();
  EXPECT_EQ(snapshot.dropped_threads, 1);
  EXPECT_EQ(snapshot.total_recorded, 200);  // The dropped thread's 100 gone.
  EXPECT_EQ(snapshot.events.size(), 32u);   // 2 threads x 16-slot rings.
}

TEST(TraceRecorderTest, SnapshotLastNPerThreadTrims) {
  TraceRecorder recorder;
  recorder.Start();
  for (std::int64_t i = 0; i < 10; ++i) {
    recorder.RecordAt(i, "trace.test.event", TracePhase::kInstant,
                      kTraceNoSimTime, TraceArg{"i", i});
  }
  recorder.Stop();
  TraceSnapshot snapshot = recorder.Snapshot(3);
  ASSERT_EQ(snapshot.events.size(), 3u);
  EXPECT_EQ(snapshot.total_recorded, 10);
  EXPECT_EQ(ValuesOfThread(snapshot, 0),
            (std::vector<std::int64_t>{7, 8, 9}));
}

TEST(TraceRecorderTest, SnapshotMergesThreadsInTimeOrder) {
  TraceRecorder recorder;
  recorder.Start();
  recorder.RecordAt(300, "trace.test.late", TracePhase::kInstant);
  std::thread([&recorder] {
    recorder.RecordAt(100, "trace.test.early", TracePhase::kInstant);
  }).join();
  recorder.Stop();
  TraceSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.events.size(), 2u);
  EXPECT_STREQ(snapshot.events[0].name, "trace.test.early");
  EXPECT_STREQ(snapshot.events[1].name, "trace.test.late");
}

// Byte-exact golden: the exporter's output is a tooling contract
// (chrome://tracing, Perfetto, tools/trace_summarize.py and the CI
// trace-smoke leg all parse it), so format drift should be deliberate.
TEST(ChromeTraceExportTest, Golden) {
  TraceRecorder recorder;
  recorder.Start();
  recorder.RecordAt(1000, "stream.frame.ingest", TracePhase::kBegin, 0.5,
                    TraceArg{"camera", 3});
  recorder.RecordAt(2500, "stream.frame.ingest", TracePhase::kEnd);
  recorder.RecordAt(3000, "stream.director.admit", TracePhase::kInstant,
                    kTraceNoSimTime, TraceArg{"camera", 3},
                    TraceArg{"pairs", 12});
  recorder.RecordAt(4000, "stream.queued_frames", TracePhase::kCounter,
                    kTraceNoSimTime, TraceArg{"value", 7});
  recorder.Stop();
  EXPECT_EQ(
      ExportChromeTrace(recorder.Snapshot()),
      "{\"traceEvents\":[\n"
      "{\"name\":\"stream.frame.ingest\",\"cat\":\"tmerge\",\"ph\":\"B\","
      "\"pid\":1,\"tid\":0,\"ts\":0.000,"
      "\"args\":{\"camera\":3,\"sim_s\":0.5}},\n"
      "{\"name\":\"stream.frame.ingest\",\"cat\":\"tmerge\",\"ph\":\"E\","
      "\"pid\":1,\"tid\":0,\"ts\":1.500},\n"
      "{\"name\":\"stream.director.admit\",\"cat\":\"tmerge\",\"ph\":\"i\","
      "\"pid\":1,\"tid\":0,\"ts\":2.000,\"s\":\"t\","
      "\"args\":{\"camera\":3,\"pairs\":12}},\n"
      "{\"name\":\"stream.queued_frames\",\"cat\":\"tmerge\",\"ph\":\"C\","
      "\"pid\":1,\"tid\":0,\"ts\":3.000,\"args\":{\"value\":7}}\n"
      "],\"displayTimeUnit\":\"ms\","
      "\"otherData\":{\"recorded\":4,\"exported\":4,\"dropped_threads\":0}}\n");
}

TEST(ChromeTraceExportTest, EmptySnapshotIsAValidTrace) {
  EXPECT_EQ(ExportChromeTrace(TraceSnapshot{}),
            "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\","
            "\"otherData\":{\"recorded\":0,\"exported\":0,"
            "\"dropped_threads\":0}}\n");
}

// A wrapped ring exports fewer events than were recorded, and the dump
// says by how much.
TEST(ChromeTraceExportTest, ReportsRecordedAndExportedCounts) {
  TraceRecorderOptions options;
  options.events_per_thread = 4;
  TraceRecorder recorder(options);
  recorder.Start();
  for (std::int64_t i = 0; i < 10; ++i) {
    recorder.RecordAt(i, "trace.test.event", TracePhase::kInstant);
  }
  recorder.Stop();
  const std::string trace = ExportChromeTrace(recorder.Snapshot());
  EXPECT_NE(trace.find("\"otherData\":{\"recorded\":10,\"exported\":4,"
                       "\"dropped_threads\":0}"),
            std::string::npos)
      << trace;
}

TEST(ChromeTraceExportTest, StreamAndFileMatchTheString) {
  TraceRecorder recorder;
  recorder.Start();
  recorder.RecordAt(10, "trace.test.event", TracePhase::kInstant, 1.0);
  recorder.Stop();
  TraceSnapshot snapshot = recorder.Snapshot();
  const std::string expected = ExportChromeTrace(snapshot);

  std::ostringstream os;
  WriteChromeTrace(os, snapshot);
  EXPECT_EQ(os.str(), expected);

  const std::string path = testing::TempDir() + "/tmerge_trace_test.json";
  ASSERT_TRUE(WriteChromeTraceFile(path, snapshot));
  std::ifstream in(path);
  std::stringstream read_back;
  read_back << in.rdbuf();
  EXPECT_EQ(read_back.str(), expected);
}

TEST(ChromeTraceExportTest, WriteFileFailsOnUnwritablePath) {
  EXPECT_FALSE(
      WriteChromeTraceFile("/nonexistent-dir/trace.json", TraceSnapshot{}));
}

TEST(TraceScopeTest, EmitsBeginEndPairWithSharedArgs) {
  TraceRecorder& recorder = TraceRecorder::Default();
  recorder.Start();
  {
    TMERGE_TRACE_SCOPE("trace.test.scope", 2.5, {"camera", 9});
    TMERGE_TRACE_INSTANT("trace.test.inside");
  }
  recorder.Stop();
  TraceSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.events.size(), 3u);
  EXPECT_STREQ(snapshot.events[0].name, "trace.test.scope");
  EXPECT_EQ(snapshot.events[0].phase, TracePhase::kBegin);
  EXPECT_EQ(snapshot.events[0].sim_seconds, 2.5);
  EXPECT_STREQ(snapshot.events[1].name, "trace.test.inside");
  EXPECT_STREQ(snapshot.events[2].name, "trace.test.scope");
  EXPECT_EQ(snapshot.events[2].phase, TracePhase::kEnd);
  // End inherits the begin's args so either edge identifies the camera.
  EXPECT_STREQ(snapshot.events[2].args[0].key, "camera");
  EXPECT_EQ(snapshot.events[2].args[0].value, 9);
}

TEST(TraceScopeTest, StopMidScopeDropsTheEndEventWithoutCrashing) {
  TraceRecorder& recorder = TraceRecorder::Default();
  recorder.Start();
  {
    TMERGE_TRACE_SCOPE("trace.test.scope");
    recorder.Stop();  // Recording toggles off mid-scope.
  }  // The destructor's end record hits the closed gate: dropped, no crash.
  TraceSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.events.size(), 1u);
  EXPECT_EQ(snapshot.events[0].phase, TracePhase::kBegin);
  // trace_summarize.py reports such ring-trimmed/gate-dropped partners as
  // "unbalanced" rather than inventing a duration.
}

}  // namespace
}  // namespace tmerge::obs
