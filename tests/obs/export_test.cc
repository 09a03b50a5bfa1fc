#include "tmerge/obs/export.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tmerge::obs {
namespace {

RegistrySnapshot SampleSnapshot() {
  SetEnabled(true);
  MetricsRegistry registry;
  registry.GetCounter("a.count").Add(3);
  registry.GetGauge("g.level").Set(0.5);
  Histogram& hist = registry.GetHistogram("h.lat", {1.0, 10.0});
  hist.Record(0.5);
  hist.Record(5.0);
  hist.Record(100.0);
  RegistrySnapshot snapshot = registry.Snapshot();
  SetEnabled(false);
  return snapshot;
}

// Golden output: the serialization is part of the tooling contract (CI and
// downstream dashboards parse these lines), so byte-level changes should
// be deliberate.
TEST(ExportTest, JsonGolden) {
  EXPECT_EQ(
      SnapshotToJson(SampleSnapshot()),
      "{\"counters\":{\"a.count\":3},"
      "\"gauges\":{\"g.level\":0.5},"
      "\"histograms\":{\"h.lat\":{\"count\":3,\"sum\":105.5,"
      "\"buckets\":[{\"le\":1,\"count\":1},{\"le\":10,\"count\":1},"
      "{\"le\":\"+Inf\",\"count\":1}]}}}");
}

TEST(ExportTest, JsonOfEmptySnapshotIsValidObject) {
  EXPECT_EQ(SnapshotToJson(RegistrySnapshot{}),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

RegistrySnapshot LabeledSnapshot() {
  SetEnabled(true);
  MetricsRegistry registry;
  std::vector<MetricLabel> cam3{{"camera", "3"}};
  std::vector<MetricLabel> cam12{{"camera", "12"}};
  registry.GetCounter("stream.frames").Add(5);
  registry.GetCounter(LabeledName("stream.frames", cam12)).Add(3);
  registry.GetCounter(LabeledName("stream.frames", cam3)).Add(2);
  registry.GetGauge(LabeledName("stream.depth", cam3)).Set(4.0);
  Histogram& hist =
      registry.GetHistogram(LabeledName("stream.lat", cam3), {1.0});
  hist.Record(0.5);
  hist.Record(2.0);
  RegistrySnapshot snapshot = registry.Snapshot();
  SetEnabled(false);
  return snapshot;
}

// Labeled variants are ordinary registry names: each keeps its full
// `{key="value"}` suffix as its JSON key, quotes escaped, and sorts right
// after its unlabeled family name.
TEST(ExportTest, JsonLabeledGolden) {
  EXPECT_EQ(SnapshotToJson(LabeledSnapshot()),
            "{\"counters\":{"
            R"("stream.frames":5,)"
            R"("stream.frames{camera=\"12\"}":3,)"
            R"("stream.frames{camera=\"3\"}":2},)"
            "\"gauges\":{" R"("stream.depth{camera=\"3\"}":4)" "},"
            "\"histograms\":{"
            R"("stream.lat{camera=\"3\"}":{"count":2,"sum":2.5,)"
            R"("buckets":[{"le":1,"count":1},{"le":"+Inf","count":1}]}}})");
}

// The JSON exporter keys metrics by their full registry name; the quotes
// and backslashes a LabeledName embeds must come out JSON-escaped.
TEST(ExportTest, JsonEscapesLabeledNames) {
  SetEnabled(true);
  MetricsRegistry registry;
  registry.GetGauge(LabeledName("g.x", {{"k", "a\"b"}})).Set(0.5);
  RegistrySnapshot snapshot = registry.Snapshot();
  SetEnabled(false);
  EXPECT_EQ(SnapshotToJson(snapshot),
            "{\"counters\":{},"
            "\"gauges\":{" R"("g.x{k=\"a\\\"b\"}":0.5)" "},"
            "\"histograms\":{}}");
}

// The stream.* names these goldens exercise live in a namespace the
// cross-artifact registry owns (tools/analyze/registry.json). Asserting
// they are listed here ties the golden fixtures to the registry: renaming
// a fixture without updating the registry fails this test and the
// `tmerge_analyze` ctest in the same run, so the two artifacts cannot
// drift apart silently.
#ifdef TMERGE_REGISTRY_JSON
TEST(ExportTest, FixtureNamesAreRegistryListed) {
  std::ifstream in(TMERGE_REGISTRY_JSON);
  ASSERT_TRUE(in.is_open()) << "cannot open " << TMERGE_REGISTRY_JSON;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string registry = buf.str();
  for (const char* name : {"stream.frames", "stream.depth", "stream.lat"}) {
    EXPECT_NE(registry.find(std::string("\"") + name + "\""),
              std::string::npos)
        << name << " used by exporter goldens but not listed in "
        << TMERGE_REGISTRY_JSON;
  }
}
#endif  // TMERGE_REGISTRY_JSON

}  // namespace
}  // namespace tmerge::obs
