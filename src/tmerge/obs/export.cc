#include "tmerge/obs/export.h"

#include <cstdio>

namespace tmerge::obs {
namespace {

// Shortest round-trippable-enough representation: %.12g avoids both
// trailing-zero noise ("0.500000") and precision loss for the counters and
// second-scale sums exported here.
std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

// Metric names are dotted lowercase identifiers, optionally carrying a
// LabeledName `{key="value"}` suffix whose values may embed quotes and
// backslashes — escape both for JSON.
void AppendQuoted(std::string& out, const std::string& name) {
  out += '"';
  for (char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::string SnapshotToJson(const RegistrySnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ',';
    first = false;
    AppendQuoted(out, name);
    out += ':';
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ',';
    first = false;
    AppendQuoted(out, name);
    out += ':';
    out += FormatDouble(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    if (!first) out += ',';
    first = false;
    AppendQuoted(out, name);
    out += ":{\"count\":";
    out += std::to_string(hist.count);
    out += ",\"sum\":";
    out += FormatDouble(hist.sum);
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < hist.bucket_counts.size(); ++b) {
      if (b > 0) out += ',';
      out += "{\"le\":";
      if (b < hist.bounds.size()) {
        out += FormatDouble(hist.bounds[b]);
      } else {
        out += "\"+Inf\"";
      }
      out += ",\"count\":";
      out += std::to_string(hist.bucket_counts[b]);
      out += '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace tmerge::obs
