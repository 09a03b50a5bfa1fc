#include "tmerge/fault/registry.h"

#include <algorithm>
#include <charconv>

#include "tmerge/core/mutex.h"
#include "tmerge/core/rng.h"
#include "tmerge/obs/metrics.h"

namespace tmerge::fault {

namespace internal {

std::uint64_t HashName(std::string_view name) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;  // FNV-1a offset basis.
  for (char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;  // FNV-1a prime.
  }
  return hash;
}

double KeyedUniform(std::uint64_t seed, std::string_view name,
                    std::uint64_t key) {
  // Two mixing rounds so related keys (key, key ^ 1, ...) decorrelate.
  std::uint64_t mixed =
      core::SplitMix64(core::SplitMix64(seed ^ HashName(name)) ^ key);
  // Top 53 bits -> uniform double in [0, 1), portable across platforms.
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

}  // namespace internal

void Registry::Arm(const std::string& point, const FaultSpec& spec) {
  FaultSpec clamped;
  clamped.probability = std::clamp(spec.probability, 0.0, 1.0);
  clamped.latency_seconds = std::max(spec.latency_seconds, 0.0);
  core::MutexLock lock(mutex_);
  auto [it, inserted] = points_.try_emplace(point);
  it->second.spec = clamped;
  if (inserted) armed_count_.fetch_add(1, std::memory_order_relaxed);
}

void Registry::Disarm(const std::string& point) {
  core::MutexLock lock(mutex_);
  if (points_.erase(point) > 0) {
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Registry::Reset() {
  core::MutexLock lock(mutex_);
  points_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
  total_fires_.store(0, std::memory_order_relaxed);
}

void Registry::SetSeed(std::uint64_t seed) {
  seed_.store(seed, std::memory_order_relaxed);
}

std::uint64_t Registry::seed() const {
  return seed_.load(std::memory_order_relaxed);
}

bool Registry::Lookup(std::string_view point, FaultSpec& spec) const {
  core::MutexLock lock(mutex_);
  auto it = points_.find(point);
  if (it == points_.end()) return false;
  spec = it->second.spec;
  return true;
}

void Registry::CountFire(std::string_view point) {
  total_fires_.fetch_add(1, std::memory_order_relaxed);
  {
    core::MutexLock lock(mutex_);
    auto it = points_.find(point);
    if (it != points_.end()) ++it->second.fires;
  }
  if (obs::Enabled()) {
    static obs::Counter& injected =
        obs::DefaultRegistry().GetCounter("fault.injected");
    injected.Add();
  }
}

bool Registry::ShouldFail(std::string_view point, std::uint64_t key) {
  FaultSpec spec;
  if (!Lookup(point, spec)) return false;
  // Edges are exact: 0 never fires (uniform < 0 is impossible) and 1
  // always fires (uniform is in [0, 1), strictly below 1).
  if (!(internal::KeyedUniform(seed(), point, key) < spec.probability)) {
    return false;
  }
  CountFire(point);
  return true;
}

double Registry::LatencySpike(std::string_view point, std::uint64_t key) {
  FaultSpec spec;
  if (!Lookup(point, spec)) return 0.0;
  if (!(internal::KeyedUniform(seed(), point, key) < spec.probability)) {
    return 0.0;
  }
  CountFire(point);
  return spec.latency_seconds;
}

std::int64_t Registry::fires(std::string_view point) const {
  core::MutexLock lock(mutex_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fires;
}

namespace {

bool ParseSpecDouble(std::string_view field, double& out) {
  auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), out);
  return ec == std::errc() && ptr == field.data() + field.size();
}

}  // namespace

core::Status Registry::ApplySpec(std::string_view spec) {
  // Parse everything before arming anything: an invalid entry must not
  // leave the registry half-configured.
  std::map<std::string, FaultSpec> parsed;
  std::string_view rest = spec;
  while (!rest.empty()) {
    std::size_t semi = rest.find(';');
    std::string_view entry = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view()
                                          : rest.substr(semi + 1);
    if (entry.empty()) continue;
    std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return core::Status::InvalidArgument(
          "fault spec entry \"" + std::string(entry) +
          "\" is not point=probability[@latency]");
    }
    std::string_view point = entry.substr(0, eq);
    std::string_view value = entry.substr(eq + 1);
    FaultSpec fault;
    std::size_t at = value.find('@');
    if (at != std::string_view::npos) {
      if (!ParseSpecDouble(value.substr(at + 1), fault.latency_seconds) ||
          fault.latency_seconds < 0.0) {
        return core::Status::InvalidArgument(
            "fault spec entry \"" + std::string(entry) +
            "\" has a malformed latency (want seconds >= 0)");
      }
      value = value.substr(0, at);
    }
    if (!ParseSpecDouble(value, fault.probability) ||
        fault.probability < 0.0 || fault.probability > 1.0) {
      return core::Status::InvalidArgument(
          "fault spec entry \"" + std::string(entry) +
          "\" has a malformed probability (want a number in [0, 1])");
    }
    parsed[std::string(point)] = fault;
  }
  for (const auto& [point, fault] : parsed) Arm(point, fault);
  return core::Status::Ok();
}

Registry& GlobalRegistry() {
  // Leaked on purpose: failpoints may be consulted during static
  // destruction of other objects.
  static Registry* registry = new Registry();  // tmerge-lint: allow(naked-new)
  return *registry;
}

}  // namespace tmerge::fault
