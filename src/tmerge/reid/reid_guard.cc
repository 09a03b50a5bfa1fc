#include "tmerge/reid/reid_guard.h"

#include <cstddef>

#include "tmerge/obs/metrics.h"

namespace tmerge::reid {

namespace {

/// Extra attempts after the first failed embed (so 2 means up to 3
/// attempts per pull).
constexpr int kMaxRetries = 2;

/// Simulated backoff charged before retry k (1-based) as
/// kBackoffBaseSeconds * 2^(k-1). Deterministic exponential backoff on
/// the sim clock; batched retries charge one backoff per retry round (the
/// whole batch waits together), single pulls one per retry.
constexpr double kBackoffBaseSeconds = 5e-4;

void CountRetries(std::int64_t count) {
  if (count > 0 && obs::Enabled()) {
    static obs::Counter& retries =
        obs::DefaultRegistry().GetCounter("reid.retries");
    retries.Add(count);
  }
}

void CountBreakerOpen() {
  if (obs::Enabled()) {
    static obs::Counter& opened =
        obs::DefaultRegistry().GetCounter("reid.breaker_open");
    opened.Add();
  }
}

}  // namespace

void ReidGuard::RecordOutcome(bool success) {
  if (success) {
    consecutive_failures_ = 0;
    return;
  }
  ++consecutive_failures_;
  if (!breaker_open_ && policy_.breaker_failure_threshold > 0 &&
      consecutive_failures_ >= policy_.breaker_failure_threshold) {
    breaker_open_ = true;
    CountBreakerOpen();
  }
}

FeatureView ReidGuard::TryGet(const CropRef& crop) {
  if (breaker_open_) return FeatureView();
  for (int attempt = 0;; ++attempt) {
    core::Result<FeatureView> result = cache_.TryGetOrEmbed(
        crop, model_, meter_, static_cast<std::uint64_t>(attempt));
    if (result.ok()) {
      RecordOutcome(true);
      return result.value();
    }
    if (attempt >= kMaxRetries) break;
    meter_.ChargePenalty(kBackoffBaseSeconds *
                         static_cast<double>(std::int64_t{1} << attempt));
    ++retries_;
    CountRetries(1);
  }
  RecordOutcome(false);
  return FeatureView();
}

std::vector<FeatureView> ReidGuard::TryGetBatch(
    const std::vector<CropRef>& crops) {
  if (breaker_open_) return std::vector<FeatureView>(crops.size());
  std::vector<FeatureView> out =
      cache_.TryGetOrEmbedBatch(crops, model_, meter_, 0);
  for (int attempt = 1; attempt <= kMaxRetries; ++attempt) {
    std::vector<std::size_t> failed;
    std::vector<CropRef> retry;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!out[i].valid()) {
        failed.push_back(i);
        retry.push_back(crops[i]);
      }
    }
    if (failed.empty()) break;
    // One backoff per retry round: the whole retry batch waits together.
    meter_.ChargePenalty(kBackoffBaseSeconds *
                         static_cast<double>(std::int64_t{1}
                                             << (attempt - 1)));
    retries_ += static_cast<std::int64_t>(retry.size());
    CountRetries(static_cast<std::int64_t>(retry.size()));
    std::vector<FeatureView> retried = cache_.TryGetOrEmbedBatch(
        retry, model_, meter_, static_cast<std::uint64_t>(attempt));
    for (std::size_t j = 0; j < failed.size(); ++j) {
      out[failed[j]] = retried[j];
    }
  }
  // Outcomes are recorded in crop order so breaker behaviour is identical
  // to issuing the pulls one by one.
  for (FeatureView feature : out) {
    RecordOutcome(feature.valid());
  }
  return out;
}

}  // namespace tmerge::reid
