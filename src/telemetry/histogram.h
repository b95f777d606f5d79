// Fixed-bucket latency histogram — the tail-latency lens shared by the
// service layer (completion latency) and the telemetry registry
// (queue-wait / execution-time distributions).
//
// Samples land in quarter-octave buckets (HDR-histogram style): values are
// scaled to ~microsecond units (ns >> 10); the first four units get
// unit-wide buckets, and every power-of-two octave above them is split
// into four linear sub-buckets, so bucket width is at most 25% of the
// value — a reported p99 is within one bucket width of the true quantile.
// Bucket 0 absorbs everything below ~1 us and the last bucket everything
// past ~2^39 us (~6.5 days).  Recording is O(1) (one bit-scan + one
// increment), memory is one fixed array — no allocation, no reservoir, no
// decay — and quantiles are exact over the recorded distribution up to
// bucket resolution.
//
// quantile(p) returns the *upper bound* of the bucket holding the p-th
// sample (the conventional conservative read: "p99 <= reported value" at
// bucket granularity).
//
// Not internally synchronized: callers record under their own lock (the
// service under its stats lock, the registry under the histogram cell's
// mutex).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace bpntt::telemetry {

class latency_histogram {
 public:
  static constexpr std::size_t kBucketsPerOctave = 4;
  static constexpr std::size_t kOctaves = 38;  // ~1 us granules up to ~2^39 us
  static constexpr std::size_t kBuckets = kBucketsPerOctave * kOctaves;

  // Record one sample in nanoseconds.
  void record_ns(std::uint64_t ns) noexcept;

  // The upper bound (in nanoseconds) of the bucket holding the sample at
  // quantile p in [0, 1]; 0 when the histogram is empty.  p = 0.5 / 0.95 /
  // 0.99 are the conventional p50/p95/p99.
  [[nodiscard]] std::uint64_t quantile_ns(double p) const noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t max_ns() const noexcept { return max_ns_; }

  // The bucket index a sample lands in, and a bucket's upper bound —
  // exposed so tests can pin the bucketing contract.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t ns) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper_ns(std::size_t bucket) noexcept;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ns_ = 0;
};

}  // namespace bpntt::telemetry
