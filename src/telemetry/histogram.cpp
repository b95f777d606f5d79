#include "telemetry/histogram.h"

#include <algorithm>
#include <bit>

namespace bpntt::telemetry {

namespace {

// Samples are bucketed in ~microsecond units: ns >> kUnitShift.  1024 ns
// "microseconds" keep every boundary a shift, no division anywhere.
constexpr unsigned kUnitShift = 10;

}  // namespace

std::size_t latency_histogram::bucket_of(std::uint64_t ns) noexcept {
  const std::uint64_t u = ns >> kUnitShift;
  // The first octaves are narrower than four units: units 0..3 get their
  // own unit-wide buckets, keeping every boundary exact.
  if (u < kBucketsPerOctave) return static_cast<std::size_t>(u);
  const unsigned msb = static_cast<unsigned>(std::bit_width(u)) - 1;  // >= 2
  // The two bits below the msb pick the linear quarter of the octave.
  const std::size_t bucket = (static_cast<std::size_t>(msb) - 1) * kBucketsPerOctave +
                             static_cast<std::size_t>((u >> (msb - 2)) & 3);
  return std::min(bucket, kBuckets - 1);
}

std::uint64_t latency_histogram::bucket_upper_ns(std::size_t bucket) noexcept {
  bucket = std::min(bucket, kBuckets - 1);
  if (bucket < kBucketsPerOctave) {
    return static_cast<std::uint64_t>(bucket + 1) << kUnitShift;
  }
  const std::size_t msb = bucket / kBucketsPerOctave + 1;
  const std::size_t sub = bucket % kBucketsPerOctave;
  const std::uint64_t upper_u =
      (1ULL << msb) + (static_cast<std::uint64_t>(sub + 1) << (msb - 2));
  return upper_u << kUnitShift;
}

void latency_histogram::record_ns(std::uint64_t ns) noexcept {
  ++counts_[bucket_of(ns)];
  ++count_;
  max_ns_ = std::max(max_ns_, ns);
}

std::uint64_t latency_histogram::quantile_ns(double p) const noexcept {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  // The rank of the quantile sample, 1-based: ceil(p * count), at least 1.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(p * static_cast<double>(count_) + 0.9999999));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      // The top bucket is open-ended; the recorded maximum is the honest
      // bound there.
      return b == kBuckets - 1 ? max_ns_ : std::min(bucket_upper_ns(b), max_ns_);
    }
  }
  return max_ns_;
}

}  // namespace bpntt::telemetry
