// latency_histogram tests: the bucketing contract (a value lands strictly
// below its bucket's upper bound, buckets are monotone, resolution is at
// most ~25%), quantile semantics against exactly-known distributions, and
// bucket-wise merging.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/xoshiro.h"
#include "telemetry/histogram.h"

namespace bpntt::service {
namespace {

using telemetry::latency_histogram;

TEST(LatencyHistogram, ValuesLandStrictlyBelowTheirBucketUpperBound) {
  common::xoshiro256ss rng(41);
  std::vector<std::uint64_t> probes = {0, 1, 1023, 1024, 2047, 2048, 3071, 3072,
                                       4095, 4096, 1'000'000, 1'000'000'000};
  for (unsigned i = 0; i < 2000; ++i) probes.push_back(rng() >> (rng() & 31));
  for (const auto v : probes) {
    const auto b = latency_histogram::bucket_of(v);
    ASSERT_LT(b, latency_histogram::kBuckets);
    if (b + 1 < latency_histogram::kBuckets) {
      EXPECT_LT(v, latency_histogram::bucket_upper_ns(b)) << "value " << v;
    }
    if (b > 0) {
      // ...and at or above the previous bucket's upper bound.
      EXPECT_GE(v, latency_histogram::bucket_upper_ns(b - 1)) << "value " << v;
    }
  }
}

TEST(LatencyHistogram, BucketBoundariesAreExact) {
  // The first value of a bucket is exactly the previous bucket's upper
  // bound: upper - 1 stays put, upper moves on.
  for (std::size_t b = 0; b + 1 < latency_histogram::kBuckets; ++b) {
    const auto upper = latency_histogram::bucket_upper_ns(b);
    EXPECT_EQ(latency_histogram::bucket_of(upper - 1), b);
    EXPECT_EQ(latency_histogram::bucket_of(upper), b + 1);
  }
}

TEST(LatencyHistogram, BucketUpperBoundsAreStrictlyIncreasing) {
  for (std::size_t b = 1; b < latency_histogram::kBuckets; ++b) {
    EXPECT_GT(latency_histogram::bucket_upper_ns(b),
              latency_histogram::bucket_upper_ns(b - 1))
        << "bucket " << b;
  }
}

TEST(LatencyHistogram, ResolutionIsAQuarterOctaveOrBetter) {
  // Past the unit-wide low buckets, bucket width is at most 25% of the
  // bucket's lower bound — the histogram's advertised quantile error.
  for (std::size_t b = 4; b < latency_histogram::kBuckets; ++b) {
    const auto lo = latency_histogram::bucket_upper_ns(b - 1);
    const auto hi = latency_histogram::bucket_upper_ns(b);
    EXPECT_LE((hi - lo) * 4, lo) << "bucket " << b;
  }
}

TEST(LatencyHistogram, EmptyHistogramReportsZero) {
  const latency_histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_ns(), 0u);
  EXPECT_EQ(h.quantile_ns(0.5), 0u);
  EXPECT_EQ(h.quantile_ns(0.99), 0u);
}

TEST(LatencyHistogram, QuantilesOfAKnownSplit) {
  // 99 fast samples and one slow outlier: every quantile through p99 reads
  // the fast bucket; only the very top sees the outlier, capped at the
  // recorded maximum (not the open bucket's bound).
  latency_histogram h;
  for (int i = 0; i < 99; ++i) h.record_ns(500);  // all in bucket 0 (< ~1 us)
  h.record_ns(1'000'000'000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max_ns(), 1'000'000'000u);

  const auto fast_upper = latency_histogram::bucket_upper_ns(0);
  EXPECT_EQ(h.quantile_ns(0.50), fast_upper);
  EXPECT_EQ(h.quantile_ns(0.99), fast_upper);
  EXPECT_EQ(h.quantile_ns(1.00), 1'000'000'000u);
}

TEST(LatencyHistogram, QuantileIsWithinBucketResolutionOfTheExactValue) {
  // Against an exactly-computed quantile over random samples: the reported
  // value must bound the true one from above, within one bucket width
  // (25%) plus the unit granularity.
  common::xoshiro256ss rng(43);
  latency_histogram h;
  std::vector<std::uint64_t> samples;
  for (unsigned i = 0; i < 5000; ++i) {
    const std::uint64_t v = 100'000 + rng.below(10'000'000);
    samples.push_back(v);
    h.record_ns(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double p : {0.50, 0.95, 0.99}) {
    const auto rank = static_cast<std::size_t>(p * samples.size());
    const std::uint64_t exact = samples[rank == 0 ? 0 : rank - 1];
    const std::uint64_t reported = h.quantile_ns(p);
    EXPECT_GE(reported, exact) << "p = " << p;
    EXPECT_LE(reported, exact + exact / 4 + 2048) << "p = " << p;
  }
}

TEST(LatencyHistogram, QuantileNeverExceedsTheRecordedMaximum) {
  latency_histogram h;
  h.record_ns(5000);
  h.record_ns(7000);
  EXPECT_EQ(h.quantile_ns(1.0), std::min<std::uint64_t>(
                                    latency_histogram::bucket_upper_ns(
                                        latency_histogram::bucket_of(7000)),
                                    h.max_ns()));
  EXPECT_LE(h.quantile_ns(0.99), h.max_ns());
}

TEST(LatencyHistogram, TwoPopulationsSplitAtTheirShare) {
  latency_histogram h;
  for (int i = 0; i < 10; ++i) h.record_ns(1000);
  for (int i = 0; i < 30; ++i) h.record_ns(50'000'000);
  EXPECT_EQ(h.count(), 40u);
  EXPECT_EQ(h.max_ns(), 50'000'000u);
  // 10 of 40 samples are fast: p25 still reads the fast bucket, p50 the
  // slow one.
  EXPECT_EQ(h.quantile_ns(0.25), latency_histogram::bucket_upper_ns(0));
  EXPECT_GT(h.quantile_ns(0.50), 10'000'000u);
}

}  // namespace
}  // namespace bpntt::service
