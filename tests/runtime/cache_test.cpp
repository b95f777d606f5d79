// Runtime cache tests: the residency_manager unit surface (row-budget
// bound, exact keying, LRU eviction under capacity pressure, pinning,
// invalidation) and the LRU-bounded per-modulus retarget caches of all
// three backends (eviction, rebuild-on-reuse, the probe).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/xoshiro.h"
#include "nttmath/primes.h"
#include "runtime/context.h"
#include "runtime/residency_manager.h"

namespace bpntt::runtime {
namespace {

constexpr u64 kOrder = 32;

// A one-bank, one-subarray manager with room for exactly `entries`
// operands of order kOrder — the residency equivalent of the old
// operand_cache(entries).
residency_manager::config slots(unsigned entries) {
  residency_manager::config cfg;
  cfg.banks = 1;
  cfg.channels = 1;
  cfg.data_subarrays = 1;
  cfg.rows_per_subarray = entries * static_cast<unsigned>(kOrder);
  cfg.rows_per_operand = static_cast<unsigned>(kOrder);
  return cfg;
}

runtime_options small_options(backend_kind kind) {
  return runtime_options()
      .with_ring(kOrder, 3137, 13)
      .with_backend(kind)
      .with_array(64, 39)
      .with_banks(2)
      .with_threads(2);
}

std::vector<u64> poly_of(u64 seed) {
  common::xoshiro256ss rng(seed);
  std::vector<u64> p(kOrder);
  for (auto& c : p) c = rng.below(3137);
  return p;
}

// ---- residency_manager unit ------------------------------------------------

TEST(ResidencyManagerUnit, LookupInsertAndCounters) {
  residency_manager cache(slots(4));
  const auto a = poly_of(1);
  const auto fa = poly_of(2);

  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, a).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(97, core::transform_dir::forward, a, fa);
  const auto hit = cache.lookup(97, core::transform_dir::forward, a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->transformed, fa);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.resident_rows(), kOrder);

  // The key is (operand, ring, direction): same operand under another ring
  // or direction is a distinct entry.
  EXPECT_FALSE(cache.lookup(193, core::transform_dir::forward, a).has_value());
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::inverse, a).has_value());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResidencyManagerUnit, CapacityPressureEvictsTheColdestEntry) {
  residency_manager cache(slots(2));
  const auto a = poly_of(1), b = poly_of(2), c = poly_of(3);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11));
  cache.insert(97, core::transform_dir::forward, b, poly_of(12));
  EXPECT_EQ(cache.resident_rows(), cache.capacity_rows());
  // Touch a so b becomes the LRU victim when c needs rows.
  (void)cache.lookup(97, core::transform_dir::forward, a);
  cache.insert(97, core::transform_dir::forward, c, poly_of(13));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.resident_rows(), cache.capacity_rows());
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, a).has_value());
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, c).has_value());
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, b).has_value());
}

TEST(ResidencyManagerUnit, InvalidateAndClearReportDropCounts) {
  residency_manager cache(slots(8));
  const auto a = poly_of(1), b = poly_of(2);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11));
  cache.insert(193, core::transform_dir::forward, a, poly_of(12));
  cache.insert(97, core::transform_dir::inverse, a, poly_of(13));
  cache.insert(97, core::transform_dir::forward, b, poly_of(14));
  ASSERT_EQ(cache.size(), 4u);
  ASSERT_EQ(cache.resident_rows(), 4 * kOrder);

  // One operand, every ring and direction — and the rows come back.
  EXPECT_EQ(cache.invalidate(a), 3u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.resident_rows(), kOrder);
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, b).has_value());

  EXPECT_EQ(cache.clear(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.resident_rows(), 0u);
  EXPECT_GT(cache.hits() + cache.misses(), 0u) << "counters are cumulative across clear()";
}

TEST(ResidencyManagerUnit, ZeroBudgetNeverStores) {
  residency_manager cache(slots(0));
  const auto a = poly_of(1);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.resident_rows(), 0u);
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, a).has_value());
}

TEST(ResidencyManagerUnit, PinnedEntriesSurviveCapacityPressure) {
  residency_manager cache(slots(2));
  const auto a = poly_of(1), b = poly_of(2), c = poly_of(3), d = poly_of(4);
  cache.pin(a);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11));
  cache.insert(97, core::transform_dir::forward, b, poly_of(12));
  // a is the LRU but pinned: pressure from c must take b instead.
  cache.insert(97, core::transform_dir::forward, c, poly_of(13));
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, a).has_value());
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, b).has_value());
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, c).has_value());

  // Unpinning rejoins the pressure class.
  cache.unpin(a);
  (void)cache.lookup(97, core::transform_dir::forward, c);  // a becomes LRU
  cache.insert(97, core::transform_dir::forward, d, poly_of(14));
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, a).has_value());
}

TEST(ResidencyManagerUnit, ExplicitInvalidationOverridesThePin) {
  residency_manager cache(slots(4));
  const auto a = poly_of(1);
  cache.pin(a);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11));
  EXPECT_EQ(cache.invalidate(a), 1u) << "invalidate() drops pinned entries";
  EXPECT_EQ(cache.size(), 0u);
  // The pin registration was retired with the operand: a re-insert is
  // unpinned and evictable again.
  cache.insert(97, core::transform_dir::forward, a, poly_of(11));
  const auto b = poly_of(2), c = poly_of(3), d = poly_of(4), e = poly_of(5);
  cache.insert(97, core::transform_dir::forward, b, poly_of(12));
  cache.insert(97, core::transform_dir::forward, c, poly_of(13));
  cache.insert(97, core::transform_dir::forward, d, poly_of(14));
  cache.insert(97, core::transform_dir::forward, e, poly_of(15));
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, a).has_value());
}

TEST(ResidencyManagerUnit, LimbHomesRoundRobinAcrossChannels) {
  // Four banks on two channels: limb primes land on channel-leading banks
  // 0, 2, 0, 2, ... in first-seen order, and banks_holding reports where a
  // limb's operands actually live.
  residency_manager::config cfg;
  cfg.banks = 4;
  cfg.channels = 2;
  cfg.data_subarrays = 1;
  cfg.rows_per_subarray = 4 * static_cast<unsigned>(kOrder);
  cfg.rows_per_operand = static_cast<unsigned>(kOrder);
  residency_manager cache(cfg);
  const auto a = poly_of(1), b = poly_of(2);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11));
  cache.insert(193, core::transform_dir::forward, b, poly_of(12));
  EXPECT_EQ(cache.banks_holding(97), std::vector<unsigned>{0u});
  EXPECT_EQ(cache.banks_holding(193), std::vector<unsigned>{2u});
  // An explicit bank hint (the executing dispatch's bank) overrides the
  // limb home.
  const auto c = poly_of(3);
  cache.insert(97, core::transform_dir::forward, c, poly_of(13), 3u);
  EXPECT_EQ(cache.banks_holding(97), (std::vector<unsigned>{0u, 3u}));
  const auto h = cache.lookup(97, core::transform_dir::forward, c);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->home_bank, 3u);
}

// ---- retarget cache bound --------------------------------------------------

class RetargetCacheBound : public ::testing::TestWithParam<backend_kind> {};

TEST_P(RetargetCacheBound, EvictsLeastRecentlyDispatchedModulus) {
  // A bound of 2 with three limb primes cycling through: the cache never
  // exceeds its limit, every dispatch still answers correctly (evicted
  // moduli rebuild), and the probe observes the occupancy.
  auto opts = small_options(GetParam()).with_retarget_cache(2);
  context ctx(opts);
  // Three 12-bit NTT-friendly primes for n = 32 (q == 1 mod 64).
  const std::vector<u64> primes = math::first_k_ntt_primes(12, kOrder, 3, true);
  const auto poly = poly_of(42);

  std::vector<std::vector<u64>> cold(primes.size());
  for (std::size_t i = 0; i < primes.size(); ++i) {
    std::vector<u64> in = poly;
    for (auto& c : in) c %= primes[i];
    const auto id = ctx.rns_stream(primes[i]).submit(ntt_job{.coeffs = in});
    cold[i] = ctx.wait(id).outputs.front();
    EXPECT_LE(ctx.retarget_cache_size(), 2u) << "after cold dispatch " << i;
  }
  EXPECT_EQ(ctx.retarget_cache_size(), 2u);

  // Re-dispatching the evicted first prime rebuilds it bit-identically and
  // stays inside the bound.
  std::vector<u64> in = poly;
  for (auto& c : in) c %= primes[0];
  const auto id = ctx.rns_stream(primes[0]).submit(ntt_job{.coeffs = in});
  EXPECT_EQ(ctx.wait(id).outputs.front(), cold[0]);
  EXPECT_EQ(ctx.retarget_cache_size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Backends, RetargetCacheBound,
                         ::testing::Values(backend_kind::sram, backend_kind::cpu,
                                           backend_kind::reference),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(RetargetCacheBound, ZeroLimitIsRejectedUpFront) {
  auto opts = small_options(backend_kind::sram).with_retarget_cache(0);
  EXPECT_THROW(context ctx(opts), std::invalid_argument);
}

TEST(RetargetCacheBound, PrimaryRingDispatchesDoNotOccupyTheCache) {
  context ctx(small_options(backend_kind::sram));
  const auto id = ctx.submit(ntt_job{.coeffs = poly_of(7)});
  (void)ctx.wait(id);
  EXPECT_EQ(ctx.retarget_cache_size(), 0u);
}

}  // namespace
}  // namespace bpntt::runtime
