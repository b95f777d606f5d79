// Runtime cache tests: the residency_manager unit surface (the slot budget
// and its exact split over the banks, exact keying, bank-local placement,
// lookup and LRU eviction under capacity pressure, per-bank copies,
// pinning, invalidation), the
// LRU-bounded per-modulus retarget caches of all three
// backends (eviction, rebuild-on-reuse, the probe), the one same-modulus
// rule every backend's ring cache applies, and the sram backend's one
// kernel library per ring.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/xoshiro.h"
#include "nttmath/ntt.h"
#include "nttmath/poly.h"
#include "nttmath/primes.h"
#include "runtime/context.h"
#include "runtime/residency_manager.h"
#include "runtime/ring_cache.h"
#include "runtime/sram_backend.h"

namespace bpntt::runtime {
namespace {

constexpr u64 kOrder = 32;

// A one-bank manager with room for exactly `entries` operands of order
// kOrder — the residency equivalent of the old
// operand_cache(entries).
residency_manager::config slots(unsigned entries) {
  residency_manager::config cfg;
  cfg.banks = 1;
  cfg.entries = entries;
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
  telemetry::metrics_registry reg;
  residency_manager cache(slots(4), reg);
  const auto a = poly_of(1);
  const auto fa = poly_of(2);

  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, a, {0}).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(97, core::transform_dir::forward, a, fa, 0);
  const auto hit = cache.lookup(97, core::transform_dir::forward, a, {0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, fa);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.resident_rows(), kOrder);

  // The key is (operand, ring, direction): same operand under another ring
  // or direction is a distinct entry.
  EXPECT_FALSE(cache.lookup(193, core::transform_dir::forward, a, {0}).has_value());
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::inverse, a, {0}).has_value());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResidencyManagerUnit, CapacityPressureEvictsTheColdestEntry) {
  telemetry::metrics_registry reg;
  residency_manager cache(slots(2), reg);
  const auto a = poly_of(1), b = poly_of(2), c = poly_of(3);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11), 0);
  cache.insert(97, core::transform_dir::forward, b, poly_of(12), 0);
  EXPECT_EQ(cache.resident_rows(), cache.capacity_rows());
  // Touch a so b becomes the LRU victim when c needs rows.
  (void)cache.lookup(97, core::transform_dir::forward, a, {0});
  cache.insert(97, core::transform_dir::forward, c, poly_of(13), 0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.resident_rows(), cache.capacity_rows());
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, a, {0}).has_value());
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, c, {0}).has_value());
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, b, {0}).has_value());
}

TEST(ResidencyManagerUnit, InvalidateAndClearReportDropCounts) {
  telemetry::metrics_registry reg;
  residency_manager cache(slots(8), reg);
  const auto a = poly_of(1), b = poly_of(2);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11), 0);
  cache.insert(193, core::transform_dir::forward, a, poly_of(12), 0);
  cache.insert(97, core::transform_dir::inverse, a, poly_of(13), 0);
  cache.insert(97, core::transform_dir::forward, b, poly_of(14), 0);
  ASSERT_EQ(cache.size(), 4u);
  ASSERT_EQ(cache.resident_rows(), 4 * kOrder);

  // One operand, every ring and direction — and the rows come back.
  EXPECT_EQ(cache.invalidate(a), 3u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.resident_rows(), kOrder);
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, b, {0}).has_value());
}

TEST(ResidencyManagerUnit, ZeroBudgetNeverStores) {
  telemetry::metrics_registry reg;
  residency_manager cache(slots(0), reg);
  const auto a = poly_of(1);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11), 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.resident_rows(), 0u);
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, a, {0}).has_value());
}

TEST(ResidencyManagerUnit, PinnedEntriesSurviveCapacityPressure) {
  telemetry::metrics_registry reg;
  residency_manager cache(slots(2), reg);
  const auto a = poly_of(1), b = poly_of(2), c = poly_of(3);
  cache.pin(a);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11), 0);
  cache.insert(97, core::transform_dir::forward, b, poly_of(12), 0);
  // a is the LRU but pinned: pressure from c must take b instead.
  cache.insert(97, core::transform_dir::forward, c, poly_of(13), 0);
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, a, {0}).has_value());
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, b, {0}).has_value());
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, c, {0}).has_value());
}

TEST(ResidencyManagerUnit, ExplicitInvalidationOverridesThePin) {
  telemetry::metrics_registry reg;
  residency_manager cache(slots(4), reg);
  const auto a = poly_of(1);
  cache.pin(a);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11), 0);
  EXPECT_EQ(cache.invalidate(a), 1u) << "invalidate() drops pinned entries";
  EXPECT_EQ(cache.size(), 0u);
  // The pin registration was retired with the operand: a re-insert is
  // unpinned and evictable again.
  cache.insert(97, core::transform_dir::forward, a, poly_of(11), 0);
  const auto b = poly_of(2), c = poly_of(3), d = poly_of(4), e = poly_of(5);
  cache.insert(97, core::transform_dir::forward, b, poly_of(12), 0);
  cache.insert(97, core::transform_dir::forward, c, poly_of(13), 0);
  cache.insert(97, core::transform_dir::forward, d, poly_of(14), 0);
  cache.insert(97, core::transform_dir::forward, e, poly_of(15), 0);
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, a, {0}).has_value());
}

TEST(ResidencyManagerUnit, InsertResidesOnTheExecutingBank) {
  // Four banks: an image takes residence on the bank its insert names (the
  // bank whose wave transformed it), banks_holding reports where a limb's
  // operands actually live, and a bank outside the device is a caller bug
  // rather than a silent fallback.
  residency_manager::config cfg;
  cfg.banks = 4;
  cfg.entries = 16;
  cfg.rows_per_operand = static_cast<unsigned>(kOrder);
  telemetry::metrics_registry reg;
  residency_manager cache(cfg, reg);
  const auto a = poly_of(1), b = poly_of(2), c = poly_of(3);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11), 0);
  cache.insert(193, core::transform_dir::forward, b, poly_of(12), 2);
  EXPECT_EQ(cache.banks_holding(97), std::vector<unsigned>{0u});
  EXPECT_EQ(cache.banks_holding(193), std::vector<unsigned>{2u});
  cache.insert(97, core::transform_dir::forward, c, poly_of(13), 3);
  EXPECT_EQ(cache.banks_holding(97), (std::vector<unsigned>{0u, 3u}));
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, c, {0, 1, 2}).has_value());
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, c, {3}).has_value());

  // Out-of-range banks throw on the placing path and on the refresh of an
  // already-resident key alike.
  EXPECT_THROW(cache.insert(97, core::transform_dir::forward, poly_of(4), poly_of(14), 4),
               std::logic_error);
  EXPECT_THROW(cache.insert(97, core::transform_dir::forward, a, poly_of(11), 4),
               std::logic_error);
  // A resident operand is exactly one slot of kOrder rows; any other length
  // is a caller bug too.
  EXPECT_THROW(cache.insert(97, core::transform_dir::forward, std::vector<u64>(kOrder / 2, 1),
                            poly_of(15), 0),
               std::logic_error);
  EXPECT_EQ(cache.size(), 3u);
}

// A four-bank manager splitting `entries` operands of order kOrder.
residency_manager::config four_banks(unsigned entries) {
  residency_manager::config cfg = slots(entries);
  cfg.banks = 4;
  return cfg;
}

TEST(ResidencyManagerUnit, TheBudgetSplitsExactlyOverTheBanks) {
  // 5 entries over 4 banks: 2, 1, 1, 1 slots, and every entry is a slot.
  telemetry::metrics_registry reg;
  residency_manager cache(four_banks(5), reg);
  EXPECT_EQ(cache.capacity_rows(), 5 * kOrder);
  cache.insert(97, core::transform_dir::forward, poly_of(1), poly_of(11), 0);
  cache.insert(97, core::transform_dir::forward, poly_of(2), poly_of(12), 0);
  for (unsigned bank = 1; bank < 4; ++bank) {
    cache.insert(97, core::transform_dir::forward, poly_of(2 + bank), poly_of(12 + bank), bank);
  }
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.resident_rows(), cache.capacity_rows());

  // Bank 0's third operand and bank 1's second each evict one.
  cache.insert(97, core::transform_dir::forward, poly_of(6), poly_of(16), 0);
  EXPECT_EQ(cache.evictions(), 1u);
  cache.insert(97, core::transform_dir::forward, poly_of(7), poly_of(17), 1);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.size(), 5u);
}

TEST(ResidencyManagerUnit, AFullBankEvictsItsOwnColdestEntryAndNeverPlacesElsewhere) {
  // Two slots per bank.  c on bank 1 is the coldest entry overall, and
  // banks 1-3 have free slots, yet the pressure on bank 0 evicts bank 0's
  // own LRU entry a and the new image resides on bank 0.
  telemetry::metrics_registry reg;
  residency_manager cache(four_banks(8), reg);
  const auto a = poly_of(1), b = poly_of(2), c = poly_of(3), d = poly_of(4);
  cache.insert(97, core::transform_dir::forward, c, poly_of(13), 1);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11), 0);
  cache.insert(97, core::transform_dir::forward, b, poly_of(12), 0);
  cache.insert(97, core::transform_dir::forward, d, poly_of(14), 0);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, a, {0, 1, 2, 3}).has_value());
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, c, {0}).has_value());
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, c, {1}).has_value());
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, d, {1, 2, 3}).has_value());
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, d, {0}).has_value());
  EXPECT_EQ(cache.banks_holding(97), (std::vector<unsigned>{0u, 1u}));
}

TEST(ResidencyManagerUnit, ABankWithAZeroShareDropsItsInserts) {
  // 2 entries over 4 banks: banks 0 and 1 get one slot each, banks 2 and 3
  // none, and their inserts neither evict nor land on a bank with room.
  telemetry::metrics_registry reg;
  residency_manager cache(four_banks(2), reg);
  EXPECT_EQ(cache.capacity_rows(), 2 * kOrder);
  const auto a = poly_of(1);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11), 2);
  cache.insert(97, core::transform_dir::forward, poly_of(2), poly_of(12), 3);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, a, {0, 1, 2, 3}).has_value());
  cache.insert(97, core::transform_dir::forward, a, poly_of(11), 0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.banks_holding(97), std::vector<unsigned>{0u});
}

TEST(ResidencyManagerUnit, ABankFullOfPinnedEntriesDropsItsInserts) {
  // One slot per bank; bank 0's holds a pinned operand, so b is dropped
  // rather than evicting the pin or moving to a free bank.
  telemetry::metrics_registry reg;
  residency_manager cache(four_banks(4), reg);
  const auto a = poly_of(1), b = poly_of(2);
  cache.pin(a);
  cache.insert(97, core::transform_dir::forward, a, poly_of(11), 0);
  cache.insert(97, core::transform_dir::forward, b, poly_of(12), 0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, a, {0}).has_value());
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, b, {0, 1, 2, 3}).has_value());
}

TEST(ResidencyManagerUnit, EachBankHoldsItsOwnCopyAndNeverTouchesAnothers) {
  // One slot per bank.  The same (ring, dir, coeffs) inserted on banks 0
  // and 2 is two copies, each served only to a bank set holding it.
  telemetry::metrics_registry reg;
  residency_manager cache(four_banks(4), reg);
  const auto a = poly_of(1), fa = poly_of(11);
  cache.insert(97, core::transform_dir::forward, a, fa, 0);
  cache.insert(97, core::transform_dir::forward, a, fa, 2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.resident_rows(), 2 * kOrder);
  EXPECT_EQ(cache.banks_holding(97), (std::vector<unsigned>{0u, 2u}));
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, a, {1}).has_value());
  const auto on2 = cache.lookup(97, core::transform_dir::forward, a, {2});
  ASSERT_TRUE(on2.has_value());
  EXPECT_EQ(*on2, fa);

  // One lookup over four banks counts once, hit or miss.
  const auto hits = cache.hits(), misses = cache.misses();
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, a, {0, 1, 2, 3}).has_value());
  EXPECT_EQ(cache.hits(), hits + 1);
  EXPECT_FALSE(cache.lookup(193, core::transform_dir::forward, a, {0, 1, 2, 3}).has_value());
  EXPECT_EQ(cache.misses(), misses + 1);

  // Pressure on bank 0 evicts bank 0's copy alone.
  cache.insert(97, core::transform_dir::forward, poly_of(2), poly_of(12), 0);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup(97, core::transform_dir::forward, a, {0}).has_value());
  EXPECT_TRUE(cache.lookup(97, core::transform_dir::forward, a, {2}).has_value());

  // Re-inserting on bank 0 is a new copy there, not a refresh of bank 2's.
  cache.insert(97, core::transform_dir::forward, a, fa, 0);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.banks_holding(97), (std::vector<unsigned>{0u, 2u}));

  // Invalidation retires the operand everywhere.
  EXPECT_EQ(cache.invalidate(a), 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.banks_holding(97).empty());
}

// ---- retarget cache bound --------------------------------------------------

class RetargetCacheBound : public ::testing::TestWithParam<backend_kind> {};

TEST_P(RetargetCacheBound, EvictsLeastRecentlyDispatchedModulus) {
  // One limb prime more than the fixed bound cycling through: the cache
  // never exceeds kRetargetCacheModuli, every dispatch still answers
  // correctly (evicted moduli rebuild), and the probe observes the
  // occupancy.  The 14-bit limbs need a 15-bit tile on the sram backend.
  auto opts = small_options(GetParam()).with_ring(kOrder, 3137, 15).with_array(64, 45);
  context ctx(opts);
  const std::vector<u64> primes =
      math::first_k_ntt_primes(14, kOrder, kRetargetCacheModuli + 1, true);
  const auto poly = poly_of(42);

  std::vector<std::vector<u64>> cold(primes.size());
  for (std::size_t i = 0; i < primes.size(); ++i) {
    std::vector<u64> in = poly;
    for (auto& c : in) c %= primes[i];
    const auto id = ctx.rns_stream(primes[i]).submit(ntt_job{.coeffs = in});
    cold[i] = ctx.wait(id).outputs.front();
    EXPECT_LE(ctx.retarget_cache_size(), kRetargetCacheModuli) << "after cold dispatch " << i;
  }
  EXPECT_EQ(ctx.retarget_cache_size(), kRetargetCacheModuli);

  // Re-dispatching the evicted first prime rebuilds it bit-identically and
  // stays inside the bound.
  std::vector<u64> in = poly;
  for (auto& c : in) c %= primes[0];
  const auto id = ctx.rns_stream(primes[0]).submit(ntt_job{.coeffs = in});
  EXPECT_EQ(ctx.wait(id).outputs.front(), cold[0]);
  EXPECT_EQ(ctx.retarget_cache_size(), kRetargetCacheModuli);
}

INSTANTIATE_TEST_SUITE_P(Backends, RetargetCacheBound,
                         ::testing::Values(backend_kind::sram, backend_kind::cpu,
                                           backend_kind::reference),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(RetargetCacheBound, PrimaryRingDispatchesDoNotOccupyTheCache) {
  context ctx(small_options(backend_kind::sram));
  const auto id = ctx.submit(ntt_job{.coeffs = poly_of(7)});
  (void)ctx.wait(id);
  EXPECT_EQ(ctx.retarget_cache_size(), 0u);
}

// ---- the same-modulus rule -------------------------------------------------

class RingRule : public ::testing::TestWithParam<backend_kind> {};

TEST_P(RingRule, FullConfiguredRingServesAnOverrideAtItsOwnModulus) {
  context ctx(small_options(GetParam()));
  auto own = ctx.stream({.ring_q = 3137});
  const auto a = poly_of(21);
  const auto b = poly_of(22);
  const auto ntt_own = own.submit(ntt_job{.coeffs = a});
  const auto mul_own = own.submit(polymul_job{a, b});
  own.flush();
  const auto ntt_default = ctx.submit(ntt_job{.coeffs = a});
  const auto mul_default = ctx.submit(polymul_job{a, b});
  EXPECT_EQ(ctx.wait(ntt_own).outputs, ctx.wait(ntt_default).outputs);
  EXPECT_EQ(ctx.wait(mul_own).outputs, ctx.wait(mul_default).outputs);
  EXPECT_EQ(ctx.retarget_cache_size(), 0u);
}

TEST_P(RingRule, IncompleteConfiguredRingRetargetsAtItsOwnModulus) {
  // q = 7681 carries both transforms at n = 32 (64 | q-1): the configured
  // ring runs the incomplete one, an override at q the full negacyclic one.
  constexpr u64 q = 7681;
  context ctx(small_options(GetParam()).with_ring(kOrder, q, 14, /*incomplete=*/true)
                  .with_array(64, 42));
  std::vector<u64> a = poly_of(23);
  const auto id = ctx.stream({.ring_q = q}).submit(ntt_job{.coeffs = a});
  const auto got = ctx.wait(id).outputs.at(0);
  math::ntt_forward(a, math::ntt_tables(kOrder, q, /*negacyclic=*/true));
  EXPECT_EQ(got, a);
  EXPECT_EQ(ctx.retarget_cache_size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, RingRule,
                         ::testing::Values(backend_kind::sram, backend_kind::cpu,
                                           backend_kind::reference),
                         [](const auto& info) { return std::string(to_string(info.param)); });

// ---- one kernel library per ring -------------------------------------------

TEST(SramKernelLibrary, LimbRingOnEveryBankCompilesEachKernelOnce) {
  // One limb stream per bank (flat placement pins stream i to one bank),
  // each batch more than a wave, so every compute subarray of both banks
  // runs the limb ring from four pool threads at once.  The banks built
  // with the context are bound to the limb's library, which holds one
  // program per distinct kernel however many subarrays ran it.
  const auto opts = small_options(backend_kind::sram).with_threads(4);
  auto owned = make_backend(opts);
  auto& sram = dynamic_cast<sram_backend&>(*owned);
  context ctx(opts, std::move(owned));
  const unsigned banks = ctx.capabilities().banks();
  ASSERT_EQ(banks, 2u);
  const u64 limb = math::first_k_ntt_primes(12, kOrder, 1, true).front();
  const auto residue = [&](u64 seed) {
    auto p = poly_of(seed);
    for (auto& c : p) c %= limb;
    return p;
  };

  std::vector<stream> streams;
  std::vector<unsigned> covered;
  for (unsigned b = 0; b < banks; ++b) {
    streams.push_back(ctx.stream({.ring_q = limb}));
    covered.push_back(streams.back().bank_set().at(0));
  }
  EXPECT_EQ(covered, (std::vector<unsigned>{0, 1}));
  const unsigned per_bank = ctx.wave_width() / banks + 1;
  std::vector<job_id> ntts;
  std::vector<std::pair<job_id, polymul_job>> products;
  for (auto& s : streams) {
    for (unsigned j = 0; j < per_bank; ++j) {
      ntts.push_back(s.submit(ntt_job{.coeffs = residue(100 + ntts.size())}));
      polymul_job pj{residue(200 + products.size()), residue(300 + products.size())};
      products.emplace_back(s.submit(pj), pj);
    }
    s.flush();
  }
  for (const auto id : ntts) EXPECT_EQ(ctx.wait(id).status, job_status::ok);
  for (const auto& [id, pj] : products) {
    EXPECT_EQ(ctx.wait(id).outputs.at(0), math::schoolbook_negacyclic(pj.a, pj.b, limb));
  }

  EXPECT_EQ(ctx.retarget_cache_size(), 1u);
  // The forward transform at rows [0, n) serves both the NTT jobs and the
  // products' resident operands; the products add pointwise and inverse.
  EXPECT_EQ(sram.library_for(limb)->cached_programs(), 3u);
  EXPECT_EQ(sram.library_for(0)->cached_programs(), 0u);
  EXPECT_EQ(ctx.retarget_cache_size(), 1u);
}

}  // namespace
}  // namespace bpntt::runtime
