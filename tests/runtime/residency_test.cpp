// On-array residency acceptance tests: bit-identity across backends with
// residency on vs off, the sram cost ladder (warm same-bank = 0 cycles,
// warm cross-bank strictly between 0 and cold), eviction under a small row
// budget, the budget the he_mul workload runs with and its pinned cycles
// at one thread and at one thread per channel, the same level under
// pressure budgets, the pin lifecycle at the context surface, and
// concurrent probe safety (TSan-checked in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/xoshiro.h"
#include "crypto/rns_rlwe/rns_rlwe.h"
#include "nttmath/primes.h"
#include "runtime/context.h"

namespace bpntt::runtime {
namespace {

constexpr u64 kOrder = 32;

std::vector<u64> poly_below(u64 q, u64 seed) {
  common::xoshiro256ss rng(seed);
  std::vector<u64> p(kOrder);
  for (auto& c : p) c = rng.below(q);
  return p;
}

runtime_options base_options(backend_kind kind) {
  return runtime_options()
      .with_ring(kOrder, 3137, 13)
      .with_backend(kind)
      .with_array(64, 39)
      .with_banks(2)
      .with_threads(2);
}

u64 limb_prime() { return math::first_k_ntt_primes(12, kOrder, 1, true).front(); }

// ---- bit-identity: residency may change cycles, never outputs --------------

class ResidencyDifferential : public ::testing::TestWithParam<backend_kind> {};

TEST_P(ResidencyDifferential, OutputsAreBitIdenticalWithResidencyOnAndOff) {
  const u64 q = limb_prime();
  const auto a = poly_below(q, 1);
  const auto b = poly_below(q, 2);

  // Cold + warm repeats of the same transforms, residency on and off; every
  // output must agree pairwise.
  auto run = [&](runtime_options opts) {
    context ctx(opts);
    auto limb = ctx.rns_stream(q);
    std::vector<std::vector<u64>> outs;
    for (int rep = 0; rep < 2; ++rep) {
      for (const auto* p : {&a, &b}) {
        const auto id = limb.submit(ntt_job{.coeffs = *p});
        outs.push_back(ctx.wait(id).outputs.front());
      }
    }
    return outs;
  };

  const auto on = run(base_options(GetParam()));
  const auto off = run(base_options(GetParam()).with_operand_cache(0));
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(on[i], off[i]) << "residency changed transform output " << i;
  }
  // Warm repeats equal their cold originals.
  EXPECT_EQ(on[0], on[2]);
  EXPECT_EQ(on[1], on[3]);
}

INSTANTIATE_TEST_SUITE_P(Backends, ResidencyDifferential,
                         ::testing::Values(backend_kind::sram, backend_kind::cpu,
                                           backend_kind::reference),
                         [](const auto& info) { return std::string(to_string(info.param)); });

// ---- the sram cost ladder: resident < move < cold --------------------------

TEST(ResidencySram, WarmSameBankIsFreeAndCrossBankCostsARowMove) {
  const u64 q = limb_prime();
  auto opts = base_options(backend_kind::sram).with_tracing();
  context ctx(opts);
  // Auto placement on a flat two-bank device: one bank per stream.
  auto on_bank0 = ctx.stream({.ring_q = q});
  auto on_bank1 = ctx.stream({.ring_q = q});
  ASSERT_EQ(on_bank0.bank_set(), std::vector<unsigned>{0u});
  ASSERT_EQ(on_bank1.bank_set(), std::vector<unsigned>{1u});
  const auto p = poly_below(q, 3);

  // Cold: the transform runs on bank 0 and takes residence there.
  const auto cold_id = on_bank0.submit(ntt_job{.coeffs = p});
  const auto cold = ctx.wait(cold_id);
  EXPECT_GT(cold.wall_cycles, 0u);

  // Warm on the home bank: the rows are already where the dispatch runs —
  // zero array cycles.
  const auto warm_id = on_bank0.submit(ntt_job{.coeffs = p});
  const auto warm = ctx.wait(warm_id);
  EXPECT_EQ(warm.wall_cycles, 0u);
  EXPECT_EQ(warm.outputs.front(), cold.outputs.front());

  // Warm on the other bank: an on-chip row move — strictly cheaper than
  // recomputing, strictly dearer than staying home.
  const auto remote_id = on_bank1.submit(ntt_job{.coeffs = p});
  const auto remote = ctx.wait(remote_id);
  EXPECT_GT(remote.wall_cycles, 0u);
  EXPECT_LT(remote.wall_cycles, cold.wall_cycles);
  EXPECT_EQ(remote.outputs.front(), cold.outputs.front());

  const auto s = ctx.stats();
  EXPECT_GE(s.operand_cache_hits, 2u);
  EXPECT_GE(s.residency_moves, 1u);
  EXPECT_GT(s.residency_affinity_hits, 0u)
      << "the warm same-bank claim landed on the hinted bank";
  EXPECT_LE(s.resident_rows, ctx.resident_row_capacity());
  EXPECT_LE(s.resident_rows_peak, ctx.resident_row_capacity());

  // The residency story is on the trace: affinity instants and the
  // resident-row counter track.
  ctx.sync();
  std::ostringstream trace;
  ctx.export_trace(trace);
  EXPECT_NE(trace.str().find("affinity_hit"), std::string::npos);
  EXPECT_NE(trace.str().find("resident_rows"), std::string::npos);
}

TEST(ResidencySram, EvictionUnderPressureKeepsBitIdentity) {
  const u64 q = limb_prime();
  // Three data subarrays of one bank, one operand each: the fourth distinct
  // operand forces an eviction.
  auto opts = runtime_options()
                  .with_ring(kOrder, 3137, 13)
                  .with_backend(backend_kind::sram)
                  .with_array(64, 39)
                  .with_topology(1, 1, 4)
                  .with_threads(2)
                  .with_operand_cache(3);
  context ctx(opts);
  context unlimited(base_options(backend_kind::sram));
  auto limb = ctx.rns_stream(q);
  auto limb_u = unlimited.rns_stream(q);
  EXPECT_EQ(ctx.resident_row_capacity(), 3 * kOrder);

  std::vector<std::vector<u64>> polys;
  for (u64 s = 10; s < 15; ++s) polys.push_back(poly_below(q, s));
  for (int rep = 0; rep < 2; ++rep) {
    for (const auto& p : polys) {
      const auto id = limb.submit(ntt_job{.coeffs = p});
      const auto id_u = limb_u.submit(ntt_job{.coeffs = p});
      EXPECT_EQ(ctx.wait(id).outputs.front(), unlimited.wait(id_u).outputs.front())
          << "capacity pressure changed a transform";
      EXPECT_LE(ctx.resident_rows(), ctx.resident_row_capacity())
          << "the resident-row gauge overran the budget";
    }
  }
  const auto s = ctx.stats();
  EXPECT_GT(s.residency_evictions, 0u) << "5 operands through 3 slots must evict";
  EXPECT_GT(s.operand_cache_misses, 0u);
  EXPECT_LE(s.resident_rows_peak, ctx.resident_row_capacity());
}

// ---- the budget the he_mul workload runs with -------------------------------

TEST(ResidencyBudget, HeMulLevelOnFourBanksKeepsTheDefaultOperandBudget) {
  // The default 64-operand budget at n = 128, split exactly over 4 banks:
  // 16 slots each, 64 x 128 = 8192 rows.
  const auto opts =
      runtime_options::for_rns_param_set(crypto::he_rns_rlwe_level(20, 2, 128).level_set())
          .with_backend(backend_kind::sram)
          .with_topology(4, 1, 4)
          .with_threads(1);
  context ctx(opts);
  EXPECT_EQ(ctx.resident_row_capacity(), 8192u);
}

// What one he_mul level measures: the modelled cycles of a cold and a warm
// multiply and the residency counters after the warm one.
struct he_mul_level {
  u64 cold_cycles, warm_cycles, warm_hits;
  u64 resident_rows_peak, evictions, moves;
  bool operator==(const he_mul_level&) const = default;
};

std::ostream& operator<<(std::ostream& os, const he_mul_level& m) {
  return os << "{cold " << m.cold_cycles << ", warm " << m.warm_cycles << ", hits "
            << m.warm_hits << ", rows peak " << m.resident_rows_peak << ", evictions "
            << m.evictions << ", moves " << m.moves << "}";
}

// The channel count of a `limbs`-limb level: one bank per chain and
// key-switching prime.
unsigned channels_of(unsigned limbs) {
  const auto params = crypto::he_rns_rlwe_level(20, limbs, 128);
  return static_cast<unsigned>(params.primes.size() + params.ks_primes.size());
}

// bench_rns_rlwe's run_one without the walk down the chain: encrypt, a cold
// top-level multiply and its decryption, then the warm repeat, on one bank
// per channel with `threads` executor threads and a budget of `entries`
// operands (the default when 0).
he_mul_level run_he_mul_level(unsigned limbs, unsigned threads, unsigned entries = 0) {
  const auto params = crypto::he_rns_rlwe_level(20, limbs, 128);
  auto opts = runtime_options::for_rns_param_set(params.level_set())
                  .with_backend(backend_kind::sram)
                  .with_topology(channels_of(limbs), 1, 4)
                  .with_threads(threads);
  if (entries != 0) opts = opts.with_operand_cache(entries);
  context ctx(opts);
  crypto::rns_rlwe::scheme sch(ctx, params, 6060 + limbs);
  common::xoshiro256ss rng(17 + limbs);
  std::vector<u64> plain(128);
  for (auto& b : plain) b = rng() & 1ULL;
  const auto ct = sch.encrypt(plain);

  const auto cold_start = ctx.stats();
  const auto first = sch.multiply(ct, ct);
  const auto cold_end = ctx.stats();
  std::vector<u64> square(plain.size(), 0);  // the GF(2) negacyclic square
  for (std::size_t i = 0; i < plain.size(); ++i) {
    for (std::size_t j = 0; j < plain.size(); ++j) {
      square[(i + j) % plain.size()] ^= plain[i] & plain[j];
    }
  }
  EXPECT_EQ(sch.decrypt(first), square);

  const auto warm_start = ctx.stats();
  const auto second = sch.multiply(ct, ct);
  const auto warm_end = ctx.stats();
  EXPECT_EQ(second.c0.residues, first.c0.residues);
  EXPECT_EQ(second.c1.residues, first.c1.residues);

  return {cold_end.wall_cycles - cold_start.wall_cycles,
          warm_end.wall_cycles - warm_start.wall_cycles,
          warm_end.operand_cache_hits - warm_start.operand_cache_hits,
          warm_end.resident_rows_peak,
          warm_end.residency_evictions,
          warm_end.residency_moves};
}

// The pins of every bench_rns_rlwe row at the default budget.  Each image
// resides on the bank that transformed it, and a bank's placement and
// eviction happen only inside dispatches holding it, which run in
// admission order — so the pins hold at any executor thread count.
struct level_pin {
  unsigned limbs;
  he_mul_level want;
};
const level_pin kLevelPins[] = {{2, {836'339, 521'400, 16, 3'456, 0, 0}},
                                {3, {848'795, 519'431, 24, 5'248, 0, 0}},
                                {4, {848'684, 527'180, 32, 6'144, 10, 0}}};

TEST(ResidencyBudget, HeMulLevelsAtOneThreadArePinned) {
  for (const auto& pin : kLevelPins) {
    SCOPED_TRACE("limbs = " + std::to_string(pin.limbs));
    EXPECT_EQ(run_he_mul_level(pin.limbs, 1), pin.want);
  }
}

TEST(ResidencyBudget, HeMulLevelsAtOneThreadPerChannelMatchTheSamePins) {
  for (const auto& pin : kLevelPins) {
    SCOPED_TRACE("limbs = " + std::to_string(pin.limbs));
    EXPECT_EQ(run_he_mul_level(pin.limbs, channels_of(pin.limbs)), pin.want);
  }
}

TEST(ResidencyBudget, PressureBudgetsGiveTheSameLevelAtOneThreadAndOnePerChannel) {
  // Budgets small enough to evict on the 4-limb level's 8 banks: 24 slots
  // (3 a bank) and 12 (2 on banks 0-3, 1 on banks 4-7).
  for (const unsigned entries : {24u, 12u}) {
    SCOPED_TRACE("entries = " + std::to_string(entries));
    const auto serial = run_he_mul_level(4, 1, entries);
    EXPECT_EQ(run_he_mul_level(4, channels_of(4), entries), serial);
    EXPECT_GT(serial.evictions, 0u);
    EXPECT_GT(serial.warm_hits, 0u);
    EXPECT_LE(serial.resident_rows_peak, u64{entries} * 128);
  }
}

// ---- pin lifecycle ----------------------------------------------------------

TEST(ResidencyPinning, PinnedOperandSurvivesPressureUntilUnpinnedOrInvalidated) {
  const u64 q = limb_prime();
  // Two slots: one pinned resident + one churn slot.
  auto opts = runtime_options()
                  .with_ring(kOrder, 3137, 13)
                  .with_backend(backend_kind::sram)
                  .with_array(64, 39)
                  .with_topology(1, 1, 3)
                  .with_threads(2)
                  .with_operand_cache(2);
  context ctx(opts);
  auto limb = ctx.rns_stream(q);
  const auto keyish = poly_below(q, 20);

  ctx.pin_operand(keyish);
  auto transform = [&](const std::vector<u64>& p) {
    const auto id = limb.submit(ntt_job{.coeffs = p});
    return ctx.wait(id).outputs.front();
  };
  const auto image = transform(keyish);

  // Churn far past capacity: the pinned resident must not move.
  for (u64 s = 30; s < 36; ++s) (void)transform(poly_below(q, s));
  const auto misses_before = ctx.stats().operand_cache_misses;
  EXPECT_EQ(transform(keyish), image);
  EXPECT_EQ(ctx.stats().operand_cache_misses, misses_before)
      << "the pinned operand was evicted under pressure";

  // Explicit invalidation overrides a pin.
  EXPECT_GE(ctx.invalidate_operand(keyish), 1u);
}

// ---- concurrent probes (TSan) ----------------------------------------------

TEST(ResidencyConcurrency, ProbesStayConsistentUnderMultiStreamDispatch) {
  // Three limb streams on a three-bank device: each limb's groups run on
  // their own bank, so residency lookups and inserts genuinely race while
  // an observer thread probes the occupancy.
  const auto primes = math::first_k_ntt_primes(12, kOrder, 3, true);
  auto opts = runtime_options()
                  .with_ring(kOrder, primes[0], 13)
                  .with_backend(backend_kind::sram)
                  .with_array(64, 39)
                  .with_banks(3)
                  .with_threads(4);
  context ctx(opts);

  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto rows = ctx.resident_rows();
      EXPECT_LE(rows, ctx.resident_row_capacity());
      (void)ctx.operand_cache_size();
      const auto s = ctx.stats();
      EXPECT_LE(s.resident_rows, ctx.resident_row_capacity());
    }
  });

  common::xoshiro256ss rng(77);
  for (int round = 0; round < 30; ++round) {
    std::vector<job_id> ids;
    for (const u64 p : primes) {
      ids.push_back(ctx.rns_stream(p).submit(polymul_job{
          poly_below(p, 100 + static_cast<u64>(round % 3)), poly_below(p, 200 + rng.below(4))}));
    }
    ctx.flush();
    for (const auto id : ids) (void)ctx.wait(id);
  }
  stop.store(true, std::memory_order_relaxed);
  observer.join();
  EXPECT_GT(ctx.stats().operand_cache_hits, 0u);
}

}  // namespace
}  // namespace bpntt::runtime
