#include "bpntt/bank.h"

#include <gtest/gtest.h>

#include "common/xoshiro.h"
#include "nttmath/ntt.h"
#include "nttmath/poly.h"

namespace bpntt::core {
namespace {

ntt_params small_params() {
  ntt_params p;
  p.n = 32;
  p.q = 193;
  p.k = 9;
  return p;
}

bank_config small_bank() {
  bank_config cfg;
  cfg.subarrays = 4;
  cfg.array.data_rows = 32;
  cfg.array.cols = 36;  // 4 lanes of 9 bits per subarray
  return cfg;
}

TEST(Bank, GeometryAndCtrlFootprint) {
  bp_ntt_bank bank(small_bank(), small_params());
  EXPECT_EQ(bank.compute_subarrays(), 3u);
  EXPECT_EQ(bank.lanes_per_wave(), 12u);
  // 2*(32-1)+5 = 67 words x 9 bits = 603 bits over 36-bit rows -> 17 rows.
  EXPECT_EQ(bank.ctrl_rows_used(), 17u);
  EXPECT_GT(bank.area_mm2(), 0.0);
}

TEST(Bank, BatchMatchesGoldenForEveryJob) {
  bp_ntt_bank bank(small_bank(), small_params());
  const auto p = small_params();
  const math::ntt_tables tables(p.n, p.q, true);
  common::xoshiro256ss rng(5);

  std::vector<std::vector<u64>> jobs(29);  // 2 full waves + ragged tail
  for (auto& j : jobs) {
    j.resize(p.n);
    for (auto& x : j) x = rng.below(p.q);
  }
  const auto r = bank.run_ntt_batch(jobs, transform_dir::forward);
  EXPECT_EQ(r.waves, 3u);  // ceil(29 / 12)
  EXPECT_EQ(r.outputs.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto expect = jobs[i];
    math::ntt_forward(expect, tables);
    ASSERT_EQ(r.outputs[i], expect) << "job " << i;
  }
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.stats.energy_pj, 0.0);
}

TEST(Bank, WaveLatencyIsMaxNotSum) {
  bp_ntt_bank bank(small_bank(), small_params());
  const auto p = small_params();
  common::xoshiro256ss rng(6);
  std::vector<std::vector<u64>> jobs(12);  // exactly one wave, 3 subarrays
  for (auto& j : jobs) {
    j.resize(p.n);
    for (auto& x : j) x = rng.below(p.q);
  }
  const auto r = bank.run_ntt_batch(jobs, transform_dir::forward);
  EXPECT_EQ(r.waves, 1u);
  // One wave across 3 concurrent subarrays: total cycles ~ one engine's
  // run, far below 3x of it.
  bp_ntt_bank single(small_bank(), small_params());
  std::vector<std::vector<u64>> one(jobs.begin(), jobs.begin() + 1);
  const auto r1 = single.run_ntt_batch(one, transform_dir::forward);
  EXPECT_LT(r.cycles, 2 * r1.cycles);
  // Energy is additive across subarrays though.
  EXPECT_GT(r.stats.energy_pj, 2.5 * r1.stats.energy_pj);
}

TEST(Bank, EmptyBatch) {
  bp_ntt_bank bank(small_bank(), small_params());
  const auto r = bank.run_ntt_batch({}, transform_dir::forward);
  EXPECT_EQ(r.waves, 0u);
  EXPECT_EQ(r.cycles, 0u);
}

TEST(Bank, RejectsBadConfigAndJobs) {
  bank_config cfg = small_bank();
  cfg.subarrays = 1;
  EXPECT_THROW(bp_ntt_bank(cfg, small_params()), std::invalid_argument);
  // The rejection must say why a lone subarray is unusable.
  try {
    cfg.validate();
    FAIL() << "validate() accepted subarrays = 1";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("CTRL/CMD"), std::string::npos);
  }

  bp_ntt_bank bank(small_bank(), small_params());
  std::vector<std::vector<u64>> bad(1, std::vector<u64>(7, 0));
  EXPECT_THROW((void)bank.run_ntt_batch(bad, transform_dir::forward), std::invalid_argument);
}

TEST(Bank, InverseBatchUndoesForwardBatch) {
  bp_ntt_bank bank(small_bank(), small_params());
  const auto p = small_params();
  common::xoshiro256ss rng(7);
  std::vector<std::vector<u64>> jobs(15);
  for (auto& j : jobs) {
    j.resize(p.n);
    for (auto& x : j) x = rng.below(p.q);
  }
  const auto fwd = bank.run_ntt_batch(jobs, transform_dir::forward);
  const auto back = bank.run_ntt_batch(fwd.outputs, transform_dir::inverse);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(back.outputs[i], jobs[i]) << "job " << i;
  }
}

TEST(Bank, PolymulBatchMatchesSchoolbook) {
  // 32 data rows hold only one 32-point operand; double the rows so the
  // a/b region pair fits, then multiply across a full wave + ragged tail.
  bank_config cfg = small_bank();
  cfg.array.data_rows = 64;
  const auto p = small_params();
  bp_ntt_bank bank(cfg, p);
  ASSERT_TRUE(bank.supports_polymul());
  common::xoshiro256ss rng(8);
  std::vector<polymul_pair> jobs(bank.lanes_per_wave() + 2);
  for (auto& j : jobs) {
    j.a.resize(p.n);
    j.b.resize(p.n);
    for (auto& x : j.a) x = rng.below(p.q);
    for (auto& x : j.b) x = rng.below(p.q);
  }
  const auto r = bank.run_polymul_batch(jobs);
  EXPECT_EQ(r.waves, 2u);
  EXPECT_EQ(r.stats.lossless_shift_violations, 0u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(r.outputs[i], math::schoolbook_negacyclic(jobs[i].a, jobs[i].b, p.q))
        << "job " << i;
  }
}

TEST(Bank, PolymulRejectedWhenOperandRegionsDoNotFit) {
  bp_ntt_bank bank(small_bank(), small_params());  // 32 rows, n = 32
  EXPECT_FALSE(bank.supports_polymul());
  std::vector<polymul_pair> one(1);
  one[0].a.assign(32, 0);
  one[0].b.assign(32, 0);
  EXPECT_THROW((void)bank.run_polymul_batch(one), std::invalid_argument);
}

// ---- rings bound to one bank ------------------------------------------------

ntt_params ring(u64 q, bool incomplete = false) {
  ntt_params p;
  p.n = 32;
  p.q = q;
  p.k = 10;
  p.incomplete = incomplete;
  return p;
}

// Two 32-point operand regions per lane; 4 lanes of 10 bits per subarray.
bank_config ring_bank() {
  bank_config cfg;
  cfg.subarrays = 4;
  cfg.array.data_rows = 64;
  cfg.array.cols = 40;
  return cfg;
}

// Outputs, wall clock and every integer count must match exactly.  Energy
// is a running double on each array, so a delta depends on the array's
// prior total: each ~0.1 pJ op rounds to the ulp of a total that reaches
// ~1e4 pJ here, which moves a batch's delta by ~6e-12 relative.  A missed
// or extra op would move it by ~1e-5.
void expect_same_run(const bank_run_result& got, const bank_run_result& want) {
  EXPECT_EQ(got.outputs, want.outputs);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.waves, want.waves);
  const sram::op_stats& g = got.stats;
  const sram::op_stats& w = want.stats;
  EXPECT_EQ(g.cycles, w.cycles);
  EXPECT_EQ(g.binary_ops, w.binary_ops);
  EXPECT_EQ(g.pair_ops, w.pair_ops);
  EXPECT_EQ(g.copy_ops, w.copy_ops);
  EXPECT_EQ(g.shift_ops, w.shift_ops);
  EXPECT_EQ(g.check_ops, w.check_ops);
  EXPECT_EQ(g.host_writes, w.host_writes);
  EXPECT_EQ(g.host_reads, w.host_reads);
  EXPECT_EQ(g.lossless_shift_violations, w.lossless_shift_violations);
  EXPECT_NEAR(g.energy_pj, w.energy_pj, 1e-10 * w.energy_pj);
}

TEST(Bank, RingsBoundInTurnMatchFreshSingleRingBanks) {
  // Rings A -> B -> A on one bank, every batch over all 3 compute
  // subarrays (a full wave plus a ragged one), against a fresh bank built
  // for each ring alone.  A is the bank's own ring (no library named); B
  // is bound by library.  The second sequence puts a full limb ring over
  // an incomplete (Kyber-mode) own ring: the bound ring, not the bank's,
  // chooses pointwise over basemul.
  const bank_config cfg = ring_bank();
  for (const auto& [own, limb] : {std::pair{ring(257), ring(449)},
                                  std::pair{ring(353, /*incomplete=*/true), ring(449)}}) {
    bp_ntt_bank bank(cfg, own);
    const auto limb_lib = std::make_shared<kernel_library>(cfg.array, limb);
    common::xoshiro256ss rng(own.q);
    for (const ntt_params& p : {own, limb, own}) {
      SCOPED_TRACE("q = " + std::to_string(p.q));
      std::vector<polymul_pair> pairs(bank.lanes_per_wave() + 2);
      for (auto& j : pairs) {
        j.a.resize(p.n);
        j.b.resize(p.n);
        for (auto& x : j.a) x = rng.below(p.q);
        for (auto& x : j.b) x = rng.below(p.q);
      }
      const auto lib = p.q == own.q ? nullptr : limb_lib;
      bp_ntt_bank fresh(cfg, p);
      std::vector<std::vector<u64>> polys;
      for (const auto& j : pairs) polys.push_back(j.a);
      expect_same_run(bank.run_ntt_batch(polys, transform_dir::forward, lib),
                      fresh.run_ntt_batch(polys, transform_dir::forward));
      const auto product = bank.run_polymul_batch(pairs, lib);
      expect_same_run(product, fresh.run_polymul_batch(pairs));
      if (!p.incomplete) {
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          ASSERT_EQ(product.outputs[i], math::schoolbook_negacyclic(pairs[i].a, pairs[i].b, p.q));
        }
      }
    }
  }
}

TEST(Bank, BindingRejectsALibraryOfAnotherGeometry) {
  bp_ntt_bank bank(ring_bank(), ring(257));
  engine_config narrow = ring_bank().array;
  narrow.data_rows = 32;
  const auto other = std::make_shared<kernel_library>(narrow, ring(449));
  std::vector<std::vector<u64>> one(1, std::vector<u64>(32, 0));
  EXPECT_THROW((void)bank.run_ntt_batch(one, transform_dir::forward, other),
               std::invalid_argument);
  // The rejected bind leaves the bank usable on its own ring.
  EXPECT_EQ(bank.run_ntt_batch(one, transform_dir::forward).outputs, one);
}

}  // namespace
}  // namespace bpntt::core
