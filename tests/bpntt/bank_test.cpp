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

}  // namespace
}  // namespace bpntt::core
