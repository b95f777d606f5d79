// Exact op_stats pins for every engine kernel.
//
// The cycle and energy figures are the paper-facing output of the model,
// so a change to how the subarray simulates its micro-ops must leave them
// bit-identical: the same cycles, the same count per op class, the same
// lossless-shift violations and the same energy_pj double (compared
// exactly; a mismatch prints both values as hexfloat).  Inputs are seeded,
// so the data-dependent zero-flag branches take the same path every run.
// Two rings are pinned: the Table-I point (n=256, q=12289, 16-bit tiles,
// 16 lanes filling the 256 columns) and a Kyber ring on 14-bit tiles
// (18 lanes, tiles straddle 64-bit limbs, 4 spare columns).
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <vector>

#include "bpntt/engine.h"
#include "common/xoshiro.h"

namespace bpntt::core {
namespace {

struct pin {
  std::uint64_t cycles;
  std::uint64_t binary_ops;
  std::uint64_t pair_ops;
  std::uint64_t copy_ops;
  std::uint64_t shift_ops;
  std::uint64_t check_ops;
  std::uint64_t lossless_shift_violations;
  double energy_pj;
};

std::string hex(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

void expect_pinned(const sram::op_stats& s, const pin& p, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(s.cycles, p.cycles);
  EXPECT_EQ(s.binary_ops, p.binary_ops);
  EXPECT_EQ(s.pair_ops, p.pair_ops);
  EXPECT_EQ(s.copy_ops, p.copy_ops);
  EXPECT_EQ(s.shift_ops, p.shift_ops);
  EXPECT_EQ(s.check_ops, p.check_ops);
  EXPECT_EQ(s.lossless_shift_violations, p.lossless_shift_violations);
  EXPECT_EQ(s.host_reads, 0u);
  EXPECT_EQ(s.host_writes, 0u);
  EXPECT_TRUE(s.energy_pj == p.energy_pj)
      << "energy_pj " << hex(s.energy_pj) << " != pinned " << hex(p.energy_pj);
}

void load_lanes(bp_ntt_engine& eng, const region& r, common::xoshiro256ss& rng) {
  const u64 q = eng.params().q;
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    std::vector<u64> v(r.rows());
    for (auto& x : v) x = rng.below(q);
    eng.load_polynomial(lane, v, r);
  }
}

TEST(OpStatsPin, TableOneRingKernels) {
  ntt_params p;
  p.n = 256;
  p.q = 12289;
  p.k = 16;
  bp_ntt_engine eng(engine_config{}, p);
  ASSERT_EQ(eng.lanes(), 16u);
  common::xoshiro256ss rng(0x7AB1E1);
  load_lanes(eng, eng.poly_region(), rng);

  expect_pinned(eng.run_forward(),
                {297473, 43432, 108315, 23552, 62835, 59339, 0, 0x1.2e621470669d1p+16},
                "run_forward");
  expect_pinned(eng.run_inverse(),
                {344527, 52822, 125225, 29184, 70611, 66685, 0, 0x1.5ed93fbbdce5ap+16},
                "run_inverse");

  const auto& lay = eng.layout();
  const region a = lay.make_region(0, 128), b = lay.make_region(128, 128);
  expect_pinned(eng.run_pointwise(a, b, a, /*scale_b=*/true),
                {61369, 13568, 21395, 6656, 10131, 9619, 0, 0x1.f836415f3562p+13},
                "run_pointwise");

  const region ra = lay.make_region(7, 1), rb = lay.make_region(200, 1),
               rd = lay.make_region(31, 1);
  expect_pinned(eng.run_modmul_rows(ra, rb, rd),
                {279, 66, 92, 34, 43, 44, 0, 0x1.23ac5c13f28p+6}, "run_modmul_rows");
}

TEST(OpStatsPin, KyberRingOnFourteenBitTiles) {
  ntt_params p;
  p.n = 128;
  p.q = 3329;
  p.k = 14;
  p.incomplete = true;
  bp_ntt_engine eng(engine_config{}, p);
  ASSERT_EQ(eng.lanes(), 18u);
  common::xoshiro256ss rng(0x14B17);
  const region a = eng.poly_region(0), b = eng.poly_region(128);
  load_lanes(eng, a, rng);
  load_lanes(eng, b, rng);

  expect_pinned(eng.run_forward(a),
                {104898, 14664, 38086, 8064, 22654, 21430, 0, 0x1.a9a964302c8b5p+14},
                "run_forward a");
  expect_pinned(eng.run_forward(b),
                {104367, 14664, 37909, 8064, 22477, 21253, 0, 0x1.a79f48a9bb34fp+14},
                "run_forward b");
  expect_pinned(eng.run_basemul(a, b, /*scale_b=*/true),
                {103884, 21477, 35698, 11008, 17997, 17704, 0, 0x1.a81ded139c536p+14},
                "run_basemul");
  expect_pinned(eng.run_inverse(a),
                {124921, 18566, 45143, 10496, 25937, 24779, 0, 0x1.fbaf8e9f807b4p+14},
                "run_inverse");

  const auto& lay = eng.layout();
  const region ra = lay.make_region(3, 1), rb = lay.make_region(130, 1),
               rd = lay.make_region(64, 1);
  expect_pinned(eng.run_modmul_rows(ra, rb, rd),
                {252, 58, 83, 30, 40, 41, 0, 0x1.06f6555c5bp+6}, "run_modmul_rows");
}

}  // namespace
}  // namespace bpntt::core
