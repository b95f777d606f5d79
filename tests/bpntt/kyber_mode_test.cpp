// In-array incomplete-NTT (standardized Kyber) mode: the engine runs
// n=256 / q=3329 natively — forward/inverse transforms and the degree-1
// base multiplications — verified against the golden incomplete transform
// and the schoolbook negacyclic product.
#include <gtest/gtest.h>

#include "bpntt/engine.h"
#include "common/xoshiro.h"
#include "nttmath/incomplete_ntt.h"
#include "nttmath/poly.h"

namespace bpntt::core {
namespace {

std::vector<u64> random_poly(u64 n, u64 q, common::xoshiro256ss& rng) {
  std::vector<u64> v(n);
  for (auto& x : v) x = rng.below(q);
  return v;
}

ntt_params kyber256() {
  ntt_params p;
  p.n = 256;
  p.q = 3329;
  p.k = 13;
  p.incomplete = true;
  return p;
}

TEST(KyberMode, Forward256MatchesGoldenOnAllLanes) {
  engine_config cfg;  // 256x256: 19 lanes of 13-bit tiles
  bp_ntt_engine eng(cfg, kyber256());
  ASSERT_NE(eng.incomplete_tables(), nullptr);
  common::xoshiro256ss rng(1);
  std::vector<std::vector<u64>> in(eng.lanes());
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    in[lane] = random_poly(256, 3329, rng);
    eng.load_polynomial(lane, in[lane]);
  }
  const auto stats = eng.run_forward();
  EXPECT_EQ(stats.lossless_shift_violations, 0u);
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    auto expect = in[lane];
    math::incomplete_ntt_forward(expect, *eng.incomplete_tables());
    ASSERT_EQ(eng.peek_polynomial(lane, 256), expect) << "lane " << lane;
  }
}

TEST(KyberMode, RoundTrip256) {
  engine_config cfg;
  bp_ntt_engine eng(cfg, kyber256());
  common::xoshiro256ss rng(2);
  const auto in = random_poly(256, 3329, rng);
  eng.load_polynomial(0, in);
  eng.run_forward();
  eng.run_inverse();
  EXPECT_EQ(eng.peek_polynomial(0, 256), in);
}

TEST(KyberMode, FullPolymulInArray) {
  // NTT(a), NTT(b), basemul, INTT entirely in-array at n=128 (two row
  // regions of the Kyber modulus; the 256-point pair needs 512 data rows,
  // beyond one subarray's 9-bit addressing — see DESIGN.md §6).
  ntt_params p;
  p.n = 128;
  p.q = 3329;
  p.k = 13;
  p.incomplete = true;
  engine_config cfg;  // 256 data rows: a at [0,128), b at [128,256)
  bp_ntt_engine eng(cfg, p);
  common::xoshiro256ss rng(3);

  std::vector<std::vector<u64>> a(eng.lanes()), b(eng.lanes());
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    a[lane] = random_poly(128, 3329, rng);
    b[lane] = random_poly(128, 3329, rng);
    eng.load_polynomial(lane, a[lane], eng.poly_region(0));
    eng.load_polynomial(lane, b[lane], eng.poly_region(128));
  }
  eng.run_forward(eng.poly_region(0));
  eng.run_forward(eng.poly_region(128));
  const auto stats = eng.run_basemul(eng.poly_region(0), eng.poly_region(128), /*scale_b=*/true);
  EXPECT_EQ(stats.lossless_shift_violations, 0u);
  eng.run_inverse(eng.poly_region(0));
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    ASSERT_EQ(eng.peek_polynomial(lane, 128),
              math::schoolbook_negacyclic(a[lane], b[lane], 3329))
        << "lane " << lane;
  }
}

TEST(KyberMode, BasemulAloneMatchesGolden) {
  ntt_params p;
  p.n = 16;
  p.q = 97;
  p.k = 8;
  p.incomplete = true;
  engine_config cfg;
  cfg.data_rows = 32;
  cfg.cols = 64;
  bp_ntt_engine eng(cfg, p);
  common::xoshiro256ss rng(4);
  std::vector<std::vector<u64>> a(eng.lanes()), b(eng.lanes());
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    a[lane] = random_poly(16, 97, rng);
    b[lane] = random_poly(16, 97, rng);
    eng.load_polynomial(lane, a[lane], eng.poly_region(0));
    eng.load_polynomial(lane, b[lane], eng.poly_region(16));
  }
  eng.run_basemul(eng.poly_region(0), eng.poly_region(16), true);
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    std::vector<u64> expect(16);
    math::incomplete_basemul(a[lane], b[lane], expect, *eng.incomplete_tables());
    ASSERT_EQ(eng.peek_polynomial(lane, 16), expect) << "lane " << lane;
  }
  // The compiled basemul program is cached like the transforms: a repeat
  // run with the same operand regions must not recompile.
  const std::size_t compiled = eng.cached_programs();
  eng.run_basemul(eng.poly_region(0), eng.poly_region(16), true);
  EXPECT_EQ(eng.cached_programs(), compiled);
}

TEST(KyberMode, CompleteModeRejectsBasemul) {
  ntt_params p;
  p.n = 16;
  p.q = 97;
  p.k = 8;  // complete transform
  engine_config cfg;
  cfg.data_rows = 32;
  cfg.cols = 64;
  bp_ntt_engine eng(cfg, p);
  EXPECT_THROW((void)eng.run_basemul(eng.poly_region(0), eng.poly_region(16), true),
               std::logic_error);
}

TEST(KyberMode, ParamValidation) {
  ntt_params p;
  p.n = 256;
  p.q = 3329;
  p.k = 13;
  p.incomplete = false;  // complete transform needs 512 | q-1: invalid
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.incomplete = true;
  EXPECT_NO_THROW(p.validate());
}

}  // namespace
}  // namespace bpntt::core
