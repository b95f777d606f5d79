// RNS modulus switching (rescale) tests: the divide-and-round differential
// against the wide_uint oracle across backends and limb counts, the
// derived-basis surface (drop_last / switch_to), the fused
// modswitch_polymul, the NTT-domain operand cache (hits, invalidation,
// disabled mode), and the submit_rescale validation surface.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/xoshiro.h"
#include "rns/rns_engine.h"
#include "runtime/context.h"

namespace bpntt::rns {
namespace {

using runtime::backend_kind;
using runtime::runtime_options;

constexpr u64 kOrder = 32;          // 2n = 64 rows fits the small test array
constexpr unsigned kLimbBits = 12;
constexpr unsigned kTileBits = 13;  // 2q < 2^13 for every 12-bit limb

runtime_options small_options(backend_kind kind, u64 q0) {
  return runtime_options()
      .with_ring(kOrder, q0, kTileBits)
      .with_backend(kind)
      .with_array(64, 39)
      .with_topology(4, 1, 4)
      .with_threads(4);
}

std::vector<math::wide_uint> random_big_poly(const rns_basis& basis,
                                             common::xoshiro256ss& rng) {
  std::vector<math::wide_uint> p;
  p.reserve(kOrder);
  for (u64 i = 0; i < kOrder; ++i) {
    math::wide_uint c(basis.wide_bits());
    for (unsigned b = 0; b < basis.modulus_bits(); ++b) c.set_bit(b, rng() & 1ULL);
    p.push_back(c.divmod(basis.modulus()).rem);
  }
  return p;
}

// The oracle rescale of canonical big coefficients: divround by the
// dropped prime, reduce mod the smaller modulus, decompose.
rns_poly oracle_rescale(const std::vector<math::wide_uint>& x, const rns_basis& from) {
  const rns_basis to = from.drop_last();
  const math::wide_uint q_drop(64, from.prime(from.limbs() - 1));
  std::vector<math::wide_uint> scaled;
  scaled.reserve(x.size());
  for (const auto& c : x) {
    scaled.push_back(c.divround(q_drop).divmod(to.modulus()).rem.resized(to.wide_bits()));
  }
  return rns_decompose(scaled, to);
}

// ---- the acceptance differential -------------------------------------------

class RnsRescaleDifferential
    : public ::testing::TestWithParam<std::tuple<backend_kind, unsigned>> {};

TEST_P(RnsRescaleDifferential, RescaleMatchesWideDivroundOracle) {
  const auto [kind, limbs] = GetParam();
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, limbs);
  runtime::context ctx(small_options(kind, basis.prime(0)));
  rns_engine eng(ctx, basis);

  common::xoshiro256ss rng(500 + limbs);
  const auto x = random_big_poly(basis, rng);
  const rns_poly got = eng.rescale(eng.lower(x));
  const rns_poly expect = oracle_rescale(x, basis);

  ASSERT_EQ(got.limbs(), limbs - 1u);
  for (std::size_t i = 0; i < got.limbs(); ++i) {
    EXPECT_EQ(got.residues[i], expect.residues[i])
        << "backend " << to_string(kind) << ", " << limbs << " limbs, limb " << i;
  }
}

TEST_P(RnsRescaleDifferential, ModswitchPolymulMatchesSchoolbookPlusDivround) {
  const auto [kind, limbs] = GetParam();
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, limbs);
  runtime::context ctx(small_options(kind, basis.prime(0)));
  rns_engine eng(ctx, basis);

  common::xoshiro256ss rng(700 + limbs);
  const auto a = random_big_poly(basis, rng);
  const auto b = random_big_poly(basis, rng);

  const auto got = eng.modswitch_polymul(a, b);
  const auto product = schoolbook_negacyclic_wide(a, b, basis.modulus());
  const rns_poly expect = oracle_rescale(product, basis);
  const auto lifted = rns_recombine(expect, eng.dropped_basis());
  ASSERT_EQ(got.size(), lifted.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == lifted[i]) << "backend " << to_string(kind) << ", " << limbs
                                     << " limbs, coefficient " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndLimbCounts, RnsRescaleDifferential,
    ::testing::Combine(::testing::Values(backend_kind::sram, backend_kind::cpu,
                                         backend_kind::reference),
                       ::testing::Values(2u, 3u, 4u)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_limbs" +
             std::to_string(std::get<1>(info.param));
    });

// Chained rescales walk a 4-limb basis down to one limb exactly.
TEST(RnsRescale, ChainedRescalesConsumeEveryLevel) {
  auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 4);
  runtime::context ctx(small_options(backend_kind::sram, basis.prime(0)));
  common::xoshiro256ss rng(77);
  auto x = random_big_poly(basis, rng);

  while (basis.limbs() > 1) {
    rns_engine eng(ctx, basis);
    const rns_poly got = eng.rescale(eng.lower(x));
    const rns_poly expect = oracle_rescale(x, basis);
    const rns_basis next = basis.drop_last();
    for (std::size_t i = 0; i < got.limbs(); ++i) {
      ASSERT_EQ(got.residues[i], expect.residues[i])
          << basis.limbs() << " limbs, limb " << i;
    }
    x = rns_recombine(got, next);
    basis = next;
  }
  EXPECT_EQ(basis.limbs(), 1u);
}

// ---- derived bases ---------------------------------------------------------

TEST(RnsBasisDerivation, DropLastRebuildsConstantsForThePrefix) {
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 3);
  const auto dropped = basis.drop_last();
  ASSERT_EQ(dropped.limbs(), 2u);
  EXPECT_EQ(dropped.prime(0), basis.prime(0));
  EXPECT_EQ(dropped.prime(1), basis.prime(1));
  // M' = q_0 * q_1, rebuilt exactly (spot-check through a round trip).
  const math::wide_uint m64 = dropped.modulus().resized(128);
  EXPECT_EQ(m64.low64(), basis.prime(0) * basis.prime(1));

  const auto one_limb = dropped.drop_last();
  EXPECT_EQ(one_limb.limbs(), 1u);
  EXPECT_THROW((void)one_limb.drop_last(), std::invalid_argument);
}

TEST(RnsBasisDerivation, SwitchToAcceptsExactlyPrefixes) {
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 4);
  const auto two = rns_basis(kOrder, {basis.prime(0), basis.prime(1)});
  const auto derived = basis.switch_to(two);
  EXPECT_EQ(derived.limbs(), 2u);
  EXPECT_TRUE(derived.modulus() == two.modulus());

  // switch_to(drop_last()) == drop_last(): the one-step switch.
  const auto three = basis.switch_to(basis.drop_last());
  EXPECT_EQ(three.limbs(), 3u);
  EXPECT_TRUE(three.modulus() == basis.drop_last().modulus());

  // Not a prefix: same primes, wrong order / wrong member.
  EXPECT_THROW((void)basis.switch_to(rns_basis(kOrder, {basis.prime(1), basis.prime(0)})),
               std::invalid_argument);
  // Not smaller.
  EXPECT_THROW((void)basis.switch_to(basis), std::invalid_argument);
  // Wrong ring order.
  EXPECT_THROW((void)basis.switch_to(rns_basis(16, {basis.prime(0)})),
               std::invalid_argument);
}

TEST(RnsRescale, OneLimbBasisCannotRescale) {
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 1);
  runtime::context ctx(small_options(backend_kind::reference, basis.prime(0)));
  rns_engine eng(ctx, basis);
  common::xoshiro256ss rng(5);
  const auto x = random_big_poly(basis, rng);
  EXPECT_THROW((void)eng.rescale(eng.lower(x)), std::invalid_argument);
}

// ---- the NTT-domain operand cache ------------------------------------------

class RnsOperandCache : public ::testing::TestWithParam<backend_kind> {};

TEST_P(RnsOperandCache, RepeatedOperandPolymulHitsWithUnchangedResults) {
  const auto kind = GetParam();
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 3);
  runtime::context ctx(small_options(kind, basis.prime(0)));
  rns_engine eng(ctx, basis);

  common::xoshiro256ss rng(900);
  const auto a = random_big_poly(basis, rng);
  const auto b = random_big_poly(basis, rng);

  const auto first = eng.polymul(a, b);
  const auto cold = ctx.stats();
  EXPECT_GT(cold.operand_cache_misses, 0u) << "a cold product must populate the cache";

  // The same operands again: every limb transform is served from the cache
  // and the product is bit-identical.
  const auto second = eng.polymul(a, b);
  const auto warm = ctx.stats();
  EXPECT_GT(warm.operand_cache_hits, cold.operand_cache_hits)
      << "a repeated-operand product must hit the NTT-domain cache";
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i] == second[i]) << "caching changed the math at " << i;
  }
  // And the expected answer is still the schoolbook one.
  const auto expect = schoolbook_negacyclic_wide(a, b, basis.modulus());
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_TRUE(second[i] == expect[i]) << "coefficient " << i;
  }
}

// Residency is a property of the device's rows: only sram has it.
INSTANTIATE_TEST_SUITE_P(Backends, RnsOperandCache, ::testing::Values(backend_kind::sram),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(RnsOperandCacheSurface, SramWarmTransformCostsZeroArrayCycles) {
  // The modelled win: a fully-warm limb dispatch skips the array entirely.
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 2);
  runtime::context ctx(small_options(backend_kind::sram, basis.prime(0)));
  rns_engine eng(ctx, basis);
  common::xoshiro256ss rng(901);
  const auto x = random_big_poly(basis, rng);
  const rns_poly p = eng.lower(x);

  const auto cold = eng.forward(p);
  const u64 cold_cycles = ctx.stats().wall_cycles;
  EXPECT_GT(cold_cycles, 0u);
  const auto warm = eng.forward(p);
  EXPECT_EQ(ctx.stats().wall_cycles, cold_cycles)
      << "a fully-cached forward fan-out must not advance the virtual timeline";
  for (std::size_t i = 0; i < p.limbs(); ++i) {
    EXPECT_EQ(warm.residues[i], cold.residues[i]);
  }
}

TEST(RnsOperandCacheSurface, InvalidationDropsOneOperandEverywhere) {
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 2);
  runtime::context ctx(small_options(backend_kind::sram, basis.prime(0)));
  rns_engine eng(ctx, basis);
  common::xoshiro256ss rng(902);
  const auto x = random_big_poly(basis, rng);
  const rns_poly p = eng.lower(x);

  (void)eng.forward(p);
  const auto size_before = ctx.operand_cache_size();
  EXPECT_GT(size_before, 0u);

  // Invalidate limb 0's residues: its entry goes, the other limb's stays.
  ctx.invalidate_operand(p.residues[0]);
  EXPECT_EQ(ctx.operand_cache_size(), size_before - 1);

  // Re-transforming re-misses exactly the invalidated operand.
  const auto misses_before = ctx.stats().operand_cache_misses;
  (void)eng.forward(p);
  EXPECT_EQ(ctx.stats().operand_cache_misses, misses_before + 1);
}

TEST(RnsOperandCacheSurface, DisabledCacheStaysCorrectWithZeroCounters) {
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 2);
  auto opts = small_options(backend_kind::sram, basis.prime(0)).with_operand_cache(0);
  runtime::context ctx(opts);
  rns_engine eng(ctx, basis);
  common::xoshiro256ss rng(903);
  const auto a = random_big_poly(basis, rng);
  const auto b = random_big_poly(basis, rng);

  const auto c1 = eng.polymul(a, b);
  const auto c2 = eng.polymul(a, b);
  const auto s = ctx.stats();
  EXPECT_EQ(s.operand_cache_hits, 0u);
  EXPECT_EQ(s.operand_cache_misses, 0u);
  EXPECT_EQ(ctx.operand_cache_size(), 0u);
  const auto expect = schoolbook_negacyclic_wide(a, b, basis.modulus());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_TRUE(c1[i] == expect[i]);
    EXPECT_TRUE(c2[i] == expect[i]);
  }
}

// ---- submit_rescale validation ---------------------------------------------

TEST(RescaleSubmission, ValidatesPrimesAndResidues) {
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 2);
  runtime::context ctx(small_options(backend_kind::sram, basis.prime(0)));
  const u64 q0 = basis.prime(0);
  const u64 q1 = basis.prime(1);
  auto limb = ctx.rns_stream(q0);
  const std::vector<u64> zeros(kOrder, 0);

  // The job must name its stream's ring modulus.
  runtime::rns_rescale_job wrong_stream{.prime = q1, .drop_prime = q0, .x = zeros,
                                        .dropped = zeros};
  EXPECT_THROW((void)limb.submit(std::move(wrong_stream)), std::invalid_argument);

  // The dropped modulus must be an odd prime distinct from the limb's.
  runtime::rns_rescale_job composite{.prime = q0, .drop_prime = q1 - 1, .x = zeros,
                                     .dropped = zeros};
  EXPECT_THROW((void)limb.submit(std::move(composite)), std::invalid_argument);
  runtime::rns_rescale_job self_drop{.prime = q0, .drop_prime = q0, .x = zeros,
                                     .dropped = zeros};
  EXPECT_THROW((void)limb.submit(std::move(self_drop)), std::invalid_argument);

  // Residues validate against their own moduli (x mod prime, dropped mod
  // drop_prime).
  runtime::rns_rescale_job bad_x{.prime = q0, .drop_prime = q1,
                                 .x = std::vector<u64>(kOrder, q0), .dropped = zeros};
  EXPECT_THROW((void)limb.submit(std::move(bad_x)), std::invalid_argument);
  runtime::rns_rescale_job bad_dropped{.prime = q0, .drop_prime = q1, .x = zeros,
                                       .dropped = std::vector<u64>(kOrder, q1)};
  EXPECT_THROW((void)limb.submit(std::move(bad_dropped)), std::invalid_argument);

  // And a valid job executes: x = dropped = 0 rescales to 0.
  runtime::rns_rescale_job ok{.prime = q0, .drop_prime = q1, .x = zeros, .dropped = zeros};
  const auto id = limb.submit(std::move(ok));
  const auto r = ctx.wait(id);
  EXPECT_EQ(r.outputs.front(), zeros);
}

}  // namespace
}  // namespace bpntt::rns
