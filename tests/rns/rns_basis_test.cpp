// RNS basis and residue-polynomial unit tests: chain validation, CRT
// constant identities, decompose/recombine round-trips, and the lazy
// reduction's canonical output.
#include "rns/rns_basis.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/xoshiro.h"
#include "nttmath/primes.h"
#include "rns/rns_poly.h"

namespace bpntt::rns {
namespace {

math::wide_uint random_below(const math::wide_uint& m, common::xoshiro256ss& rng) {
  math::wide_uint c(m.bits());
  for (unsigned b = 0; b < m.bits(); ++b) c.set_bit(b, rng() & 1ULL);
  return c.divmod(m).rem;
}

TEST(RnsBasis, WithLimbBitsBuildsAscendingCoprimeChain) {
  const auto basis = rns_basis::with_limb_bits(64, 14, 4);
  ASSERT_EQ(basis.limbs(), 4u);
  for (std::size_t i = 0; i < basis.limbs(); ++i) {
    EXPECT_TRUE(math::is_prime(basis.prime(i)));
    EXPECT_EQ((basis.prime(i) - 1) % 128, 0u) << "limb " << i;
    if (i > 0) EXPECT_GT(basis.prime(i), basis.prime(i - 1));
  }
  // Modulus magnitude: the product of four 14-bit primes is 53..56 bits.
  EXPECT_GE(basis.modulus_bits(), 53u);
  EXPECT_LE(basis.modulus_bits(), 56u);
  EXPECT_GT(basis.wide_bits(), basis.modulus_bits());
}

TEST(RnsBasis, CrtConstantsSatisfyTheReconstructionIdentity) {
  const auto basis = rns_basis::with_limb_bits(32, 12, 3);
  // sum_i y_i * M_i == 1 (mod M): recombining the all-ones residue vector
  // must produce 1.
  rns_poly ones;
  ones.residues.assign(basis.limbs(), {1});
  const auto lifted = rns_recombine(ones, basis);
  ASSERT_EQ(lifted.size(), 1u);
  EXPECT_EQ(lifted[0].low64(), 1u);
  EXPECT_EQ(lifted[0].to_hex(), "1");
  // And each M_i must be divisible by every other prime but not its own.
  for (std::size_t i = 0; i < basis.limbs(); ++i) {
    for (std::size_t j = 0; j < basis.limbs(); ++j) {
      const u64 rem = basis.crt().term(i).mod_u64(basis.prime(j));
      if (i == j) {
        EXPECT_NE(rem, 0u);
      } else {
        EXPECT_EQ(rem, 0u);
      }
    }
  }
}

TEST(RnsBasis, DecomposeRecombineRoundTripsRandomValues) {
  const auto basis = rns_basis::with_limb_bits(64, 13, 4);
  common::xoshiro256ss rng(11);
  std::vector<math::wide_uint> coeffs;
  coeffs.reserve(64);
  for (unsigned i = 0; i < 64; ++i) coeffs.push_back(random_below(basis.modulus(), rng));
  // Edge values ride along: 0, 1, M-1.
  coeffs[0] = math::wide_uint(basis.wide_bits());
  coeffs[1] = math::wide_uint(basis.wide_bits(), 1);
  coeffs[2] = basis.modulus().sub(math::wide_uint(basis.wide_bits(), 1));

  const rns_poly p = rns_decompose(coeffs, basis);
  ASSERT_EQ(p.limbs(), basis.limbs());
  const auto back = rns_recombine(p, basis);
  ASSERT_EQ(back.size(), coeffs.size());
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    EXPECT_TRUE(back[i] == coeffs[i]) << "coefficient " << i;
    EXPECT_TRUE(back[i] < basis.modulus()) << "not canonical at " << i;
  }
}

TEST(RnsBasis, ExplicitChainValidationNamesTheOffendingLimb) {
  // Non-prime limb.
  try {
    rns_basis(64, {12289, 12288});
    FAIL() << "composite limb accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("limb 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("12288"), std::string::npos);
  }
  // Duplicate limb (coprimality violation).
  try {
    rns_basis(64, {12289, 13313, 12289});
    FAIL() << "duplicate limb accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate prime 12289"), std::string::npos);
  }
  // NTT-unfriendly limb: 7 is prime but 6 % 128 != 0.
  try {
    rns_basis(64, {12289, 7});
    FAIL() << "NTT-unfriendly limb accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("q == 1 mod 2n"), std::string::npos);
  }
  EXPECT_THROW(rns_basis(64, {}), std::invalid_argument);
  EXPECT_THROW(rns_basis(63, {12289}), std::invalid_argument);  // n not a power of two
}

TEST(RnsPoly, RecombineRejectsShapeMismatches) {
  const auto basis = rns_basis::with_limb_bits(32, 12, 2);
  rns_poly p;
  p.residues = {{1, 2}, {3}};  // ragged
  EXPECT_THROW((void)rns_recombine(p, basis), std::invalid_argument);
  p.residues = {{1, 2}};  // wrong limb count
  EXPECT_THROW((void)rns_recombine(p, basis), std::invalid_argument);
}

TEST(RnsPoly, DecomposeRejectsNonCanonicalCoefficients) {
  const auto basis = rns_basis::with_limb_bits(32, 12, 2);
  std::vector<math::wide_uint> bad{basis.modulus()};  // == M
  EXPECT_THROW((void)rns_decompose(bad, basis), std::invalid_argument);
  std::vector<math::wide_uint> wrong_width{math::wide_uint(8, 1)};
  EXPECT_THROW((void)rns_decompose(wrong_width, basis), std::invalid_argument);
}

TEST(RnsPoly, SchoolbookOracleMatchesPerLimbSchoolbook) {
  // The wide oracle agrees with doing schoolbook per limb and lifting:
  // two independent routes to the same ring product.
  const auto basis = rns_basis::with_limb_bits(8, 12, 3);
  common::xoshiro256ss rng(23);
  std::vector<math::wide_uint> a, b;
  for (unsigned i = 0; i < 8; ++i) {
    a.push_back(random_below(basis.modulus(), rng));
    b.push_back(random_below(basis.modulus(), rng));
  }
  const auto wide = schoolbook_negacyclic_wide(a, b, basis.modulus());

  const rns_poly pa = rns_decompose(a, basis);
  const rns_poly pb = rns_decompose(b, basis);
  rns_poly per_limb;
  per_limb.residues.resize(basis.limbs());
  for (std::size_t i = 0; i < basis.limbs(); ++i) {
    const u64 q = basis.prime(i);
    std::vector<u64> c(8, 0);
    for (unsigned x = 0; x < 8; ++x) {
      for (unsigned y = 0; y < 8; ++y) {
        const u64 prod = math::mul_mod(pa.residues[i][x], pb.residues[i][y], q);
        const unsigned k = (x + y) % 8;
        c[k] = x + y < 8 ? math::add_mod(c[k], prod, q) : math::sub_mod(c[k], prod, q);
      }
    }
    per_limb.residues[i] = std::move(c);
  }
  const auto lifted = rns_recombine(per_limb, basis);
  for (unsigned i = 0; i < 8; ++i) EXPECT_TRUE(lifted[i] == wide[i]) << "coefficient " << i;
}

}  // namespace
}  // namespace bpntt::rns
