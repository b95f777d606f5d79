// RNS base extension tests: the exact-lift differential against the
// wide_uint CRT oracle across backends and limb counts, source chains
// outside rns_basis's domain and the direct-call bypass check, the
// congruence-preserving (BGV-style) rescale against a brute-force
// minimal-lift oracle, the submit_base_extend validation surface, and the
// switch_to divergence diagnostics.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/xoshiro.h"
#include "nttmath/primes.h"
#include "rns/rns_engine.h"
#include "runtime/context.h"

namespace bpntt::rns {
namespace {

using runtime::backend_kind;
using runtime::runtime_options;

constexpr u64 kOrder = 32;
constexpr unsigned kLimbBits = 12;
constexpr unsigned kTileBits = 13;

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

// ---- base extension vs the exact lift --------------------------------------

class RnsBaseExtendDifferential
    : public ::testing::TestWithParam<std::tuple<backend_kind, unsigned>> {};

TEST_P(RnsBaseExtendDifferential, ExtensionMatchesExactLiftOracle) {
  const auto [kind, limbs] = GetParam();
  // Two extra primes past the chain play the extension limbs.
  const auto all = math::first_k_ntt_primes(kLimbBits, kOrder, limbs + 2, /*negacyclic=*/true);
  const rns_basis source(kOrder, {all.begin(), all.begin() + limbs});
  const rns_basis target(kOrder, all);
  runtime::context ctx(small_options(kind, source.prime(0)));
  rns_engine eng(ctx, source);

  common::xoshiro256ss rng(1200 + limbs);
  const auto x = random_big_poly(source, rng);
  const rns_poly p = eng.lower(x);
  const rns_poly got = eng.base_extend(p, target);

  ASSERT_EQ(got.limbs(), limbs + 2u);
  // The source limbs travel unchanged; every new limb is the residue of the
  // EXACT lift (x is canonical < M, so x mod p_new, nothing approximate).
  for (std::size_t i = 0; i < source.limbs(); ++i) {
    EXPECT_EQ(got.residues[i], p.residues[i])
        << "backend " << to_string(kind) << ", source limb " << i << " changed";
  }
  for (std::size_t i = source.limbs(); i < target.limbs(); ++i) {
    const u64 q = target.prime(i);
    for (u64 c = 0; c < kOrder; ++c) {
      ASSERT_EQ(got.residues[i][c], x[c].mod_u64(q))
          << "backend " << to_string(kind) << ", " << limbs << " limbs, new limb " << i
          << ", coefficient " << c;
    }
  }
}

TEST_P(RnsBaseExtendDifferential, ExtendedRecombinationIsTheSameValue) {
  const auto [kind, limbs] = GetParam();
  const auto all = math::first_k_ntt_primes(kLimbBits, kOrder, limbs + 1, /*negacyclic=*/true);
  const rns_basis source(kOrder, {all.begin(), all.begin() + limbs});
  const rns_basis target(kOrder, all);
  runtime::context ctx(small_options(kind, source.prime(0)));
  rns_engine eng(ctx, source);

  common::xoshiro256ss rng(1300 + limbs);
  const auto x = random_big_poly(source, rng);
  const rns_poly got = eng.base_extend(eng.lower(x), target);
  // Lifting over the larger basis gives back x itself (x < M_source), the
  // round trip that makes the extension "exact".
  const auto lifted = rns_recombine(got, target);
  for (u64 c = 0; c < kOrder; ++c) {
    EXPECT_TRUE(lifted[c] == x[c].resized(target.wide_bits())) << "coefficient " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndLimbCounts, RnsBaseExtendDifferential,
    ::testing::Combine(::testing::Values(backend_kind::sram, backend_kind::cpu,
                                         backend_kind::reference),
                       ::testing::Values(2u, 3u, 4u)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_limbs" +
             std::to_string(std::get<1>(info.param));
    });

// ---- base extension outside rns_basis's domain ------------------------------

class BaseExtendAnyCoprimeChain : public ::testing::TestWithParam<backend_kind> {};

TEST_P(BaseExtendAnyCoprimeChain, LiftsExactlyAgainstAGarnerOracle) {
  // Submit validation asks only for distinct odd primes, so the source
  // chain may hold a prime with no 2n-th root of unity (11: 64 does not
  // divide 10) and one above the 2^62 limb limit — neither of which an
  // rns_basis admits.  The lift must still be exact.
  u64 big = (1ULL << 62) + 1;
  while (!math::is_prime(big)) big += 2;
  const auto ntt = math::first_k_ntt_primes(kLimbBits, kOrder, 2, /*negacyclic=*/true);
  const std::vector<u64> sources = {11, big, ntt[0]};
  const u64 target = ntt[1];
  runtime::context ctx(small_options(GetParam(), ntt[0]));

  common::xoshiro256ss rng(1500);
  std::vector<std::vector<u64>> residues;
  for (const u64 p : sources) {
    std::vector<u64> r(kOrder);
    for (auto& c : r) c = rng() % p;
    residues.push_back(std::move(r));
  }
  const auto id = ctx.rns_stream(target).submit(runtime::rns_base_extend_job{
      .prime = target, .source_primes = sources, .residues = residues});
  const auto got = ctx.wait(id).outputs.at(0);

  // Garner's mixed-radix reconstruction: x = r_0 + p_0 * (k_1 + p_1 * k_2),
  // a different formula from the backend's sum of CRT terms.
  const unsigned bits = 192;
  for (u64 c = 0; c < kOrder; ++c) {
    math::wide_uint x(bits, residues[0][c]);
    math::wide_uint m(bits, sources[0]);
    for (std::size_t i = 1; i < sources.size(); ++i) {
      const u64 p = sources[i];
      const u64 k = math::mul_mod(math::sub_mod(residues[i][c], x.mod_u64(p), p),
                                  math::inv_mod(m.mod_u64(p), p), p);
      x = x.add(m.mul_u64(k));
      m = m.mul_u64(p);
    }
    ASSERT_EQ(got[c], x.mod_u64(target)) << "backend " << to_string(GetParam())
                                         << ", coefficient " << c;
  }
}

TEST_P(BaseExtendAnyCoprimeChain, DirectCallWithAnEmptySourceChainThrows) {
  // The context rejects this at submit; a caller driving the backend
  // directly skips that check and must not get a zero limb back as output.
  const auto ntt = math::first_k_ntt_primes(kLimbBits, kOrder, 2, /*negacyclic=*/true);
  const runtime_options opts = small_options(GetParam(), ntt[0]);
  opts.validate();
  const auto be = runtime::make_backend(opts);
  const std::vector<runtime::rns_base_extend_job> jobs = {{.prime = ntt[1]}};
  EXPECT_THROW((void)be->run_base_extend(jobs, {}), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(Backends, BaseExtendAnyCoprimeChain,
                         ::testing::Values(backend_kind::sram, backend_kind::cpu,
                                           backend_kind::reference),
                         [](const auto& info) { return std::string(to_string(info.param)); });

// ---- congruence-preserving rescale -----------------------------------------

// Brute-force oracle: the unique minimal-|δ| correction with
// δ ≡ x (mod q_drop) and δ ≡ 0 (mod t), found by scanning outward from
// zero (non-negative candidate preferred on a tie), then the exact
// division (x - δ) / q_drop reduced into the smaller basis.  Deliberately
// closed-form-free so it cannot share a bug with the backend.
rns_poly oracle_congruence_rescale(const std::vector<math::wide_uint>& x,
                                   const rns_basis& from, u64 t) {
  const rns_basis to = from.drop_last();
  const u64 qd = from.prime(from.limbs() - 1);
  const unsigned wb = from.wide_bits() + 64;
  const math::wide_uint m_to = to.modulus().resized(wb);
  std::vector<math::wide_uint> scaled;
  scaled.reserve(x.size());
  for (const auto& c : x) {
    const long long r = static_cast<long long>(c.mod_u64(qd));
    long long delta = 0;
    bool found = false;
    for (long long a = 0; !found && a <= static_cast<long long>(t * qd); ++a) {
      for (const long long s : {a, -a}) {
        const long long rem = ((s % static_cast<long long>(qd)) + static_cast<long long>(qd)) %
                              static_cast<long long>(qd);
        if (rem == r && ((s % static_cast<long long>(t)) + static_cast<long long>(t)) %
                                static_cast<long long>(t) ==
                            0) {
          delta = s;
          found = true;
          break;
        }
      }
    }
    EXPECT_TRUE(found);
    // (x - δ) / q_drop without signed wide arithmetic: add the t*q_drop
    // offset (≥ |δ|), divide, subtract t back out mod M_to.
    const u64 offset = static_cast<u64>(static_cast<long long>(t * qd) - delta);
    const math::wide_uint num = c.resized(wb).add(math::wide_uint(wb, offset));
    const math::wide_divmod dm = num.divmod(math::wide_uint(64, qd));
    EXPECT_TRUE(dm.rem.is_zero()) << "the correction must make the division exact";
    const math::wide_uint v =
        dm.quot.add(m_to).sub(math::wide_uint(wb, t)).divmod(m_to).rem;
    scaled.push_back(v.resized(to.wide_bits()));
  }
  return rns_decompose(scaled, to);
}

class RnsCongruenceRescale
    : public ::testing::TestWithParam<std::tuple<backend_kind, u64>> {};

TEST_P(RnsCongruenceRescale, RescaleMatchesMinimalLiftOracle) {
  const auto [kind, t] = GetParam();
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 3);
  runtime::context ctx(small_options(kind, basis.prime(0)));
  rns_engine eng(ctx, basis);

  common::xoshiro256ss rng(1400 + t);
  const auto x = random_big_poly(basis, rng);
  const rns_poly got = eng.rescale(eng.lower(x), t);
  const rns_poly expect = oracle_congruence_rescale(x, basis, t);

  ASSERT_EQ(got.limbs(), basis.limbs() - 1);
  for (std::size_t i = 0; i < got.limbs(); ++i) {
    EXPECT_EQ(got.residues[i], expect.residues[i])
        << "backend " << to_string(kind) << ", t = " << t << ", limb " << i;
  }
  // The whole point: the result is the input scaled by q_drop^-1 mod t.
  const auto lifted = rns_recombine(got, basis.drop_last());
  const u64 qd = basis.prime(basis.limbs() - 1);
  const u64 inv_qd = math::inv_mod(qd % t, t);
  for (u64 c = 0; c < kOrder; ++c) {
    // Compare centered values mod t: w stands for w - M when 2w > M.
    const auto centered_mod_t = [t](const math::wide_uint& w, const math::wide_uint& m) {
      if (m < w.shl1()) return (t - m.sub(w).mod_u64(t)) % t;
      return w.mod_u64(t);
    };
    const u64 in_t = centered_mod_t(x[c], basis.modulus());
    const u64 out_t = centered_mod_t(lifted[c], basis.drop_last().modulus());
    EXPECT_EQ(out_t, math::mul_mod(in_t, inv_qd, t)) << "coefficient " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(BackendsAndPlainModuli, RnsCongruenceRescale,
                         ::testing::Combine(::testing::Values(backend_kind::sram,
                                                              backend_kind::cpu,
                                                              backend_kind::reference),
                                            ::testing::Values(u64{2}, u64{3}, u64{7})),
                         [](const auto& info) {
                           return std::string(to_string(std::get<0>(info.param))) + "_t" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(RescaleSubmission, CongruenceMustBeCoprimeToTheDroppedLimb) {
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 2);
  runtime::context ctx(small_options(backend_kind::reference, basis.prime(0)));
  auto limb = ctx.rns_stream(basis.prime(0));
  const std::vector<u64> zeros(kOrder, 0);

  runtime::rns_rescale_job shares_drop{.prime = basis.prime(0), .drop_prime = basis.prime(1),
                                       .x = zeros, .dropped = zeros,
                                       .congruence = basis.prime(1)};
  EXPECT_THROW((void)limb.submit(std::move(shares_drop)), std::invalid_argument);
  runtime::rns_rescale_job multiple{.prime = basis.prime(0), .drop_prime = basis.prime(1),
                                    .x = zeros, .dropped = zeros,
                                    .congruence = 2 * basis.prime(1)};
  EXPECT_THROW((void)limb.submit(std::move(multiple)), std::invalid_argument);

  runtime::rns_rescale_job ok{.prime = basis.prime(0), .drop_prime = basis.prime(1),
                              .x = zeros, .dropped = zeros, .congruence = 2};
  const auto id = limb.submit(std::move(ok));
  EXPECT_EQ(ctx.wait(id).outputs.front(), zeros);
}

// ---- submit_base_extend validation -----------------------------------------

TEST(BaseExtendSubmission, ValidatesPrimesAndResidues) {
  const auto all = math::first_k_ntt_primes(kLimbBits, kOrder, 3, /*negacyclic=*/true);
  const u64 q0 = all[0];
  const u64 q1 = all[1];
  const u64 q2 = all[2];
  runtime::context ctx(small_options(backend_kind::sram, q0));
  auto target = ctx.rns_stream(q2);
  const std::vector<u64> zeros(kOrder, 0);

  // The job must name its stream's ring modulus.
  runtime::rns_base_extend_job wrong_stream{.prime = q1, .source_primes = {q0},
                                            .residues = {zeros}};
  EXPECT_THROW((void)target.submit(std::move(wrong_stream)), std::invalid_argument);

  // A source chain is required, sized to its residues.
  runtime::rns_base_extend_job no_sources{.prime = q2};
  EXPECT_THROW((void)target.submit(std::move(no_sources)), std::invalid_argument);
  runtime::rns_base_extend_job short_residues{.prime = q2, .source_primes = {q0, q1},
                                              .residues = {zeros}};
  EXPECT_THROW((void)target.submit(std::move(short_residues)), std::invalid_argument);

  // Source limbs are odd primes, distinct, and distinct from the target.
  runtime::rns_base_extend_job composite{.prime = q2, .source_primes = {q0 - 1},
                                         .residues = {zeros}};
  EXPECT_THROW((void)target.submit(std::move(composite)), std::invalid_argument);
  runtime::rns_base_extend_job duplicate{.prime = q2, .source_primes = {q0, q0},
                                         .residues = {zeros, zeros}};
  EXPECT_THROW((void)target.submit(std::move(duplicate)), std::invalid_argument);
  runtime::rns_base_extend_job self_source{.prime = q2, .source_primes = {q2},
                                           .residues = {zeros}};
  EXPECT_THROW((void)target.submit(std::move(self_source)), std::invalid_argument);

  // Residues validate against their own source modulus.
  runtime::rns_base_extend_job bad_residue{.prime = q2, .source_primes = {q0},
                                           .residues = {std::vector<u64>(kOrder, q0)}};
  EXPECT_THROW((void)target.submit(std::move(bad_residue)), std::invalid_argument);

  // And a valid job executes: zero lifts to zero.
  runtime::rns_base_extend_job ok{.prime = q2, .source_primes = {q0, q1},
                                  .residues = {zeros, zeros}};
  const auto id = target.submit(std::move(ok));
  EXPECT_EQ(ctx.wait(id).outputs.front(), zeros);
}

TEST(RnsEngineBaseExtend, RejectsNonPrefixAndNonGrowingTargets) {
  const auto all = math::first_k_ntt_primes(kLimbBits, kOrder, 4, /*negacyclic=*/true);
  const rns_basis source(kOrder, {all[0], all[1]});
  runtime::context ctx(small_options(backend_kind::reference, all[0]));
  rns_engine eng(ctx, source);
  common::xoshiro256ss rng(9);
  const rns_poly p = eng.lower(random_big_poly(source, rng));

  // Divergent chain: the error names the first limb that differs.
  try {
    (void)eng.base_extend(p, rns_basis(kOrder, {all[0], all[2], all[3]}));
    FAIL() << "a divergent target must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("limb 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(all[2])), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(all[1])), std::string::npos) << msg;
  }
  // Same or smaller chain: extension only grows.
  EXPECT_THROW((void)eng.base_extend(p, source), std::invalid_argument);
  EXPECT_THROW((void)eng.base_extend(p, rns_basis(kOrder, {all[0]})), std::invalid_argument);
  // Wrong ring order.
  EXPECT_THROW((void)eng.base_extend(p, rns_basis(16, {all[0], all[1], all[2]})),
               std::invalid_argument);
}

// ---- switch_to divergence diagnostics --------------------------------------

TEST(RnsBasisSwitchTo, DivergenceNamesTheFirstMismatchingPrime) {
  const auto all = math::first_k_ntt_primes(kLimbBits, kOrder, 4, /*negacyclic=*/true);
  const rns_basis chain(kOrder, {all[0], all[1], all[2]});
  // The target is SHORTER, so the old length-first check would have waved
  // it into a generic error; the mismatch at limb 1 must win.
  try {
    (void)chain.switch_to(rns_basis(kOrder, {all[0], all[3]}));
    FAIL() << "a divergent target must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("limb 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(all[3])), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(all[1])), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace bpntt::rns
