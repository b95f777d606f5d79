// Leveled RNS-RLWE: the first full homomorphic-encryption scheme on top of
// the bpntt runtime — BGV-style, plaintext modulus t, over a chain of
// word-sized NTT-friendly limb primes.
//
//   runtime::context ctx(opts);
//   rns_rlwe::scheme sch(ctx, crypto::he_rns_rlwe_level(20, 4, 32), seed);
//   auto ct = sch.encrypt(bits);          // level 0: the full 4-limb modulus
//   ct = sch.multiply(ct, ct);            // tensor -> relinearize -> rescale
//   auto round_trip = sch.decrypt(ct);    // at any level down the chain
//
// Phase convention: phase(ct) = c0 - c1*s = m + t*e (mod M_level).  Every
// ring product is staged per limb onto the context's dedicated limb streams
// (ctx.rns_stream(prime)) in the batched sample/finish shape of the
// runtime's rlwe path: host-side sampling, one wide per-limb product
// fan-out, host-side finish — so two backends given the same seed produce
// bit-identical ciphertexts at every level.
//
// multiply consumes one level: the ciphertext tensor (d0, d1, d2) is
// relinearized through hybrid (GHS-style) key switching — d2 is
// base-extended from Q_level to Q_level ∪ P (runtime base-extend jobs, the
// exact CRT lift), multiplied against the evaluation key over the union,
// and the P limbs are dropped again by congruence-preserving rescales —
// then the level's own rescale divides the result down the chain.  The
// congruence-preserving switch (rns_rescale_job::congruence = t) keeps the
// message residue intact through every division.
//
// The evaluation key is the textbook warm-transform case: evk = (a, b =
// a*s + t*e + ΠP*s^2) lives over the FULL union Q ∪ P, and its per-limb
// residues are valid at every level (the ΠP*s^2 term reduces limb-wise
// with no reference to the level's modulus), so one fixed key serves the
// whole level walk and its NTT-domain images stay hot in the operand cache
// across repeated multiplies.  rotate_evaluation_key() resamples it and
// invalidates the cached images — the key-churn path.
#pragma once

#include <cstdint>
#include <vector>

#include "common/xoshiro.h"
#include "crypto/params.h"
#include "rns/rns_basis.h"
#include "rns/rns_poly.h"
#include "runtime/context.h"

namespace bpntt::crypto::rns_rlwe {

using u64 = core::u64;

// A ciphertext somewhere down the level chain: residues over the level's
// basis Q_level (level 0 = the full chain, levels() - 1 = the one-limb
// floor).
struct ciphertext {
  std::size_t level = 0;
  rns::rns_poly c0, c1;
};

class scheme {
 public:
  // Validates the parameter set (validate_keyswitch_headroom), builds the
  // per-level bases, opens every limb stream, and runs keygen: secret key,
  // public key over Q, evaluation key over Q ∪ P.  All randomness derives
  // from `seed`, so two schemes with equal (params, seed) on different
  // backends agree bit-for-bit.
  scheme(runtime::context& ctx, rns_rlwe_param_set params, u64 seed = 1);

  [[nodiscard]] const rns_rlwe_param_set& params() const noexcept { return params_; }
  // Chain length: a k-limb set has k levels and supports k-1 multiplies.
  [[nodiscard]] std::size_t levels() const noexcept { return q_bases_.size(); }
  [[nodiscard]] const rns::rns_basis& basis_at(std::size_t level) const;

  // Encrypt n message residues (each < plain_modulus) at the top level.
  [[nodiscard]] ciphertext encrypt(const std::vector<u64>& message);
  // Decrypt at the ciphertext's level: phase = c0 - c1*s, exact CRT lift,
  // centered reduction mod t.
  [[nodiscard]] std::vector<u64> decrypt(const ciphertext& ct);

  // One leveled multiply: tensor -> relinearize (base-extend + evk products
  // + P-limb drops) -> rescale one level down.  Both inputs must sit at the
  // same level, above the one-limb floor.
  [[nodiscard]] ciphertext multiply(const ciphertext& a, const ciphertext& b);
  [[nodiscard]] ciphertext square(const ciphertext& a) { return multiply(a, a); }

  // Resample the evaluation key (fresh randomness, same secret) and drop
  // the old key's NTT-domain images from the operand cache — the key-churn
  // path; the next multiply pays cold transforms again.
  void rotate_evaluation_key();

  // Secret-key-side noise probe: bits of headroom between the largest
  // centered phase coefficient and M_level / 2.  At 0 the next operation
  // may decrypt wrong; fresh ciphertexts sit near modulus_bits - eta bits.
  [[nodiscard]] int noise_budget_bits(const ciphertext& ct);

 private:
  struct prod_spec {
    u64 prime = 0;
    const std::vector<u64>* a = nullptr;
    const std::vector<u64>* b = nullptr;
  };

  // The staged product fan-out every scheme operation rides: one polymul
  // per spec on its limb's dedicated stream, through rns::fan_out.
  [[nodiscard]] std::vector<std::vector<u64>> run_products(const std::vector<prod_spec>& ps);
  void keygen();
  void build_evaluation_key();
  // Index into the full-union evk arrays for limb u of the union basis
  // Q_level ∪ P at this level (u_bases_[level]).
  [[nodiscard]] std::size_t evk_index(std::size_t level, std::size_t u) const;
  void require_ciphertext(const ciphertext& ct, const char* what) const;
  // phase = c0 - c1*s lifted to wide coefficients over the level basis.
  [[nodiscard]] std::vector<math::wide_uint> phase_of(const ciphertext& ct);

  runtime::context& ctx_;
  rns_rlwe_param_set params_;
  common::xoshiro256ss rng_;
  std::vector<rns::rns_basis> q_bases_;  // level -> Q_level
  std::vector<rns::rns_basis> u_bases_;  // level -> Q_level ∪ P
  std::vector<u64> union_primes_;        // Q_0 then P, the evk's limb order

  std::vector<int> s_;                    // secret key, CBD(eta) signed
  std::vector<long long> s2_;             // s*s negacyclic, exact over Z
  std::vector<std::vector<u64>> s_res_;   // per union limb
  rns::rns_poly pk_a_, pk_b_;             // public key over Q_0
  std::vector<std::vector<u64>> evk_a_, evk_b_;  // evaluation key per union limb
};

}  // namespace bpntt::crypto::rns_rlwe
