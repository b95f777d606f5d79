// RNS basis: a chain of pairwise-coprime, NTT-friendly word-sized primes
// standing in for one big modulus M = q_0 * q_1 * ... * q_{k-1}.
//
// BP-NTT's bit-parallel in-SRAM multiplier works on word-sized moduli, but
// FHE-scale RLWE and big-integer polynomial multiplication need moduli far
// wider than one machine word.  The residue number system bridges the gap:
// arithmetic mod M decomposes into k independent channels of arithmetic
// mod q_i (one word-sized NTT each — exactly what the hardware runs), and
// the Chinese Remainder Theorem recombines the channels exactly.
//
// The CRT constants live in one crt record per chain (below), which asks
// nothing of its moduli but pairwise coprimality; the basis adds the
// NTT-friendliness checks on top.
#pragma once

#include <cstddef>
#include <vector>

#include "nttmath/modarith.h"
#include "nttmath/wide_uint.h"

namespace bpntt::rns {

using math::u64;

// The Chinese Remainder Theorem over a chain of pairwise-coprime word
// moduli q_0 .. q_{k-1}, precomputed once over nttmath/wide_uint:
//   M      — the product, at wide_bits() working width,
//   M_i    — M / q_i (the CRT term of limb i),
//   y_i    — (M_i)^-1 mod q_i (the CRT weight of limb i, a machine word),
// so that x = sum_i (x_i * y_i mod q_i) * M_i (mod M).  Primality, the
// NTT condition and the word-size limit are rns_basis's checks, not this
// record's: the runtime's base extension lifts any coprime source chain.
class crt {
 public:
  // Throws std::invalid_argument on an empty chain, a modulus below 2, or
  // two moduli sharing a factor.
  explicit crt(std::vector<u64> moduli);

  [[nodiscard]] const std::vector<u64>& moduli() const noexcept { return moduli_; }
  // Exact bit length of M.
  [[nodiscard]] unsigned modulus_bits() const noexcept { return modulus_bits_; }
  // Working width every lifted coefficient uses: modulus_bits() plus the
  // headroom the lazily-reduced accumulator (< k*M) and the double-and-add
  // oracle (m < 2^(bits-1)) need.
  [[nodiscard]] unsigned wide_bits() const noexcept { return wide_bits_; }
  // M, at wide_bits() width.
  [[nodiscard]] const math::wide_uint& modulus() const noexcept { return modulus_; }
  // M_i = M / q_i, at wide_bits() width.
  [[nodiscard]] const math::wide_uint& term(std::size_t i) const { return terms_.at(i); }

  // Exact canonical lift of residue-form coefficients (residues[i][j] is
  // coefficient j mod q_i) at wide_bits() width.  The per-limb terms
  // t_i * M_i (each < M) accumulate without intermediate mod-M reductions
  // and one conditional-subtract pass canonicalizes — the wide analogue of
  // the lazy Barrett/Montgomery style the word kernels use.  Throws
  // std::invalid_argument on a limb-count or length mismatch.
  [[nodiscard]] std::vector<math::wide_uint> lift(
      const std::vector<std::vector<u64>>& residues) const;
  // The same lift reduced into another word modulus p, one coefficient at
  // a time: [x]_M mod p, a base extension's new limb.
  [[nodiscard]] std::vector<u64> lift_mod(const std::vector<std::vector<u64>>& residues,
                                          u64 p) const;

 private:
  // Coefficient count of a residue-form input, after the shape checks.
  [[nodiscard]] std::size_t coefficients(const std::vector<std::vector<u64>>& residues) const;
  // The lift of coefficient j.
  [[nodiscard]] math::wide_uint lift_at(const std::vector<std::vector<u64>>& residues,
                                        std::size_t j) const;

  std::vector<u64> moduli_;
  unsigned modulus_bits_ = 0;
  unsigned wide_bits_ = 0;
  math::wide_uint modulus_;
  std::vector<math::wide_uint> terms_;
  std::vector<u64> weights_;
};

class rns_basis {
 public:
  // An explicit chain for NTTs of size n (power of two).  Validates every
  // limb — odd prime, q_i == 1 (mod 2n), no duplicates — with messages
  // naming the offending limb.  Throws std::invalid_argument.
  rns_basis(u64 n, std::vector<u64> primes);

  // The chain of the first `limbs` NTT-friendly primes of exactly
  // `limb_bits` bits (ascending), via math::first_k_ntt_primes.
  [[nodiscard]] static rns_basis with_limb_bits(u64 n, unsigned limb_bits, unsigned limbs);

  // The derived basis after one modulus switch: the same chain minus its
  // last limb, with every CRT constant (M, M_i, y_i) recomputed and
  // revalidated from scratch — this is the basis an rns_engine::rescale
  // result lives in.  Throws std::invalid_argument on a one-limb chain
  // (there is no smaller basis to switch to).
  [[nodiscard]] rns_basis drop_last() const;

  // The derived basis for switching to `other`'s chain: validates that
  // `other` names the same ring order and that its chain is a prefix of
  // this one (a rescale chain only ever sheds limbs from the tail, so a
  // reachable target is exactly a prefix), then rebuilds the CRT constants
  // for the shorter chain.  Throws std::invalid_argument otherwise.
  [[nodiscard]] rns_basis switch_to(const rns_basis& other) const;

  [[nodiscard]] u64 n() const noexcept { return n_; }
  [[nodiscard]] std::size_t limbs() const noexcept { return primes().size(); }
  [[nodiscard]] const std::vector<u64>& primes() const noexcept { return crt_.moduli(); }
  [[nodiscard]] u64 prime(std::size_t i) const { return primes().at(i); }
  // The chain's CRT record: M, its widths and the exact lift.
  [[nodiscard]] const rns::crt& crt() const noexcept { return crt_; }

  [[nodiscard]] unsigned modulus_bits() const noexcept { return crt_.modulus_bits(); }
  [[nodiscard]] unsigned wide_bits() const noexcept { return crt_.wide_bits(); }
  [[nodiscard]] const math::wide_uint& modulus() const noexcept { return crt_.modulus(); }

  // Residue of a big value in limb i's channel: x mod q_i.
  [[nodiscard]] u64 mod_limb(const math::wide_uint& x, std::size_t i) const {
    return x.mod_u64(prime(i));
  }

 private:
  u64 n_ = 0;
  rns::crt crt_;
};

}  // namespace bpntt::rns
