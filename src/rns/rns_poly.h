// Residue-domain polynomials: one big-coefficient polynomial carried as k
// word-sized residue polynomials (one per RNS limb), plus the exact CRT
// lift back.
//
// Decomposition is a per-coefficient word reduction (x mod q_i);
// recombination is the basis' crt::lift.
#pragma once

#include <span>
#include <vector>

#include "rns/rns_basis.h"

namespace bpntt::rns {

// One polynomial of the big-modulus ring Z_M[x]/(x^n + 1) in residue form:
// residues[i] is the image in Z_{q_i}[x]/(x^n + 1), coefficient-canonical.
struct rns_poly {
  std::vector<std::vector<u64>> residues;

  [[nodiscard]] std::size_t limbs() const noexcept { return residues.size(); }
};

// Split big coefficients (canonical, < M) into per-limb residue
// polynomials.  Throws std::invalid_argument on a coefficient >= M or a
// width other than basis.wide_bits().
[[nodiscard]] rns_poly rns_decompose(std::span<const math::wide_uint> coeffs,
                                     const rns_basis& basis);

// Exact CRT lift of a residue-form polynomial back to canonical big
// coefficients at basis.wide_bits() width.  Throws std::invalid_argument
// on a limb-count or length mismatch.
[[nodiscard]] std::vector<math::wide_uint> rns_recombine(const rns_poly& p,
                                                         const rns_basis& basis);

// O(n^2) big-modulus negacyclic product over wide_uint: the oracle the
// RNS engine (and its differential tests) are checked against.  Operands
// must be canonical mod `m` at m.bits() width.
[[nodiscard]] std::vector<math::wide_uint> schoolbook_negacyclic_wide(
    std::span<const math::wide_uint> a, std::span<const math::wide_uint> b,
    const math::wide_uint& m);

}  // namespace bpntt::rns
