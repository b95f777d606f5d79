#include "rns/rns_poly.h"

#include <stdexcept>
#include <string>

namespace bpntt::rns {

rns_poly rns_decompose(std::span<const math::wide_uint> coeffs, const rns_basis& basis) {
  rns_poly out;
  out.residues.assign(basis.limbs(), std::vector<u64>(coeffs.size()));
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    const math::wide_uint& c = coeffs[j];
    if (c.bits() != basis.wide_bits()) {
      throw std::invalid_argument("rns_decompose: coefficient " + std::to_string(j) +
                                  " has width " + std::to_string(c.bits()) +
                                  " but the basis works at " +
                                  std::to_string(basis.wide_bits()) + " bits");
    }
    if (c >= basis.modulus()) {
      throw std::invalid_argument("rns_decompose: coefficient " + std::to_string(j) +
                                  " is not canonical (>= M)");
    }
    for (std::size_t i = 0; i < basis.limbs(); ++i) {
      out.residues[i][j] = basis.mod_limb(c, i);
    }
  }
  return out;
}

std::vector<math::wide_uint> rns_recombine(const rns_poly& p, const rns_basis& basis) {
  return basis.crt().lift(p.residues);
}

std::vector<math::wide_uint> schoolbook_negacyclic_wide(std::span<const math::wide_uint> a,
                                                        std::span<const math::wide_uint> b,
                                                        const math::wide_uint& m) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("schoolbook_negacyclic_wide: length mismatch");
  }
  const std::size_t n = a.size();
  std::vector<math::wide_uint> c(n, math::wide_uint(m.bits()));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const math::wide_uint prod = math::wide_uint::mul_mod(a[i], b[j], m);
      if (prod.is_zero()) continue;
      const std::size_t k = (i + j) % n;
      if (i + j < n) {
        c[k] = math::wide_uint::add_mod(c[k], prod, m);
      } else {
        // x^n = -1: wrapped products subtract (m - prod is canonical since
        // prod is non-zero).
        c[k] = math::wide_uint::add_mod(c[k], m.sub(prod), m);
      }
    }
  }
  return c;
}

}  // namespace bpntt::rns
