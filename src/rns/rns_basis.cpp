#include "rns/rns_basis.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/bitutil.h"
#include "nttmath/primes.h"

namespace bpntt::rns {

crt::crt(std::vector<u64> moduli) : moduli_(std::move(moduli)) {
  if (moduli_.empty()) throw std::invalid_argument("crt: the modulus chain must not be empty");
  // First pass at the sum of limb widths to learn M's exact bit length,
  // then settle the working width: the lazily-reduced accumulator reaches
  // k*M, and the double-and-add oracle wants m < 2^(bits-1).
  unsigned sum_bits = 0;
  for (const u64 q : moduli_) {
    if (q < 2) throw std::invalid_argument("crt: modulus " + std::to_string(q) + " is below 2");
    sum_bits += common::bit_length(q);
  }
  math::wide_uint m(sum_bits, 1);
  for (const u64 q : moduli_) m = m.mul_u64(q);
  modulus_bits_ = sum_bits;
  while (modulus_bits_ > 1 && !m.bit(modulus_bits_ - 1)) --modulus_bits_;
  unsigned lazy_bits = 0;
  while ((1ULL << lazy_bits) < moduli_.size()) ++lazy_bits;
  wide_bits_ = modulus_bits_ + lazy_bits + 1;

  modulus_ = m.resized(wide_bits_);
  terms_.reserve(moduli_.size());
  weights_.reserve(moduli_.size());
  for (const u64 q : moduli_) {
    // M_i = M / q_i; y_i exists exactly when q_i is coprime to every other
    // modulus.
    math::wide_uint mi = modulus_.divmod(math::wide_uint(64, q)).quot;
    const u64 weight = math::inv_mod(mi.mod_u64(q), q);
    if (weight == 0) {
      throw std::invalid_argument("crt: modulus " + std::to_string(q) +
                                  " is not coprime to the rest of the chain");
    }
    terms_.push_back(std::move(mi));
    weights_.push_back(weight);
  }
}

std::size_t crt::coefficients(const std::vector<std::vector<u64>>& residues) const {
  if (residues.size() != moduli_.size()) {
    throw std::invalid_argument("crt: lift of " + std::to_string(residues.size()) +
                                " residue vectors over a chain of " +
                                std::to_string(moduli_.size()));
  }
  const std::size_t n = residues.front().size();
  for (std::size_t i = 0; i < residues.size(); ++i) {
    if (residues[i].size() != n) {
      throw std::invalid_argument("crt: limb " + std::to_string(i) + " has " +
                                  std::to_string(residues[i].size()) +
                                  " coefficients, limb 0 has " + std::to_string(n));
    }
  }
  return n;
}

math::wide_uint crt::lift_at(const std::vector<std::vector<u64>>& residues,
                             std::size_t j) const {
  // Every term t_i * M_i is below M (t_i < q_i), so the lazy accumulator
  // stays below k*M — inside wide_bits() by construction — and at most k-1
  // conditional subtracts canonicalize it.
  math::wide_uint acc(wide_bits_);
  for (std::size_t i = 0; i < moduli_.size(); ++i) {
    acc = acc.add(terms_[i].mul_u64(math::mul_mod(residues[i][j], weights_[i], moduli_[i])));
  }
  while (acc >= modulus_) acc = acc.sub(modulus_);
  return acc;
}

std::vector<math::wide_uint> crt::lift(const std::vector<std::vector<u64>>& residues) const {
  const std::size_t n = coefficients(residues);
  std::vector<math::wide_uint> out;
  out.reserve(n);
  for (std::size_t j = 0; j < n; ++j) out.push_back(lift_at(residues, j));
  return out;
}

std::vector<u64> crt::lift_mod(const std::vector<std::vector<u64>>& residues, u64 p) const {
  const std::size_t n = coefficients(residues);
  std::vector<u64> out;
  out.reserve(n);
  for (std::size_t j = 0; j < n; ++j) out.push_back(lift_at(residues, j).mod_u64(p));
  return out;
}

namespace {

// rns_basis's own limb checks, run before the CRT record is built.
std::vector<u64> validated_chain(u64 n, std::vector<u64> primes) {
  if (!common::is_power_of_two(n) || n < 2) {
    throw std::invalid_argument("rns_basis: n must be a power of two >= 2");
  }
  if (primes.empty()) {
    throw std::invalid_argument("rns_basis: the prime chain must not be empty");
  }
  for (std::size_t i = 0; i < primes.size(); ++i) {
    const u64 q = primes[i];
    if ((q & 1ULL) == 0 || !math::is_prime(q)) {
      throw std::invalid_argument("rns_basis: limb " + std::to_string(i) + " modulus " +
                                  std::to_string(q) + " is not an odd prime");
    }
    if (q >= (1ULL << 62)) {
      throw std::invalid_argument("rns_basis: limb " + std::to_string(i) + " modulus " +
                                  std::to_string(q) + " exceeds the word-sized limb range");
    }
    if ((q - 1) % (2 * n) != 0) {
      throw std::invalid_argument(
          "rns_basis: limb " + std::to_string(i) + " prime " + std::to_string(q) +
          " does not support negacyclic NTTs of size n = " + std::to_string(n) +
          " (needs q == 1 mod 2n)");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (primes[j] == q) {
        throw std::invalid_argument("rns_basis: duplicate prime " + std::to_string(q) +
                                    " at limbs " + std::to_string(j) + " and " +
                                    std::to_string(i) +
                                    " (distinct primes are what makes the chain coprime)");
      }
    }
  }
  return primes;
}

}  // namespace

rns_basis::rns_basis(u64 n, std::vector<u64> primes)
    : n_(n), crt_(validated_chain(n, std::move(primes))) {}

rns_basis rns_basis::with_limb_bits(u64 n, unsigned limb_bits, unsigned limbs) {
  return rns_basis(n, math::first_k_ntt_primes(limb_bits, n, limbs, /*negacyclic=*/true));
}

rns_basis rns_basis::drop_last() const {
  if (limbs() < 2) {
    throw std::invalid_argument(
        "rns_basis: drop_last on a one-limb chain — there is no smaller basis to switch to");
  }
  return rns_basis(n_, std::vector<u64>(primes().begin(), primes().end() - 1));
}

rns_basis rns_basis::switch_to(const rns_basis& other) const {
  if (other.n() != n_) {
    throw std::invalid_argument("rns_basis: switch_to target has ring order n = " +
                                std::to_string(other.n()) + ", this basis has n = " +
                                std::to_string(n_));
  }
  // Divergence is diagnosed before length so a wrong-chain target names the
  // first limb that actually differs instead of a generic limb-count error.
  const std::size_t shared = std::min(other.limbs(), limbs());
  for (std::size_t i = 0; i < shared; ++i) {
    if (other.prime(i) != prime(i)) {
      throw std::invalid_argument(
          "rns_basis: switch_to target limb " + std::to_string(i) + " is prime " +
          std::to_string(other.prime(i)) + ", this chain's is " + std::to_string(prime(i)) +
          " (a rescale chain sheds limbs from the tail, so the target must be a prefix)");
    }
  }
  if (other.limbs() >= limbs()) {
    throw std::invalid_argument(
        "rns_basis: switch_to target carries " + std::to_string(other.limbs()) +
        " limbs, not fewer than this chain's " + std::to_string(limbs()) +
        " (modulus switching only ever shrinks the chain)");
  }
  return rns_basis(n_, std::vector<u64>(primes().begin(), primes().begin() + other.limbs()));
}

}  // namespace bpntt::rns
