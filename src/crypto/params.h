// Lattice-crypto parameter sets the paper targets (§I): NIST PQC schemes
// (Kyber, Dilithium, Falcon) and homomorphic-encryption RNS primes at three
// BKZ.qsieve security levels.  Each set records the ring (n, q) and the
// BP-NTT tile width it needs (bitlen(2q): the carry-save datapath wants one
// spare bit — 14-bit PQC moduli ride in >= 14/16-bit tiles, matching
// Table I's "Coef. Bitwidth" column).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bpntt::crypto {

struct param_set {
  std::string name;
  std::uint64_t n = 0;       // polynomial order
  std::uint64_t q = 0;       // modulus
  unsigned min_tile_bits = 0;

  [[nodiscard]] bool supports_full_ntt() const;  // 2n | q-1
};

// Big-modulus RLWE parameters in RNS form: the ciphertext modulus is the
// product of a chain of pairwise-coprime NTT-friendly word-sized primes,
// one NTT channel per limb (the FHE-style parameterization — word-sized
// primes are what the bit-parallel in-SRAM multiplier runs, the chain is
// what reaches the >100-bit moduli leveled schemes need).
struct rns_param_set {
  std::string name;
  std::uint64_t n = 0;                 // polynomial order
  std::vector<std::uint64_t> primes;   // limb moduli, ascending, distinct
  unsigned min_tile_bits = 0;          // tile width the widest limb needs

  // Sum of limb bit lengths: the modulus magnitude the chain reaches
  // (exact within one bit of bitlen(prod primes)).
  [[nodiscard]] unsigned modulus_bits() const;
};

// A big-modulus RLWE preset: `limbs` NTT-friendly primes of exactly
// `limb_bits` bits each, supporting negacyclic NTTs of size n.
[[nodiscard]] rns_param_set he_rns_level(unsigned limb_bits, unsigned limbs,
                                         std::uint64_t n = 1024);

// The RNS presets the benches/tests sweep: 2..4 limbs of 30-bit primes at
// n=1024 (60..120-bit ciphertext moduli — the leveled-BGV/BFV shape).
[[nodiscard]] std::vector<rns_param_set> all_rns_param_sets();

// The modulus chain of a leveled walk down from `top`: entry 0 is `top`
// itself, every subsequent entry drops the last limb prime — the basis a
// ciphertext lives in after each multiply-and-rescale — ending at the
// one-limb floor.  `top.primes.size()` entries in total, so a k-limb set
// supports k-1 leveled multiplications.  Throws std::invalid_argument on
// an empty chain.
[[nodiscard]] std::vector<rns_param_set> rns_level_chain(const rns_param_set& top);

// Leveled RNS-RLWE parameters: the ciphertext chain Q (`primes`) plus the
// key-switching extension chain P (`ks_primes`) hybrid relinearization
// lifts into for multiply-accumulate headroom, the plaintext modulus t the
// BGV-style modulus switch preserves, and the CBD noise width.  The
// evaluation key lives over the full union Q ∪ P, which makes it valid at
// every level of the chain — the fixed-operand shape the NTT-domain cache
// serves warm.
struct rns_rlwe_param_set {
  std::string name;
  std::uint64_t n = 0;                    // polynomial order
  std::vector<std::uint64_t> primes;      // ciphertext chain Q, ascending, distinct
  std::vector<std::uint64_t> ks_primes;   // extension chain P, coprime to Q
  std::uint64_t plain_modulus = 2;        // t: the message residue the switch preserves
  unsigned eta = 2;                       // centered-binomial noise width
  unsigned min_tile_bits = 0;             // tile width the widest limb (Q or P) needs

  // The ciphertext-chain view (Q only) — what a ciphertext's level walk
  // sweeps; feed it to rns_level_chain / runtime_options::for_rns_param_set.
  [[nodiscard]] rns_param_set level_set() const;
  // Sum of Q limb bit lengths (the ciphertext modulus magnitude).
  [[nodiscard]] unsigned modulus_bits() const;
  // Sum of P limb bit lengths (the relin accumulator's extra headroom).
  [[nodiscard]] unsigned ks_modulus_bits() const;
};

// A leveled RNS-RLWE preset: `limbs` ciphertext primes and `ks_limbs`
// (default: limbs, enough for ΠP >= ΠQ) extension primes, all NTT-friendly
// `limb_bits`-bit primes at order n drawn from one ascending search — the
// first `limbs` become Q, the rest P, so the extension product always
// clears the ciphertext modulus.  The result passes
// validate_keyswitch_headroom by construction.
[[nodiscard]] rns_rlwe_param_set he_rns_rlwe_level(unsigned limb_bits, unsigned limbs,
                                                   std::uint64_t n = 1024,
                                                   unsigned ks_limbs = 0);

// Key-switching headroom validation: every P prime must be an NTT-friendly
// odd prime at order n, coprime to the chain (no duplicates within P, no
// overlap with Q), the plaintext modulus coprime to every limb, and the
// extension product ΠP at least the ciphertext modulus ΠQ — the hybrid
// relinearization accumulator divides its noise by ΠP, so a short
// extension chain leaks tensor noise into the result.  Throws
// std::invalid_argument naming the first offending prime (or the exact
// bit shortfall) like first_k_ntt_primes does.
void validate_keyswitch_headroom(const rns_rlwe_param_set& p);

// NB: standardized Kyber (q=3329) uses an *incomplete* NTT — 3328 = 2^8*13
// caps full negacyclic transforms at n=128.  kyber() is still exercised at
// the modular-multiplication level and for n<=128 rings; kyber_compat()
// (the round-1 prime 7681) supports the full 256-point transform.
[[nodiscard]] param_set kyber();         // n=256,  q=3329  (incomplete NTT)
[[nodiscard]] param_set kyber_compat();  // n=256,  q=7681  (full NTT)
[[nodiscard]] param_set dilithium();    // n=256,  q=8380417
[[nodiscard]] param_set falcon512();    // n=512,  q=12289
[[nodiscard]] param_set falcon1024();   // n=1024, q=12289
// HE primes found at runtime: smallest b-bit prime with q ≡ 1 (mod 2n).
[[nodiscard]] param_set he_level(unsigned modulus_bits, std::uint64_t n = 1024);

[[nodiscard]] std::vector<param_set> all_param_sets();

// Smallest tile width with 2q < 2^k.
[[nodiscard]] unsigned required_tile_bits(std::uint64_t q);

}  // namespace bpntt::crypto
