// Toy R-LWE public-key encryption (the LPR scheme, §II-A of the paper):
// the end-to-end workload whose polynomial products BP-NTT accelerates.
//
//   keygen:  a <- U(R_q); s, e <- CBD(eta);  pk = (a, b = a*s + e)
//   encrypt: r, e1, e2 <- CBD(eta);
//            u = a*r + e1;  v = b*r + e2 + round(q/2) * m,  m in {0,1}^n
//   decrypt: m' = round_to_bit(v - u*s)
//
// The ring product is pluggable so the same scheme can run on the golden
// CPU NTT or entirely on the in-SRAM engine.  rlwe_client (below) runs
// many requests at once with each stage's products gathered into one batch
// — the shape a batching runtime wants (examples/rlwe_encrypt).
// This is a pedagogical scheme — no CCA transform, no compression — sized
// so decryption succeeds with overwhelming margin at the provided params.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "crypto/params.h"
#include "crypto/sampler.h"
#include "nttmath/ntt.h"
#include "nttmath/poly.h"

namespace bpntt::runtime {
class context;
class stream;
struct runtime_options;
}  // namespace bpntt::runtime
namespace bpntt::service {
class session;
}

namespace bpntt::crypto {

using poly = std::vector<std::uint64_t>;
// Negacyclic ring product c = a * b mod (x^n + 1, q).
using polymul_fn = std::function<poly(std::span<const std::uint64_t>,
                                      std::span<const std::uint64_t>)>;

struct public_key {
  poly a;
  poly b;
};
struct secret_key {
  poly s;
};
struct ciphertext {
  poly u;
  poly v;
};

class rlwe_scheme {
 public:
  // `mul` defaults to the golden NTT product when null (the tables backing
  // the default are only built in that case).
  rlwe_scheme(param_set params, unsigned eta = 2, polymul_fn mul = nullptr);

  [[nodiscard]] const param_set& params() const noexcept { return params_; }

  struct keypair {
    public_key pk;
    secret_key sk;
  };
  [[nodiscard]] keypair keygen(common::xoshiro256ss& rng) const;
  [[nodiscard]] ciphertext encrypt(const public_key& pk, std::span<const std::uint64_t> message,
                                   common::xoshiro256ss& rng) const;
  [[nodiscard]] poly decrypt(const secret_key& sk, const ciphertext& ct) const;

 private:
  param_set params_;
  unsigned eta_;
  polymul_fn mul_;
  std::unique_ptr<math::ntt_tables> tables_;  // only for the default mul
};

// ---- Staged primitives -----------------------------------------------------
//
// The sampling and recombination halves of the scheme with the ring
// products factored out, so a batch scheduler can run the products of many
// independent key/encrypt/decrypt flows as one wide dispatch (rlwe_client
// below batches them stage by stage).  keygen / encrypt
// / decrypt above are compositions of these, so the staged path is
// bit-identical to the serial one for the same RNG stream.

// Everything keygen draws, in draw order: a <- U, s <- CBD, e <- CBD.
struct rlwe_keygen_randomness {
  poly a;
  poly s;
  poly e;
};
// Everything encrypt draws, in draw order: r, e1, e2 <- CBD.
struct rlwe_encrypt_randomness {
  poly r;
  poly e1;
  poly e2;
};

[[nodiscard]] rlwe_keygen_randomness rlwe_sample_keygen(const param_set& p, unsigned eta,
                                                        common::xoshiro256ss& rng);
[[nodiscard]] rlwe_encrypt_randomness rlwe_sample_encrypt(const param_set& p, unsigned eta,
                                                          common::xoshiro256ss& rng);
// `as` is the keygen product a*s: pk = (a, as + e), sk = s.
[[nodiscard]] rlwe_scheme::keypair rlwe_finish_keygen(const param_set& p,
                                                      rlwe_keygen_randomness rnd, poly as);
// `ar` / `br` are the encryption products a*r and b*r:
// u = ar + e1, v = br + e2 + round(q/2)*m.
[[nodiscard]] ciphertext rlwe_finish_encrypt(const param_set& p,
                                             const rlwe_encrypt_randomness& rnd,
                                             std::span<const std::uint64_t> message, poly ar,
                                             poly br);
// `us` is the decryption product u*s.
[[nodiscard]] poly rlwe_decrypt_from_product(const param_set& p, const ciphertext& ct,
                                             const poly& us);

// ---- Batched client --------------------------------------------------------
//
// End-to-end requests — a fresh key pair, the encryption of `message` and
// its decryption round trip — over a batch ring multiplier.  The products
// of every request are gathered into one batch per stage: all keygen
// products a*s, then all encryption products a*r and b*r, then all
// decryption products u*s, so N requests cost three batches.  Each
// request's randomness comes from its own stream seeded with `seed`, drawn
// in the serial scheme's order (keygen's a/s/e, then encrypt's r/e1/e2), so
// a response is bit-identical to rlwe_scheme run on that request alone.

struct rlwe_request {
  poly message;  // n bits
  unsigned eta = 2;
  std::uint64_t seed = 1;
};

struct rlwe_response {
  ciphertext ct;
  poly decrypted;  // the decryption round trip of ct
};

// One stage's ring products a * b mod (x^n + 1, q), outputs in input order.
using batch_polymul_fn =
    std::function<std::vector<poly>(std::vector<std::pair<poly, poly>> pairs)>;

class rlwe_client {
 public:
  // Throws std::invalid_argument unless `mul` is set and `ring` is
  // negacyclic with a full NTT (2n | q-1).
  rlwe_client(param_set ring, batch_polymul_fn mul);

  // Responses in request order.  Throws std::invalid_argument, before any
  // product runs, for a message that is not n long; a failing batch
  // propagates its exception.
  [[nodiscard]] std::vector<rlwe_response> run(const std::vector<rlwe_request>& requests) const;

 private:
  param_set ring_;
  batch_polymul_fn mul_;
};

// The ring a bpntt runtime is configured with (n, q, tile width).
[[nodiscard]] param_set runtime_ring(const runtime::runtime_options& opts);
// Batch multipliers over the bpntt runtime: a stage's products become
// polymul jobs on one context stream, flushed together as one dispatch
// group, or on one service session.  A failed product throws —
// runtime::job_failed_error from a stream, std::runtime_error with the
// job's error from a session — and a session's admission_error propagates.
[[nodiscard]] batch_polymul_fn batch_polymul_on(runtime::context& ctx, runtime::stream s);
[[nodiscard]] batch_polymul_fn batch_polymul_on(service::session s);

}  // namespace bpntt::crypto
