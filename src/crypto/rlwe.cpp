#include "crypto/rlwe.h"

#include <stdexcept>
#include <utility>

#include "nttmath/modarith.h"
#include "runtime/context.h"
#include "service/service.h"

namespace bpntt::crypto {

rlwe_scheme::rlwe_scheme(param_set params, unsigned eta, polymul_fn mul)
    : params_(std::move(params)), eta_(eta), mul_(std::move(mul)) {
  if (!params_.supports_full_ntt()) {
    throw std::invalid_argument("rlwe_scheme: parameter set lacks a full negacyclic NTT");
  }
  if (!mul_) {
    tables_ = std::make_unique<math::ntt_tables>(params_.n, params_.q, /*negacyclic=*/true);
    mul_ = [this](std::span<const std::uint64_t> a, std::span<const std::uint64_t> b) {
      return math::polymul_ntt(a, b, *tables_);
    };
  }
}

rlwe_keygen_randomness rlwe_sample_keygen(const param_set& p, unsigned eta,
                                          common::xoshiro256ss& rng) {
  rlwe_keygen_randomness rnd;
  rnd.a = sample_uniform(p.n, p.q, rng);
  rnd.s = sample_cbd(p.n, p.q, eta, rng);
  rnd.e = sample_cbd(p.n, p.q, eta, rng);
  return rnd;
}

rlwe_encrypt_randomness rlwe_sample_encrypt(const param_set& p, unsigned eta,
                                            common::xoshiro256ss& rng) {
  rlwe_encrypt_randomness rnd;
  rnd.r = sample_cbd(p.n, p.q, eta, rng);
  rnd.e1 = sample_cbd(p.n, p.q, eta, rng);
  rnd.e2 = sample_cbd(p.n, p.q, eta, rng);
  return rnd;
}

rlwe_scheme::keypair rlwe_finish_keygen(const param_set& p, rlwe_keygen_randomness rnd,
                                        poly as) {
  rlwe_scheme::keypair kp;
  kp.pk.b = math::poly_add(as, rnd.e, p.q);
  kp.pk.a = std::move(rnd.a);
  kp.sk.s = std::move(rnd.s);
  return kp;
}

ciphertext rlwe_finish_encrypt(const param_set& p, const rlwe_encrypt_randomness& rnd,
                               std::span<const std::uint64_t> message, poly ar, poly br) {
  if (message.size() != p.n) throw std::invalid_argument("rlwe: message size");
  const std::uint64_t q = p.q;
  ciphertext ct;
  ct.u = math::poly_add(ar, rnd.e1, q);
  poly scaled(p.n);
  const std::uint64_t half = (q + 1) / 2;  // round(q/2)
  for (std::size_t i = 0; i < p.n; ++i) {
    scaled[i] = message[i] != 0 ? half : 0;
  }
  ct.v = math::poly_add(math::poly_add(br, rnd.e2, q), scaled, q);
  return ct;
}

poly rlwe_decrypt_from_product(const param_set& p, const ciphertext& ct, const poly& us) {
  const std::uint64_t q = p.q;
  poly m(p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    const std::uint64_t d = math::sub_mod(ct.v[i], us[i], q);
    // Decision regions around 0 and q/2.
    const std::uint64_t quarter = q / 4;
    m[i] = (d > quarter && d < q - quarter) ? 1 : 0;
  }
  return m;
}

rlwe_scheme::keypair rlwe_scheme::keygen(common::xoshiro256ss& rng) const {
  auto rnd = rlwe_sample_keygen(params_, eta_, rng);
  poly as = mul_(rnd.a, rnd.s);
  return rlwe_finish_keygen(params_, std::move(rnd), std::move(as));
}

ciphertext rlwe_scheme::encrypt(const public_key& pk, std::span<const std::uint64_t> message,
                                common::xoshiro256ss& rng) const {
  const auto rnd = rlwe_sample_encrypt(params_, eta_, rng);
  poly ar = mul_(pk.a, rnd.r);
  poly br = mul_(pk.b, rnd.r);
  return rlwe_finish_encrypt(params_, rnd, message, std::move(ar), std::move(br));
}

poly rlwe_scheme::decrypt(const secret_key& sk, const ciphertext& ct) const {
  return rlwe_decrypt_from_product(params_, ct, mul_(ct.u, sk.s));
}

// ---- batched client --------------------------------------------------------

rlwe_client::rlwe_client(param_set ring, batch_polymul_fn mul)
    : ring_(std::move(ring)), mul_(std::move(mul)) {
  if (!ring_.supports_full_ntt() || !mul_) {
    throw std::invalid_argument(
        "rlwe_client: needs a batch multiplier and a ring with a full negacyclic NTT "
        "(x^n + 1 with 2n | q-1)");
  }
}

std::vector<rlwe_response> rlwe_client::run(const std::vector<rlwe_request>& requests) const {
  const std::size_t m = requests.size();
  std::vector<rlwe_keygen_randomness> kg(m);
  std::vector<rlwe_encrypt_randomness> en(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (requests[i].message.size() != ring_.n) {
      throw std::invalid_argument("rlwe_client: a message must have exactly n bits");
    }
    common::xoshiro256ss rng(requests[i].seed);
    kg[i] = rlwe_sample_keygen(ring_, requests[i].eta, rng);
    en[i] = rlwe_sample_encrypt(ring_, requests[i].eta, rng);
  }
  const auto stage = [&](std::vector<std::pair<poly, poly>>&& pairs) {
    const std::size_t want = pairs.size();
    std::vector<poly> out = want == 0 ? std::vector<poly>{} : mul_(std::move(pairs));
    if (out.size() != want) throw std::logic_error("rlwe_client: multiplier lost a product");
    return out;
  };

  // Stage 1 — keygen products a*s.
  std::vector<std::pair<poly, poly>> pairs(m);
  for (std::size_t i = 0; i < m; ++i) pairs[i] = {kg[i].a, kg[i].s};
  auto as = stage(std::move(pairs));
  std::vector<rlwe_scheme::keypair> keys(m);
  for (std::size_t i = 0; i < m; ++i) {
    keys[i] = rlwe_finish_keygen(ring_, std::move(kg[i]), std::move(as[i]));
  }
  // Stage 2 — both encryption products a*r and b*r, pairwise.
  pairs.assign(2 * m, {});
  for (std::size_t i = 0; i < m; ++i) {
    pairs[2 * i] = {keys[i].pk.a, en[i].r};
    pairs[2 * i + 1] = {keys[i].pk.b, en[i].r};
  }
  auto prods = stage(std::move(pairs));
  std::vector<rlwe_response> out(m);
  for (std::size_t i = 0; i < m; ++i) {
    out[i].ct = rlwe_finish_encrypt(ring_, en[i], requests[i].message, std::move(prods[2 * i]),
                                    std::move(prods[2 * i + 1]));
  }
  // Stage 3 — decryption round-trip products u*s.
  pairs.assign(m, {});
  for (std::size_t i = 0; i < m; ++i) pairs[i] = {out[i].ct.u, keys[i].sk.s};
  auto us = stage(std::move(pairs));
  for (std::size_t i = 0; i < m; ++i) {
    out[i].decrypted = rlwe_decrypt_from_product(ring_, out[i].ct, us[i]);
  }
  return out;
}

param_set runtime_ring(const runtime::runtime_options& opts) {
  return {.name = "runtime",
          .n = opts.params.n,
          .q = opts.params.q,
          .min_tile_bits = opts.params.k};
}

batch_polymul_fn batch_polymul_on(runtime::context& ctx, runtime::stream s) {
  return [&ctx, s](std::vector<std::pair<poly, poly>> pairs) mutable {
    std::vector<runtime::job_id> ids;
    for (auto& [a, b] : pairs) {
      ids.push_back(s.submit(runtime::polymul_job{std::move(a), std::move(b)}));
    }
    std::vector<poly> out;
    for (const runtime::job_id id : ids) out.push_back(std::move(ctx.wait(id).outputs.front()));
    return out;
  };
}

batch_polymul_fn batch_polymul_on(service::session s) {
  return [s](std::vector<std::pair<poly, poly>> pairs) mutable {
    std::vector<service::ticket> tickets;
    for (auto& [a, b] : pairs) {
      tickets.push_back(s.submit(runtime::polymul_job{std::move(a), std::move(b)}));
    }
    std::vector<poly> out;
    for (auto& t : tickets) {
      runtime::job_result r = t.get();
      if (r.status != runtime::job_status::ok) throw std::runtime_error(r.error);
      out.push_back(std::move(r.outputs.front()));
    }
    return out;
  };
}

}  // namespace bpntt::crypto
