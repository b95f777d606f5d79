#include "crypto/rns_rlwe/rns_rlwe.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "crypto/sampler.h"
#include "nttmath/modarith.h"
#include "rns/rns_engine.h"
#include "runtime/job.h"

namespace bpntt::crypto::rns_rlwe {
namespace {

// CBD(eta) on signed support [-eta, eta]: sum of eta coin differences.
// The library's sample_cbd maps straight into one Z_q; the scheme needs
// the SAME signed draw reduced into every limb of the chain, so it keeps
// the integers and reduces per limb.
std::vector<int> sample_cbd_signed(std::uint64_t n, unsigned eta, common::xoshiro256ss& rng) {
  std::vector<int> out(n);
  for (auto& c : out) {
    int v = 0;
    for (unsigned k = 0; k < eta; ++k) v += static_cast<int>(rng.coin()) - static_cast<int>(rng.coin());
    c = v;
  }
  return out;
}

u64 signed_residue(long long v, u64 q) {
  const long long r = v % static_cast<long long>(q);
  return r < 0 ? static_cast<u64>(r + static_cast<long long>(q)) : static_cast<u64>(r);
}

std::vector<u64> to_residues(const std::vector<int>& v, u64 q) {
  std::vector<u64> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = signed_residue(v[i], q);
  return out;
}

// Exact negacyclic product of two small signed polynomials over Z — the
// secret's square for the evaluation key.  Coefficients stay below
// n * eta^2, far inside long long.
std::vector<long long> negacyclic_signed(const std::vector<int>& a, const std::vector<int>& b) {
  const std::size_t n = a.size();
  std::vector<long long> out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const long long term = static_cast<long long>(a[i]) * b[j];
      const std::size_t k = i + j;
      if (k < n) {
        out[k] += term;
      } else {
        out[k - n] -= term;
      }
    }
  }
  return out;
}

}  // namespace

scheme::scheme(runtime::context& ctx, rns_rlwe_param_set params, u64 seed)
    : ctx_(ctx), params_(std::move(params)), rng_(seed) {
  validate_keyswitch_headroom(params_);
  if (params_.n != ctx_.options().params.n) {
    throw std::invalid_argument("rns_rlwe: parameter set order n = " + std::to_string(params_.n) +
                                " does not match the context ring's n = " +
                                std::to_string(ctx_.options().params.n));
  }
  q_bases_.reserve(params_.primes.size());
  u_bases_.reserve(params_.primes.size());
  for (std::size_t lvl = 0; lvl < params_.primes.size(); ++lvl) {
    std::vector<u64> q(params_.primes.begin(), params_.primes.end() - static_cast<long>(lvl));
    std::vector<u64> u = q;
    u.insert(u.end(), params_.ks_primes.begin(), params_.ks_primes.end());
    q_bases_.emplace_back(params_.n, std::move(q));
    u_bases_.emplace_back(params_.n, std::move(u));
  }
  union_primes_ = params_.primes;
  union_primes_.insert(union_primes_.end(), params_.ks_primes.begin(), params_.ks_primes.end());
  // Open every limb stream up front: an inadmissible prime fails here with
  // the stream validation's message, before any key material exists.
  for (const u64 q : union_primes_) (void)ctx_.rns_stream(q);
  keygen();
}

const rns::rns_basis& scheme::basis_at(std::size_t level) const {
  if (level >= q_bases_.size()) {
    throw std::invalid_argument("rns_rlwe: level " + std::to_string(level) +
                                " is past the floor of a " + std::to_string(q_bases_.size()) +
                                "-level chain");
  }
  return q_bases_[level];
}

const rns::rns_basis& scheme::union_basis_at(std::size_t level) const {
  if (level >= u_bases_.size()) {
    throw std::invalid_argument("rns_rlwe: level " + std::to_string(level) +
                                " is past the floor of a " + std::to_string(u_bases_.size()) +
                                "-level chain");
  }
  return u_bases_[level];
}

std::size_t scheme::evk_index(std::size_t level, std::size_t u) const {
  const std::size_t kq = params_.primes.size() - level;
  return u < kq ? u : params_.primes.size() + (u - kq);
}

std::vector<std::vector<u64>> scheme::run_products(const std::vector<prod_spec>& ps) {
  std::vector<u64> primes;
  std::vector<runtime::job> jobs;
  primes.reserve(ps.size());
  jobs.reserve(ps.size());
  for (const prod_spec& p : ps) {
    primes.push_back(p.prime);
    jobs.emplace_back(runtime::polymul_job{*p.a, *p.b});
  }
  return rns::fan_out(ctx_, primes, std::move(jobs));
}

void scheme::keygen() {
  const std::uint64_t n = params_.n;
  const u64 t = params_.plain_modulus;
  s_ = sample_cbd_signed(n, params_.eta, rng_);
  s2_ = negacyclic_signed(s_, s_);
  s_res_.clear();
  s_res_.reserve(union_primes_.size());
  for (const u64 q : union_primes_) s_res_.push_back(to_residues(s_, q));

  // Public key over the top-level chain: b = a*s + t*e per limb.
  const auto e = sample_cbd_signed(n, params_.eta, rng_);
  const std::size_t kq = params_.primes.size();
  pk_a_.residues.clear();
  pk_a_.residues.reserve(kq);
  for (const u64 q : params_.primes) pk_a_.residues.push_back(sample_uniform(n, q, rng_));
  std::vector<prod_spec> prods;
  prods.reserve(kq);
  for (std::size_t i = 0; i < kq; ++i) {
    prods.push_back({params_.primes[i], &pk_a_.residues[i], &s_res_[i]});
  }
  auto as = run_products(prods);
  pk_b_.residues.assign(kq, {});
  for (std::size_t i = 0; i < kq; ++i) {
    const u64 q = params_.primes[i];
    auto& limb = pk_b_.residues[i];
    limb.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      limb[c] = math::add_mod(as[i][c], math::mul_mod(t % q, signed_residue(e[c], q), q), q);
    }
  }
  build_evaluation_key();
}

void scheme::build_evaluation_key() {
  const std::uint64_t n = params_.n;
  const u64 t = params_.plain_modulus;
  const std::size_t ku = union_primes_.size();
  const auto e = sample_cbd_signed(n, params_.eta, rng_);
  evk_a_.clear();
  evk_a_.reserve(ku);
  for (const u64 q : union_primes_) evk_a_.push_back(sample_uniform(n, q, rng_));
  std::vector<prod_spec> prods;
  prods.reserve(ku);
  for (std::size_t u = 0; u < ku; ++u) {
    prods.push_back({union_primes_[u], &evk_a_[u], &s_res_[u]});
  }
  auto as = run_products(prods);
  evk_b_.assign(ku, {});
  for (std::size_t u = 0; u < ku; ++u) {
    const u64 q = union_primes_[u];
    // ΠP mod q: the CRT image of the extension modulus at the Q limbs,
    // exactly zero at the P limbs themselves (q divides ΠP) — which is
    // what makes one key valid over every level's union basis.
    u64 pp = 1 % q;
    for (const u64 pq : params_.ks_primes) pp = math::mul_mod(pp, pq % q, q);
    auto& limb = evk_b_[u];
    limb.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      const u64 v = math::add_mod(as[u][c], math::mul_mod(t % q, signed_residue(e[c], q), q), q);
      limb[c] = math::add_mod(v, math::mul_mod(pp, signed_residue(s2_[c], q), q), q);
    }
  }
  // The evaluation key is the hottest fixed operand in the workload — every
  // relinearization multiplies against both halves on every union limb.
  // Pin its NTT images so capacity pressure from transient ciphertext
  // operands can never evict them (rotate_evaluation_key still drops them
  // explicitly via invalidate_operand, which overrides the pin).
  for (std::size_t u = 0; u < ku; ++u) {
    ctx_.pin_operand(evk_a_[u]);
    ctx_.pin_operand(evk_b_[u]);
  }
}

void scheme::rotate_evaluation_key() {
  // Drop the outgoing key's NTT-domain images first: the coefficients are
  // the cache key, so invalidation must happen while the old residues are
  // still in hand.
  for (std::size_t u = 0; u < evk_a_.size(); ++u) {
    ctx_.invalidate_operand(evk_a_[u]);
    ctx_.invalidate_operand(evk_b_[u]);
  }
  build_evaluation_key();
}

ciphertext scheme::encrypt(const std::vector<u64>& message) {
  const std::uint64_t n = params_.n;
  const u64 t = params_.plain_modulus;
  if (message.size() != n) {
    throw std::invalid_argument("rns_rlwe: message carries " + std::to_string(message.size()) +
                                " coefficients for a ring of order n = " + std::to_string(n));
  }
  for (std::size_t c = 0; c < message.size(); ++c) {
    if (message[c] >= t) {
      throw std::invalid_argument("rns_rlwe: message coefficient " + std::to_string(c) + " = " +
                                  std::to_string(message[c]) +
                                  " is not a residue mod the plaintext modulus t = " +
                                  std::to_string(t));
    }
  }
  const auto r = sample_cbd_signed(n, params_.eta, rng_);
  const auto e0 = sample_cbd_signed(n, params_.eta, rng_);
  const auto e1 = sample_cbd_signed(n, params_.eta, rng_);
  const std::size_t kq = params_.primes.size();
  std::vector<std::vector<u64>> r_res;
  r_res.reserve(kq);
  for (const u64 q : params_.primes) r_res.push_back(to_residues(r, q));
  // Both products of each limb ride that limb's stream in one group; the
  // pk operands are the fixed side, so repeat encrypts hit their cached
  // NTT images.
  std::vector<prod_spec> prods;
  prods.reserve(2 * kq);
  for (std::size_t i = 0; i < kq; ++i) {
    prods.push_back({params_.primes[i], &pk_b_.residues[i], &r_res[i]});
    prods.push_back({params_.primes[i], &pk_a_.residues[i], &r_res[i]});
  }
  auto outs = run_products(prods);
  ciphertext ct;
  ct.level = 0;
  ct.c0.residues.assign(kq, {});
  ct.c1.residues.assign(kq, {});
  for (std::size_t i = 0; i < kq; ++i) {
    const u64 q = params_.primes[i];
    auto& l0 = ct.c0.residues[i];
    auto& l1 = ct.c1.residues[i];
    l0.resize(n);
    l1.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      u64 v = math::add_mod(outs[2 * i][c], math::mul_mod(t % q, signed_residue(e0[c], q), q), q);
      l0[c] = math::add_mod(v, message[c] % q, q);
      l1[c] = math::add_mod(outs[2 * i + 1][c],
                            math::mul_mod(t % q, signed_residue(e1[c], q), q), q);
    }
  }
  return ct;
}

void scheme::require_ciphertext(const ciphertext& ct, const char* what) const {
  if (ct.level >= q_bases_.size()) {
    throw std::invalid_argument(std::string("rns_rlwe: ") + what + " sits at level " +
                                std::to_string(ct.level) + " of a " +
                                std::to_string(q_bases_.size()) + "-level chain");
  }
  const std::size_t kq = q_bases_[ct.level].limbs();
  if (ct.c0.limbs() != kq || ct.c1.limbs() != kq) {
    throw std::invalid_argument(std::string("rns_rlwe: ") + what + " carries " +
                                std::to_string(ct.c0.limbs()) + "/" +
                                std::to_string(ct.c1.limbs()) + " limbs, level " +
                                std::to_string(ct.level) + " lives over " + std::to_string(kq));
  }
}

std::vector<math::wide_uint> scheme::phase_of(const ciphertext& ct) {
  require_ciphertext(ct, "phase operand");
  const rns::rns_basis& qb = q_bases_[ct.level];
  const std::size_t kq = qb.limbs();
  std::vector<prod_spec> prods;
  prods.reserve(kq);
  for (std::size_t i = 0; i < kq; ++i) {
    prods.push_back({qb.prime(i), &ct.c1.residues[i], &s_res_[i]});
  }
  auto outs = run_products(prods);
  rns::rns_poly ph;
  ph.residues.assign(kq, {});
  for (std::size_t i = 0; i < kq; ++i) {
    const u64 q = qb.prime(i);
    ph.residues[i].resize(params_.n);
    for (std::size_t c = 0; c < params_.n; ++c) {
      ph.residues[i][c] = math::sub_mod(ct.c0.residues[i][c], outs[i][c], q);
    }
  }
  return rns::rns_recombine(ph, qb);
}

std::vector<u64> scheme::decrypt(const ciphertext& ct) {
  require_ciphertext(ct, "decrypt operand");
  const rns::rns_basis& qb = q_bases_[ct.level];
  const math::wide_uint& m = qb.modulus();
  const u64 t = params_.plain_modulus;
  const auto phase = phase_of(ct);
  std::vector<u64> out;
  out.reserve(phase.size());
  // Centered reduction: phase coefficients represent values in
  // (-M/2, M/2]; the wide residue w stands for w - M once 2w > M.  The
  // message is the centered value mod t (for the default t = 2 that is the
  // parity, which every odd-prime modulus switch preserves exactly; wider
  // t picks up the BGV q^-1 scale per level, which is the caller's to
  // track).
  for (const auto& w : phase) {
    if (m < w.shl1()) {
      const u64 mag = m.sub(w).mod_u64(t);
      out.push_back((t - mag) % t);
    } else {
      out.push_back(w.mod_u64(t));
    }
  }
  return out;
}

int scheme::noise_budget_bits(const ciphertext& ct) {
  require_ciphertext(ct, "noise probe operand");
  const rns::rns_basis& qb = q_bases_[ct.level];
  const math::wide_uint& m = qb.modulus();
  const auto phase = phase_of(ct);
  unsigned max_bits = 0;
  for (const auto& w : phase) {
    const math::wide_uint mag = m < w.shl1() ? m.sub(w) : w;
    unsigned b = mag.bits();
    while (b > 0 && !mag.bit(b - 1)) --b;
    max_bits = std::max(max_bits, b);
  }
  return static_cast<int>(qb.modulus_bits()) - 1 - static_cast<int>(max_bits);
}

ciphertext scheme::multiply(const ciphertext& x, const ciphertext& y) {
  require_ciphertext(x, "multiply operand a");
  require_ciphertext(y, "multiply operand b");
  if (x.level != y.level) {
    throw std::invalid_argument("rns_rlwe: multiply operands sit at levels " +
                                std::to_string(x.level) + " and " + std::to_string(y.level) +
                                " — bring them to the same level first");
  }
  const std::size_t lvl = x.level;
  const rns::rns_basis& qb = q_bases_[lvl];
  if (qb.limbs() < 2) {
    throw std::invalid_argument(
        "rns_rlwe: multiply at the one-limb floor — there is no level left to rescale into");
  }
  const std::size_t kq = qb.limbs();
  const std::size_t kp = params_.ks_primes.size();
  const rns::rns_basis& ub = u_bases_[lvl];
  const u64 t = params_.plain_modulus;
  const std::uint64_t n = params_.n;

  // Ciphertext tensor: four products per limb in one staged fan-out.
  // phase_x * phase_y = d0 - d1*s + d2*s^2 with d0 = x0*y0,
  // d1 = x0*y1 + x1*y0, d2 = x1*y1.
  std::vector<prod_spec> prods;
  prods.reserve(4 * kq);
  for (std::size_t i = 0; i < kq; ++i) {
    const u64 q = qb.prime(i);
    prods.push_back({q, &x.c0.residues[i], &y.c0.residues[i]});
    prods.push_back({q, &x.c0.residues[i], &y.c1.residues[i]});
    prods.push_back({q, &x.c1.residues[i], &y.c0.residues[i]});
    prods.push_back({q, &x.c1.residues[i], &y.c1.residues[i]});
  }
  auto outs = run_products(prods);
  rns::rns_poly d0, d1, d2;
  for (std::size_t i = 0; i < kq; ++i) {
    const u64 q = qb.prime(i);
    d0.residues.push_back(std::move(outs[4 * i]));
    std::vector<u64> mid = std::move(outs[4 * i + 1]);
    for (std::size_t c = 0; c < n; ++c) mid[c] = math::add_mod(mid[c], outs[4 * i + 2][c], q);
    d1.residues.push_back(std::move(mid));
    d2.residues.push_back(std::move(outs[4 * i + 3]));
  }

  // Relinearize the quadratic term through the evaluation key: lift d2
  // onto Q_level ∪ P by exact base extension, multiply against the key's
  // fixed NTT-cached operands over every union limb.
  rns::rns_engine qeng(ctx_, qb);
  const rns::rns_poly d2x = qeng.base_extend(d2, ub);
  prods.clear();
  prods.reserve(2 * ub.limbs());
  for (std::size_t u = 0; u < ub.limbs(); ++u) {
    const std::size_t e = evk_index(lvl, u);
    prods.push_back({ub.prime(u), &d2x.residues[u], &evk_b_[e]});
    prods.push_back({ub.prime(u), &d2x.residues[u], &evk_a_[e]});
  }
  outs = run_products(prods);
  rns::rns_poly r0, r1;
  for (std::size_t u = 0; u < ub.limbs(); ++u) {
    r0.residues.push_back(std::move(outs[2 * u]));
    r1.residues.push_back(std::move(outs[2 * u + 1]));
  }

  // Drop the extension tail: the union chain is ascending Q-then-P, so
  // congruence-preserving rescales shed exactly the P limbs, dividing the
  // relin terms by ΠP (the evk's ΠP*s^2 scale cancels; the key noise
  // shrinks below a coefficient) while keeping them intact mod t.
  rns::rns_basis cur = ub;
  for (std::size_t d = 0; d < kp; ++d) {
    rns::rns_engine eng(ctx_, cur);
    r0 = eng.rescale(r0, t);
    r1 = eng.rescale(r1, t);
    if (d + 1 < kp) cur = cur.drop_last();
  }

  // Fold the relinearized terms into the tensor and switch one level down.
  rns::rns_poly c0n, c1n;
  c0n.residues.assign(kq, {});
  c1n.residues.assign(kq, {});
  for (std::size_t i = 0; i < kq; ++i) {
    const u64 q = qb.prime(i);
    c0n.residues[i].resize(n);
    c1n.residues[i].resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      c0n.residues[i][c] = math::add_mod(d0.residues[i][c], r0.residues[i][c], q);
      c1n.residues[i][c] = math::add_mod(d1.residues[i][c], r1.residues[i][c], q);
    }
  }
  ciphertext out;
  out.level = lvl + 1;
  out.c0 = qeng.rescale(c0n, t);
  out.c1 = qeng.rescale(c1n, t);
  return out;
}

}  // namespace bpntt::crypto::rns_rlwe
