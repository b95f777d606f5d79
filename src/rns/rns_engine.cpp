#include "rns/rns_engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace bpntt::rns {

rns_engine::rns_engine(runtime::context& ctx, rns_basis basis)
    : ctx_(ctx), basis_(std::move(basis)) {
  const auto& params = ctx_.options().params;
  if (basis_.n() != params.n) {
    throw std::invalid_argument("rns_engine: basis order n = " + std::to_string(basis_.n()) +
                                " does not match the context ring's n = " +
                                std::to_string(params.n));
  }
  // Open every limb stream now: an inadmissible limb prime (outside the
  // backend's modulus envelope, say) fails here with the stream
  // validation's precise message, and placement is settled before the
  // first product.
  for (const u64 q : basis_.primes()) (void)ctx_.rns_stream(q);
}

void rns_engine::require_limbs(const rns_poly& p, const char* what) const {
  if (p.limbs() != basis_.limbs()) {
    throw std::invalid_argument(std::string("rns_engine: ") + what + " carries " +
                                std::to_string(p.limbs()) + " limbs for a basis of " +
                                std::to_string(basis_.limbs()));
  }
  for (std::size_t i = 0; i < p.limbs(); ++i) {
    const std::vector<u64>& r = p.residues[i];
    if (r.size() != basis_.n()) {
      throw std::invalid_argument(std::string("rns_engine: ") + what + " limb " +
                                  std::to_string(i) + " carries " + std::to_string(r.size()) +
                                  " coefficients, the ring order is n = " +
                                  std::to_string(basis_.n()));
    }
    const u64 q = basis_.prime(i);
    if (std::any_of(r.begin(), r.end(), [q](u64 c) { return c >= q; })) {
      throw std::invalid_argument(std::string("rns_engine: ") + what + " limb " +
                                  std::to_string(i) + " residues must be canonical (< " +
                                  std::to_string(q) + ")");
    }
  }
}

std::vector<std::vector<u64>> fan_out(runtime::context& ctx, const std::vector<u64>& primes,
                                      std::vector<runtime::job> jobs, fanout_stats* stats) {
  std::vector<runtime::stream> streams;
  streams.reserve(primes.size());
  for (const u64 q : primes) streams.push_back(ctx.rns_stream(q));
  std::vector<runtime::job_id> ids;
  ids.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ids.push_back(streams[i].submit(std::move(jobs[i])));
  }
  for (std::size_t i = 0; i < primes.size(); ++i) {
    if (std::find(primes.begin(), primes.begin() + i, primes[i]) == primes.begin() + i) {
      streams[i].flush();
    }
  }
  fanout_stats agg;
  std::vector<std::vector<u64>> outputs;
  outputs.reserve(ids.size());
  for (const runtime::job_id id : ids) {
    runtime::job_result r = ctx.wait(id);
    // One dispatch group per limb: amortize the batch wall-clock over the
    // jobs that rode in it so multi-job fan-outs do not double-count.
    agg.serial_cycles += r.wall_cycles / r.jobs_in_batch;
    ++agg.limb_jobs;
    outputs.push_back(std::move(r.outputs.front()));
  }
  if (stats != nullptr) *stats = agg;
  return outputs;
}

std::vector<math::wide_uint> rns_engine::polymul(const std::vector<math::wide_uint>& a,
                                                 const std::vector<math::wide_uint>& b) {
  return lift(polymul(lower(a), lower(b)));
}

rns_poly rns_engine::polymul(const rns_poly& a, const rns_poly& b) {
  require_limbs(a, "polymul operand a");
  require_limbs(b, "polymul operand b");
  std::vector<runtime::job> jobs;
  jobs.reserve(basis_.limbs());
  for (std::size_t i = 0; i < basis_.limbs(); ++i) {
    jobs.emplace_back(runtime::polymul_job{a.residues[i], b.residues[i]});
  }
  return {fan_out(ctx_, basis_.primes(), std::move(jobs), &last_)};
}

rns_poly rns_engine::transform(const rns_poly& p, core::transform_dir dir, const char* what) {
  require_limbs(p, what);
  std::vector<runtime::job> jobs;
  jobs.reserve(basis_.limbs());
  for (std::size_t i = 0; i < basis_.limbs(); ++i) {
    jobs.emplace_back(runtime::ntt_job{dir, p.residues[i]});
  }
  return {fan_out(ctx_, basis_.primes(), std::move(jobs), &last_)};
}

const rns_basis& rns_engine::dropped_basis() {
  if (!dropped_) dropped_ = basis_.drop_last();
  return *dropped_;
}

rns_poly rns_engine::rescale(const rns_poly& p, u64 congruence) {
  require_limbs(p, "rescale operand");
  if (basis_.limbs() < 2) {
    throw std::invalid_argument(
        "rns_engine: rescale on a one-limb basis — there is no limb left to drop");
  }
  const std::size_t kept = basis_.limbs() - 1;
  const u64 q_drop = basis_.prime(kept);
  std::vector<u64> primes(basis_.primes().begin(), basis_.primes().begin() + kept);
  std::vector<runtime::job> jobs;
  jobs.reserve(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    jobs.emplace_back(runtime::rns_rescale_job{.prime = primes[i],
                                               .drop_prime = q_drop,
                                               .x = p.residues[i],
                                               .dropped = p.residues[kept],
                                               .congruence = congruence});
  }
  return {fan_out(ctx_, primes, std::move(jobs), &last_)};
}

rns_poly rns_engine::base_extend(const rns_poly& p, const rns_basis& target) {
  require_limbs(p, "base_extend operand");
  if (target.n() != basis_.n()) {
    throw std::invalid_argument("rns_engine: base_extend target has ring order n = " +
                                std::to_string(target.n()) + ", this basis has n = " +
                                std::to_string(basis_.n()));
  }
  const std::size_t shared = std::min<std::size_t>(target.limbs(), basis_.limbs());
  for (std::size_t i = 0; i < shared; ++i) {
    if (target.prime(i) != basis_.prime(i)) {
      throw std::invalid_argument(
          "rns_engine: base_extend target limb " + std::to_string(i) + " is prime " +
          std::to_string(target.prime(i)) + ", this chain's is " +
          std::to_string(basis_.prime(i)) +
          " (extension grows the chain at the tail, so this basis must be a prefix)");
    }
  }
  if (target.limbs() <= basis_.limbs()) {
    throw std::invalid_argument(
        "rns_engine: base_extend target carries " + std::to_string(target.limbs()) +
        " limbs, not more than this chain's " + std::to_string(basis_.limbs()) +
        " (base extension only ever grows the chain)");
  }

  // One job per NEW limb, on that limb's dedicated stream; the source
  // residues travel with each job so the exact lift is self-contained.
  std::vector<u64> new_primes(target.primes().begin() + basis_.limbs(), target.primes().end());
  std::vector<runtime::job> jobs;
  jobs.reserve(new_primes.size());
  for (const u64 q : new_primes) {
    jobs.emplace_back(runtime::rns_base_extend_job{
        .prime = q, .source_primes = basis_.primes(), .residues = p.residues});
  }
  rns_poly out;
  out.residues = p.residues;
  out.residues.reserve(target.limbs());
  for (auto& limb : fan_out(ctx_, new_primes, std::move(jobs), &last_)) {
    out.residues.push_back(std::move(limb));
  }
  return out;
}

rns_poly rns_engine::modswitch_polymul(const rns_poly& a, const rns_poly& b) {
  // Two chained fan-outs: the per-limb products (which overlap across
  // channels), then the per-limb rescale corrections riding the same limb
  // streams.  The rescale needs every limb's product — including the
  // dropped limb's, whose residues drive the rounding — so the seam
  // between the two submissions is a genuine data dependency, not a
  // scheduling artefact.
  const rns_poly product = polymul(a, b);
  const fanout_stats mul_stats = last_;
  rns_poly out = rescale(product);
  last_.serial_cycles += mul_stats.serial_cycles;
  last_.limb_jobs += mul_stats.limb_jobs;
  return out;
}

std::vector<math::wide_uint> rns_engine::modswitch_polymul(
    const std::vector<math::wide_uint>& a, const std::vector<math::wide_uint>& b) {
  return rns_recombine(modswitch_polymul(lower(a), lower(b)), dropped_basis());
}

rns_poly rns_engine::forward(const rns_poly& p) {
  return transform(p, core::transform_dir::forward, "forward operand");
}

rns_poly rns_engine::inverse(const rns_poly& p) {
  return transform(p, core::transform_dir::inverse, "inverse operand");
}

rns_poly rns_engine::lower(const std::vector<math::wide_uint>& coeffs) const {
  return rns_decompose(coeffs, basis_);
}

std::vector<math::wide_uint> rns_engine::lift(const rns_poly& p) const {
  return rns_recombine(p, basis_);
}

}  // namespace bpntt::rns
