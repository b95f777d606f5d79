#include "runtime/backend.h"

#include <stdexcept>
#include <string>

#include "nttmath/modarith.h"
#include "rns/rns_basis.h"
#include "runtime/cpu_backend.h"
#include "runtime/reference_backend.h"
#include "runtime/sram_backend.h"
#include "telemetry/trace.h"

namespace bpntt::runtime {

void backend::note_batch(std::size_t jobs, u64 wall_cycles) noexcept {
  if (recorder_ == nullptr || jobs == 0) return;
  recorder_->record({.ts = recorder_->watermark(),
                     .dur = 0,
                     .a = wall_cycles,
                     .track = telemetry::kTrackBackend,
                     .arg = static_cast<telemetry::u32>(jobs),
                     .op = telemetry::trace_op::backend_batch});
}

batch_result backend::run_rescale(const std::vector<rns_rescale_job>& jobs,
                                  const dispatch_hints&) {
  batch_result out;
  out.outputs.reserve(jobs.size());
  out.waves = jobs.empty() ? 0 : 1;
  for (const rns_rescale_job& j : jobs) {
    // Like the inverse guard below, a length mismatch here means the
    // caller bypassed submit-side validation; refuse loudly instead of
    // reading past the dropped-residue vector.
    if (j.dropped.size() != j.x.size()) {
      throw std::logic_error("runtime: rescale job carries " + std::to_string(j.x.size()) +
                             " limb residues but " + std::to_string(j.dropped.size()) +
                             " dropped residues");
    }
    // q_drop is coprime to every kept limb (the chain is pairwise-coprime
    // primes), so the inverse exists; a zero inverse here means the caller
    // bypassed submit-side validation.
    const u64 inv = math::inv_mod(j.drop_prime % j.prime, j.prime);
    if (inv == 0) {
      throw std::logic_error("runtime: rescale drop prime " + std::to_string(j.drop_prime) +
                             " is not invertible mod limb prime " + std::to_string(j.prime));
    }
    // Congruence-preserving switch: the correction delta = r~ + jj*q_drop
    // must be divisible by t, so jj == -r~ * q_drop^{-1} (mod t); of the
    // two candidates jj0 and jj0 - t the one with minimal |delta| wins.
    const u64 t = j.congruence;
    u64 inv_q_mod_t = 0;
    if (t >= 2) {
      inv_q_mod_t = math::inv_mod(j.drop_prime % t, t);
      if (inv_q_mod_t == 0) {
        throw std::logic_error("runtime: rescale congruence " + std::to_string(t) +
                               " shares a factor with drop prime " +
                               std::to_string(j.drop_prime));
      }
    }
    std::vector<u64> limb(j.x.size());
    for (std::size_t i = 0; i < j.x.size(); ++i) {
      const u64 r = j.dropped[i];
      // floor((x - r) / q_drop) mod q_i, then +1 when the dropped residue
      // rounds the quotient up (2r > q_drop; q_drop is odd, so never ==).
      const u64 floor_term =
          math::mul_mod(math::sub_mod(j.x[i], r % j.prime, j.prime), inv, j.prime);
      u64 v = r > j.drop_prime / 2 ? math::add_mod(floor_term, 1 % j.prime, j.prime)
                                   : floor_term;
      if (t >= 2) {
        // Centered remainder r~ matching the round-to-nearest above, then
        // the minimal-|delta| multiple-of-t correction on top of it.
        const __int128 rt = r > j.drop_prime / 2
                                ? static_cast<__int128>(r) - static_cast<__int128>(j.drop_prime)
                                : static_cast<__int128>(r);
        u64 rt_mod_t = r % t;
        if (r > j.drop_prime / 2) rt_mod_t = (rt_mod_t + t - j.drop_prime % t) % t;
        const u64 jj0 = math::mul_mod((t - rt_mod_t) % t, inv_q_mod_t, t);
        const __int128 d0 = rt + static_cast<__int128>(jj0) * j.drop_prime;
        const __int128 d1 = d0 - static_cast<__int128>(t) * j.drop_prime;
        const bool take_low = (d1 < 0 ? -d1 : d1) < (d0 < 0 ? -d0 : d0);
        // out = (x - delta)/q_drop = round(x/q_drop) - jj  (mod q_i).
        if (take_low) {
          v = math::add_mod(v, (t - jj0) % j.prime, j.prime);
        } else {
          v = math::sub_mod(v, jj0 % j.prime, j.prime);
        }
      }
      limb[i] = v;
    }
    out.outputs.push_back(std::move(limb));
  }
  note_batch(jobs.size(), out.wall_cycles);
  return out;
}

batch_result backend::run_base_extend(const std::vector<rns_base_extend_job>& jobs,
                                      const dispatch_hints&) {
  batch_result out;
  out.outputs.reserve(jobs.size());
  out.waves = jobs.empty() ? 0 : 1;
  for (const rns_base_extend_job& j : jobs) {
    // The exact canonical lift [x]_M over the source chain, reduced into
    // the new limb.  An empty, non-coprime or mis-sized source chain means
    // the caller bypassed submit-side validation; the CRT record refuses it
    // (std::invalid_argument, a std::logic_error).
    out.outputs.push_back(rns::crt(j.source_primes).lift_mod(j.residues, j.prime));
  }
  note_batch(jobs.size(), out.wall_cycles);
  return out;
}

std::unique_ptr<backend> make_backend(const runtime_options& opts) {
  switch (opts.backend) {
    case backend_kind::sram:
      return std::make_unique<sram_backend>(opts);
    case backend_kind::cpu:
      return std::make_unique<cpu_backend>(opts);
    case backend_kind::reference:
      return std::make_unique<reference_backend>(opts);
  }
  throw std::logic_error("make_backend: unknown backend kind");
}

}  // namespace bpntt::runtime
