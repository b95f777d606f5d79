// Typed job model of the bpntt runtime — the unit of work a client submits
// to a runtime::context.
//
// Four job kinds cover the workloads the paper measures and the RNS layer
// built on them: raw transforms (the Table I microkernel), full negacyclic
// ring products (the polynomial multiplication every lattice scheme spends
// its time in), and the per-limb rescale and base-extension corrections of
// big-modulus RNS arithmetic.  Schemes built from ring products — R-LWE
// encryption among them (src/crypto/) — are clients of these kinds, not
// kinds of their own.  Each submit() returns a job_id; wait() returns the
// matching job_result regardless of which backend executed it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "bpntt/bank.h"
#include "sram/stats.h"

namespace bpntt::runtime {

using u64 = core::u64;
using core::transform_dir;

using job_id = std::uint64_t;

// One n-point transform of `coeffs` (canonical residues).  Forward consumes
// standard order and produces bit-reversed order; inverse is the converse —
// the same ordering contract as the golden transform.
struct ntt_job {
  transform_dir dir = transform_dir::forward;
  std::vector<u64> coeffs;
};

// One negacyclic ring product a * b mod (x^n + 1, q).  In incomplete
// (standardized-Kyber) parameter sets the product is finished with degree-1
// base multiplications, exactly as the in-array pipeline does.
struct polymul_job {
  std::vector<u64> a;
  std::vector<u64> b;
};

// One limb's share of an RNS modulus switch (rescale): given this limb's
// residues x_i of a big coefficient vector x and the dropped limb's
// residues r = x mod q_drop, produce the residues of round(x / q_drop) in
// this limb's channel:
//
//   out[j] = ((x[j] - r[j]) * q_drop^{-1} + round_up(r[j])) mod prime,
//
// where round_up is 1 when 2*r[j] > q_drop (ties cannot occur — q_drop is
// odd).  x - r is divisible by q_drop, so the per-limb correction is exact:
// the k-1 outputs of a rescale are precisely round(x / q_drop) mod each
// kept prime.  The job rides the limb's dedicated stream (`prime` must
// match the stream's ring modulus), so a multi-limb rescale fans out and
// overlaps exactly like a multi-limb product.
struct rns_rescale_job {
  u64 prime = 0;              // this limb's modulus q_i (= the stream's ring)
  u64 drop_prime = 0;         // the chain's dropped last limb q_drop
  std::vector<u64> x;         // n residues, canonical mod prime
  std::vector<u64> dropped;   // n residues of the dropped limb, canonical mod drop_prime
  // Congruence-preserving variant (BGV-style modulus switching): with
  // congruence = t >= 2, the correction delta subtracted from x before the
  // exact division is chosen congruent to x mod q_drop AND to 0 mod t with
  // minimal |delta|, so the output satisfies out == x * q_drop^{-1} (mod t)
  // — the plaintext residue survives the switch.  t must be coprime to
  // q_drop.  0 or 1 keeps the legacy plain round-to-nearest behaviour.
  u64 congruence = 0;
};

// One target limb's share of an RNS base extension: given the residues of a
// big coefficient vector x over the source chain q_0..q_{k-1}, produce the
// residues of the *exact canonical lift* [x]_M (0 <= x < M = q_0...q_{k-1})
// modulo `prime`, a new limb coprime to the chain.  This is the dual of a
// rescale — the chain grows instead of shrinking — and the primitive key
// switching needs for multiply-accumulate headroom.  One job per new limb
// rides that limb's dedicated stream (`prime` must match the stream's ring
// modulus), so a multi-limb extension fans out and overlaps exactly like a
// multi-limb product.
struct rns_base_extend_job {
  u64 prime = 0;                          // the new limb's modulus (= the stream's ring)
  std::vector<u64> source_primes;         // the source chain, ascending, distinct
  std::vector<std::vector<u64>> residues; // residues[i]: n residues mod source_primes[i]
};

// Any one submitted job, as a stream queues it before its flush.
using job = std::variant<ntt_job, polymul_job, rns_rescale_job, rns_base_extend_job>;

// Terminal state of a job.  A backend exception fails exactly the jobs of
// the dispatch it occurred in; sibling dispatches of the same flush still
// complete with `ok` results.
enum class job_status { ok, failed };

// Unified result: `outputs` holds the job's one output polynomial.
// op_stats and wall_cycles describe the scheduled batch the job rode in —
// divide by jobs_in_batch for an amortized per-job view.  When status ==
// failed, `error` carries the backend's message and `outputs` is empty.
//
// Stream accounting: `stream` is the submission stream the job rode in (0 =
// the default stream), `finish_cycles` is the job's completion time on the
// context's virtual timeline (per-bank frontiers; overlapping streams on
// disjoint banks advance concurrently), and `deadline_missed` is set when
// the stream carries a deadline and completion overran it, measured from
// the stream's flush.
struct job_result {
  job_status status = job_status::ok;
  std::string error;
  std::vector<std::vector<u64>> outputs;
  sram::op_stats op_stats;
  u64 wall_cycles = 0;
  std::size_t jobs_in_batch = 1;
  unsigned stream = 0;
  u64 finish_cycles = 0;
  bool deadline_missed = false;
};

// Thrown by context::wait() when the waited job's dispatch failed in the
// backend.  Carries the same per-job error that try_wait() / wait_all()
// report through job_result::error for callers that prefer not to catch.
class job_failed_error : public std::runtime_error {
 public:
  job_failed_error(job_id id, const std::string& why)
      : std::runtime_error("runtime: job " + std::to_string(id) + " failed: " + why),
        id_(id) {}
  [[nodiscard]] job_id id() const noexcept { return id_; }

 private:
  job_id id_;
};

}  // namespace bpntt::runtime
