// Backend interface of the bpntt runtime: the uniform dispatch layer the
// context schedules onto.
//
// A backend executes *typed batches* — the context has already grouped
// compatible jobs — and reports results in the same op_stats / wall-cycle
// currency regardless of what is underneath: the cycle-level in-SRAM model,
// the measured Montgomery software path, or the golden transform.  This is
// the comparison surface the paper's Table I needs (BP-NTT vs CPU under one
// methodology), with the golden backend as the correctness oracle.
//
// A backend advertises what it can run through one capabilities()
// descriptor (wave width, polymul support, modulus/ring envelope, bank
// map); the context validates jobs against it instead of probing ad-hoc
// virtuals.  Each dispatch carries dispatch_hints — the submitting stream,
// its priority/deadline, and the bank subset the scheduler reserved — so a
// banked backend can confine concurrent streams to disjoint banks and let
// them genuinely overlap.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "runtime/job.h"

namespace bpntt::telemetry {
class trace_recorder;
}

namespace bpntt::runtime {

class executor;
class residency_manager;
struct runtime_options;

// Static description of a backend's execution envelope.  The context
// validates the configured ring against it at construction and every
// submit() against the per-op capability bits.
struct backend_caps {
  // Jobs one scheduling round absorbs at full utilisation (sram: lanes per
  // wave summed over banks); 0 = unbounded.
  unsigned wave_width = 0;
  // Whether run_polymul can execute at the configured parameters (the sram
  // pipeline needs two n-row operand regions per lane).
  bool polymul = false;
  // Ring envelope: largest polynomial order the backend can host (0 =
  // unbounded) and widest modulus in bits it can reduce.
  u64 max_poly_order = 0;
  unsigned max_modulus_bits = 63;
  // Bank map: lanes per wave of each independently schedulable bank, in
  // bank-id order.  Empty = no banked structure (the backend is one
  // resource; dispatches serialize).  A backend publishing >= 2 banks
  // promises that dispatches confined to disjoint bank subsets (via
  // dispatch_hints::bank_set) are safe to run concurrently.
  std::vector<unsigned> bank_lanes;
  // Channels the banks are grouped into (topology-aware stream placement
  // prefers whole channels); 1 when the backend has no channel structure.
  unsigned channels = 1;

  [[nodiscard]] unsigned banks() const noexcept {
    return static_cast<unsigned>(bank_lanes.size());
  }
  [[nodiscard]] bool overlapping_streams() const noexcept { return bank_lanes.size() >= 2; }
};

// Scheduling metadata that rides with every dispatch: which stream the
// batch came from, how urgent it is, and — for banked backends — the bank
// subset the context reserved for it.  An empty bank_set means "use every
// bank" (the legacy single-queue path).
struct dispatch_hints {
  unsigned stream = 0;
  int priority = 0;
  u64 deadline_cycles = 0;  // 0 = no deadline
  std::vector<unsigned> bank_set;
  // Ring override: run this batch at modulus ring_q instead of the
  // configured ring modulus.  The polynomial order and tile width stay as
  // configured; the context has already validated that ring_q is an
  // NTT-friendly prime inside the backend's modulus envelope.  This is the
  // RNS limb mechanism: each residue channel of a big-modulus workload
  // dispatches at its own word-sized prime.  One rule, owned by
  // ring_cache, holds on every backend: 0, or the configured q when the
  // configured ring is full negacyclic, runs the configured ring; any
  // other modulus runs a full negacyclic limb ring, built lazily (sram: a
  // kernel library, cpu/reference: twiddle tables) and cached.
  u64 ring_q = 0;
};

// Result of one scheduled batch.  wall_cycles is the batch's wall-clock in
// the backend's own cycle domain (array cycles for sram, core cycles for
// cpu, 0 for the free reference oracle); stats aggregates whatever the
// backend meters.
struct batch_result {
  std::vector<std::vector<u64>> outputs;
  sram::op_stats stats;
  u64 wall_cycles = 0;
  u64 waves = 0;  // scheduling waves executed (sram); 1 per non-empty batch otherwise
};

class backend {
 public:
  virtual ~backend() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  // The execution envelope; must be stable for the backend's lifetime.
  [[nodiscard]] virtual backend_caps capabilities() const = 0;

  // Transform every polynomial; outputs in input order.
  virtual batch_result run_ntt(const std::vector<std::vector<u64>>& polys, transform_dir dir,
                               const dispatch_hints& hints) = 0;
  // Negacyclic ring product per pair; outputs in input order.
  virtual batch_result run_polymul(const std::vector<core::polymul_pair>& pairs,
                                   const dispatch_hints& hints) = 0;
  // One limb's share of an RNS modulus switch per job; outputs in input
  // order.  The base implementation computes the exact word-sized
  // correction ((x - r) * q_drop^{-1} + round_up) mod prime at zero
  // modelled cost — the correction is scalar per-coefficient work the
  // controller interleaves between limb dispatches, not an in-array
  // transform — so every backend (including injected stubs) supports
  // rescale out of the box; backends may override to attach a cost model.
  virtual batch_result run_rescale(const std::vector<rns_rescale_job>& jobs,
                                   const dispatch_hints& hints);
  // One target limb's share of an RNS base extension per job; outputs in
  // input order.  The base implementation computes the exact canonical CRT
  // lift of each coefficient over the source chain and reduces it by the
  // new limb prime, at zero modelled cost — like the rescale correction,
  // this is scalar per-coefficient work the controller interleaves between
  // limb dispatches — so every backend supports base extension out of the
  // box; backends may override to attach a cost model.  A job that
  // submit-side validation would have refused (an empty or non-coprime
  // source chain, residues that do not match it) throws rns::crt's
  // std::invalid_argument, a std::logic_error.
  virtual batch_result run_base_extend(const std::vector<rns_base_extend_job>& jobs,
                                       const dispatch_hints& hints);
  // Limb rings currently held by the backend's ring cache (the configured
  // ring is not counted); 0 for backends that never retarget.
  [[nodiscard]] virtual std::size_t retarget_cache_size() const { return 0; }

  // Installed once by the owning context.  Backends may fan batch-internal
  // work (bank slices, job chunks) across the pool; with none attached they
  // run serially.  Outputs must be bit-identical either way.
  void attach_executor(executor* pool) noexcept { pool_ = pool; }

  // Installed once by the owning context on banked backends only (nullptr =
  // no device rows, or residency disabled).  The sram backend consults it
  // on ring-overridden dispatches to serve resident operands instead of
  // re-transforming: a warm operand on an executing bank costs zero array
  // cycles; anything else, an operand resident only on another bank
  // included, is a miss that transforms and takes up residence on the bank
  // that ran it.  Residency may only change cycles, never outputs.
  void attach_residency(residency_manager* resman) noexcept { resman_ = resman; }

  // Installed once by the owning context when tracing is enabled (nullptr =
  // no tracing, the default).  Backends stamp one backend_batch instant per
  // executed batch via note_batch(); tracing never changes outputs or
  // accounting.
  void attach_recorder(telemetry::trace_recorder* rec) noexcept { recorder_ = rec; }

 protected:
  // One backend_batch instant on the backend track — jobs executed and the
  // batch's wall cycles, stamped at the recorder's virtual-time watermark
  // (backends do not see frontier positions).  No-op without a recorder.
  void note_batch(std::size_t jobs, u64 wall_cycles) noexcept;

  executor* pool_ = nullptr;
  residency_manager* resman_ = nullptr;
  telemetry::trace_recorder* recorder_ = nullptr;
};

// Instantiate the backend selected by opts (opts must be validated).
[[nodiscard]] std::unique_ptr<backend> make_backend(const runtime_options& opts);

}  // namespace bpntt::runtime
