// In-SRAM backend: a chip topology (channels -> banks) of BP-NTT compute
// subarrays behind the uniform backend interface.
//
// A batch is sharded across its dispatch's bank subset in wave-width blocks
// (block b goes to the b mod |subset|'th subset bank), so small batches
// fill whole waves on one bank before touching the next and large batches
// load-balance evenly.  Banks execute concurrently: batch wall-clock is the
// slowest bank's, energy and op counts sum.
//
// Banks are independent cycle-level models, so dispatches confined to
// disjoint bank subsets (dispatch_hints::bank_set) are safe to run
// concurrently — that is how the context overlaps independent streams.
//
// The backend builds its banks once.  Each ring is a kernel_library shared
// by every bank: the configured ring's is built with the banks, and a
// ring-overridden (RNS limb) dispatch binds its limb prime's library —
// built lazily, LRU-bounded by kRetargetCacheModuli — to the banks it runs
// on, so retargeting swaps the library, never the banks.
//
// Ring-overridden (RNS limb) dispatches additionally consult the runtime's
// residency manager: a warm operand resident on one of the dispatch's own
// banks is served in place (zero array cycles — the modelled win of operand
// reuse); anything else, including an operand resident only on a bank the
// dispatch does not hold, is a miss that transforms on the array and takes
// up residence on the bank that ran it.  A limb product splits into
// "forward-transform the missing operands" + "pointwise and inverse on
// transformed operands" so repeated multiplicands pay the forward NTT
// exactly once.
#pragma once

#include <memory>
#include <vector>

#include "runtime/backend.h"
#include "runtime/options.h"
#include "runtime/ring_cache.h"

namespace bpntt::runtime {

class sram_backend final : public backend {
 public:
  explicit sram_backend(const runtime_options& opts);

  [[nodiscard]] std::string_view name() const noexcept override { return "sram"; }
  [[nodiscard]] backend_caps capabilities() const override;

  batch_result run_ntt(const std::vector<std::vector<u64>>& polys, transform_dir dir,
                       const dispatch_hints& hints) override;
  batch_result run_polymul(const std::vector<core::polymul_pair>& pairs,
                           const dispatch_hints& hints) override;

  [[nodiscard]] std::size_t retarget_cache_size() const override { return rings_.size(); }

  // The kernel library a dispatch with this ring override runs, by the
  // ring_cache rule.  Retargeting models reloading the CTRL/CMD subarray's
  // twiddle words for a different prime: same geometry, same tile width,
  // different microcode constants.
  [[nodiscard]] std::shared_ptr<core::kernel_library> library_for(u64 ring_q) {
    return rings_.get(ring_q);
  }

 private:
  // Shard `jobs` into wave-width blocks round-robin over the dispatch's
  // bank subset; `run_slice(bank, slice)` executes one bank's slice and
  // the per-job outputs are stitched back into submission order.
  template <typename Job, typename RunSlice>
  batch_result shard(const std::vector<Job>& jobs, const dispatch_hints& hints,
                     RunSlice&& run_slice);

  // The dispatch's bank subset: hints.bank_set when non-empty (validated),
  // every bank otherwise.
  [[nodiscard]] std::vector<unsigned> resolve_bank_set(const dispatch_hints& hints) const;

  // The resident-or-transform step of a residency-aware limb dispatch
  // (hints.ring_q != 0, manager attached): look up every operand's `dir`
  // image on the dispatch's bank subset, transform the misses on `ring` in
  // one sharded bank batch and make each resident on the bank whose wave
  // ran it.  Returns one output per operand, in operand order, with the
  // miss batch's cycles, waves and stats (all zero when every operand hit).
  batch_result resident_or_transform(const std::vector<const std::vector<u64>*>& operands,
                                     transform_dir dir, const dispatch_hints& hints,
                                     const std::shared_ptr<core::kernel_library>& ring);

  unsigned channels_ = 1;
  core::bank_config bank_cfg_;
  ring_cache<core::kernel_library> rings_;
  std::vector<core::bp_ntt_bank> banks_;
};

}  // namespace bpntt::runtime
