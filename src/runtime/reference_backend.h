// Golden backend: the exact table-driven transforms with no performance
// model attached.  wall_cycles and op_stats are zero by construction — this
// backend exists as the correctness oracle the other backends are
// differentially tested against, and as a drop-in for callers that only
// need answers.
#pragma once

#include <memory>

#include "nttmath/incomplete_ntt.h"
#include "nttmath/ntt.h"
#include "runtime/backend.h"
#include "runtime/options.h"
#include "runtime/retarget_cache.h"

namespace bpntt::runtime {

class reference_backend final : public backend {
 public:
  explicit reference_backend(const runtime_options& opts);

  [[nodiscard]] std::string_view name() const noexcept override { return "reference"; }
  // Unbounded batches, no banked structure, zero-cost execution.
  [[nodiscard]] backend_caps capabilities() const override {
    backend_caps caps;
    caps.polymul = true;
    return caps;
  }

  batch_result run_ntt(const std::vector<std::vector<u64>>& polys, transform_dir dir,
                       const dispatch_hints& hints) override;
  batch_result run_polymul(const std::vector<core::polymul_pair>& pairs,
                           const dispatch_hints& hints) override;

  [[nodiscard]] std::size_t retarget_cache_size() const override { return retarget_.size(); }

 private:
  // The full-negacyclic tables for one ring-override modulus (RNS limb
  // dispatches), built lazily and LRU-bounded (kRetargetCacheModuli); a
  // dispatch holds its shared_ptr, so eviction mid-flight is safe.
  [[nodiscard]] std::shared_ptr<const math::ntt_tables> tables_for(u64 ring_q);

  core::ntt_params params_;
  std::unique_ptr<math::ntt_tables> tables_;
  std::unique_ptr<math::incomplete_ntt_tables> itables_;
  retarget_lru<math::ntt_tables> retarget_;
};

}  // namespace bpntt::runtime
