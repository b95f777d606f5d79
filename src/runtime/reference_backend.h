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
#include "runtime/ring_cache.h"

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

  [[nodiscard]] std::size_t retarget_cache_size() const override { return rings_.size(); }

 private:
  // One ring's golden tables: the full negacyclic transform, or the
  // incomplete one for an incomplete configured ring.  Read-only after
  // construction, so pool tasks share it freely.
  class ring {
   public:
    explicit ring(const core::ntt_params& params);
    void transform(std::vector<u64>& a, transform_dir dir) const;
    [[nodiscard]] std::vector<u64> multiply(const core::polymul_pair& pair) const;

   private:
    std::unique_ptr<math::ntt_tables> tables_;
    std::unique_ptr<math::incomplete_ntt_tables> itables_;
  };

  ring_cache<ring> rings_;
};

}  // namespace bpntt::runtime
