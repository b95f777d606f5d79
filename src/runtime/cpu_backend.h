// Software backend: the measured CPU baseline of Table I behind the uniform
// interface.
//
// Math runs on the Montgomery-reduction fast_ntt (the competitive software
// path, not the 128-bit-division golden model); incomplete parameter sets
// fall back to the exact table-driven transforms.  Wall time
// is measured with a monotonic clock and converted into the unified cycle /
// energy accounting via a fixed core frequency and power (kCpuFreqGhz,
// kCpuPowerW) — the same methodology baselines::measure_cpu_ntt uses for
// the Table I row.
#pragma once

#include <memory>

#include "nttmath/fast_ntt.h"
#include "nttmath/incomplete_ntt.h"
#include "runtime/backend.h"
#include "runtime/options.h"
#include "runtime/ring_cache.h"

namespace bpntt::runtime {

// The core that converts measured wall time into cycles and energy: one
// active 3 GHz core drawing 15 W.
inline constexpr double kCpuFreqGhz = 3.0;
inline constexpr double kCpuPowerW = 15.0;

class cpu_backend final : public backend {
 public:
  explicit cpu_backend(const runtime_options& opts);

  [[nodiscard]] std::string_view name() const noexcept override { return "cpu"; }
  // Unbounded batches, no banked structure: one resource, dispatches
  // serialize.  The software path hosts any power-of-two order and any
  // modulus the 63-bit golden arithmetic can reduce.
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
  // One ring of the software path: the Montgomery fast path for a full
  // negacyclic ring, the exact table-driven incomplete transform otherwise.
  // Immutable after construction, so pool tasks share it freely.
  class ring {
   public:
    explicit ring(const core::ntt_params& params);
    void transform(std::vector<u64>& a, transform_dir dir) const;
    [[nodiscard]] std::vector<u64> multiply(const core::polymul_pair& pair) const;

   private:
    std::unique_ptr<math::ntt_tables> tables_;
    std::unique_ptr<math::fast_ntt> fast_;
    std::unique_ptr<math::incomplete_ntt_tables> itables_;
  };

  [[nodiscard]] batch_result finish(std::vector<std::vector<u64>> outputs,
                                    double seconds) const;

  ring_cache<ring> rings_;
};

}  // namespace bpntt::runtime
