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
#include "runtime/retarget_cache.h"

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

  [[nodiscard]] std::size_t retarget_cache_size() const override { return retarget_.size(); }

 private:
  // Montgomery fast path for one ring-override modulus (RNS limb
  // dispatches) — the same competitive software path the primary ring
  // uses, built lazily and LRU-bounded (kRetargetCacheModuli); a dispatch
  // holds its shared_ptr, so eviction mid-flight is safe.
  struct limb_ring {
    std::unique_ptr<math::ntt_tables> tables;
    std::unique_ptr<math::fast_ntt> fast;
  };
  [[nodiscard]] std::shared_ptr<const limb_ring> ring_for(u64 ring_q);

  // `limb` selects a retargeted ring; nullptr = the primary configured ring.
  void transform(std::vector<u64>& a, transform_dir dir, const limb_ring* limb) const;
  [[nodiscard]] std::vector<u64> multiply(const core::polymul_pair& pair,
                                          const limb_ring* limb) const;
  [[nodiscard]] batch_result finish(std::vector<std::vector<u64>> outputs,
                                    double seconds) const;

  core::ntt_params params_;
  std::unique_ptr<math::ntt_tables> tables_;
  std::unique_ptr<math::incomplete_ntt_tables> itables_;
  std::unique_ptr<math::fast_ntt> fast_;
  retarget_lru<limb_ring> retarget_;
};

}  // namespace bpntt::runtime
