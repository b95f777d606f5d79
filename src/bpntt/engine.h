// Public API of the BP-NTT in-SRAM accelerator model.
//
// One engine owns one compute subarray configured with k-bit tiles; each
// tile ("lane") holds an independent polynomial and all lanes execute the
// same compiled command stream in SIMD lockstep — the source of the
// paper's throughput (16 parallel 16-bit NTTs per 256-column array).
//
// Typical use:
//   bp_ntt_engine eng(engine_config{}, ntt_params{.n=256, .q=7681, .k=16});
//   eng.load_polynomial(lane, coeffs);
//   auto stats = eng.run_forward();          // cycles + energy of the batch
//   auto out   = eng.peek_polynomial(lane);  // bit-reversed NTT(coeffs)
//
// For full negacyclic polynomial products entirely in-array, allocate two
// regions from the row layout (n <= data_rows/2) and chain
// run_forward / run_pointwise / run_inverse on them:
//   auto ra = eng.poly_region(0), rb = eng.poly_region(n);
//   eng.run_forward(ra); eng.run_forward(rb);
//   eng.run_pointwise(ra, rb, ra, /*scale_b=*/true);
//   eng.run_inverse(ra);
//
// The compiled kernels, the twiddle plan and the golden tables live in a
// kernel_library (the CTRL/CMD subarray's contents for one ring).  The
// (cfg, params) constructor builds a private one; a bank hands one library
// to all its compute subarrays and rebinds them to another ring's library
// (bind) to run that ring on the same arrays.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "bpntt/kernel_library.h"
#include "sram/subarray.h"

namespace bpntt::core {

class bp_ntt_engine {
 public:
  // Non-synthetic params build golden twiddle tables internally; synthetic
  // params (q == 0) produce a performance-only engine.
  bp_ntt_engine(const engine_config& cfg, const ntt_params& params, u64 synthetic_seed = 1)
      : bp_ntt_engine(std::make_shared<kernel_library>(cfg, params, synthetic_seed)) {}
  // A subarray of `lib`'s configured geometry running `lib`'s kernels.
  explicit bp_ntt_engine(std::shared_ptr<kernel_library> lib);

  // Runs `lib`'s kernels from now on.  `lib` must share this subarray's
  // geometry (std::invalid_argument otherwise); the constant rows are
  // rewritten when its M differs from the one they hold.
  void bind(std::shared_ptr<kernel_library> lib);

  [[nodiscard]] const ntt_params& params() const noexcept { return lib_->params(); }
  [[nodiscard]] const row_layout& layout() const noexcept { return layout_; }
  [[nodiscard]] unsigned lanes() const noexcept { return array_->geometry().num_tiles(); }
  [[nodiscard]] const sram::subarray& array() const noexcept { return *array_; }
  // Mutable access for fault-injection tests.
  [[nodiscard]] sram::subarray& mutable_array() noexcept { return *array_; }
  [[nodiscard]] const twiddle_plan& plan() const noexcept { return lib_->plan(); }
  [[nodiscard]] const math::ntt_tables* tables() const noexcept { return lib_->tables(); }
  [[nodiscard]] const math::incomplete_ntt_tables* incomplete_tables() const noexcept {
    return lib_->incomplete_tables();
  }

  // Region handles over this engine's data rows.  poly_region(base) is the
  // n-row window a transform kernel operates on; arbitrary windows come from
  // layout().make_region(base, rows).
  [[nodiscard]] region poly_region(unsigned base = 0) const {
    return layout_.make_region(base, params().n);
  }

  // Host data movement.  Coefficients must be canonical (< q).  The
  // region-less overloads address rows [0, len) — the common single-residency
  // case.
  void load_polynomial(unsigned lane, std::span<const u64> coeffs);
  void load_polynomial(unsigned lane, std::span<const u64> coeffs, const region& dst);
  // Counted host readout.
  [[nodiscard]] std::vector<u64> read_polynomial(unsigned lane, u64 count);
  [[nodiscard]] std::vector<u64> read_polynomial(unsigned lane, const region& src);
  // Free debug readout (no cycles/energy).
  [[nodiscard]] std::vector<u64> peek_polynomial(unsigned lane, u64 count) const;
  [[nodiscard]] std::vector<u64> peek_polynomial(unsigned lane, const region& src) const;

  // Kernels; each returns the stats delta for the run (batch of all lanes).
  // Transform kernels require an n-row region (poly_region); run_pointwise
  // multiplies equal-sized windows element-by-element; run_modmul_rows takes
  // three single-row windows.
  sram::op_stats run_forward() { return run_forward(poly_region()); }
  sram::op_stats run_forward(const region& r);
  sram::op_stats run_inverse() { return run_inverse(poly_region()); }
  sram::op_stats run_inverse(const region& r);
  sram::op_stats run_pointwise(const region& a, const region& b, const region& dst,
                               bool scale_b);
  // Incomplete-mode base multiplications (results land in the a region).
  sram::op_stats run_basemul(const region& a, const region& b, bool scale_b);
  // Single modular product: dst = a * b mod q with per-lane operands.
  sram::op_stats run_modmul_rows(const region& a, const region& b, const region& dst);

  [[nodiscard]] const sram::op_stats& cumulative_stats() const noexcept {
    return array_->stats();
  }

  // The bound library's loaded-kernel count (kernel_library::cached_programs).
  [[nodiscard]] std::size_t cached_programs() const { return lib_->cached_programs(); }

 private:
  sram::op_stats execute(const isa::loaded_program& p);
  void write_constants();
  void require_poly_region(const region& r) const;

  row_layout layout_;
  std::shared_ptr<kernel_library> lib_;
  std::unique_ptr<sram::subarray> array_;
  isa::executor exec_;
};

}  // namespace bpntt::core
