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
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bpntt/compiler.h"
#include "bpntt/config.h"
#include "isa/executor.h"
#include "nttmath/incomplete_ntt.h"
#include "nttmath/ntt.h"
#include "sram/subarray.h"

namespace bpntt::core {

class bp_ntt_engine {
 public:
  // Non-synthetic params build golden twiddle tables internally; synthetic
  // params (q == 0) produce a performance-only engine.
  bp_ntt_engine(const engine_config& cfg, const ntt_params& params, u64 synthetic_seed = 1);

  [[nodiscard]] const ntt_params& params() const noexcept { return params_; }
  [[nodiscard]] const row_layout& layout() const noexcept { return layout_; }
  [[nodiscard]] unsigned lanes() const noexcept { return array_->geometry().num_tiles(); }
  [[nodiscard]] const sram::subarray& array() const noexcept { return *array_; }
  // Mutable access for fault-injection tests.
  [[nodiscard]] sram::subarray& mutable_array() noexcept { return *array_; }
  [[nodiscard]] const twiddle_plan& plan() const noexcept { return plan_; }
  // Golden tables (absent in synthetic mode; one of the two is set
  // depending on params().incomplete).
  [[nodiscard]] const math::ntt_tables* tables() const noexcept { return tables_.get(); }
  [[nodiscard]] const math::incomplete_ntt_tables* incomplete_tables() const noexcept {
    return itables_.get();
  }

  // Region handles over this engine's data rows.  poly_region(base) is the
  // n-row window a transform kernel operates on; arbitrary windows come from
  // layout().make_region(base, rows).
  [[nodiscard]] region poly_region(unsigned base = 0) const {
    return layout_.make_region(base, params_.n);
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

  // Number of distinct loaded kernel programs held by the cache — a
  // recompilation regression probe: repeating the same kernel sequence must
  // leave this unchanged.
  [[nodiscard]] std::size_t cached_programs() const noexcept { return cache_.size(); }

 private:
  // Everything a compiled kernel program depends on besides the engine's
  // fixed plan: which kernel, its operand row bases, the element count and
  // the scale_b flag.  Unused fields stay 0/false for narrower kernels.
  struct program_key {
    int kind = 0;
    unsigned a = 0;
    unsigned b = 0;
    unsigned dst = 0;
    u64 rows = 0;
    bool scale_b = false;
    auto operator<=>(const program_key&) const = default;
  };

  sram::op_stats execute(const isa::loaded_program& p);
  // Compile-and-load-once lookup; `compile` is only invoked on a miss (no
  // type erasure, so cache hits cost a map find and nothing else).  Only
  // the loaded form is kept: the compiled program is dropped once loaded.
  template <typename F>
  const isa::loaded_program& cached(const program_key& key, F&& compile) {
    auto it = cache_.find(key);
    if (it == cache_.end()) it = cache_.emplace(key, isa::executor::load(compile(), *array_)).first;
    return it->second;
  }
  void write_constants();
  void require_poly_region(const region& r) const;

  ntt_params params_;
  row_layout layout_;
  std::unique_ptr<math::ntt_tables> tables_;
  std::unique_ptr<math::incomplete_ntt_tables> itables_;
  twiddle_plan plan_;
  std::unique_ptr<sram::subarray> array_;
  microcode_compiler compiler_;
  isa::executor exec_;
  // Loaded-program cache covering every kernel (forward, inverse,
  // pointwise, basemul, modmul_rows) so repeated batches never recompile
  // or revalidate.
  std::map<program_key, isa::loaded_program> cache_;
};

}  // namespace bpntt::core
