// What a bank's CTRL/CMD subarray holds for one ring (§IV-A, Fig. 4(b/d)):
// the ring's golden tables, its twiddle plan, the microcode compiler and
// every kernel program compiled for it so far.  Every compute subarray
// bound to the library runs the same loaded programs — all of a bank's
// subarrays, and every bank a ring is dispatched to — so each kernel
// compiles and validates once per library, not once per subarray.
//
// Programs compile lazily under one lock and are never erased, so a
// returned reference stays valid for the library's lifetime and concurrent
// banks may look kernels up at once.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "bpntt/compiler.h"
#include "bpntt/config.h"
#include "isa/executor.h"
#include "nttmath/incomplete_ntt.h"
#include "nttmath/ntt.h"

namespace bpntt::core {

class kernel_library {
 public:
  // Non-synthetic params build golden twiddle tables; synthetic params
  // (q == 0) draw performance-only twiddle bit patterns from the seed.
  kernel_library(const engine_config& cfg, const ntt_params& params, u64 synthetic_seed = 1);

  [[nodiscard]] const engine_config& config() const noexcept { return cfg_; }
  [[nodiscard]] const ntt_params& params() const noexcept { return params_; }
  [[nodiscard]] const twiddle_plan& plan() const noexcept { return plan_; }
  // Golden tables (absent in synthetic mode; one of the two is set
  // depending on params().incomplete).
  [[nodiscard]] const math::ntt_tables* tables() const noexcept { return tables_.get(); }
  [[nodiscard]] const math::incomplete_ntt_tables* incomplete_tables() const noexcept {
    return itables_.get();
  }

  // Everything a compiled kernel program depends on besides the library's
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

  // The loaded program for `key`.  Only the first lookup runs
  // `compile(compiler, plan)` and loads its program against `array`'s
  // geometry; only the loaded form is kept.
  template <typename F>
  const isa::loaded_program& program(const program_key& key, const sram::subarray& array,
                                     F&& compile) {
    const std::lock_guard<std::mutex> lk(mu_);
    auto it = programs_.find(key);
    if (it == programs_.end()) {
      it = programs_.emplace(key, isa::executor::load(compile(compiler_, plan_), array)).first;
    }
    return it->second;
  }

  // Number of distinct loaded kernel programs held — a recompilation
  // regression probe: repeating the same kernel sequence leaves it unchanged.
  [[nodiscard]] std::size_t cached_programs() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return programs_.size();
  }

 private:
  engine_config cfg_;
  ntt_params params_;
  std::unique_ptr<math::ntt_tables> tables_;
  std::unique_ptr<math::incomplete_ntt_tables> itables_;
  microcode_compiler compiler_;
  twiddle_plan plan_;
  mutable std::mutex mu_;
  std::map<program_key, isa::loaded_program> programs_;
};

}  // namespace bpntt::core
