#include "bpntt/kernel_library.h"

#include <stdexcept>

namespace bpntt::core {

kernel_library::kernel_library(const engine_config& cfg, const ntt_params& params,
                               u64 synthetic_seed)
    : cfg_(cfg), params_(params), compiler_(params, row_layout{cfg.data_rows}, cfg.microcode) {
  cfg.validate();
  params_.validate();
  if (params_.n > cfg.data_rows) {
    throw std::invalid_argument(
        "bp_ntt_engine: polynomial exceeds data rows; use the performance model's "
        "multi-tile extrapolation for larger orders");
  }
  if (params_.k > 64) throw std::invalid_argument("bp_ntt_engine: k > 64 needs wide loads");

  if (params_.synthetic()) {
    plan_ = make_synthetic_plan(params_, synthetic_seed);
  } else if (params_.incomplete) {
    itables_ = std::make_unique<math::incomplete_ntt_tables>(params_.n, params_.q);
    plan_ = make_incomplete_twiddle_plan(params_, *itables_, compiler_.iterations());
  } else {
    tables_ = std::make_unique<math::ntt_tables>(params_.n, params_.q, /*negacyclic=*/true);
    plan_ = make_twiddle_plan(params_, *tables_, compiler_.iterations());
  }
}

}  // namespace bpntt::core
