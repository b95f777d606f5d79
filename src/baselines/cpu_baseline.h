// Measured CPU baseline: times the golden NTT on the host machine for the
// Table I "CPU" row.  The paper cites a 2 GHz x86 reference at 85 us /
// 256-point; a modern core with our table-driven implementation is much
// faster, so the bench prints both the published reference and the local
// measurement (the comparison methodology is unchanged — see DESIGN.md §4).
#pragma once

#include "baselines/design_model.h"
#include "nttmath/ntt.h"

namespace bpntt::baselines {

struct cpu_measurement {
  double latency_us = 0.0;       // per forward NTT
  double throughput_kntt_s = 0.0;
  double energy_nj = 0.0;        // latency x assumed core power
  double assumed_power_w = 0.0;
};

// Runs `iterations` forward transforms over random inputs and reports the
// mean.  `core_power_w` converts time to energy (one active core).
[[nodiscard]] cpu_measurement measure_cpu_ntt(const math::ntt_tables& tables,
                                              unsigned iterations = 2000,
                                              double core_power_w = 15.0);

[[nodiscard]] design_point cpu_design_point(const cpu_measurement& m, unsigned coef_bits);

}  // namespace bpntt::baselines
