#include "baselines/cpu_baseline.h"

#include <chrono>
#include <vector>

#include "common/xoshiro.h"

namespace bpntt::baselines {

cpu_measurement measure_cpu_ntt(const math::ntt_tables& tables, unsigned iterations,
                                double core_power_w) {
  common::xoshiro256ss rng(7);
  std::vector<std::uint64_t> a(tables.n());
  for (auto& x : a) x = rng.below(tables.q());

  // Warm up caches and branch predictors.
  for (int w = 0; w < 16; ++w) math::ntt_forward(a, tables);

  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < iterations; ++i) {
    math::ntt_forward(a, tables);
    // Keep values canonical across iterations (forward output already is).
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double total_us =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() / 1e3;

  cpu_measurement m;
  m.latency_us = total_us / iterations;
  m.throughput_kntt_s = m.latency_us > 0 ? 1e3 / m.latency_us : 0.0;
  m.assumed_power_w = core_power_w;
  m.energy_nj = m.latency_us * core_power_w * 1e3;  // us * W = uJ -> nJ
  return m;
}

design_point cpu_design_point(const cpu_measurement& m, unsigned coef_bits) {
  design_point d;
  d.name = "CPU (measured)";
  d.technology = "x86";
  d.coef_bits = coef_bits;
  d.max_f_mhz = 0.0;  // host-dependent
  d.latency_us = m.latency_us;
  d.throughput_kntt_s = m.throughput_kntt_s;
  d.energy_nj = m.energy_nj;
  d.ntts_per_batch = 1;
  d.area_mm2 = 0.0;
  return d;
}

}  // namespace bpntt::baselines
