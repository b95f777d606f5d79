#include "runtime/cpu_backend.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "runtime/executor.h"

namespace bpntt::runtime {

cpu_backend::cpu_backend(const runtime_options& opts)
    : rings_(opts.params, [](const core::ntt_params& p) { return std::make_shared<ring>(p); }) {}

cpu_backend::ring::ring(const core::ntt_params& params) {
  if (params.incomplete) {
    itables_ = std::make_unique<math::incomplete_ntt_tables>(params.n, params.q);
  } else {
    tables_ = std::make_unique<math::ntt_tables>(params.n, params.q, /*negacyclic=*/true);
    fast_ = std::make_unique<math::fast_ntt>(*tables_);
  }
}

void cpu_backend::ring::transform(std::vector<u64>& a, transform_dir dir) const {
  const bool fwd = dir == transform_dir::forward;
  if (itables_) {
    fwd ? math::incomplete_ntt_forward(a, *itables_) : math::incomplete_ntt_inverse(a, *itables_);
  } else {
    fwd ? fast_->forward(a) : fast_->inverse(a);
  }
}

std::vector<u64> cpu_backend::ring::multiply(const core::polymul_pair& pair) const {
  if (itables_) return math::polymul_incomplete(pair.a, pair.b, *itables_);
  std::vector<u64> a = pair.a;
  std::vector<u64> b = pair.b;
  fast_->forward(a);
  fast_->forward(b);
  std::vector<u64> c(a.size());
  math::ntt_pointwise(a, b, c, tables_->q());
  fast_->inverse(c);
  return c;
}

batch_result cpu_backend::finish(std::vector<std::vector<u64>> outputs, double seconds) const {
  batch_result out;
  out.waves = outputs.empty() ? 0 : 1;
  out.outputs = std::move(outputs);
  if (!out.outputs.empty()) {
    // A small batch can finish inside one clock tick and measure 0 seconds;
    // clamp to one core cycle so a non-empty batch never reports zero work
    // (downstream throughput/energy division relies on that).
    seconds = std::max(seconds, 1.0 / (kCpuFreqGhz * 1e9));
  }
  out.wall_cycles = static_cast<u64>(std::llround(seconds * kCpuFreqGhz * 1e9));
  out.stats.cycles = out.wall_cycles;
  out.stats.energy_pj = seconds * kCpuPowerW * 1e12;
  return out;
}

batch_result cpu_backend::run_ntt(const std::vector<std::vector<u64>>& polys,
                                  transform_dir dir, const dispatch_hints& hints) {
  // Resolve the ring before the clock starts: building a limb ring's
  // tables is setup, not per-batch work.
  const auto ring = rings_.get(hints.ring_q);
  std::vector<std::vector<u64>> outputs = polys;
  const auto start = std::chrono::steady_clock::now();
  // Tables are immutable after construction, so jobs chunk freely across
  // the pool; each task owns its output slot.
  parallel_for(pool_, outputs.size(),
               [&](std::size_t i) { ring->transform(outputs[i], dir); });
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  batch_result out = finish(std::move(outputs), elapsed.count());
  note_batch(polys.size(), out.wall_cycles);
  return out;
}

batch_result cpu_backend::run_polymul(const std::vector<core::polymul_pair>& pairs,
                                      const dispatch_hints& hints) {
  const auto ring = rings_.get(hints.ring_q);
  std::vector<std::vector<u64>> outputs(pairs.size());
  const auto start = std::chrono::steady_clock::now();
  parallel_for(pool_, pairs.size(),
               [&](std::size_t i) { outputs[i] = ring->multiply(pairs[i]); });
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  batch_result out = finish(std::move(outputs), elapsed.count());
  note_batch(pairs.size(), out.wall_cycles);
  return out;
}

}  // namespace bpntt::runtime
