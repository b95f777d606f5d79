#include "runtime/cpu_backend.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "runtime/executor.h"

namespace bpntt::runtime {

cpu_backend::cpu_backend(const runtime_options& opts)
    : params_(opts.params), retarget_(kRetargetCacheModuli) {
  if (params_.incomplete) {
    itables_ = std::make_unique<math::incomplete_ntt_tables>(params_.n, params_.q);
  } else {
    tables_ = std::make_unique<math::ntt_tables>(params_.n, params_.q, /*negacyclic=*/true);
    fast_ = std::make_unique<math::fast_ntt>(*tables_);
  }
}

std::shared_ptr<const cpu_backend::limb_ring> cpu_backend::ring_for(u64 ring_q) {
  return retarget_.get(ring_q, [&] {
    limb_ring ring;
    ring.tables = std::make_unique<math::ntt_tables>(params_.n, ring_q, /*negacyclic=*/true);
    ring.fast = std::make_unique<math::fast_ntt>(*ring.tables);
    return ring;
  });
}

void cpu_backend::transform(std::vector<u64>& a, transform_dir dir,
                            const limb_ring* limb) const {
  if (limb != nullptr) {
    dir == transform_dir::forward ? limb->fast->forward(a) : limb->fast->inverse(a);
  } else if (itables_) {
    dir == transform_dir::forward ? math::incomplete_ntt_forward(a, *itables_)
                                  : math::incomplete_ntt_inverse(a, *itables_);
  } else {
    dir == transform_dir::forward ? fast_->forward(a) : fast_->inverse(a);
  }
}

std::vector<u64> cpu_backend::multiply(const core::polymul_pair& pair,
                                       const limb_ring* limb) const {
  if (limb == nullptr && itables_) {
    std::vector<u64> a = pair.a;
    std::vector<u64> b = pair.b;
    math::incomplete_ntt_forward(a, *itables_);
    math::incomplete_ntt_forward(b, *itables_);
    std::vector<u64> c(a.size());
    math::incomplete_basemul(a, b, c, *itables_);
    math::incomplete_ntt_inverse(c, *itables_);
    return c;
  }
  // Montgomery fast path, at the limb modulus or the primary one.
  std::vector<u64> a = pair.a;
  std::vector<u64> b = pair.b;
  transform(a, transform_dir::forward, limb);
  transform(b, transform_dir::forward, limb);
  std::vector<u64> c(a.size());
  math::ntt_pointwise(a, b, c, limb != nullptr ? limb->tables->q() : params_.q);
  transform(c, transform_dir::inverse, limb);
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
  // Resolve a ring override before the clock starts: retarget table
  // construction is setup, not per-batch work.
  const std::shared_ptr<const limb_ring> limb =
      hints.ring_q != 0 ? ring_for(hints.ring_q) : nullptr;
  std::vector<std::vector<u64>> outputs = polys;
  const auto start = std::chrono::steady_clock::now();
  // Tables are immutable after construction, so jobs chunk freely across
  // the pool; each task owns its output slot.
  parallel_for(pool_, outputs.size(),
               [&](std::size_t i) { transform(outputs[i], dir, limb.get()); });
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  batch_result out = finish(std::move(outputs), elapsed.count());
  note_batch(polys.size(), out.wall_cycles);
  return out;
}

batch_result cpu_backend::run_polymul(const std::vector<core::polymul_pair>& pairs,
                                      const dispatch_hints& hints) {
  const std::shared_ptr<const limb_ring> limb =
      hints.ring_q != 0 ? ring_for(hints.ring_q) : nullptr;
  std::vector<std::vector<u64>> outputs(pairs.size());
  const auto start = std::chrono::steady_clock::now();
  parallel_for(pool_, pairs.size(),
               [&](std::size_t i) { outputs[i] = multiply(pairs[i], limb.get()); });
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  batch_result out = finish(std::move(outputs), elapsed.count());
  note_batch(pairs.size(), out.wall_cycles);
  return out;
}

}  // namespace bpntt::runtime
