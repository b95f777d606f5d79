#include "runtime/reference_backend.h"

#include "nttmath/poly.h"
#include "runtime/executor.h"

namespace bpntt::runtime {

reference_backend::reference_backend(const runtime_options& opts)
    : params_(opts.params), retarget_(kRetargetCacheModuli) {
  if (params_.incomplete) {
    itables_ = std::make_unique<math::incomplete_ntt_tables>(params_.n, params_.q);
  } else {
    tables_ = std::make_unique<math::ntt_tables>(params_.n, params_.q, /*negacyclic=*/true);
  }
}

std::shared_ptr<const math::ntt_tables> reference_backend::tables_for(u64 ring_q) {
  return retarget_.get(
      ring_q, [&] { return math::ntt_tables(params_.n, ring_q, /*negacyclic=*/true); });
}

batch_result reference_backend::run_ntt(const std::vector<std::vector<u64>>& polys,
                                        transform_dir dir, const dispatch_hints& hints) {
  batch_result out;
  out.outputs = polys;
  out.waves = polys.empty() ? 0 : 1;
  // Ring-overridden (RNS limb) dispatches always run the full negacyclic
  // transform at the limb modulus; resolve the tables before the parallel
  // region so pool tasks only ever read them (the shared_ptr keeps the
  // entry alive across a concurrent eviction).
  const std::shared_ptr<const math::ntt_tables> limb =
      hints.ring_q != 0 ? tables_for(hints.ring_q) : nullptr;
  const math::ntt_tables* t = limb != nullptr ? limb.get() : tables_.get();
  const bool fwd = dir == transform_dir::forward;
  // The golden tables are read-only; jobs chunk freely across the pool.
  parallel_for(pool_, out.outputs.size(), [&](std::size_t i) {
    auto& a = out.outputs[i];
    if (t == nullptr) {
      fwd ? math::incomplete_ntt_forward(a, *itables_)
          : math::incomplete_ntt_inverse(a, *itables_);
    } else {
      fwd ? math::ntt_forward(a, *t) : math::ntt_inverse(a, *t);
    }
  });
  note_batch(polys.size(), out.wall_cycles);
  return out;
}

batch_result reference_backend::run_polymul(const std::vector<core::polymul_pair>& pairs,
                                            const dispatch_hints& hints) {
  batch_result out;
  out.outputs.resize(pairs.size());
  out.waves = pairs.empty() ? 0 : 1;
  const std::shared_ptr<const math::ntt_tables> limb =
      hints.ring_q != 0 ? tables_for(hints.ring_q) : nullptr;
  const math::ntt_tables* t = limb != nullptr ? limb.get() : tables_.get();
  parallel_for(pool_, pairs.size(), [&](std::size_t i) {
    out.outputs[i] = t != nullptr ? math::polymul_ntt(pairs[i].a, pairs[i].b, *t)
                                  : math::polymul_incomplete(pairs[i].a, pairs[i].b, *itables_);
  });
  note_batch(pairs.size(), out.wall_cycles);
  return out;
}

}  // namespace bpntt::runtime
