#include "runtime/reference_backend.h"

#include "nttmath/poly.h"
#include "runtime/executor.h"
#include "runtime/residency_manager.h"

namespace bpntt::runtime {

reference_backend::reference_backend(const runtime_options& opts)
    : params_(opts.params), retarget_(opts.retarget_cache_limit) {
  if (params_.incomplete) {
    itables_ = std::make_unique<math::incomplete_ntt_tables>(params_.n, params_.q);
  } else {
    tables_ = std::make_unique<math::ntt_tables>(params_.n, params_.q, params_.negacyclic);
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
  // The golden tables are read-only; jobs chunk freely across the pool.
  parallel_for(pool_, out.outputs.size(), [&](std::size_t i) {
    auto& a = out.outputs[i];
    if (limb != nullptr) {
      // Limb transforms are where operands repeat (fixed keys, reused
      // multiplicands); serve them from the NTT-domain cache when possible.
      const auto fresh = [&](const std::vector<u64>& p) {
        std::vector<u64> t = p;
        dir == transform_dir::forward ? math::ntt_forward(t, *limb)
                                      : math::ntt_inverse(t, *limb);
        return t;
      };
      a = resman_ != nullptr ? resman_->transformed_or(hints.ring_q, dir, a, fresh)
                             : fresh(a);
    } else if (itables_) {
      dir == transform_dir::forward ? math::incomplete_ntt_forward(a, *itables_)
                                    : math::incomplete_ntt_inverse(a, *itables_);
    } else if (params_.negacyclic) {
      dir == transform_dir::forward ? math::ntt_forward(a, *tables_)
                                    : math::ntt_inverse(a, *tables_);
    } else {
      dir == transform_dir::forward ? math::cyclic_ntt_forward(a, *tables_)
                                    : math::cyclic_ntt_inverse(a, *tables_);
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
  parallel_for(pool_, pairs.size(), [&](std::size_t i) {
    if (limb != nullptr) {
      // The cached-operand decomposition of polymul_ntt's negacyclic path:
      // forward images of a and b come from (or feed) the operand cache —
      // bit-identical to transforming in place, only the work moves.
      const auto fresh = [&](const std::vector<u64>& p) {
        std::vector<u64> f = p;
        math::ntt_forward(f, *limb);
        return f;
      };
      const auto forward_of = [&](const std::vector<u64>& p) {
        return resman_ != nullptr
                   ? resman_->transformed_or(hints.ring_q, transform_dir::forward, p, fresh)
                   : fresh(p);
      };
      const std::vector<u64> fa = forward_of(pairs[i].a);
      const std::vector<u64> fb = forward_of(pairs[i].b);
      std::vector<u64> c(fa.size());
      math::ntt_pointwise(fa, fb, c, limb->q());
      math::ntt_inverse(c, *limb);
      out.outputs[i] = std::move(c);
    } else {
      out.outputs[i] = itables_ ? math::polymul_incomplete(pairs[i].a, pairs[i].b, *itables_)
                                : math::polymul_ntt(pairs[i].a, pairs[i].b, *tables_);
    }
  });
  note_batch(pairs.size(), out.wall_cycles);
  return out;
}

}  // namespace bpntt::runtime
