#include "runtime/reference_backend.h"

#include "nttmath/poly.h"
#include "runtime/executor.h"

namespace bpntt::runtime {

reference_backend::reference_backend(const runtime_options& opts)
    : rings_(opts.params, [](const core::ntt_params& p) { return std::make_shared<ring>(p); }) {}

reference_backend::ring::ring(const core::ntt_params& params) {
  if (params.incomplete) {
    itables_ = std::make_unique<math::incomplete_ntt_tables>(params.n, params.q);
  } else {
    tables_ = std::make_unique<math::ntt_tables>(params.n, params.q, /*negacyclic=*/true);
  }
}

void reference_backend::ring::transform(std::vector<u64>& a, transform_dir dir) const {
  const bool fwd = dir == transform_dir::forward;
  if (itables_) {
    fwd ? math::incomplete_ntt_forward(a, *itables_) : math::incomplete_ntt_inverse(a, *itables_);
  } else {
    fwd ? math::ntt_forward(a, *tables_) : math::ntt_inverse(a, *tables_);
  }
}

std::vector<u64> reference_backend::ring::multiply(const core::polymul_pair& pair) const {
  return itables_ ? math::polymul_incomplete(pair.a, pair.b, *itables_)
                  : math::polymul_ntt(pair.a, pair.b, *tables_);
}

batch_result reference_backend::run_ntt(const std::vector<std::vector<u64>>& polys,
                                        transform_dir dir, const dispatch_hints& hints) {
  batch_result out;
  out.outputs = polys;
  out.waves = polys.empty() ? 0 : 1;
  // Resolve the ring before the parallel region so pool tasks only ever
  // read it (the shared_ptr keeps a limb ring alive across a concurrent
  // eviction).
  const auto ring = rings_.get(hints.ring_q);
  parallel_for(pool_, out.outputs.size(),
               [&](std::size_t i) { ring->transform(out.outputs[i], dir); });
  note_batch(polys.size(), out.wall_cycles);
  return out;
}

batch_result reference_backend::run_polymul(const std::vector<core::polymul_pair>& pairs,
                                            const dispatch_hints& hints) {
  batch_result out;
  out.outputs.resize(pairs.size());
  out.waves = pairs.empty() ? 0 : 1;
  const auto ring = rings_.get(hints.ring_q);
  parallel_for(pool_, pairs.size(),
               [&](std::size_t i) { out.outputs[i] = ring->multiply(pairs[i]); });
  note_batch(pairs.size(), out.wall_cycles);
  return out;
}

}  // namespace bpntt::runtime
