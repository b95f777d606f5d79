#include "runtime/sram_backend.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/executor.h"
#include "runtime/residency_manager.h"

namespace bpntt::runtime {

sram_backend::sram_backend(const runtime_options& opts)
    : channels_(opts.topo.channels),
      bank_cfg_(opts.bank()),
      rings_(opts.params, [this](const core::ntt_params& p) {
        return std::make_shared<core::kernel_library>(bank_cfg_.array, p);
      }) {
  const unsigned total = opts.topo.total_banks();
  banks_.reserve(total);
  for (unsigned b = 0; b < total; ++b) banks_.emplace_back(bank_cfg_, rings_.get(0));
}

backend_caps sram_backend::capabilities() const {
  backend_caps caps;
  caps.bank_lanes.reserve(banks_.size());
  for (const auto& b : banks_) {
    caps.bank_lanes.push_back(b.lanes_per_wave());
    caps.wave_width += b.lanes_per_wave();
  }
  caps.channels = channels_;
  caps.polymul = !banks_.empty() && banks_.front().supports_polymul();
  if (!banks_.empty()) {
    const auto& p = banks_.front().params();
    caps.max_poly_order = p.n;       // banks are built for exactly this ring
    caps.max_modulus_bits = p.k - 1; // carry-save headroom: 2q < 2^k
  }
  return caps;
}

std::vector<unsigned> sram_backend::resolve_bank_set(const dispatch_hints& hints) const {
  if (hints.bank_set.empty()) {
    std::vector<unsigned> all(banks_.size());
    for (unsigned b = 0; b < banks_.size(); ++b) all[b] = b;
    return all;
  }
  for (const unsigned b : hints.bank_set) {
    if (b >= banks_.size()) {
      throw std::invalid_argument("sram backend: dispatch names bank " + std::to_string(b) +
                                  " but the topology has " + std::to_string(banks_.size()) +
                                  " banks");
    }
  }
  return hints.bank_set;
}


namespace {

// The subset slot shard() hands job j to: wave-width blocks round-robin,
// block b -> subset bank b mod |subset|.  The assignment depends only on
// the subset, so a given (jobs, bank_set) dispatch is deterministic at any
// pool size — and a missed operand can be made resident on the bank whose
// wave actually transformed it.
std::size_t block_slot(std::size_t j, const std::vector<unsigned>& set, unsigned wave) {
  return (j / std::max(1u, wave)) % set.size();
}

}  // namespace

template <typename Job, typename RunSlice>
batch_result sram_backend::shard(const std::vector<Job>& jobs, const dispatch_hints& hints,
                                 RunSlice&& run_slice) {
  batch_result out;
  out.outputs.resize(jobs.size());
  if (jobs.empty() || banks_.empty()) return out;

  const std::vector<unsigned> set = resolve_bank_set(hints);
  const unsigned wave = banks_[set.front()].lanes_per_wave();
  std::vector<std::vector<std::size_t>> assigned(set.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) assigned[block_slot(j, set, wave)].push_back(j);

  // Banks are independent models executing a broadcast command stream
  // (§IV-A), so their slices really do run concurrently: one pool task per
  // subset bank.  Results are merged serially in bank order afterwards,
  // keeping the floating-point energy sum (and therefore every reported
  // stat) deterministic regardless of pool size.
  std::vector<core::bank_run_result> per_bank(set.size());
  parallel_for(pool_, set.size(), [&](std::size_t s) {
    if (assigned[s].empty()) return;
    std::vector<Job> slice;
    slice.reserve(assigned[s].size());
    for (const auto j : assigned[s]) slice.push_back(jobs[j]);
    per_bank[s] = run_slice(banks_[set[s]], slice);
  });

  for (std::size_t s = 0; s < set.size(); ++s) {
    if (assigned[s].empty()) continue;
    core::bank_run_result& r = per_bank[s];
    for (std::size_t k = 0; k < assigned[s].size(); ++k) {
      out.outputs[assigned[s][k]] = std::move(r.outputs[k]);
    }
    // Wall clock is the slowest bank; waves, energy and op counts accumulate.
    out.wall_cycles = std::max(out.wall_cycles, r.cycles);
    out.waves += r.waves;
    out.stats += r.stats;
  }
  out.stats.cycles = out.wall_cycles;
  return out;
}

batch_result sram_backend::resident_or_transform(
    const std::vector<const std::vector<u64>*>& operands, transform_dir dir,
    const dispatch_hints& hints, const std::shared_ptr<core::kernel_library>& ring) {
  const std::vector<unsigned> set = resolve_bank_set(hints);
  std::vector<std::vector<u64>> images(operands.size());
  std::vector<std::size_t> miss;
  std::vector<std::vector<u64>> pending;
  for (std::size_t i = 0; i < operands.size(); ++i) {
    auto cached = resman_->lookup(hints.ring_q, dir, *operands[i], set);
    if (cached) {
      images[i] = std::move(*cached);
    } else {
      miss.push_back(i);
      pending.push_back(*operands[i]);
    }
  }
  batch_result r = shard(pending, hints,
                         [&](core::bp_ntt_bank& bank, const std::vector<std::vector<u64>>& slice) {
                           return bank.run_ntt_batch(slice, dir, ring);
                         });
  const unsigned wave = banks_[set.front()].lanes_per_wave();
  for (std::size_t k = 0; k < miss.size(); ++k) {
    resman_->insert(hints.ring_q, dir, pending[k], r.outputs[k], set[block_slot(k, set, wave)]);
    images[miss[k]] = std::move(r.outputs[k]);
  }
  r.outputs = std::move(images);
  return r;
}

batch_result sram_backend::run_ntt(const std::vector<std::vector<u64>>& polys,
                                   transform_dir dir, const dispatch_hints& hints) {
  const auto ring = rings_.get(hints.ring_q);
  batch_result out;
  if (hints.ring_q != 0 && resman_ != nullptr) {
    // Equal polys in one batch are looked up (and miss) independently.
    std::vector<const std::vector<u64>*> operands;
    operands.reserve(polys.size());
    for (const auto& p : polys) operands.push_back(&p);
    out = resident_or_transform(operands, dir, hints, ring);
  } else {
    out = shard(polys, hints,
                [&](core::bp_ntt_bank& bank, const std::vector<std::vector<u64>>& slice) {
                  return bank.run_ntt_batch(slice, dir, ring);
                });
  }
  note_batch(polys.size(), out.wall_cycles);
  return out;
}

batch_result sram_backend::run_polymul(const std::vector<core::polymul_pair>& pairs,
                                       const dispatch_hints& hints) {
  const auto ring = rings_.get(hints.ring_q);
  if (hints.ring_q == 0 || resman_ == nullptr) {
    batch_result out =
        shard(pairs, hints,
              [&](core::bp_ntt_bank& bank, const std::vector<core::polymul_pair>& slice) {
                return bank.run_polymul_batch(slice, ring);
              });
    note_batch(pairs.size(), out.wall_cycles);
    return out;
  }
  // Split the in-array pipeline at its natural seam: (1) forward-transform
  // exactly the distinct operands the device does not hold, (2) run
  // pointwise + inverse on transformed operands.  Identical kernels to the
  // fused run_polymul_batch — only where the forward images come from
  // changes — so outputs stay bit-identical whether residency is cold,
  // warm, or disabled.  Operands dedup by *value* without copying them
  // into map keys: keys point into `pairs` (stable for this call), ordered
  // by the pointed-to coefficients.
  const auto by_value = [](const std::vector<u64>* a, const std::vector<u64>* b) {
    return *a < *b;
  };
  std::map<const std::vector<u64>*, std::size_t, decltype(by_value)> slot(by_value);
  std::vector<const std::vector<u64>*> operands;
  for (const auto& pr : pairs) {
    for (const auto* op : {&pr.a, &pr.b}) {
      if (slot.emplace(op, operands.size()).second) operands.push_back(op);
    }
  }
  const batch_result fwd = resident_or_transform(operands, transform_dir::forward, hints, ring);

  std::vector<core::polymul_pair> staged(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    staged[i] = {fwd.outputs[slot.at(&pairs[i].a)], fwd.outputs[slot.at(&pairs[i].b)]};
  }
  batch_result out =
      shard(staged, hints,
            [&](core::bp_ntt_bank& bank, const std::vector<core::polymul_pair>& slice) {
              return bank.run_transformed_polymul_batch(slice, ring);
            });
  // The two phases run back-to-back on the same bank subset: cycles add,
  // waves and op counts accumulate.
  out.wall_cycles += fwd.wall_cycles;
  out.waves += fwd.waves;
  out.stats += fwd.stats;
  out.stats.cycles = out.wall_cycles;
  note_batch(pairs.size(), out.wall_cycles);
  return out;
}

}  // namespace bpntt::runtime
