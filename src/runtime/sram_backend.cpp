#include "runtime/sram_backend.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/executor.h"
#include "runtime/residency_manager.h"
#include "sram/tech_model.h"

namespace bpntt::runtime {

sram_backend::sram_backend(const runtime_options& opts)
    : channels_(opts.topo.channels),
      bank_cfg_(opts.bank()),
      params_(opts.params),
      retarget_(opts.retarget_cache_limit) {
  const unsigned total = opts.topo.total_banks();
  banks_.reserve(total);
  for (unsigned b = 0; b < total; ++b) {
    banks_.emplace_back(bank_cfg_, params_);
  }
}

std::shared_ptr<std::vector<core::bp_ntt_bank>> sram_backend::banks_for(u64 ring_q) {
  // The primary array is a member, not a cache entry: alias it into a
  // non-owning shared_ptr so both paths hand dispatches the same handle
  // type (the member outlives every dispatch by construction).
  const auto primary = std::shared_ptr<std::vector<core::bp_ntt_bank>>(
      std::shared_ptr<void>(), &banks_);
  if (ring_q == 0) return primary;
  // The primary banks satisfy a same-modulus override only when they
  // already run the full negacyclic transform — an incomplete or cyclic
  // primary ring must still retarget, or a ring-overridden dispatch would
  // execute a different transform here than on the cpu/reference backends.
  if (ring_q == params_.q && params_.negacyclic && !params_.incomplete) return primary;
  return retarget_.get(ring_q, [&] {
    // Retarget: same chip, same tile width, twiddles/constants recompiled
    // for the limb prime.  The limb ring is always a full negacyclic ring
    // (the context validated 2n | q-1 at stream creation).
    core::ntt_params limb = params_;
    limb.q = ring_q;
    limb.negacyclic = true;
    limb.incomplete = false;
    std::vector<core::bp_ntt_bank> retargeted;
    retargeted.reserve(banks_.size());
    for (std::size_t b = 0; b < banks_.size(); ++b) retargeted.emplace_back(bank_cfg_, limb);
    return retargeted;
  });
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

template <typename RunSlice>
batch_result sram_backend::shard(std::vector<core::bp_ntt_bank>& banks, std::size_t njobs,
                                 const dispatch_hints& hints, RunSlice&& run_slice) {
  batch_result out;
  out.outputs.resize(njobs);
  if (njobs == 0 || banks.empty()) return out;

  // Wave-width blocks round-robin over the subset: block b -> subset bank
  // b mod |subset|.  The assignment depends only on the subset, so a given
  // (jobs, bank_set) dispatch is deterministic at any pool size.
  const std::vector<unsigned> set = resolve_bank_set(hints);
  const unsigned block_width = std::max(1u, banks[set.front()].lanes_per_wave());
  std::vector<std::vector<std::size_t>> assigned(set.size());
  std::size_t block = 0;
  for (std::size_t i = 0; i < njobs; i += block_width, ++block) {
    auto& dst = assigned[block % set.size()];
    for (std::size_t j = i; j < std::min<std::size_t>(njobs, i + block_width); ++j) {
      dst.push_back(j);
    }
  }

  // Banks are independent models executing a broadcast command stream
  // (§IV-A), so their slices really do run concurrently: one pool task per
  // subset bank.  Results are merged serially in bank order afterwards,
  // keeping the floating-point energy sum (and therefore every reported
  // stat) deterministic regardless of pool size.
  std::vector<core::bank_run_result> per_bank(set.size());
  parallel_for(pool_, set.size(), [&](std::size_t s) {
    if (!assigned[s].empty()) per_bank[s] = run_slice(banks[set[s]], assigned[s]);
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

batch_result sram_backend::run_ntt(const std::vector<std::vector<u64>>& polys,
                                   transform_dir dir, const dispatch_hints& hints) {
  const auto banks = banks_for(hints.ring_q);
  batch_result out =
      hints.ring_q != 0 && resman_ != nullptr
          ? run_ntt_cached(polys, dir, hints, *banks)
          : shard(*banks, polys.size(), hints,
                  [&](core::bp_ntt_bank& bank, const std::vector<std::size_t>& idx) {
                    std::vector<std::vector<u64>> slice;
                    slice.reserve(idx.size());
                    for (const auto i : idx) slice.push_back(polys[i]);
                    return bank.run_ntt_batch(slice, dir);
                  });
  note_batch(polys.size(), out.wall_cycles);
  return out;
}

u64 sram_backend::warm_serve_cycles(const std::vector<unsigned>& set, unsigned home_bank,
                                    std::size_t rows, u64 ring_q, sram::op_stats& stats) {
  if (std::find(set.begin(), set.end(), home_bank) != set.end()) return 0;
  // Resident, but on a bank this dispatch does not hold: serve it over the
  // shared data bus — one on-chip row move per operand row, serialized
  // (the bus is one resource), still far below a cold re-transform.
  const auto r = static_cast<unsigned>(rows);
  stats.energy_pj += sram::energy_row_move_pj(bank_cfg_.array.tech, bank_cfg_.array.cols, r);
  resman_->note_move(ring_q, home_bank);
  return sram::row_move_cycles(bank_cfg_.array.tech, r);
}

unsigned sram_backend::insert_bank(const std::vector<unsigned>& set,
                                   const std::vector<core::bp_ntt_bank>& banks,
                                   std::size_t k) const {
  const unsigned block_width = std::max(1u, banks[set.front()].lanes_per_wave());
  return set[(k / block_width) % set.size()];
}

batch_result sram_backend::run_ntt_cached(const std::vector<std::vector<u64>>& polys,
                                          transform_dir dir, const dispatch_hints& hints,
                                          std::vector<core::bp_ntt_bank>& banks) {
  // Resident transforms skip the array: same-bank serves are free,
  // foreign-bank serves pay a row move; only the misses ride a bank batch,
  // so a fully-warm same-bank dispatch costs zero array cycles.
  batch_result out;
  out.outputs.resize(polys.size());
  const std::vector<unsigned> set = resolve_bank_set(hints);
  std::vector<std::size_t> miss;
  for (std::size_t i = 0; i < polys.size(); ++i) {
    if (auto cached = resman_->lookup(hints.ring_q, dir, polys[i])) {
      out.wall_cycles +=
          warm_serve_cycles(set, cached->home_bank, polys[i].size(), hints.ring_q, out.stats);
      out.outputs[i] = std::move(cached->transformed);
    } else {
      miss.push_back(i);
    }
  }
  if (miss.empty()) {
    out.stats.cycles = out.wall_cycles;
    return out;
  }
  std::vector<std::vector<u64>> pending;
  pending.reserve(miss.size());
  for (const auto i : miss) pending.push_back(polys[i]);
  batch_result fresh = shard(banks, pending.size(), hints,
                             [&](core::bp_ntt_bank& bank, const std::vector<std::size_t>& idx) {
                               std::vector<std::vector<u64>> slice;
                               slice.reserve(idx.size());
                               for (const auto i : idx) slice.push_back(pending[i]);
                               return bank.run_ntt_batch(slice, dir);
                             });
  for (std::size_t k = 0; k < miss.size(); ++k) {
    // Residency lands on the bank whose wave actually computed the image
    // (mirrors shard()'s block round-robin), so the next same-stream
    // dispatch finds its operands on banks it already holds.
    resman_->insert(hints.ring_q, dir, pending[k], fresh.outputs[k],
                    insert_bank(set, banks, k));
    out.outputs[miss[k]] = std::move(fresh.outputs[k]);
  }
  out.wall_cycles += fresh.wall_cycles;
  out.waves = fresh.waves;
  out.stats += fresh.stats;
  out.stats.cycles = out.wall_cycles;
  return out;
}

batch_result sram_backend::run_polymul(const std::vector<core::polymul_pair>& pairs,
                                       const dispatch_hints& hints) {
  const auto banks = banks_for(hints.ring_q);
  batch_result out =
      hints.ring_q != 0 && resman_ != nullptr
          ? run_polymul_cached(pairs, hints, *banks)
          : shard(*banks, pairs.size(), hints,
                  [&](core::bp_ntt_bank& bank, const std::vector<std::size_t>& idx) {
                    std::vector<core::polymul_pair> slice;
                    slice.reserve(idx.size());
                    for (const auto i : idx) slice.push_back(pairs[i]);
                    return bank.run_polymul_batch(slice);
                  });
  note_batch(pairs.size(), out.wall_cycles);
  return out;
}

batch_result sram_backend::run_polymul_cached(const std::vector<core::polymul_pair>& pairs,
                                              const dispatch_hints& hints,
                                              std::vector<core::bp_ntt_bank>& banks) {
  // Split the in-array pipeline at its natural seam: (1) forward-transform
  // exactly the distinct operands the cache does not hold, (2) run
  // pointwise + inverse on transformed operands.  Identical kernels to the
  // fused run_polymul_batch — only where the forward images come from
  // changes — so outputs stay bit-identical whether the cache is cold,
  // warm, or disabled.
  // Dedup by operand *value* without copying operands into map keys: keys
  // are pointers into `pairs` (stable for this call), ordered by the
  // pointed-to coefficients, so equal-valued operands share one entry.
  const auto by_value = [](const std::vector<u64>* a, const std::vector<u64>* b) {
    return *a < *b;
  };
  std::map<const std::vector<u64>*, std::vector<u64>, decltype(by_value)> transformed(
      by_value);  // operand -> forward image
  const std::vector<unsigned> set = resolve_bank_set(hints);
  u64 move_cycles = 0;
  sram::op_stats move_stats;
  std::vector<const std::vector<u64>*> miss;
  for (const auto& pr : pairs) {
    for (const auto* op : {&pr.a, &pr.b}) {
      if (transformed.count(op) != 0) continue;
      if (auto cached = resman_->lookup(hints.ring_q, transform_dir::forward, *op)) {
        move_cycles +=
            warm_serve_cycles(set, cached->home_bank, op->size(), hints.ring_q, move_stats);
        transformed.emplace(op, std::move(cached->transformed));
      } else {
        transformed.emplace(op, std::vector<u64>{});  // placeholder, filled below
        miss.push_back(op);
      }
    }
  }

  batch_result fwd;
  if (!miss.empty()) {
    std::vector<std::vector<u64>> pending;
    pending.reserve(miss.size());
    for (const auto* op : miss) pending.push_back(*op);
    fwd = shard(banks, pending.size(), hints,
                [&](core::bp_ntt_bank& bank, const std::vector<std::size_t>& idx) {
                  std::vector<std::vector<u64>> slice;
                  slice.reserve(idx.size());
                  for (const auto i : idx) slice.push_back(pending[i]);
                  return bank.run_ntt_batch(slice, transform_dir::forward);
                });
    for (std::size_t k = 0; k < miss.size(); ++k) {
      resman_->insert(hints.ring_q, transform_dir::forward, pending[k], fwd.outputs[k],
                      insert_bank(set, banks, k));
      transformed[miss[k]] = std::move(fwd.outputs[k]);
    }
  }

  std::vector<core::polymul_pair> staged(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    staged[i] = {transformed.at(&pairs[i].a), transformed.at(&pairs[i].b)};
  }
  batch_result out = shard(banks, staged.size(), hints,
                           [&](core::bp_ntt_bank& bank, const std::vector<std::size_t>& idx) {
                             std::vector<core::polymul_pair> slice;
                             slice.reserve(idx.size());
                             for (const auto i : idx) slice.push_back(staged[i]);
                             return bank.run_transformed_polymul_batch(slice);
                           });
  // The two phases (plus any cross-bank serves) run back-to-back on the
  // same bank subset: cycles add, waves and op counts accumulate.
  out.wall_cycles += fwd.wall_cycles + move_cycles;
  out.waves += fwd.waves;
  out.stats += fwd.stats;
  out.stats += move_stats;
  out.stats.cycles = out.wall_cycles;
  return out;
}

}  // namespace bpntt::runtime
