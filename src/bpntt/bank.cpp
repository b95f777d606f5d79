#include "bpntt/bank.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace bpntt::core {

void bank_config::validate() const {
  if (subarrays < 2 || subarrays > 64) {
    throw std::invalid_argument(
        "bank_config: subarrays must be in [2, 64] — one subarray is always repurposed as the "
        "CTRL/CMD store, so at least one more is needed for compute");
  }
  array.validate();
}

bp_ntt_bank::bp_ntt_bank(const bank_config& cfg, const ntt_params& params)
    : bp_ntt_bank(cfg, std::make_shared<kernel_library>(cfg.array, params)) {}

bp_ntt_bank::bp_ntt_bank(const bank_config& cfg, std::shared_ptr<kernel_library> ring)
    : cfg_(cfg), ring_(std::move(ring)) {
  cfg_.validate();
  for (unsigned s = 0; s + 1 < cfg_.subarrays; ++s) {
    engines_.push_back(std::make_unique<bp_ntt_engine>(ring_));
  }
}

bp_ntt_bank::exclusive_guard::exclusive_guard(std::atomic_flag& flag) : flag_(flag) {
  if (flag_.test_and_set(std::memory_order_acquire)) {
    throw std::logic_error(
        "bp_ntt_bank: concurrent batch entry — two dispatch groups were scheduled onto the "
        "same bank (scheduler bank-reservation bug)");
  }
}

bp_ntt_bank::exclusive_guard::~exclusive_guard() {
  flag_.clear(std::memory_order_release);
}

unsigned bp_ntt_bank::ctrl_rows_used() const noexcept {
  // Twiddles (n-1), inverse twiddles (n-1), n^-1, R^2 and the three row
  // constants, each k bits, packed into cols-wide control rows.
  const std::uint64_t words = 2 * (params().n - 1) + 5;
  const std::uint64_t bits = words * params().k;
  return static_cast<unsigned>((bits + cfg_.array.cols - 1) / cfg_.array.cols);
}

double bp_ntt_bank::area_mm2() const {
  const row_layout layout{cfg_.array.data_rows};
  return cfg_.subarrays *
         sram::subarray_area_mm2(cfg_.array.tech, layout.total_rows(), cfg_.array.cols);
}

template <typename LoadFn, typename RunFn, typename ReadFn>
bank_run_result bp_ntt_bank::schedule(std::shared_ptr<kernel_library> ring, std::size_t njobs,
                                      LoadFn&& load, RunFn&& run, ReadFn&& read) {
  const exclusive_guard exclusive(*busy_);
  for (auto& e : engines_) e->bind(ring ? ring : ring_);
  bank_run_result result;
  result.outputs.resize(njobs);
  const unsigned per_engine = engines_.empty() ? 0u : engines_.front()->lanes();
  if (per_engine == 0) {
    if (njobs != 0) throw std::logic_error("bp_ntt_bank: no compute subarrays to schedule on");
    return result;
  }

  std::size_t next = 0;
  while (next < njobs) {
    // Fill one wave: engine e, lane l <- job next++.
    struct placement {
      std::size_t job;
      unsigned engine;
      unsigned lane;
    };
    std::vector<placement> wave;
    for (unsigned e = 0; e < engines_.size() && next < njobs; ++e) {
      for (unsigned lane = 0; lane < per_engine && next < njobs; ++lane, ++next) {
        load(*engines_[e], lane, next);
        wave.push_back({next, e, lane});
      }
    }
    // Execute every touched subarray; they run concurrently, so the wave
    // costs the slowest one.
    std::uint64_t wave_cycles = 0;
    std::vector<bool> ran(engines_.size(), false);
    for (const auto& p : wave) ran[p.engine] = true;
    for (unsigned e = 0; e < engines_.size(); ++e) {
      if (!ran[e]) continue;
      const sram::op_stats stats = run(*engines_[e]);
      wave_cycles = std::max(wave_cycles, stats.cycles);
      result.stats += stats;
    }
    for (const auto& p : wave) {
      result.outputs[p.job] = read(*engines_[p.engine], p.lane, p.job);
    }
    result.cycles += wave_cycles;
    ++result.waves;
  }
  // The per-wave max is the bank's wall clock; surface it on the summed
  // stats too so callers get one coherent op_stats.
  result.stats.cycles = result.cycles;
  return result;
}

bank_run_result bp_ntt_bank::run_ntt_batch(const std::vector<std::vector<u64>>& jobs,
                                           transform_dir dir,
                                           std::shared_ptr<kernel_library> ring) {
  for (const auto& j : jobs) {
    if (j.size() != params().n) throw std::invalid_argument("bp_ntt_bank: job size mismatch");
  }
  return schedule(
      std::move(ring), jobs.size(),
      [&](bp_ntt_engine& eng, unsigned lane, std::size_t job) {
        eng.load_polynomial(lane, jobs[job]);
      },
      [&](bp_ntt_engine& eng) {
        return dir == transform_dir::forward ? eng.run_forward() : eng.run_inverse();
      },
      [&](bp_ntt_engine& eng, unsigned lane, std::size_t) {
        return eng.peek_polynomial(lane, params().n);
      });
}

bank_run_result bp_ntt_bank::run_pair_batch(const std::vector<polymul_pair>& jobs,
                                            std::shared_ptr<kernel_library> ring,
                                            bool transformed) {
  if (!supports_polymul()) {
    throw std::invalid_argument(
        "bp_ntt_bank: polymul needs two n-row regions per lane (2n <= data_rows)");
  }
  const auto n = static_cast<unsigned>(params().n);
  for (const auto& j : jobs) {
    if (j.a.size() != n || j.b.size() != n) {
      throw std::invalid_argument("bp_ntt_bank: job size mismatch");
    }
  }
  return schedule(
      std::move(ring), jobs.size(),
      [&](bp_ntt_engine& eng, unsigned lane, std::size_t job) {
        eng.load_polynomial(lane, jobs[job].a, eng.poly_region(0));
        eng.load_polynomial(lane, jobs[job].b, eng.poly_region(n));
      },
      [&](bp_ntt_engine& eng) {
        const auto ra = eng.poly_region(0);
        const auto rb = eng.poly_region(n);
        sram::op_stats stats;
        if (!transformed) {
          stats += eng.run_forward(ra);
          stats += eng.run_forward(rb);
        }
        // The bound ring decides: a limb ring is full negacyclic even on a
        // bank whose own ring is incomplete.
        stats += eng.params().incomplete ? eng.run_basemul(ra, rb, /*scale_b=*/true)
                                         : eng.run_pointwise(ra, rb, ra, /*scale_b=*/true);
        stats += eng.run_inverse(ra);
        return stats;
      },
      [&](bp_ntt_engine& eng, unsigned lane, std::size_t) {
        return eng.peek_polynomial(lane, eng.poly_region(0));
      });
}

bank_run_result bp_ntt_bank::run_polymul_batch(const std::vector<polymul_pair>& jobs,
                                               std::shared_ptr<kernel_library> ring) {
  return run_pair_batch(jobs, std::move(ring), /*transformed=*/false);
}

bank_run_result bp_ntt_bank::run_transformed_polymul_batch(
    const std::vector<polymul_pair>& jobs, std::shared_ptr<kernel_library> ring) {
  return run_pair_batch(jobs, std::move(ring), /*transformed=*/true);
}

}  // namespace bpntt::core
