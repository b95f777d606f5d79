// Bank-level model (Fig. 4b): one cache bank holds several subarrays; one
// is repurposed as the CTRL/CMD store and the rest become BP-NTT compute
// arrays executing the same broadcast command stream ("different banks
// performing the same operations can share the CTRL/CMD subarray", §IV-A).
//
// The CTRL subarray does not hold the unrolled command stream (a 256-point
// kernel is ~3e5 control words — orders of magnitude beyond one subarray);
// it holds what the stream is *generated from*: the Montgomery-domain
// twiddle words plus the loop parameters, which the controller FSM expands
// per butterfly.  ctrl_rows_used() models that storage.
//
// The CTRL subarray's contents for one ring are a kernel_library, shared
// by every compute subarray of the bank (and by every bank a ring runs on).
// A batch may name another ring's library: it is bound to the compute
// subarrays for that batch, so retargeting to an RNS limb prime swaps the
// library on the same banks instead of building new ones.
//
// The scheduler runs an arbitrary batch of independent polynomials: each
// wave fills every lane of every compute subarray, all subarrays execute in
// lockstep (wave latency = slowest subarray, since ripple cycle counts are
// data-dependent), and waves repeat until the batch drains.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "bpntt/engine.h"

namespace bpntt::core {

// Direction of a batched transform.
enum class transform_dir { forward, inverse };

struct bank_config {
  unsigned subarrays = 4;  // including the CTRL/CMD subarray
  engine_config array;

  void validate() const;
};

struct bank_run_result {
  std::uint64_t waves = 0;
  std::uint64_t cycles = 0;      // sum over waves of the slowest subarray
  sram::op_stats stats;          // summed over all touched subarrays
  std::vector<std::vector<u64>> outputs;  // one per input polynomial
};

// One negacyclic ring product a * b mod (x^n + 1, q).
struct polymul_pair {
  std::vector<u64> a;
  std::vector<u64> b;
};

class bp_ntt_bank {
 public:
  // A bank running a private library for `params`.
  bp_ntt_bank(const bank_config& cfg, const ntt_params& params);
  // A bank whose compute subarrays run `ring`, built for cfg.array.
  bp_ntt_bank(const bank_config& cfg, std::shared_ptr<kernel_library> ring);

  // The bank's own ring: what a batch runs when it names no other.
  [[nodiscard]] const ntt_params& params() const noexcept { return ring_->params(); }
  [[nodiscard]] unsigned compute_subarrays() const noexcept {
    return static_cast<unsigned>(engines_.size());
  }
  [[nodiscard]] unsigned lanes_per_wave() const noexcept {
    return engines_.empty() ? 0u : compute_subarrays() * engines_.front()->lanes();
  }
  // Whether the polymul pipeline fits: two n-row operand regions per lane.
  [[nodiscard]] bool supports_polymul() const noexcept {
    return 2 * params().n <= cfg_.array.data_rows;
  }
  // Rows of the CTRL/CMD subarray occupied by twiddles + constants.
  [[nodiscard]] unsigned ctrl_rows_used() const noexcept;
  // Whole-bank area: compute subarrays + the CTRL/CMD subarray.
  [[nodiscard]] double area_mm2() const;

  // Every runner executes on `ring` when given (a library of this bank's
  // geometry and order n, e.g. an RNS limb prime's) and on the bank's own
  // ring otherwise.
  //
  // Transform every polynomial in `jobs` (each of size n, canonical) in the
  // given direction.  Inverse consumes bit-reversed transformed
  // coefficients, as run_inverse does.
  [[nodiscard]] bank_run_result run_ntt_batch(const std::vector<std::vector<u64>>& jobs,
                                              transform_dir dir,
                                              std::shared_ptr<kernel_library> ring = nullptr);
  // Full in-array negacyclic products: NTT(a), NTT(b), pointwise (or Kyber
  // basemul when the ring is incomplete), INTT — one pair per lane per
  // wave.  Needs supports_polymul().
  [[nodiscard]] bank_run_result run_polymul_batch(const std::vector<polymul_pair>& jobs,
                                                  std::shared_ptr<kernel_library> ring = nullptr);
  // Products of operands already in the NTT domain (both a and b carry the
  // bit-reversed forward image run_forward would leave in the array):
  // pointwise (or basemul) + INTT only — the tail of run_polymul_batch's
  // pipeline, used when the runtime's operand cache already holds the
  // transforms.  Needs supports_polymul().
  [[nodiscard]] bank_run_result run_transformed_polymul_batch(
      const std::vector<polymul_pair>& jobs, std::shared_ptr<kernel_library> ring = nullptr);

 private:
  // Wave scheduler shared by the batch runners: binds `ring` (or the own
  // ring) to every compute subarray, then fills every lane of every compute
  // subarray, executes touched subarrays concurrently (wave latency =
  // slowest), repeats until the batch drains.
  template <typename LoadFn, typename RunFn, typename ReadFn>
  bank_run_result schedule(std::shared_ptr<kernel_library> ring, std::size_t njobs,
                           LoadFn&& load, RunFn&& run, ReadFn&& read);
  // The two polymul runners: operands a and b in regions 0 and n of each
  // lane, the product read back from region 0; `transformed` skips the
  // forward transforms.
  bank_run_result run_pair_batch(const std::vector<polymul_pair>& jobs,
                                 std::shared_ptr<kernel_library> ring, bool transformed);

  // A bank's subarray state is exclusive to one batch at a time.  The
  // runtime scheduler guarantees that by reserving disjoint bank subsets
  // per dispatch group; this RAII guard turns a reservation bug (two groups
  // entering the same bank concurrently) into a loud logic_error instead of
  // silent state corruption.
  class exclusive_guard {
   public:
    explicit exclusive_guard(std::atomic_flag& flag);
    ~exclusive_guard();

   private:
    std::atomic_flag& flag_;
  };

  bank_config cfg_;
  std::shared_ptr<kernel_library> ring_;
  std::vector<std::unique_ptr<bp_ntt_engine>> engines_;
  // Behind a pointer so the bank stays movable (vector storage).
  std::unique_ptr<std::atomic_flag> busy_ = std::make_unique<std::atomic_flag>();
};

}  // namespace bpntt::core
