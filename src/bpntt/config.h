// Configuration types for the BP-NTT engine.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "bpntt/options.h"
#include "common/bitutil.h"
#include "sram/tech_model.h"

namespace bpntt::core {

using u64 = std::uint64_t;

// Transform parameters: an n-point NTT over Z_q mapped onto k-bit tiles.
//
// The carry-save Montgomery datapath needs one spare bit of headroom
// (2q < 2^k): intermediate values reach 2q-1 and the MSB-based sign test of
// the conditional corrections relies on it.  This matches the paper's
// parameter pairings (e.g. 14-bit PQC moduli on 16-bit tiles) and is what
// makes Observations 1 and 2 hold (validated by the envelope tests).
//
// q == 0 selects *synthetic mode*: no modular semantics, random twiddle bit
// patterns of the same density.  Used only by the performance sweeps
// (Fig. 8a includes tile widths too narrow to host any real modulus).
struct ntt_params {
  u64 n = 256;        // polynomial order (power of two)
  u64 q = 0;          // odd prime modulus, 2q < 2^k; 0 = synthetic
  unsigned k = 16;    // tile width in bits = Montgomery R = 2^k
  // One-layer-short transform (standardized Kyber): needs only n | q-1 and
  // finishes products with degree-1 base multiplications.
  bool incomplete = false;

  [[nodiscard]] bool synthetic() const noexcept { return q == 0; }

  void validate() const {
    if (!common::is_power_of_two(n) || n < 2) {
      throw std::invalid_argument("ntt_params: n must be a power of two >= 2");
    }
    if (incomplete && n < 4) {
      throw std::invalid_argument("ntt_params: incomplete mode needs n >= 4");
    }
    // Synthetic mode supports the paper's full 2..256-bit tile range (the
    // 250-point/256-bit capacity claim); real-modulus golden checks use
    // native words and stop at 63.
    if (k < 2 || k > 256) throw std::invalid_argument("ntt_params: k out of range [2,256]");
    if (!synthetic()) {
      if (k > 63) throw std::invalid_argument("ntt_params: real moduli limited to k <= 63");
      if ((q & 1ULL) == 0) throw std::invalid_argument("ntt_params: q must be odd");
      if (2 * q >= (1ULL << k)) {
        throw std::invalid_argument("ntt_params: need 2q < 2^k (one spare bit of headroom)");
      }
      const u64 order = incomplete ? n : 2 * n;
      if ((q - 1) % order != 0) {
        throw std::invalid_argument("ntt_params: q does not support this transform size");
      }
    }
  }
};

// Physical array configuration.  Default mirrors the paper's headline
// design: a 256x256 cache subarray plus dedicated intermediate rows (§V-E
// "256x256 BP-NTT design plus 6 rows for intermediate data").
struct engine_config {
  unsigned data_rows = 256;  // coefficient rows
  unsigned cols = 256;
  sram::tech_params tech = sram::tech_45nm();
  compile_options microcode;  // ablation knobs; defaults match the paper

  void validate() const {
    microcode.validate();
    if (data_rows == 0 || data_rows > 502) {
      // 9-bit row addresses minus scratch/constant/staging rows.
      throw std::invalid_argument("engine_config: data_rows out of range");
    }
    if (cols == 0 || cols > 4096) throw std::invalid_argument("engine_config: cols out of range");
  }
};

}  // namespace bpntt::core
