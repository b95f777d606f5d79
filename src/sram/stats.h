// Execution statistics accumulated by the subarray simulator.
#pragma once

#include <cstdint>

namespace bpntt::sram {

struct op_stats {
  std::uint64_t cycles = 0;

  std::uint64_t binary_ops = 0;  // single-result dual-row activations
  std::uint64_t pair_ops = 0;    // fused {AND, XOR} dual-write activations
  std::uint64_t copy_ops = 0;    // unary read->write (with optional invert/mask)
  std::uint64_t shift_ops = 0;
  std::uint64_t check_ops = 0;   // predicate latch / zero test
  std::uint64_t host_writes = 0;
  std::uint64_t host_reads = 0;

  double energy_pj = 0.0;

  // 1-bits dropped by shifts that the microcode declared lossless — each is
  // a violation of the paper's Observation 1/2 and indicates a bug or an
  // out-of-envelope modulus.
  std::uint64_t lossless_shift_violations = 0;

  [[nodiscard]] std::uint64_t total_array_ops() const noexcept {
    return binary_ops + pair_ops + copy_ops + shift_ops + check_ops;
  }

  op_stats& operator+=(const op_stats& o) noexcept {
    cycles += o.cycles;
    binary_ops += o.binary_ops;
    pair_ops += o.pair_ops;
    copy_ops += o.copy_ops;
    shift_ops += o.shift_ops;
    check_ops += o.check_ops;
    host_writes += o.host_writes;
    host_reads += o.host_reads;
    energy_pj += o.energy_pj;
    lossless_shift_violations += o.lossless_shift_violations;
    return *this;
  }

  op_stats& operator-=(const op_stats& o) noexcept {
    cycles -= o.cycles;
    binary_ops -= o.binary_ops;
    pair_ops -= o.pair_ops;
    copy_ops -= o.copy_ops;
    shift_ops -= o.shift_ops;
    check_ops -= o.check_ops;
    host_writes -= o.host_writes;
    host_reads -= o.host_reads;
    energy_pj -= o.energy_pj;
    lossless_shift_violations -= o.lossless_shift_violations;
    return *this;
  }
};

}  // namespace bpntt::sram
