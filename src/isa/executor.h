// Controller model: fetches micro-ops from a program image and issues them
// to one subarray, handling the ctrl pseudo-ops (halt / jump / branches on
// the wired-OR zero flag).  Array ops cost one array cycle each (counted by
// the subarray); ctrl ops execute in the controller concurrently with the
// array and cost no array cycles.
//
// A program is validated once, at load, against the subarray it will run
// on and lowered to a flat list of loaded_ops: one kernel id per distinct
// op behaviour with every mode bit resolved, checked row indices and
// absolute branch targets.  Running the loaded form then needs no per-op
// checks, and one interpreter, instantiated on the row's limb count, runs
// the same word kernels as `sram::subarray::op_*`.
//
// Load also lowers each carry-ripple loop of the compiler's fused form
// (p x {shift_left c <- c, pair c,s <- s,c}, check_zero c, branch_nonzero
// back to the first shift; no other branch entering its body) to one
// `kernel::ripple` record at the loop's head.  The body's records stay in
// place, so op indices and branch targets do not move.  The interpreter
// runs a ripple record's iterations with the same kernels and, per op and
// in program order, spends the watchdog budget, counts the issue and adds
// the energy, so every statistic, and the op the watchdog fires at, are
// those of running the records one by one.
#pragma once

#include <cstdint>
#include <vector>

#include "isa/program.h"
#include "sram/subarray.h"

namespace bpntt::isa {

struct run_result {
  std::uint64_t executed_ops = 0;   // array ops issued
  std::uint64_t executed_ctrl = 0;  // controller-only ops
  bool halted = false;              // reached a halt (vs. fell off the end)
};

// The interpreter's dispatch: one id per distinct op behaviour.
enum class kernel : std::uint8_t {
  op_and,
  op_or,
  op_xor,
  op_nor,
  pair,
  copy,
  copy_pred,
  copy_pred_inv,
  copy_invert,
  copy_invert_pred,
  copy_invert_pred_inv,
  shift_left,
  shift_right,
  shift_left_flat,  // unsegmented: bits cross tile boundaries
  shift_right_flat,
  check_pred,
  check_zero,
  halt,
  jump,
  branch_nonzero,
  branch_zero,
  ripple,  // a whole carry-ripple loop; see the header comment
};

struct loaded_op {
  kernel id = kernel::halt;
  std::uint8_t arg = 0;  // check_pred: the predicate bit; shifts, ripple: 1 if expect_lossless
  std::uint16_t dst = 0;     // ripple: the carry row
  std::uint16_t src0 = 0;
  std::uint16_t src1 = 0;    // ripple: shift-and-add steps per zero check
  std::uint16_t dst2 = 0;    // pair, ripple: the XOR (sum) destination
  std::uint32_t target = 0;  // jump / branches: absolute op index; ripple: the op after the loop
};
static_assert(sizeof(loaded_op) <= 16, "the loaded form keeps an op in 16 bytes");

// A program validated against one geometry (row count and tile width).
struct loaded_program {
  std::vector<loaded_op> ops;
  unsigned rows = 0;
  unsigned tile_bits = 0;
};

class executor {
 public:
  // `max_ops` guards against runaway loops in malformed programs; every
  // executed op, ctrl ops included, spends one.
  explicit executor(std::uint64_t max_ops = 1ULL << 32) : max_ops_(max_ops) {}

  // Validates every op against `array`'s geometry: a row past the array or
  // a predicate bit past the tile throws std::out_of_range, colliding pair
  // destinations (or a malformed op) std::invalid_argument, and a branch
  // past the end std::runtime_error.
  [[nodiscard]] static loaded_program load(const program& p, const sram::subarray& array);

  // Runs a loaded program on an array of the geometry it was loaded for
  // (std::invalid_argument otherwise).  The op statistics, zero flag and
  // predicate latch are the array's on every exit, the watchdog's throw
  // included.
  run_result run(const loaded_program& p, sram::subarray& array) const;
  run_result run(const program& p, sram::subarray& array) const {
    return run(load(p, array), array);
  }

 private:
  std::uint64_t max_ops_;
};

}  // namespace bpntt::isa
