#include "isa/executor.h"

#include <array>
#include <span>
#include <stdexcept>

namespace bpntt::isa {
namespace {

using sram::logic_fn;
using sram::shift_dir;
using sram::word;
using sram::write_mask;

kernel binary_kernel(logic_fn fn) {
  switch (fn) {
    case logic_fn::op_and: return kernel::op_and;
    case logic_fn::op_or: return kernel::op_or;
    case logic_fn::op_xor: return kernel::op_xor;
    case logic_fn::op_nor: return kernel::op_nor;
  }
  throw std::invalid_argument("executor: malformed logic function");
}

kernel copy_kernel(bool invert, write_mask mask) {
  switch (mask) {
    case write_mask::none: return invert ? kernel::copy_invert : kernel::copy;
    case write_mask::pred: return invert ? kernel::copy_invert_pred : kernel::copy_pred;
    case write_mask::pred_inv:
      return invert ? kernel::copy_invert_pred_inv : kernel::copy_pred_inv;
  }
  throw std::invalid_argument("executor: malformed write mask");
}

kernel shift_kernel(shift_dir dir, bool segmented) {
  if (dir == shift_dir::left) return segmented ? kernel::shift_left : kernel::shift_left_flat;
  return segmented ? kernel::shift_right : kernel::shift_right_flat;
}

kernel ctrl_kernel(ctrl_kind c) {
  switch (c) {
    case ctrl_kind::halt: return kernel::halt;
    case ctrl_kind::jump: return kernel::jump;
    case ctrl_kind::branch_nonzero: return kernel::branch_nonzero;
    case ctrl_kind::branch_zero: return kernel::branch_zero;
  }
  throw std::invalid_argument("executor: malformed ctrl op");
}

constexpr std::size_t kernel_count = static_cast<std::size_t>(kernel::ripple) + 1;

constexpr std::size_t index(kernel k) noexcept { return static_cast<std::size_t>(k); }

// Energy of one issued op by kernel id.  Ctrl ops and the ripple record
// (which accounts for the ops it stands for itself) cost +0.0, which leaves
// a (non-negative) running sum bit for bit unchanged.
std::array<double, kernel_count> energy_by_kernel(const sram::op_energy& e) {
  std::array<double, kernel_count> pj{};
  for (auto k : {kernel::op_and, kernel::op_or, kernel::op_xor, kernel::op_nor}) {
    pj[index(k)] = e.binary;
  }
  pj[index(kernel::pair)] = e.pair;
  for (std::size_t k = index(kernel::copy); k <= index(kernel::copy_invert_pred_inv); ++k) {
    pj[k] = e.copy;
  }
  for (std::size_t k = index(kernel::shift_left); k <= index(kernel::shift_right_flat); ++k) {
    pj[k] = e.shift;
  }
  pj[index(kernel::check_pred)] = pj[index(kernel::check_zero)] = e.check;
  return pj;
}

// Runs `p` until it halts, falls off the end or exhausts `budget`.  The
// per-kernel issue counts, the energy sum, the dropped-bit count and the
// zero flag live in locals and reach the array's statistics once, at the
// single exit, before the watchdog's throw.  Energy is summed in program
// order from the array's running total, so the double is the one per-op
// accumulation gives.
template <std::size_t Words>
run_result interpret(const loaded_program& p, const sram::subarray::kernel_view& v,
                     std::uint64_t budget) {
  namespace kern = sram::kernels;
  const sram::kernel_state& s = v.state;
  word* const* const row = v.rows;
  const std::array<double, kernel_count> cost = energy_by_kernel(v.energy);
  std::array<std::uint64_t, kernel_count> issued{};
  double energy = v.stats.energy_pj;
  bool zero = v.zero_flag;
  std::uint64_t dropped = 0;
  bool halted = false;
  bool exhausted = false;

  // A ripple record's loop, one op at a time as its records would run;
  // false when the budget runs out.  The head's shift spent an op of the
  // budget on dispatch, which the loop spends again itself.  Its issue
  // counts stay in locals until it exits (a row store may alias `issued`),
  // and it is forced inline so that they and the budget live in registers.
  const auto ripple = [&] [[gnu::always_inline]] (const loaded_op& op) {
    word* const c = row[op.dst];
    word* const sum = row[op.dst2];
    const bool lossless = op.arg != 0;
    std::uint64_t shifts = 0;
    std::uint64_t pairs = 0;
    std::uint64_t checks = 0;
    std::uint64_t branches = 0;
    const auto iterate = [&] [[gnu::always_inline]] {
      do {
        for (unsigned i = 0; i < op.src1; ++i) {
          if (budget-- == 0) return false;
          dropped += kern::shift<Words>(s, c, c, shift_dir::left, true, lossless);
          ++shifts;
          energy += cost[index(kernel::shift_left)];
          if (budget-- == 0) return false;
          kern::pair<Words>(s, c, sum, sum, c, write_mask::none);
          ++pairs;
          energy += cost[index(kernel::pair)];
        }
        if (budget-- == 0) return false;
        zero = kern::is_zero<Words>(s, c);
        ++checks;
        energy += cost[index(kernel::check_zero)];
        if (budget-- == 0) return false;
        ++branches;
      } while (!zero);
      return true;
    };
    ++budget;
    const bool done = iterate();
    issued[index(kernel::shift_left)] += shifts;
    issued[index(kernel::pair)] += pairs;
    issued[index(kernel::check_zero)] += checks;
    issued[index(kernel::branch_nonzero)] += branches;
    return done;
  };

  const loaded_op* const ops = p.ops.data();
  const std::size_t end = p.ops.size();
  std::size_t pc = 0;
  while (pc < end) {
    if (budget-- == 0) {
      exhausted = true;
      break;
    }
    const loaded_op& op = ops[pc++];
    ++issued[index(op.id)];
    energy += cost[index(op.id)];
    const auto binary = [&](logic_fn fn) {
      kern::binary<Words>(s, row[op.dst], row[op.src0], row[op.src1], fn, write_mask::none);
    };
    const auto copy = [&](bool invert, write_mask mask) {
      kern::copy<Words>(s, row[op.dst], row[op.src0], invert, mask);
    };
    const auto shift = [&](shift_dir dir, bool segmented) {
      dropped += kern::shift<Words>(s, row[op.dst], row[op.src0], dir, segmented, op.arg != 0);
    };
    switch (op.id) {
      case kernel::op_and: binary(logic_fn::op_and); break;
      case kernel::op_or: binary(logic_fn::op_or); break;
      case kernel::op_xor: binary(logic_fn::op_xor); break;
      case kernel::op_nor: binary(logic_fn::op_nor); break;
      case kernel::pair:
        kern::pair<Words>(s, row[op.dst], row[op.dst2], row[op.src0], row[op.src1],
                          write_mask::none);
        break;
      case kernel::copy: copy(false, write_mask::none); break;
      case kernel::copy_pred: copy(false, write_mask::pred); break;
      case kernel::copy_pred_inv: copy(false, write_mask::pred_inv); break;
      case kernel::copy_invert: copy(true, write_mask::none); break;
      case kernel::copy_invert_pred: copy(true, write_mask::pred); break;
      case kernel::copy_invert_pred_inv: copy(true, write_mask::pred_inv); break;
      case kernel::shift_left: shift(shift_dir::left, true); break;
      case kernel::shift_right: shift(shift_dir::right, true); break;
      case kernel::shift_left_flat: shift(shift_dir::left, false); break;
      case kernel::shift_right_flat: shift(shift_dir::right, false); break;
      case kernel::check_pred: kern::check_pred<Words>(s, row[op.src0], op.arg); break;
      case kernel::check_zero: zero = kern::is_zero<Words>(s, row[op.src0]); break;
      case kernel::halt:
        halted = true;
        pc = end;
        break;
      case kernel::jump: pc = op.target; break;
      case kernel::branch_nonzero:
        if (!zero) pc = op.target;
        break;
      case kernel::branch_zero:
        if (zero) pc = op.target;
        break;
      case kernel::ripple:
        if (ripple(op)) {
          pc = op.target;
        } else {
          exhausted = true;
          pc = end;
        }
        break;
    }
  }

  // The kernel ids are grouped by op class, in the order of op_stats.
  const auto sum = [&](kernel first, kernel last) {
    std::uint64_t n = 0;
    for (std::size_t k = index(first); k <= index(last); ++k) n += issued[k];
    return n;
  };
  sram::op_stats& out = v.stats;
  out.binary_ops += sum(kernel::op_and, kernel::op_nor);
  out.pair_ops += sum(kernel::pair, kernel::pair);
  out.copy_ops += sum(kernel::copy, kernel::copy_invert_pred_inv);
  out.shift_ops += sum(kernel::shift_left, kernel::shift_right_flat);
  out.check_ops += sum(kernel::check_pred, kernel::check_zero);
  const std::uint64_t array_ops = sum(kernel::op_and, kernel::check_zero);
  out.cycles += array_ops;
  out.lossless_shift_violations += dropped;
  out.energy_pj = energy;
  v.zero_flag = zero;
  if (exhausted) throw std::runtime_error("executor: op budget exhausted (runaway loop?)");
  return {.executed_ops = array_ops,
          .executed_ctrl = sum(kernel::halt, kernel::branch_zero),
          .halted = halted};
}

// Lowers each carry-ripple loop the compiler emits with fused pairs, at
// any period p,
//   h:          p x {shift_left c <- c (segmented), pair c,s <- s,c}
//   h + 2p:     check_zero c
//   h + 2p + 1: branch_nonzero h
// to one ripple record at h.  A loop that another branch enters after its
// head stays as it is.
void fuse_ripples(std::vector<loaded_op>& ops) {
  std::vector<bool> entered(ops.size() + 1);
  for (const loaded_op& op : ops) {
    if (op.id == kernel::jump || op.id == kernel::branch_nonzero ||
        op.id == kernel::branch_zero) {
      entered[op.target] = true;
    }
  }
  for (std::size_t b = 0; b < ops.size(); ++b) {
    if (ops[b].id != kernel::branch_nonzero || ops[b].target >= b) continue;
    const std::size_t h = ops[b].target;
    const std::size_t steps = (b - h - 1) / 2;
    if (steps == 0 || steps > UINT16_MAX || h + 2 * steps + 1 != b) continue;
    const std::uint16_t c = ops[h].dst;
    const std::uint16_t sum = ops[h + 1].dst2;
    const std::uint8_t lossless = ops[h].arg;
    bool match = ops[b - 1].id == kernel::check_zero && ops[b - 1].src0 == c;
    for (std::size_t i = h; match && i < b - 1; i += 2) {
      const loaded_op& shift = ops[i];
      const loaded_op& pair = ops[i + 1];
      match = shift.id == kernel::shift_left && shift.dst == c && shift.src0 == c &&
              shift.arg == lossless && pair.id == kernel::pair && pair.dst == c &&
              pair.dst2 == sum && pair.src0 == sum && pair.src1 == c;
    }
    for (std::size_t i = h + 1; match && i <= b; ++i) match = !entered[i];
    if (!match) continue;
    ops[h] = {.id = kernel::ripple,
              .arg = lossless,
              .dst = c,
              .src1 = static_cast<std::uint16_t>(steps),
              .dst2 = sum,
              .target = static_cast<std::uint32_t>(b + 1)};
  }
}

}  // namespace

loaded_program executor::load(const program& p, const sram::subarray& array) {
  loaded_program out;
  out.rows = array.rows();
  out.tile_bits = array.geometry().tile_bits;
  out.ops.reserve(p.ops.size());
  const auto row = [&](int r) {
    if (r < 0 || static_cast<unsigned>(r) >= out.rows) {
      throw std::out_of_range("executor: row index");
    }
    return static_cast<std::uint16_t>(r);
  };
  for (std::size_t pc = 0; pc < p.ops.size(); ++pc) {
    const micro_op& op = p.ops[pc];
    loaded_op l;
    // Checks run in the order the subarray makes them: sources, then the
    // op's own constraints, then destinations.
    switch (op.type) {
      case op_type::check:
        switch (op.mode) {
          case check_mode::predicate:
            l.id = kernel::check_pred;
            l.src0 = row(op.src0);
            if (op.bit_index >= out.tile_bits) {
              throw std::out_of_range("executor: predicate bit index");
            }
            l.arg = op.bit_index;
            break;
          case check_mode::zero_test:
            l.id = kernel::check_zero;
            l.src0 = row(op.src0);
            break;
          case check_mode::ctrl: {
            l.id = ctrl_kernel(op.ctrl);
            const auto target = static_cast<std::int64_t>(pc) + 1 + op.offset;
            if (l.id != kernel::halt &&
                (target < 0 || static_cast<std::uint64_t>(target) > p.ops.size())) {
              throw std::runtime_error("executor: branch out of range");
            }
            l.target = static_cast<std::uint32_t>(target);
            break;
          }
          default:
            throw std::invalid_argument("executor: malformed check mode");
        }
        break;
      case op_type::unary:
        l.src0 = row(op.src0);
        l.dst = row(op.dst);
        l.id = copy_kernel(op.invert, op.mask);
        break;
      case op_type::shift:
        l.src0 = row(op.src0);
        l.dst = row(op.dst);
        l.id = shift_kernel(op.dir, op.segmented);
        l.arg = op.expect_lossless ? 1 : 0;
        break;
      case op_type::binary:
        l.src0 = row(op.src0);
        l.src1 = row(op.src1);
        if (op.pair) {
          if (op.s_dst_delta == 0) {
            throw std::invalid_argument("executor: pair destinations collide");
          }
          l.id = kernel::pair;
          l.dst = row(op.dst);
          l.dst2 = row(op.dst + op.s_dst_delta);
        } else {
          l.id = binary_kernel(op.fn);
          l.dst = row(op.dst);
        }
        break;
      default:
        throw std::invalid_argument("executor: malformed op type");
    }
    out.ops.push_back(l);
  }
  fuse_ripples(out.ops);
  return out;
}

// Cache-line aligned so host timing does not move with where the linker
// happens to place the interpreter (interpret<4> is inlined here).
[[gnu::aligned(64)]] run_result executor::run(const loaded_program& p,
                                              sram::subarray& array) const {
  if (array.rows() != p.rows || array.geometry().tile_bits != p.tile_bits) {
    throw std::invalid_argument("executor: program was loaded for another geometry");
  }
  const auto v = array.view();
  // Table I and the runtime's banks are 256 columns wide: four limbs.
  if (v.state.words == 4) return interpret<4>(p, v, max_ops_);
  return interpret<std::dynamic_extent>(p, v, max_ops_);
}

}  // namespace bpntt::isa
