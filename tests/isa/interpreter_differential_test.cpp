// The loaded-program interpreter (isa::executor) against a per-op
// reference: a stepper, written here, that issues every micro_op of a
// compiled kernel through sram::subarray::op_* under the controller's flow
// and watchdog rules.  Both start from identical arrays; afterwards every
// row, the predicate latch, the zero flag and every op_stats field
// (energy_pj included) must be equal with `==`.  The geometries cover four
// limbs (the interpreter's fixed width), one and five limbs (its dynamic
// extent) and limb-straddling tiles, each with and without a stuck column,
// and a ripple check period above one on both widths.  Hand-built ripple
// loops check the fused ripple record where the watchdog fires mid-loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <optional>
#include <string>
#include <vector>

#include "bpntt/compiler.h"
#include "bpntt/twiddle.h"
#include "common/xoshiro.h"
#include "isa/executor.h"
#include "nttmath/incomplete_ntt.h"
#include "nttmath/ntt.h"

namespace bpntt::isa {
namespace {

using core::u64;

// The reference controller: one subarray::op_* call per array op, the
// watchdog spending one op of `budget` per executed op.
run_result step(const program& p, sram::subarray& a, std::uint64_t budget) {
  run_result r;
  std::size_t pc = 0;
  while (pc < p.ops.size()) {
    if (budget-- == 0) throw std::runtime_error("reference: op budget exhausted");
    const micro_op& op = p.ops[pc];
    std::size_t next = pc + 1;
    switch (op.type) {
      case op_type::check:
        if (op.mode == check_mode::predicate) {
          a.op_check_pred(op.src0, op.bit_index);
          ++r.executed_ops;
          break;
        }
        if (op.mode == check_mode::zero_test) {
          a.op_check_zero(op.src0);
          ++r.executed_ops;
          break;
        }
        ++r.executed_ctrl;
        switch (op.ctrl) {
          case ctrl_kind::halt:
            r.halted = true;
            return r;
          case ctrl_kind::jump:
            next += op.offset;
            break;
          case ctrl_kind::branch_nonzero:
            if (!a.zero_flag()) next += op.offset;
            break;
          case ctrl_kind::branch_zero:
            if (a.zero_flag()) next += op.offset;
            break;
        }
        break;
      case op_type::unary:
        a.op_copy(op.dst, op.src0, op.invert, op.mask);
        ++r.executed_ops;
        break;
      case op_type::shift:
        a.op_shift(op.dst, op.src0, op.dir, op.segmented, op.expect_lossless);
        ++r.executed_ops;
        break;
      case op_type::binary:
        if (op.pair) {
          a.op_pair(op.dst, op.dst + op.s_dst_delta, op.src0, op.src1);
        } else {
          a.op_binary(op.dst, op.src0, op.src1, op.fn);
        }
        ++r.executed_ops;
        break;
    }
    pc = next;
  }
  return r;
}

struct setup {
  std::string name;
  unsigned cols = 0;
  unsigned data_rows = 0;
  core::ntt_params params;
  core::compile_options options{};
};

void PrintTo(const setup& s, std::ostream* os) { *os << s.name; }

core::twiddle_plan make_plan(const core::microcode_compiler& comp) {
  const core::ntt_params& p = comp.params();
  if (p.synthetic()) return core::make_synthetic_plan(p, 7);
  if (p.incomplete) {
    return core::make_incomplete_twiddle_plan(p, math::incomplete_ntt_tables(p.n, p.q),
                                              comp.iterations());
  }
  return core::make_twiddle_plan(p, math::ntt_tables(p.n, p.q, true), comp.iterations());
}

// Every kernel the compiler emits, as the engine and the tests compile them.
std::vector<std::pair<std::string, program>> compile_all(const setup& s,
                                                         const core::microcode_compiler& comp,
                                                         const core::twiddle_plan& plan) {
  const core::ntt_params& p = s.params;
  const auto half = static_cast<unsigned>(s.data_rows / 2);
  std::vector<std::pair<std::string, program>> out;
  out.emplace_back("forward", comp.compile_forward(plan));
  out.emplace_back("inverse", comp.compile_inverse(plan));
  if (p.incomplete) {
    out.emplace_back("basemul", comp.compile_basemul(plan, 0, half, true));
  } else if (!p.synthetic()) {
    out.emplace_back("pointwise", comp.compile_pointwise(plan, 0, half, 0, half, true));
    out.emplace_back("pointwise_unscaled",
                     comp.compile_pointwise(plan, 0, half, half, half, false));
  }
  out.emplace_back("modmul_rows", comp.compile_modmul_data(0, 1, 2));
  out.emplace_back("modmul_const", comp.compile_modmul_const(plan, 3, plan.m / 3, 4));
  out.emplace_back("mod_add", comp.compile_mod_add(5, 6, 7));
  out.emplace_back("mod_sub", comp.compile_mod_sub(6, 6, 7));  // dst aliases a
  return out;
}

// An array with the constant rows written and canonical data in every
// data row, the same for a given seed.
std::unique_ptr<sram::subarray> make_array(const setup& s, const core::twiddle_plan& plan,
                                           u64 seed) {
  const core::row_layout L{s.data_rows};
  auto a = std::make_unique<sram::subarray>(
      L.total_rows(), sram::tile_geometry{s.cols, s.params.k}, sram::tech_45nm());
  const u64 bound = s.params.synthetic() ? (u64{1} << (s.params.k - 2)) : s.params.q;
  common::xoshiro256ss rng(seed);
  for (unsigned t = 0; t < a->geometry().num_tiles(); ++t) {
    a->host_write_word(t, L.m_row(), plan.m);
    a->host_write_word(t, L.mneg_row(), plan.mneg);
    a->host_write_word(t, L.one_row(), 1);
    for (unsigned r = 0; r < s.data_rows; ++r) a->host_write_word(t, r, rng.below(bound));
  }
  return a;
}

// Row equality, limbs included; a mismatch prints both rows MSB-first.
::testing::AssertionResult same_row(const sram::bitrow& got, const sram::bitrow& want) {
  if (got == want) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "\n  interpreter " << got.to_string()
                                       << "\n  reference   " << want.to_string();
}

void expect_same_state(const sram::subarray& got, const sram::subarray& want) {
  for (unsigned r = 0; r < want.rows(); ++r) {
    ASSERT_TRUE(same_row(got.peek(r), want.peek(r))) << "row " << r;
  }
  EXPECT_TRUE(same_row(got.predicate_mask(), want.predicate_mask())) << "predicate latch";
  EXPECT_EQ(got.zero_flag(), want.zero_flag());
  const sram::op_stats& g = got.stats();
  const sram::op_stats& w = want.stats();
  EXPECT_EQ(g.cycles, w.cycles);
  EXPECT_EQ(g.binary_ops, w.binary_ops);
  EXPECT_EQ(g.pair_ops, w.pair_ops);
  EXPECT_EQ(g.copy_ops, w.copy_ops);
  EXPECT_EQ(g.shift_ops, w.shift_ops);
  EXPECT_EQ(g.check_ops, w.check_ops);
  EXPECT_EQ(g.host_writes, w.host_writes);
  EXPECT_EQ(g.host_reads, w.host_reads);
  EXPECT_EQ(g.energy_pj, w.energy_pj);  // bit for bit
  EXPECT_EQ(g.lossless_shift_violations, w.lossless_shift_violations);
}

// Enough for the largest kernel here twice over; a stuck-at-1 column that
// hangs a ripple loop exhausts it on both sides at the same op.
constexpr std::uint64_t kBudget = 2'000'000;

std::optional<run_result> run_guarded(const auto& run) {
  try {
    return run();
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

class InterpreterDifferential : public ::testing::TestWithParam<setup> {};

TEST_P(InterpreterDifferential, EveryKernelMatchesThePerOpReference) {
  const setup& s = GetParam();
  const core::microcode_compiler comp(s.params, core::row_layout{s.data_rows}, s.options);
  const core::twiddle_plan plan = make_plan(comp);
  const auto kernels = compile_all(s, comp, plan);
  // No fault, a stuck-at-0 column and a stuck-at-1 column inside a tile.
  const int faults[] = {-1, 0, 1};
  u64 seed = 1;
  for (const auto& [name, prog] : kernels) {
    for (const int fault : faults) {
      SCOPED_TRACE(s.name + "/" + name +
                   (fault < 0 ? "" : fault == 0 ? " stuck-at-0" : " stuck-at-1"));
      auto interp = make_array(s, plan, seed);
      auto ref = make_array(s, plan, seed);
      ++seed;
      if (fault >= 0) {
        const unsigned col = s.cols / 2 + 1;
        interp->inject_stuck_column(col, fault == 1);
        ref->inject_stuck_column(col, fault == 1);
      }
      const executor exec(kBudget);
      const auto loaded = executor::load(prog, *interp);
      // Twice, so the second run starts from the first one's statistics.
      for (int pass = 0; pass < 2; ++pass) {
        const auto got = run_guarded([&] { return exec.run(loaded, *interp); });
        const auto want = run_guarded([&] { return step(prog, *ref, kBudget); });
        ASSERT_EQ(got.has_value(), want.has_value()) << "pass " << pass;
        if (got) {
          EXPECT_EQ(got->executed_ops, want->executed_ops);
          EXPECT_EQ(got->executed_ctrl, want->executed_ctrl);
          EXPECT_EQ(got->halted, want->halted);
        }
        expect_same_state(*interp, *ref);
        if (HasFatalFailure()) return;
      }
    }
  }
}

core::ntt_params ring(u64 n, u64 q, unsigned k, bool incomplete = false) {
  core::ntt_params p;
  p.n = n;
  p.q = q;
  p.k = k;
  p.incomplete = incomplete;
  return p;
}

core::compile_options unfused() {
  core::compile_options o;
  o.fuse_pairs = false;
  return o;
}

core::compile_options check_every(unsigned period) {
  core::compile_options o;
  o.ripple_check_period = period;
  return o;
}

core::compile_options reduced() {
  core::compile_options o;
  o.reduced_iterations = true;
  return o;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, InterpreterDifferential,
    ::testing::Values(setup{"cols64", 64, 64, ring(32, 7681, 16)},
                      setup{"cols36", 36, 64, ring(32, 193, 9)},
                      setup{"cols256_table1", 256, 256, ring(256, 12289, 16)},
                      setup{"cols256_kyber", 256, 256, ring(128, 3329, 13, true)},
                      setup{"cols256_synthetic", 256, 64, ring(64, 0, 16)},
                      setup{"cols320", 320, 128, ring(64, 7681, 16)},
                      setup{"cols64_unfused", 64, 64, ring(32, 7681, 16), unfused()},
                      setup{"cols320_check3", 320, 64, ring(32, 7681, 16), check_every(3)},
                      setup{"cols256_table1_check2", 256, 256, ring(256, 12289, 16),
                            check_every(2)},
                      setup{"cols256_reduced", 256, 64, ring(64, 257, 16), reduced()}),
    [](const ::testing::TestParamInfo<setup>& param) { return param.param.name; });

// --- Hand-built ripple loops: the interpreter runs a fused loop as one
// record, and must still stop where the reference stops. ---

// 16 tiles of 16 bits on 256 columns (four limbs).  Row 0 holds 2^t - 1 in
// tile t (0xFFFF in tile 15, whose carry leaves the tile), row 1 holds 1.
std::unique_ptr<sram::subarray> ripple_array(int fault) {
  auto a = std::make_unique<sram::subarray>(4, sram::tile_geometry{256, 16}, sram::tech_45nm());
  for (unsigned t = 0; t < 16; ++t) {
    a->host_write_word(t, 0, t == 15 ? 0xFFFF : (u64{1} << t) - 1);
    a->host_write_word(t, 1, 1);
  }
  // A stuck-at-1 column keeps the carry row nonzero: the loop never ends.
  if (fault >= 0) a->inject_stuck_column(100, fault == 1);
  return a;
}

std::size_t ripple_records(const loaded_program& p) {
  return static_cast<std::size_t>(std::ranges::count(p.ops, kernel::ripple, &loaded_op::id));
}

// Runs `prog` from fresh arrays under every budget from 1 to `max_budget`,
// so the watchdog fires on each op of the loop (shift, pair, check and
// branch) in turn, and compares the interpreter with the reference.
void expect_matches_under_every_budget(const program& prog, std::uint64_t max_budget) {
  for (const int fault : {-1, 0, 1}) {
    bool completed = false;
    for (std::uint64_t budget = 1; budget <= max_budget; ++budget) {
      SCOPED_TRACE("fault " + std::to_string(fault) + ", budget " + std::to_string(budget));
      auto interp = ripple_array(fault);
      auto ref = ripple_array(fault);
      const auto got = run_guarded([&] { return executor(budget).run(prog, *interp); });
      const auto want = run_guarded([&] { return step(prog, *ref, budget); });
      ASSERT_EQ(got.has_value(), want.has_value());
      if (got) {
        EXPECT_EQ(got->executed_ops, want->executed_ops);
        EXPECT_EQ(got->executed_ctrl, want->executed_ctrl);
        EXPECT_EQ(got->halted, want->halted);
        completed = true;
      }
      expect_same_state(*interp, *ref);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(completed, fault != 1) << "fault " << fault;
  }
}

TEST(InterpreterRipple, WatchdogOnEachOpOfAFusedLoopMatchesTheReference) {
  for (const unsigned period : {1u, 2u, 3u}) {
    SCOPED_TRACE("period " + std::to_string(period));
    program_builder b;
    b.pair(1, 0, 0, 1);
    const auto loop = b.here();
    for (unsigned i = 0; i < period; ++i) {
      b.shift(1, 1, sram::shift_dir::left, /*expect_lossless=*/true);
      b.pair(1, 0, 0, 1);
    }
    b.check_zero(1);
    b.branch_nonzero_to(loop);
    b.halt();
    const program prog = b.take();
    ASSERT_EQ(ripple_records(executor::load(prog, *ripple_array(-1))), 1u);
    expect_matches_under_every_budget(prog, 100);
  }
}

TEST(InterpreterRipple, ALoopEnteredMidBodyStaysUnfusedAndMatches) {
  program_builder b;
  b.pair(1, 0, 0, 1);
  b.check_zero(2);  // row 2 is clear: the branch below is taken
  const auto into_body = b.reserve_branch_zero();
  const auto loop = b.here();
  b.shift(1, 1, sram::shift_dir::left, /*expect_lossless=*/true);
  b.patch_to_here(into_body);
  b.pair(1, 0, 0, 1);
  b.check_zero(1);
  b.branch_nonzero_to(loop);
  b.halt();
  const program prog = b.take();
  ASSERT_EQ(ripple_records(executor::load(prog, *ripple_array(-1))), 0u);
  expect_matches_under_every_budget(prog, 100);
}

}  // namespace
}  // namespace bpntt::isa
