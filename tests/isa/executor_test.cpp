#include "isa/executor.h"

#include <gtest/gtest.h>

namespace bpntt::isa {
namespace {

sram::subarray make_array() {
  return sram::subarray(16, sram::tile_geometry{64, 16}, sram::tech_45nm());
}

TEST(Executor, StraightLineProgram) {
  auto a = make_array();
  a.host_write_word(0, 0, 0xF0F0);
  a.host_write_word(0, 1, 0x0FF0);
  program_builder b;
  b.binary(2, 0, 1, sram::logic_fn::op_and);
  b.pair(3, 4, 0, 1);
  b.copy(5, 2, true);
  b.shift(6, 1, sram::shift_dir::left);
  b.halt();
  const auto r = executor().run(b.take(), a);
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.executed_ops, 4u);
  EXPECT_EQ(r.executed_ctrl, 1u);
  EXPECT_EQ(a.peek_word(0, 2), 0x00F0u);
  EXPECT_EQ(a.peek_word(0, 3), 0x00F0u);
  EXPECT_EQ(a.peek_word(0, 4), 0xFF00u);
  EXPECT_EQ(a.peek_word(0, 5), 0xFF0Fu);
  EXPECT_EQ(a.peek_word(0, 6), 0x1FE0u);
}

TEST(Executor, RippleLoopTerminatesViaZeroFlag) {
  // Resolve 0x00FF + 0x0001 with the carry-ripple do-while used by the
  // compiler; the carry chain is 8 long, exercising several iterations.
  auto a = make_array();
  a.host_write_word(0, 0, 0x00FF);  // sum
  a.host_write_word(0, 1, 0x0001);  // addend
  program_builder b;
  b.pair(1, 0, 0, 1);  // {carry, sum} = half-add
  const auto loop = b.here();
  b.shift(1, 1, sram::shift_dir::left);
  b.pair(1, 0, 0, 1);
  b.check_zero(1);
  b.branch_nonzero_to(loop);
  b.halt();
  const auto r = executor().run(b.take(), a);
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(a.peek_word(0, 0), 0x0100u);
  EXPECT_EQ(a.peek_word(0, 1), 0u);
}

TEST(Executor, BranchZeroTaken) {
  auto a = make_array();
  program_builder b;
  b.check_zero(5);  // empty row -> zero flag set
  const auto l = b.reserve_branch_zero();
  b.copy(1, 0);  // skipped
  b.patch_to_here(l);
  b.halt();
  const auto r = executor().run(b.take(), a);
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.executed_ops, 1u);  // only the check touched the array
}

TEST(Executor, FallsOffEndWithoutHalt) {
  auto a = make_array();
  program_builder b;
  b.copy(1, 0);
  const auto r = executor().run(b.take(), a);
  EXPECT_FALSE(r.halted);
  EXPECT_EQ(r.executed_ops, 1u);
}

TEST(Executor, RunawayLoopGuard) {
  auto a = make_array();
  a.host_write_word(0, 1, 1);  // nonzero forever
  program_builder b;
  const auto loop = b.here();
  b.check_zero(1);
  b.branch_nonzero_to(loop);
  b.halt();
  EXPECT_THROW(executor(1000).run(b.take(), a), std::runtime_error);
}

TEST(Executor, WatchdogFlushesTheWorkDoneBeforeItFires) {
  auto a = make_array();
  a.host_write_word(0, 1, 1);
  program_builder b;
  const auto loop = b.here();
  b.check_zero(1);
  b.branch_nonzero_to(loop);
  const auto before = a.stats();
  EXPECT_THROW(executor(1001).run(b.take(), a), std::runtime_error);
  // 1,001 ops issued: 501 checks and 500 branches.
  EXPECT_EQ(a.stats().check_ops - before.check_ops, 501u);
  EXPECT_EQ(a.stats().cycles - before.cycles, 501u);
  EXPECT_FALSE(a.zero_flag());
}

// --- Load-time validation: every shape the controller used to reject while
// running is rejected when the program is loaded, with the same exception
// type, and nothing runs. ---

program one_op(micro_op op) {
  program p;
  p.ops.push_back(op);
  p.ops.push_back(make_halt());
  return p;
}

TEST(ExecutorLoad, RowPastTheArrayIsOutOfRange) {
  const auto a = make_array();  // 16 rows
  EXPECT_THROW((void)executor::load(one_op(make_copy(16, 0)), a), std::out_of_range);
  EXPECT_THROW((void)executor::load(one_op(make_copy(0, 16)), a), std::out_of_range);
  EXPECT_THROW((void)executor::load(one_op(make_shift(0, 300, sram::shift_dir::left)), a),
               std::out_of_range);
  EXPECT_THROW(
      (void)executor::load(one_op(make_binary(0, 1, 16, sram::logic_fn::op_and)), a),
      std::out_of_range);
  EXPECT_THROW((void)executor::load(one_op(make_pair(15, 18, 0, 1)), a), std::out_of_range);
  EXPECT_THROW((void)executor::load(one_op(make_check_zero(16)), a), std::out_of_range);
  EXPECT_THROW((void)executor::load(one_op(make_check_pred(16, 0)), a), std::out_of_range);
}

TEST(ExecutorLoad, PredicateBitPastTheTileIsOutOfRange) {
  const auto a = make_array();  // 16-bit tiles
  EXPECT_NO_THROW((void)executor::load(one_op(make_check_pred(0, 15)), a));
  EXPECT_THROW((void)executor::load(one_op(make_check_pred(0, 16)), a), std::out_of_range);
}

TEST(ExecutorLoad, CollidingPairDestinationsAreInvalid) {
  const auto a = make_array();
  micro_op op = make_pair(2, 3, 0, 1);
  op.s_dst_delta = 0;  // the factory refuses this; a hand-built op can carry it
  EXPECT_THROW((void)executor::load(one_op(op), a), std::invalid_argument);
}

TEST(ExecutorLoad, BranchPastTheEndIsARuntimeError) {
  const auto a = make_array();
  EXPECT_THROW((void)executor::load(one_op(make_jump(2)), a), std::runtime_error);
  EXPECT_THROW((void)executor::load(one_op(make_branch_zero(-2)), a), std::runtime_error);
  // Landing exactly on the end falls off it, as before.
  EXPECT_NO_THROW((void)executor::load(one_op(make_branch_nonzero(1)), a));
}

TEST(ExecutorLoad, RunningARejectedProgramTouchesNothing) {
  auto a = make_array();
  a.host_write_word(0, 0, 0x1234);
  program_builder b;
  b.copy(1, 0);
  b.copy(16, 0);  // past the array: the first copy must not run either
  const auto before = a.stats();
  EXPECT_THROW(executor().run(b.take(), a), std::out_of_range);
  EXPECT_EQ(a.peek_word(0, 1), 0u);
  EXPECT_EQ(a.stats().cycles, before.cycles);
}

TEST(ExecutorLoad, LoadedFormRunsOnlyOnItsGeometry) {
  auto a = make_array();
  const auto loaded = executor::load(one_op(make_copy(1, 0)), a);
  sram::subarray taller(32, sram::tile_geometry{64, 16}, sram::tech_45nm());
  sram::subarray narrower(16, sram::tile_geometry{64, 8}, sram::tech_45nm());
  EXPECT_THROW(executor().run(loaded, taller), std::invalid_argument);
  EXPECT_THROW(executor().run(loaded, narrower), std::invalid_argument);
  EXPECT_NO_THROW(executor().run(loaded, a));
}

// --- Aliasing: an op whose destination is also a source reads every source
// before it writes, as the sense amplifiers latch both outputs first. ---

run_result run_one(micro_op op, sram::subarray& a) { return executor().run(one_op(op), a); }

TEST(ExecutorAliasing, DestinationThatIsAlsoASource) {
  const auto fresh = [] {
    auto a = make_array();
    a.host_write_word(0, 0, 0xF0F0);
    a.host_write_word(0, 1, 0x0FF0);
    return a;
  };
  auto a = fresh();
  run_one(make_binary(0, 0, 1, sram::logic_fn::op_xor), a);
  EXPECT_EQ(a.peek_word(0, 0), 0xFF00u);

  // Both half-adder outputs come from the original rows: had the carry
  // landed first, the sum would read 0x00F0 ^ 0x0FF0 = 0x0F00.
  a = fresh();
  run_one(make_pair(0, 1, 0, 1), a);
  EXPECT_EQ(a.peek_word(0, 0), 0x00F0u);
  EXPECT_EQ(a.peek_word(0, 1), 0xFF00u);

  a = fresh();
  run_one(make_copy(0, 0, /*invert=*/true), a);
  EXPECT_EQ(a.peek_word(0, 0), 0x0F0Fu);

  a = fresh();
  run_one(make_shift(0, 0, sram::shift_dir::left), a);
  EXPECT_EQ(a.peek_word(0, 0), 0xE1E0u);  // bit 15 leaves the tile

  a = fresh();
  run_one(make_shift(0, 0, sram::shift_dir::right), a);
  EXPECT_EQ(a.peek_word(0, 0), 0x7878u);
}

TEST(ExecutorAliasing, InPlaceOpsAcrossLimbBoundaries) {
  // 40-bit tiles on 320 columns: five limbs (the interpreter's dynamic
  // width), and tiles 1, 3, 4 and 6 straddle a limb boundary.
  constexpr std::uint64_t kMask = (1ULL << 40) - 1;
  sram::subarray a(8, sram::tile_geometry{320, 40}, sram::tech_45nm());
  std::vector<std::uint64_t> x(8), y(8);
  for (unsigned t = 0; t < 8; ++t) {
    x[t] = (0xA5A5A5A5A5ULL * (t + 1)) & kMask;
    y[t] = (0x3C3C3C3C3CULL ^ (t * 0x1111111111ULL)) & kMask;
    a.host_write_word(t, 0, x[t]);
    a.host_write_word(t, 1, y[t]);
  }
  run_one(make_pair(1, 0, 1, 0), a);  // carry over b, sum over a
  for (unsigned t = 0; t < 8; ++t) {
    EXPECT_EQ(a.peek_word(t, 1), x[t] & y[t]) << "tile " << t;
    EXPECT_EQ(a.peek_word(t, 0), x[t] ^ y[t]) << "tile " << t;
  }
  run_one(make_shift(0, 0, sram::shift_dir::left), a);
  for (unsigned t = 0; t < 8; ++t) {
    EXPECT_EQ(a.peek_word(t, 0), ((x[t] ^ y[t]) << 1) & kMask) << "tile " << t;
  }
  run_one(make_shift(1, 1, sram::shift_dir::right), a);
  for (unsigned t = 0; t < 8; ++t) {
    EXPECT_EQ(a.peek_word(t, 1), (x[t] & y[t]) >> 1) << "tile " << t;
  }
  // Unsegmented, column 63 crosses into limb 1 in place.
  sram::bitrow one_bit(320);
  one_bit.set(63, true);
  a.host_write_row(2, one_bit);
  micro_op flat = make_shift(2, 2, sram::shift_dir::left);
  flat.segmented = false;
  run_one(flat, a);
  EXPECT_FALSE(a.peek(2).get(63));
  EXPECT_TRUE(a.peek(2).get(64));
}

TEST(Executor, EmptyProgram) {
  auto a = make_array();
  const auto r = executor().run(program{}, a);
  EXPECT_FALSE(r.halted);
  EXPECT_EQ(r.executed_ops, 0u);
}

}  // namespace
}  // namespace bpntt::isa
