#include "sram/subarray.h"

#include <gtest/gtest.h>

#include "common/xoshiro.h"

namespace bpntt::sram {
namespace {

subarray make_array(unsigned rows = 16, unsigned cols = 64, unsigned tile_bits = 16) {
  return subarray(rows, tile_geometry{cols, tile_bits}, tech_45nm());
}

TEST(Subarray, HostWordRoundTrip) {
  auto a = make_array();
  a.host_write_word(0, 3, 0xABCD);
  a.host_write_word(2, 3, 0x1234);
  EXPECT_EQ(a.host_read_word(0, 3), 0xABCDu);
  EXPECT_EQ(a.host_read_word(2, 3), 0x1234u);
  EXPECT_EQ(a.host_read_word(1, 3), 0u);
  EXPECT_EQ(a.stats().host_writes, 2u);
  EXPECT_EQ(a.stats().host_reads, 3u);
}

TEST(Subarray, BinaryOpsAllTilesSimultaneously) {
  auto a = make_array();
  common::xoshiro256ss rng(1);
  std::uint64_t va[4], vb[4];
  for (unsigned t = 0; t < 4; ++t) {
    va[t] = rng() & 0xFFFF;
    vb[t] = rng() & 0xFFFF;
    a.host_write_word(t, 0, va[t]);
    a.host_write_word(t, 1, vb[t]);
  }
  a.op_binary(2, 0, 1, logic_fn::op_and);
  a.op_binary(3, 0, 1, logic_fn::op_xor);
  a.op_binary(4, 0, 1, logic_fn::op_or);
  a.op_binary(5, 0, 1, logic_fn::op_nor);
  for (unsigned t = 0; t < 4; ++t) {
    EXPECT_EQ(a.peek_word(t, 2), va[t] & vb[t]);
    EXPECT_EQ(a.peek_word(t, 3), va[t] ^ vb[t]);
    EXPECT_EQ(a.peek_word(t, 4), va[t] | vb[t]);
    EXPECT_EQ(a.peek_word(t, 5), ~(va[t] | vb[t]) & 0xFFFF);
  }
  EXPECT_EQ(a.stats().binary_ops, 4u);
}

TEST(Subarray, PairOpWritesBothHalfAdderOutputs) {
  auto a = make_array();
  a.host_write_word(1, 0, 0b1100);
  a.host_write_word(1, 1, 0b1010);
  a.op_pair(2, 3, 0, 1);
  EXPECT_EQ(a.peek_word(1, 2), 0b1000u);  // AND
  EXPECT_EQ(a.peek_word(1, 3), 0b0110u);  // XOR
  EXPECT_EQ(a.stats().pair_ops, 1u);
}

TEST(Subarray, PairOpAliasedDestinationUsesLatchedSources) {
  auto a = make_array();
  a.host_write_word(0, 0, 0xF0F0);
  a.host_write_word(0, 1, 0xFF00);
  // s destination overwrites a source row; hardware latches operands first.
  a.op_pair(2, 0, 0, 1);
  EXPECT_EQ(a.peek_word(0, 2), 0xF000u);
  EXPECT_EQ(a.peek_word(0, 0), 0x0FF0u);
}

TEST(Subarray, PairRejectsCollidingDestinations) {
  auto a = make_array();
  EXPECT_THROW(a.op_pair(2, 2, 0, 1), std::invalid_argument);
}

TEST(Subarray, CopyWithInvert) {
  auto a = make_array();
  a.host_write_word(3, 0, 0x00FF);
  a.op_copy(1, 0, /*invert=*/true);
  EXPECT_EQ(a.peek_word(3, 1), 0xFF00u);
}

TEST(Subarray, SegmentedShiftLeftStaysInTile) {
  auto a = make_array(16, 64, 16);
  for (unsigned t = 0; t < 4; ++t) a.host_write_word(t, 0, 0x8001);  // MSB+LSB set
  a.op_shift(1, 0, shift_dir::left, /*segmented=*/true);
  for (unsigned t = 0; t < 4; ++t) {
    // MSB dropped at the boundary, LSB moved up, nothing entered from below.
    EXPECT_EQ(a.peek_word(t, 1), 0x0002u);
  }
}

TEST(Subarray, SegmentedShiftRightStaysInTile) {
  auto a = make_array(16, 64, 16);
  for (unsigned t = 0; t < 4; ++t) a.host_write_word(t, 0, 0x8001);
  a.op_shift(1, 0, shift_dir::right, /*segmented=*/true);
  for (unsigned t = 0; t < 4; ++t) {
    EXPECT_EQ(a.peek_word(t, 1), 0x4000u);
  }
}

TEST(Subarray, UnsegmentedShiftCrossesTiles) {
  auto a = make_array(16, 64, 16);
  a.host_write_word(0, 0, 0x8000);  // tile 0 MSB
  a.op_shift(1, 0, shift_dir::left, /*segmented=*/false);
  EXPECT_EQ(a.peek_word(0, 1), 0u);
  EXPECT_EQ(a.peek_word(1, 1), 1u);  // crossed into tile 1's LSB
}

TEST(Subarray, LosslessViolationCounting) {
  auto a = make_array(16, 64, 16);
  a.host_write_word(2, 0, 0x8000);
  a.op_shift(1, 0, shift_dir::left, true, /*expect_lossless=*/true);
  EXPECT_EQ(a.stats().lossless_shift_violations, 1u);
  a.host_write_word(2, 0, 0x4000);
  a.op_shift(1, 0, shift_dir::left, true, /*expect_lossless=*/true);
  EXPECT_EQ(a.stats().lossless_shift_violations, 1u);  // unchanged: no loss
  a.host_write_word(3, 0, 0x0001);
  a.op_shift(1, 0, shift_dir::right, true, /*expect_lossless=*/true);
  EXPECT_EQ(a.stats().lossless_shift_violations, 2u);
}

TEST(Subarray, CheckPredBroadcastsPerTileBit) {
  auto a = make_array(16, 64, 16);
  a.host_write_word(0, 0, 0x0001);  // LSB set
  a.host_write_word(1, 0, 0x0000);
  a.host_write_word(2, 0, 0xFFFE);  // LSB clear
  a.host_write_word(3, 0, 0x0101);
  a.op_check_pred(0, 0);
  const bitrow& mask = a.predicate_mask();
  for (unsigned b = 0; b < 16; ++b) {
    EXPECT_TRUE(mask.get(0 * 16 + b));
    EXPECT_FALSE(mask.get(1 * 16 + b));
    EXPECT_FALSE(mask.get(2 * 16 + b));
    EXPECT_TRUE(mask.get(3 * 16 + b));
  }
}

TEST(Subarray, MaskedWritesUsePredicate) {
  auto a = make_array(16, 64, 16);
  a.host_write_word(0, 0, 1);  // pred=1 for tile 0 only
  a.host_write_word(1, 0, 0);
  a.op_check_pred(0, 0);
  a.host_write_word(0, 1, 0xAAAA);
  a.host_write_word(1, 1, 0xBBBB);
  a.host_write_word(0, 2, 0x1111);
  a.host_write_word(1, 2, 0x2222);
  a.op_copy(2, 1, false, write_mask::pred);  // only tile 0 updated
  EXPECT_EQ(a.peek_word(0, 2), 0xAAAAu);
  EXPECT_EQ(a.peek_word(1, 2), 0x2222u);
  a.op_copy(2, 1, false, write_mask::pred_inv);  // only tile 1 updated
  EXPECT_EQ(a.peek_word(0, 2), 0xAAAAu);
  EXPECT_EQ(a.peek_word(1, 2), 0xBBBBu);
}

TEST(Subarray, CheckZeroSetsFlag) {
  auto a = make_array();
  EXPECT_TRUE(a.op_check_zero(5));
  EXPECT_TRUE(a.zero_flag());
  a.host_write_word(3, 5, 4);
  EXPECT_FALSE(a.op_check_zero(5));
  EXPECT_FALSE(a.zero_flag());
}

TEST(Subarray, StatsAccumulateCyclesAndEnergy) {
  auto a = make_array();
  a.op_binary(1, 0, 0, logic_fn::op_xor);
  a.op_shift(1, 1, shift_dir::left);
  a.op_check_zero(1);
  EXPECT_EQ(a.stats().cycles, 3u);
  EXPECT_EQ(a.stats().total_array_ops(), 3u);
  EXPECT_GT(a.stats().energy_pj, 0.0);
  a.reset_stats();
  EXPECT_EQ(a.stats().cycles, 0u);
}

TEST(Subarray, ReconfigurableTileWidth) {
  auto a = make_array(16, 64, 16);
  EXPECT_EQ(a.geometry().num_tiles(), 4u);
  a.set_tile_bits(8);
  EXPECT_EQ(a.geometry().num_tiles(), 8u);
  EXPECT_THROW(a.set_tile_bits(0), std::invalid_argument);
  EXPECT_THROW(a.set_tile_bits(65), std::invalid_argument);  // wider than the 64 columns
}

TEST(Subarray, ReconfiguredTileEdgesDriveShiftAndPredicate) {
  // 16-bit tiles reconfigured to 8 bits: column 7 becomes a tile MSB and
  // column 8 a tile LSB, so the segmented shift and the predicate broadcast
  // must follow the new edges.
  auto a = make_array(16, 64, 16);
  a.set_tile_bits(8);
  for (unsigned t = 0; t < 8; ++t) a.host_write_word(t, 0, 0x81);  // MSB+LSB of every tile
  a.op_shift(1, 0, shift_dir::left, /*segmented=*/true, /*expect_lossless=*/true);
  EXPECT_EQ(a.stats().lossless_shift_violations, 8u);
  for (unsigned t = 0; t < 8; ++t) EXPECT_EQ(a.peek_word(t, 1), 0x02u) << "tile " << t;
  a.op_shift(1, 0, shift_dir::right, /*segmented=*/true, /*expect_lossless=*/true);
  EXPECT_EQ(a.stats().lossless_shift_violations, 16u);
  for (unsigned t = 0; t < 8; ++t) EXPECT_EQ(a.peek_word(t, 1), 0x40u) << "tile " << t;

  a.host_write_word(1, 2, 0x01);  // only tile 1 (columns 8..15) has bit 0 set
  a.op_check_pred(2, 0);
  for (unsigned c = 0; c < 64; ++c) {
    EXPECT_EQ(a.predicate_mask().get(c), c >= 8 && c < 16) << "column " << c;
  }
  EXPECT_THROW(a.op_check_pred(2, 8), std::out_of_range);
}

TEST(Subarray, RowBoundsChecked) {
  auto a = make_array(8);
  EXPECT_THROW(a.host_read_word(0, 8), std::out_of_range);
  EXPECT_THROW(a.op_binary(8, 0, 1, logic_fn::op_and), std::out_of_range);
  EXPECT_THROW(a.op_check_pred(0, 16), std::out_of_range);
}

TEST(Subarray, WordAccessRejectsTilesWiderThanAWord) {
  auto a = make_array(8, 256, 128);
  EXPECT_THROW(a.host_write_word(0, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)a.host_read_word(0, 0), std::invalid_argument);
  EXPECT_THROW((void)a.peek_word(1, 0), std::invalid_argument);
  EXPECT_EQ(a.stats().host_writes + a.stats().host_reads, 0u);
}

TEST(Subarray, OddColumnsOutsideTilesAreCleared) {
  // 60 columns with 16-bit tiles -> 3 tiles, 12 leftover columns.
  subarray a(8, tile_geometry{60, 16}, tech_45nm());
  EXPECT_EQ(a.geometry().num_tiles(), 3u);
  bitrow r(60);
  for (unsigned c = 48; c < 60; ++c) r.set(c, true);
  a.host_write_row(0, r);
  a.op_shift(1, 0, shift_dir::left, true);
  for (unsigned c = 48; c < 60; ++c) EXPECT_FALSE(a.peek(1).get(c));
}

}  // namespace
}  // namespace bpntt::sram
