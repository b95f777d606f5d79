#include "sram/bitrow.h"

#include <gtest/gtest.h>

#include "common/xoshiro.h"
#include "sram/subarray.h"

namespace bpntt::sram {
namespace {

// Row-wide logic and shifts run as subarray word kernels over the row's
// limbs; the cases below drive them through a subarray whose single tile
// spans the row, so no tile edge or spare column is involved.
subarray whole_row_array(unsigned cols) {
  return subarray(4, tile_geometry{cols, cols}, tech_45nm());
}

TEST(Bitrow, GetSetClear) {
  bitrow r(256);
  EXPECT_FALSE(r.any());
  r.set(0, true);
  r.set(255, true);
  r.set(128, true);
  EXPECT_TRUE(r.get(0));
  EXPECT_TRUE(r.get(255));
  EXPECT_TRUE(r.get(128));
  EXPECT_FALSE(r.get(127));
  EXPECT_EQ(r.popcount(), 3u);
  r.clear();
  EXPECT_FALSE(r.any());
}

TEST(Bitrow, LogicMatchesWordOracle) {
  common::xoshiro256ss rng(1);
  auto a = whole_row_array(64);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t x = rng(), y = rng();
    a.host_write_word(0, 0, x);
    a.host_write_word(0, 1, y);
    a.op_binary(2, 0, 1, logic_fn::op_and);
    EXPECT_EQ(a.peek_word(0, 2), x & y);
    a.op_binary(2, 0, 1, logic_fn::op_or);
    EXPECT_EQ(a.peek_word(0, 2), x | y);
    a.op_binary(2, 0, 1, logic_fn::op_xor);
    EXPECT_EQ(a.peek_word(0, 2), x ^ y);
    a.op_binary(2, 0, 1, logic_fn::op_nor);
    EXPECT_EQ(a.peek_word(0, 2), ~(x | y));
    a.op_copy(2, 0, /*invert=*/true);
    EXPECT_EQ(a.peek_word(0, 2), ~x);
  }
}

TEST(Bitrow, InvertedRespectsWidth) {
  auto a = whole_row_array(10);
  a.op_copy(1, 0, /*invert=*/true);
  EXPECT_EQ(a.peek(1).popcount(), 10u);  // only 10 bits, not a full limb
  EXPECT_EQ(a.peek(1).words()[0], 0x3FFu);
}

TEST(Bitrow, ShiftLeftMovesTowardHigherColumns) {
  auto a = whole_row_array(130);
  bitrow r(130);
  r.set(0, true);
  r.set(63, true);   // limb boundary crossing
  r.set(129, true);  // falls off the top
  a.host_write_row(0, r);
  a.op_shift(1, 0, shift_dir::left, /*segmented=*/false);
  const bitrow& s = a.peek(1);
  EXPECT_TRUE(s.get(1));
  EXPECT_TRUE(s.get(64));
  EXPECT_FALSE(s.get(0));
  EXPECT_EQ(s.popcount(), 2u);
}

TEST(Bitrow, ShiftRightMovesTowardLowerColumns) {
  auto a = whole_row_array(130);
  bitrow r(130);
  r.set(0, true);  // falls off the bottom
  r.set(64, true);
  r.set(129, true);
  a.host_write_row(0, r);
  a.op_shift(1, 0, shift_dir::right, /*segmented=*/false);
  const bitrow& s = a.peek(1);
  EXPECT_TRUE(s.get(63));
  EXPECT_TRUE(s.get(128));
  EXPECT_EQ(s.popcount(), 2u);
}

TEST(Bitrow, ShiftRoundTripRandom) {
  common::xoshiro256ss rng(2);
  auto a = whole_row_array(256);
  bitrow r(256);
  for (unsigned i = 1; i + 1 < 256; ++i) r.set(i, rng.coin());
  a.host_write_row(0, r);
  a.op_shift(1, 0, shift_dir::left, /*segmented=*/false);
  a.op_shift(2, 1, shift_dir::right, /*segmented=*/false);
  EXPECT_EQ(a.peek(2), r);
  a.op_shift(1, 0, shift_dir::right, /*segmented=*/false);
  a.op_shift(2, 1, shift_dir::left, /*segmented=*/false);
  EXPECT_EQ(a.peek(2), r);
}

TEST(Bitrow, ExtractDeposit) {
  bitrow r(256);
  r.deposit(100, 16, 0xBEEF);
  EXPECT_EQ(r.extract(100, 16), 0xBEEFu);
  EXPECT_EQ(r.extract(96, 4), 0u);
  r.deposit(100, 16, 0x1);
  EXPECT_EQ(r.extract(100, 16), 0x1u);
}

TEST(Bitrow, ExtractDepositAcrossLimbBoundaries) {
  // {base, count}: a field straddling limbs 0/1, a full-width field
  // straddling them, and a full limb-aligned field.
  const unsigned cases[][2] = {{60, 16}, {3, 64}, {64, 64}};
  common::xoshiro256ss rng(3);
  for (const auto& [base, count] : cases) {
    SCOPED_TRACE(::testing::Message() << "base " << base << " count " << count);
    for (int trial = 0; trial < 20; ++trial) {
      // Random background, so neighbouring columns must survive the deposit.
      bitrow r(200);
      for (unsigned c = 0; c < 200; ++c) r.set(c, rng.coin());
      const bitrow before = r;
      const std::uint64_t v = rng();
      r.deposit(base, count, v);
      const std::uint64_t field = count == 64 ? ~0ULL : (1ULL << count) - 1;
      EXPECT_EQ(r.extract(base, count), v & field);
      for (unsigned c = 0; c < 200; ++c) {
        const bool want = c >= base && c < base + count ? ((v >> (c - base)) & 1) != 0
                                                        : before.get(c);
        ASSERT_EQ(r.get(c), want) << "column " << c;
      }
    }
  }
}

TEST(Bitrow, ToStringMsbFirst) {
  bitrow r(4);
  r.set(0, true);
  r.set(3, true);
  EXPECT_EQ(r.to_string(), "1001");
}

TEST(Bitrow, RejectsZeroWidth) { EXPECT_THROW(bitrow(0), std::invalid_argument); }

TEST(Bitrow, WidthMismatchThrows) {
  auto a = whole_row_array(8);
  EXPECT_THROW(a.host_write_row(0, bitrow(16)), std::invalid_argument);
}

}  // namespace
}  // namespace bpntt::sram
