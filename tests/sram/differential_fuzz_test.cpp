// Differential fuzzing of the subarray: random micro-op sequences execute
// on the hardware model and on an independent software mirror (plain
// uint64 word arithmetic per tile); every state must match after every op.
// This catches cross-tile leaks, predicate/mask bugs, stuck-column and
// aliasing hazards that directed tests might miss.  The geometries cover
// tiles inside one limb, tiles straddling limbs, a partial top limb, one
// tile per limb and spare columns past the last tile.  The whole row is
// compared, spare columns included: they are ordinary columns to the
// logic ops (an inverting op sets them, a predicated write never reaches
// them, a pred_inv write always does) and a segmented shift clears them.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/xoshiro.h"
#include "sram/subarray.h"

namespace bpntt::sram {
namespace {

constexpr unsigned kRows = 12;

// cols / tile_bits: the Table-I point, limb-straddling tiles with 4 spare
// columns, a partial top limb with 5 spare columns, one tile per limb, and
// an odd narrow width.
const tile_geometry kGeometries[] = {{256, 16}, {256, 14}, {200, 13}, {128, 64}, {44, 11}};

std::uint64_t low_bits(unsigned n) { return n >= 64 ? ~0ULL : (1ULL << n) - 1; }

// Word w < tiles is tile w; word `tiles` holds the spare columns.
struct mirror {
  explicit mirror(const tile_geometry& g)
      : geom(g),
        tiles(g.num_tiles()),
        bits(g.tile_bits),
        state(kRows, std::vector<std::uint64_t>(tiles + 1, 0)),
        pred(tiles + 1, false),
        stuck_set(tiles + 1, 0),
        stuck_clr(tiles + 1, 0) {}

  tile_geometry geom;
  unsigned tiles;
  unsigned bits;
  // state[row][word]
  std::vector<std::vector<std::uint64_t>> state;
  std::vector<bool> pred;  // the spare word's predicate is always 0
  std::vector<std::uint64_t> stuck_set, stuck_clr;
  std::uint64_t violations = 0;

  [[nodiscard]] std::uint64_t mask(unsigned w) const {
    return low_bits(w < tiles ? bits : geom.cols - geom.used_cols());
  }
  [[nodiscard]] std::uint64_t tile_mask() const { return mask(0); }

  // Column -> (word, bit within the word).
  [[nodiscard]] std::pair<unsigned, unsigned> locate(unsigned col) const {
    const unsigned w = col < geom.used_cols() ? col / bits : tiles;
    return {w, col - (w < tiles ? w * bits : geom.used_cols())};
  }
  void stick(unsigned col, bool value) {
    const auto [w, b] = locate(col);
    const std::uint64_t bit = 1ULL << b;
    stuck_set[w] = value ? stuck_set[w] | bit : stuck_set[w] & ~bit;
    stuck_clr[w] = value ? stuck_clr[w] & ~bit : stuck_clr[w] | bit;
  }
  void unstick() {
    std::fill(stuck_set.begin(), stuck_set.end(), 0);
    std::fill(stuck_clr.begin(), stuck_clr.end(), 0);
  }

  [[nodiscard]] bool writes(unsigned w, write_mask wm) const {
    return wm == write_mask::none || (wm == write_mask::pred && pred[w]) ||
           (wm == write_mask::pred_inv && !pred[w]);
  }
  void store(unsigned dst, const std::vector<std::uint64_t>& v, write_mask wm) {
    for (unsigned w = 0; w <= tiles; ++w) {
      if (writes(w, wm)) state[dst][w] = ((v[w] | stuck_set[w]) & ~stuck_clr[w]) & mask(w);
    }
  }

  void binary(unsigned dst, unsigned s0, unsigned s1, logic_fn fn, write_mask wm) {
    std::vector<std::uint64_t> v(tiles + 1);
    for (unsigned w = 0; w <= tiles; ++w) {
      const auto a = state[s0][w], b = state[s1][w];
      switch (fn) {
        case logic_fn::op_and: v[w] = a & b; break;
        case logic_fn::op_or: v[w] = a | b; break;
        case logic_fn::op_xor: v[w] = a ^ b; break;
        case logic_fn::op_nor: v[w] = ~(a | b); break;
      }
    }
    store(dst, v, wm);
  }
  void pair(unsigned c, unsigned s, unsigned s0, unsigned s1, write_mask wm) {
    std::vector<std::uint64_t> vc(tiles + 1), vs(tiles + 1);
    for (unsigned w = 0; w <= tiles; ++w) {
      vc[w] = state[s0][w] & state[s1][w];
      vs[w] = state[s0][w] ^ state[s1][w];
    }
    store(c, vc, wm);
    store(s, vs, wm);
  }
  void copy(unsigned dst, unsigned src, bool invert, write_mask wm) {
    std::vector<std::uint64_t> v(tiles + 1);
    for (unsigned w = 0; w <= tiles; ++w) v[w] = invert ? ~state[src][w] : state[src][w];
    store(dst, v, wm);
  }
  void shift(unsigned dst, unsigned src, shift_dir dir, bool expect_lossless) {
    std::vector<std::uint64_t> v(tiles + 1, 0);  // spare columns clear
    for (unsigned t = 0; t < tiles; ++t) {
      const auto x = state[src][t];
      const bool lost = dir == shift_dir::left ? (x >> (bits - 1)) & 1ULL : x & 1ULL;
      if (expect_lossless && lost) ++violations;
      v[t] = dir == shift_dir::left ? x << 1 : x >> 1;
    }
    store(dst, v, write_mask::none);
  }
  void check_pred(unsigned src, unsigned bit) {
    for (unsigned t = 0; t < tiles; ++t) pred[t] = (state[src][t] >> bit) & 1ULL;
  }
  [[nodiscard]] bool is_zero(unsigned row) const {
    for (auto w : state[row]) {
      if (w != 0) return false;
    }
    return true;
  }

  // The full expected row: every tile's word and the spare columns in place.
  [[nodiscard]] bitrow row(unsigned r) const { return pack(state[r]); }
  [[nodiscard]] bitrow pred_row() const {
    std::vector<std::uint64_t> words(tiles + 1, 0);
    for (unsigned t = 0; t < tiles; ++t) words[t] = pred[t] ? tile_mask() : 0;
    return pack(words);
  }
  [[nodiscard]] bitrow pack(const std::vector<std::uint64_t>& words) const {
    bitrow out(geom.cols);
    for (unsigned t = 0; t < tiles; ++t) out.deposit(geom.tile_base(t), bits, words[t]);
    if (geom.used_cols() < geom.cols) {
      out.deposit(geom.used_cols(), geom.cols - geom.used_cols(), words[tiles]);
    }
    return out;
  }
};

// Whole-row equality, limbs included, so a bit left above the row width
// fails too; a mismatch prints both rows MSB-first.
::testing::AssertionResult same_row(const bitrow& model, const bitrow& want) {
  if (model == want) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "\n  model  " << model.to_string()
                                       << "\n  mirror " << want.to_string();
}

void fuzz_geometry(const tile_geometry& g, std::uint64_t seed) {
  common::xoshiro256ss rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    subarray hw(kRows, g, tech_45nm());
    mirror sw(g);
    for (unsigned r = 0; r < kRows; ++r) {
      for (unsigned t = 0; t < sw.tiles; ++t) {
        const auto v = rng() & sw.tile_mask();
        hw.host_write_word(t, r, v);
        sw.state[r][t] = v;
      }
    }
    for (int step = 0; step < 300; ++step) {
      const auto dst = static_cast<unsigned>(rng.below(kRows));
      const auto s0 = static_cast<unsigned>(rng.below(kRows));
      const auto s1 = static_cast<unsigned>(rng.below(kRows));
      const auto wm = static_cast<write_mask>(rng.below(3));
      switch (rng.below(8)) {
        case 0: {
          const auto fn = static_cast<logic_fn>(rng.below(4));
          hw.op_binary(dst, s0, s1, fn, wm);
          sw.binary(dst, s0, s1, fn, wm);
          break;
        }
        case 1: {
          // pair destinations must differ; derive a second one.
          const unsigned s_dst = (dst + 1) % kRows;
          hw.op_pair(dst, s_dst, s0, s1, wm);
          sw.pair(dst, s_dst, s0, s1, wm);
          break;
        }
        case 2: {
          const bool invert = rng.coin();
          hw.op_copy(dst, s0, invert, wm);
          sw.copy(dst, s0, invert, wm);
          break;
        }
        case 3:
        case 4: {
          const auto dir = rng.coin() ? shift_dir::left : shift_dir::right;
          const bool lossless = rng.coin();
          hw.op_shift(dst, s0, dir, /*segmented=*/true, lossless);
          sw.shift(dst, s0, dir, lossless);
          break;
        }
        case 5: {
          const auto bit = static_cast<unsigned>(rng.below(sw.bits));
          hw.op_check_pred(s0, bit);
          sw.check_pred(s0, bit);
          ASSERT_TRUE(same_row(hw.predicate_mask(), sw.pred_row()))
              << "trial " << trial << " step " << step;
          break;
        }
        case 6:
          ASSERT_EQ(hw.op_check_zero(s0), sw.is_zero(s0)) << "trial " << trial << " step " << step;
          break;
        case 7: {
          // A stuck column anywhere in the row, spare columns included; a
          // re-inject of the same column flips it, and the last one wins.
          if (rng.below(8) == 0) {
            hw.clear_faults();
            sw.unstick();
            break;
          }
          const auto col = static_cast<unsigned>(rng.below(g.cols));
          const bool value = rng.coin();
          hw.inject_stuck_column(col, value);
          sw.stick(col, value);
          if (rng.coin()) {
            hw.inject_stuck_column(col, !value);
            sw.stick(col, !value);
          }
          break;
        }
      }
      ASSERT_EQ(hw.stats().lossless_shift_violations, sw.violations)
          << "trial " << trial << " step " << step;
      for (unsigned r = 0; r < kRows; ++r) {
        ASSERT_TRUE(same_row(hw.peek(r), sw.row(r)))
            << "trial " << trial << " step " << step << " row " << r;
        for (unsigned t = 0; t < sw.tiles; ++t) {
          ASSERT_EQ(hw.peek_word(t, r), sw.state[r][t])
              << "trial " << trial << " step " << step << " row " << r << " tile " << t;
        }
      }
    }
  }
}

TEST(DifferentialFuzz, RandomOpSequencesMatchSoftwareMirror) {
  std::uint64_t seed = 0xF00D;
  for (const auto& g : kGeometries) {
    SCOPED_TRACE(::testing::Message() << g.cols << " cols / " << g.tile_bits << "-bit tiles");
    fuzz_geometry(g, seed++);
    if (HasFatalFailure()) return;
  }
}

TEST(DifferentialFuzz, SegmentedShiftNeverLeaksAcrossTiles) {
  // Adversarial pattern: alternate all-ones / all-zeros tiles, shift both
  // directions repeatedly; the zero tiles and spare columns must stay zero.
  for (const auto& g : kGeometries) {
    SCOPED_TRACE(::testing::Message() << g.cols << " cols / " << g.tile_bits << "-bit tiles");
    const mirror sw(g);
    subarray hw(4, g, tech_45nm());
    for (unsigned t = 0; t < sw.tiles; ++t) {
      hw.host_write_word(t, 0, (t % 2 == 0) ? sw.tile_mask() : 0);
    }
    for (int i = 0; i < 2 * static_cast<int>(sw.bits); ++i) {
      hw.op_shift(0, 0, i % 2 ? shift_dir::left : shift_dir::right, true);
      for (unsigned t = 1; t < sw.tiles; t += 2) {
        ASSERT_EQ(hw.peek_word(t, 0), 0u) << "iteration " << i;
      }
      for (unsigned c = g.used_cols(); c < g.cols; ++c) {
        ASSERT_FALSE(hw.peek(0).get(c)) << "spare column " << c << " iteration " << i;
      }
    }
  }
}

}  // namespace
}  // namespace bpntt::sram
