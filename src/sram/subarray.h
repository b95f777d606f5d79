// Cycle-level model of one compute-enabled 6T SRAM subarray.
//
// Operations model what the modified sense amplifiers of Fig. 5(b) can do in
// a single array cycle:
//
// * `op_binary`    — activate two wordlines; the SA senses AND (bitline) and
//                    NOR (complement bitline) simultaneously and derives
//                    XOR/OR; one result row is written back.
// * `op_pair`      — same activation, but both half-adder outputs
//                    {AND -> c_dst, XOR -> s_dst} are written (dual write
//                    drivers; see DESIGN.md §3 "Fused AND/XOR").
// * `op_copy`      — single-row activation, optional output inversion.
// * `op_shift`     — read a row, rotate the SA latch one column left/right,
//                    write back.  In tile-segmented mode bits never cross
//                    tile boundaries (zero fill), modelling the configurable
//                    shifter segmentation that the reconfigurable tile width
//                    requires.
// * `op_check_*`   — the Fig. 4(d) `Check` instruction: latch a per-tile
//                    predicate bit (broadcast across the tile as a
//                    per-column write mask) or perform a wired-OR zero test
//                    whose flag the controller can branch on.
//
// Predicated writes (masked / masked-inverted) implement the data-dependent
// `m = M or 0` selection of Algorithm 2 line 11 and the conditional
// corrections of modular add/sub.
//
// The model also enforces the paper's two structural observations: shifts
// flagged `expect_lossless` count any dropped 1-bit as a violation
// (Observation 1 for `Carry << 1`, Observation 2 for `s1 >> 1`).
#pragma once

#include <cstdint>
#include <vector>

#include "sram/bitrow.h"
#include "sram/stats.h"
#include "sram/tech_model.h"
#include "sram/tile.h"

namespace bpntt::sram {

enum class logic_fn : std::uint8_t { op_and, op_or, op_xor, op_nor };
enum class shift_dir : std::uint8_t { left, right };  // left = toward tile MSB

// Write-predication mode for ops that store a result row.
enum class write_mask : std::uint8_t {
  none,      // write all columns
  pred,      // write only columns whose predicate latch is 1
  pred_inv,  // write only columns whose predicate latch is 0
};

class subarray {
 public:
  subarray(unsigned rows, tile_geometry geom, tech_params tech);

  [[nodiscard]] unsigned rows() const noexcept { return static_cast<unsigned>(data_.size()); }
  [[nodiscard]] unsigned cols() const noexcept { return geom_.cols; }
  [[nodiscard]] const tile_geometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] const tech_params& tech() const noexcept { return tech_; }
  [[nodiscard]] const op_stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  // Reconfigure the tile width (the paper's bitwidth flexibility).  Data is
  // left in place; callers reload their layout afterwards.
  void set_tile_bits(unsigned tile_bits);

  // --- Host (non-compute) access: ordinary cache reads/writes. ---
  void host_write_row(unsigned row, const bitrow& value);
  void host_write_word(unsigned tile, unsigned row, std::uint64_t value);
  [[nodiscard]] std::uint64_t host_read_word(unsigned tile, unsigned row);
  // Debug peek that does not touch statistics (used by tests/traces).
  [[nodiscard]] const bitrow& peek(unsigned row) const;
  [[nodiscard]] std::uint64_t peek_word(unsigned tile, unsigned row) const;

  // --- Compute micro-ops (1 array cycle each). ---
  void op_binary(unsigned dst, unsigned src0, unsigned src1, logic_fn fn,
                 write_mask mask = write_mask::none);
  void op_pair(unsigned c_dst, unsigned s_dst, unsigned src0, unsigned src1,
               write_mask mask = write_mask::none);
  void op_copy(unsigned dst, unsigned src, bool invert = false,
               write_mask mask = write_mask::none);
  void op_shift(unsigned dst, unsigned src, shift_dir dir, bool segmented = true,
                bool expect_lossless = false);
  void op_check_pred(unsigned src, unsigned bit_index);
  bool op_check_zero(unsigned src);

  [[nodiscard]] bool zero_flag() const noexcept { return zero_flag_; }
  [[nodiscard]] const bitrow& predicate_mask() const noexcept { return pred_mask_; }

  // --- Fault injection (test harness): a stuck-at fault on one sense
  // amplifier forces that column of every *written* result to `value`.
  // Models a manufacturing defect; used to prove end-to-end verification
  // detects silent data corruption.
  void inject_stuck_column(unsigned col, bool value);
  void clear_faults() noexcept;

 private:
  // Rebuild the per-geometry tile masks after a tile-width change.
  void rebuild_tile_masks();
  // The one write path of every compute op: apply the stuck columns, then
  // the write mask, to the result limbs `v` and store them into row `dst`.
  void store_words(unsigned dst, const std::uint64_t* v, write_mask mask);
  void bounds(unsigned row) const;
  // First column of `tile` for the 64-bit word accessors.
  [[nodiscard]] unsigned word_base(unsigned tile) const;

  tile_geometry geom_;
  tech_params tech_;
  std::vector<bitrow> data_;
  bitrow pred_mask_;
  // Result rows the compute ops build before the store (two for op_pair).
  bitrow scratch_;
  bitrow scratch2_;
  // Per-geometry column masks: each tile's LSB and MSB column, and the
  // columns covered by some tile.
  bitrow lsb_mask_;
  bitrow msb_mask_;
  bitrow used_mask_;
  // Stuck-at faults as two column masks; the last injection on a column wins.
  bitrow stuck_set_;
  bitrow stuck_clr_;
  bool zero_flag_ = false;
  op_stats stats_;

  // Compute-op energies in pJ, computed once from the tech model.
  double e_binary_ = 0;
  double e_pair_ = 0;
  double e_copy_ = 0;
  double e_shift_ = 0;
  double e_check_ = 0;
};

}  // namespace bpntt::sram
