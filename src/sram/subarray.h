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
#include "sram/word_kernels.h"

namespace bpntt::sram {

// Per-op energies in pJ for one geometry, computed once from the tech model.
struct op_energy {
  double binary = 0;
  double pair = 0;
  double copy = 0;
  double shift = 0;
  double check = 0;
  double host_row_write = 0;
  double host_tile_write = 0;
  double host_tile_read = 0;
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

  // What a compiled-program interpreter (isa::executor) runs over: the word
  // kernels' state, a limb pointer per row, the per-op energies, and the
  // statistics and zero flag it flushes on exit.  Valid until the next
  // set_tile_bits.
  struct kernel_view {
    kernel_state state;
    word* const* rows;
    const op_energy& energy;
    op_stats& stats;
    bool& zero_flag;
  };
  [[nodiscard]] kernel_view view() noexcept;

 private:
  // Rebuild the per-geometry tile masks and energies after a tile-width
  // change.
  void rebuild_geometry();
  void bounds(unsigned row) const;
  // First column of `tile` for the 64-bit word accessors.
  [[nodiscard]] unsigned word_base(unsigned tile) const;
  [[nodiscard]] kernel_state state() noexcept;
  [[nodiscard]] word* limbs(unsigned row) noexcept { return data_[row].words().data(); }

  tile_geometry geom_;
  tech_params tech_;
  std::vector<bitrow> data_;
  // A limb pointer per row, refreshed by view().
  std::vector<word*> row_limbs_;
  bitrow pred_mask_;
  // check_pred's work row at the dynamic extent.
  bitrow scratch_;
  // Per-geometry column masks: each tile's LSB and MSB column, and what a
  // segmented shift keeps in each direction (see kernel_state).
  bitrow lsb_mask_;
  bitrow msb_mask_;
  bitrow keep_left_;
  bitrow keep_right_;
  // Stuck-at faults as two column masks, the columns forced to 1 and the
  // columns not stuck at 0; the last injection on a column wins.
  bitrow stuck_set_;
  bitrow writable_;
  bool zero_flag_ = false;
  op_stats stats_;
  op_energy energy_;
};

}  // namespace bpntt::sram
