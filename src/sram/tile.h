// Tile geometry: the paper's bit-parallel data layout splits the 256-column
// array into `num_tiles` tiles of `tile_bits` columns; each tile holds one
// polynomial, one coefficient per row, LSB at the tile's lowest column
// (Fig. 5a).  Reconfiguring the tile width is how BP-NTT trades coefficient
// bitwidth against SIMD parallelism (⌊256/n⌋-bit coefficients for n tiles).
#pragma once

#include <stdexcept>

namespace bpntt::sram {

struct tile_geometry {
  unsigned cols = 256;
  unsigned tile_bits = 16;

  [[nodiscard]] unsigned num_tiles() const noexcept { return cols / tile_bits; }
  [[nodiscard]] unsigned used_cols() const noexcept { return num_tiles() * tile_bits; }
  [[nodiscard]] unsigned tile_base(unsigned tile) const {
    if (tile >= num_tiles()) throw std::out_of_range("tile_geometry: tile index");
    return tile * tile_bits;
  }

  void validate() const {
    if (tile_bits == 0 || tile_bits > cols) {
      throw std::invalid_argument("tile_geometry: tile_bits out of range");
    }
    if (num_tiles() == 0) throw std::invalid_argument("tile_geometry: no tiles fit");
  }
};

}  // namespace bpntt::sram
