// Analytical technology model (area / energy / timing) for the in-SRAM
// compute subarray.
//
// The paper obtains these numbers from PyMTL3 + OpenRAM + Synopsys DC +
// Cadence Innovus at 45 nm.  We cannot run a physical flow, so we use a
// first-order per-operation energy model and a cell-count area model whose
// constants are calibrated once so the headline configuration (256x256
// array, 256-point 16-bit NTT) reproduces the paper's Table I anchor row
// (3.8 GHz, 0.063 mm^2, ~69 nJ per batch).  Every other configuration is
// then *derived* from the same constants, which preserves the scaling
// behaviour the paper's claims rest on (see DESIGN.md §4).
#pragma once

#include <string>

namespace bpntt::sram {

struct tech_params {
  std::string name = "45nm";
  double feature_nm = 45.0;

  // Area model.
  double cell_area_um2 = 0.33;     // 6T push-rule cell at 45 nm
  double array_efficiency = 0.36;  // cell area / (cells + decoders + SAs + drivers)
  double compute_overhead = 0.015; // extra SA logic for in-SRAM compute (<2%, §IV-A)

  // Timing: one micro-op per array cycle.
  double freq_ghz = 3.8;           // Table I "Max f" for the 256x256 array

  // Energy model, per micro-op.
  double e_wordline_pj = 0.010;        // per activated wordline
  double e_bitline_fj_per_col = 0.35;  // bitline swing, per column
  double e_sense_fj_per_col = 0.18;    // sense amplifier, per column
  double e_write_fj_per_col = 0.30;    // write-back driver, per column
  double e_ctrl_pj = 0.020;            // decode/control per issued op
  double leakage_mw = 0.05;
};

// Calibrated 45 nm parameters (the node used throughout the paper).
[[nodiscard]] tech_params tech_45nm();

// Projection to another node using constant-field scaling: delay and energy
// scale ~linearly and ~quadratically with feature size respectively, area
// quadratically.  Matches the paper's "projected to 45nm" treatment of the
// related-work rows in Table I.
[[nodiscard]] tech_params project_to_node(const tech_params& base, double target_nm);

// Subarray area in mm^2 for a rows x cols array including peripherals and
// the in-SRAM compute overhead.
[[nodiscard]] double subarray_area_mm2(const tech_params& t, unsigned rows, unsigned cols);

// Per-op energies in pJ.
[[nodiscard]] double energy_compute_op_pj(const tech_params& t, unsigned cols,
                                          unsigned rows_activated, bool writes_back);
[[nodiscard]] double energy_shift_op_pj(const tech_params& t, unsigned cols);
[[nodiscard]] double energy_check_op_pj(const tech_params& t, unsigned cols);

}  // namespace bpntt::sram
