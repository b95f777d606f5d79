#include "sram/tech_model.h"

#include <stdexcept>

namespace bpntt::sram {

tech_params tech_45nm() { return tech_params{}; }

tech_params project_to_node(const tech_params& base, double target_nm) {
  if (target_nm <= 0) throw std::invalid_argument("project_to_node: bad node");
  const double s = target_nm / base.feature_nm;  // >1 means older/larger node
  tech_params t = base;
  t.name = std::to_string(static_cast<int>(target_nm)) + "nm";
  t.feature_nm = target_nm;
  t.cell_area_um2 = base.cell_area_um2 * s * s;
  t.freq_ghz = base.freq_ghz / s;
  t.e_wordline_pj = base.e_wordline_pj * s * s;
  t.e_bitline_fj_per_col = base.e_bitline_fj_per_col * s * s;
  t.e_sense_fj_per_col = base.e_sense_fj_per_col * s * s;
  t.e_write_fj_per_col = base.e_write_fj_per_col * s * s;
  t.e_ctrl_pj = base.e_ctrl_pj * s * s;
  t.leakage_mw = base.leakage_mw * s;
  return t;
}

double subarray_area_mm2(const tech_params& t, unsigned rows, unsigned cols) {
  const double cells_um2 = static_cast<double>(rows) * cols * t.cell_area_um2;
  return cells_um2 / t.array_efficiency * (1.0 + t.compute_overhead) * 1e-6;
}

double energy_compute_op_pj(const tech_params& t, unsigned cols, unsigned rows_activated,
                            bool writes_back) {
  double e = t.e_ctrl_pj + t.e_wordline_pj * rows_activated;
  e += cols * (t.e_bitline_fj_per_col + t.e_sense_fj_per_col) * 1e-3;
  if (writes_back) e += cols * t.e_write_fj_per_col * 1e-3;
  return e;
}

double energy_shift_op_pj(const tech_params& t, unsigned cols) {
  // Shift = read + latch rotate + write back; the latch rotate itself is
  // cheap relative to the bitline swings.
  return energy_compute_op_pj(t, cols, 1, true);
}

double energy_check_op_pj(const tech_params& t, unsigned cols) {
  // Check reads one row and latches one bit per tile; no write back.
  return energy_compute_op_pj(t, cols, 1, false);
}

}  // namespace bpntt::sram
