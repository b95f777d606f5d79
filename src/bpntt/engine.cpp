#include "bpntt/engine.h"

#include <stdexcept>
#include <utility>

namespace bpntt::core {
namespace {
enum kernel_kind : int {
  k_forward = 0,
  k_inverse = 1,
  k_pointwise = 2,
  k_basemul = 3,
  k_modmul_rows = 4,
};
}

bp_ntt_engine::bp_ntt_engine(std::shared_ptr<kernel_library> lib)
    : layout_{lib->config().data_rows}, lib_(std::move(lib)) {
  sram::tile_geometry geom;
  geom.cols = lib_->config().cols;
  geom.tile_bits = lib_->params().k;
  geom.validate();
  array_ = std::make_unique<sram::subarray>(layout_.total_rows(), geom, lib_->config().tech);
  write_constants();
}

void bp_ntt_engine::bind(std::shared_ptr<kernel_library> lib) {
  if (lib->config().data_rows != layout_.data_rows || lib->config().cols != array_->cols() ||
      lib->params().k != array_->geometry().tile_bits) {
    throw std::invalid_argument("bp_ntt_engine: bound library has another geometry");
  }
  // By value, not by library: the rows hold M (2^k - M follows from it at
  // this k), whichever object carried it.
  const bool rewrite = lib->plan().m != plan().m;
  lib_ = std::move(lib);
  if (rewrite) write_constants();
}

void bp_ntt_engine::write_constants() {
  // Broadcast M, 2^k - M and the constant 1 into every tile's constant rows.
  sram::bitrow m(array_->cols());
  sram::bitrow mneg(array_->cols());
  sram::bitrow one(array_->cols());
  const auto& geom = array_->geometry();
  for (unsigned t = 0; t < geom.num_tiles(); ++t) {
    m.deposit(geom.tile_base(t), geom.tile_bits, plan().m);
    mneg.deposit(geom.tile_base(t), geom.tile_bits, plan().mneg);
    one.deposit(geom.tile_base(t), geom.tile_bits, 1);
  }
  array_->host_write_row(layout_.m_row(), m);
  array_->host_write_row(layout_.mneg_row(), mneg);
  array_->host_write_row(layout_.one_row(), one);
}

void bp_ntt_engine::load_polynomial(unsigned lane, std::span<const u64> coeffs) {
  if (coeffs.size() > layout_.data_rows) {
    throw std::out_of_range("bp_ntt_engine: coefficients exceed data rows");
  }
  load_polynomial(lane, coeffs, layout_.make_region(0, coeffs.size()));
}

void bp_ntt_engine::load_polynomial(unsigned lane, std::span<const u64> coeffs,
                                    const region& dst) {
  if (lane >= lanes()) throw std::out_of_range("bp_ntt_engine: lane");
  if (coeffs.size() != dst.rows()) {
    throw std::invalid_argument("bp_ntt_engine: coefficient count does not match region");
  }
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    if (!params().synthetic() && coeffs[i] >= params().q) {
      throw std::invalid_argument("bp_ntt_engine: coefficient not canonical");
    }
    array_->host_write_word(lane, dst.base() + static_cast<unsigned>(i), coeffs[i]);
  }
}

std::vector<u64> bp_ntt_engine::read_polynomial(unsigned lane, u64 count) {
  return read_polynomial(lane, layout_.make_region(0, count));
}

std::vector<u64> bp_ntt_engine::read_polynomial(unsigned lane, const region& src) {
  if (lane >= lanes()) throw std::out_of_range("bp_ntt_engine: lane");
  std::vector<u64> out(src.rows());
  for (u64 i = 0; i < src.rows(); ++i) {
    out[i] = array_->host_read_word(lane, src.base() + static_cast<unsigned>(i));
  }
  return out;
}

std::vector<u64> bp_ntt_engine::peek_polynomial(unsigned lane, u64 count) const {
  return peek_polynomial(lane, layout_.make_region(0, count));
}

std::vector<u64> bp_ntt_engine::peek_polynomial(unsigned lane, const region& src) const {
  if (lane >= lanes()) throw std::out_of_range("bp_ntt_engine: lane");
  std::vector<u64> out(src.rows());
  for (u64 i = 0; i < src.rows(); ++i) {
    out[i] = array_->peek_word(lane, src.base() + static_cast<unsigned>(i));
  }
  return out;
}

sram::op_stats bp_ntt_engine::execute(const isa::loaded_program& p) {
  const sram::op_stats before = array_->stats();
  exec_.run(p, *array_);
  sram::op_stats delta = array_->stats();
  delta -= before;
  return delta;
}

void bp_ntt_engine::require_poly_region(const region& r) const {
  if (r.rows() != params().n) {
    throw std::invalid_argument("bp_ntt_engine: transform kernels need an n-row region");
  }
}

sram::op_stats bp_ntt_engine::run_forward(const region& r) {
  require_poly_region(r);
  return execute(lib_->program({.kind = k_forward, .a = r.base()}, *array_,
                               [&](const auto& c, const auto& plan) {
                                 return c.compile_forward(plan, r.base());
                               }));
}

sram::op_stats bp_ntt_engine::run_inverse(const region& r) {
  require_poly_region(r);
  return execute(lib_->program({.kind = k_inverse, .a = r.base()}, *array_,
                               [&](const auto& c, const auto& plan) {
                                 return c.compile_inverse(plan, r.base());
                               }));
}

sram::op_stats bp_ntt_engine::run_pointwise(const region& a, const region& b, const region& dst,
                                            bool scale_b) {
  if (a.rows() != b.rows() || a.rows() != dst.rows()) {
    throw std::invalid_argument("bp_ntt_engine: pointwise regions must be equal-sized");
  }
  return execute(lib_->program({.kind = k_pointwise,
                                .a = a.base(),
                                .b = b.base(),
                                .dst = dst.base(),
                                .rows = a.rows(),
                                .scale_b = scale_b},
                               *array_, [&](const auto& c, const auto& plan) {
                                 return c.compile_pointwise(plan, a.base(), b.base(),
                                                            dst.base(), a.rows(), scale_b);
                               }));
}

sram::op_stats bp_ntt_engine::run_basemul(const region& a, const region& b, bool scale_b) {
  require_poly_region(a);
  require_poly_region(b);
  return execute(lib_->program(
      {.kind = k_basemul, .a = a.base(), .b = b.base(), .scale_b = scale_b}, *array_,
      [&](const auto& c, const auto& plan) {
        return c.compile_basemul(plan, a.base(), b.base(), scale_b);
      }));
}

sram::op_stats bp_ntt_engine::run_modmul_rows(const region& a, const region& b,
                                              const region& dst) {
  if (a.rows() != 1 || b.rows() != 1 || dst.rows() != 1) {
    throw std::invalid_argument("bp_ntt_engine: run_modmul_rows needs single-row regions");
  }
  return execute(lib_->program(
      {.kind = k_modmul_rows, .a = a.base(), .b = b.base(), .dst = dst.base()}, *array_,
      [&](const auto& c, const auto&) {
        return c.compile_modmul_data(a.base(), b.base(), dst.base());
      }));
}

}  // namespace bpntt::core
