#include "isa/program.h"

#include <stdexcept>

namespace bpntt::isa {

std::vector<std::uint64_t> program::encode_image() const {
  std::vector<std::uint64_t> image;
  image.reserve(ops.size());
  for (const auto& op : ops) image.push_back(encode(op));
  return image;
}

program program::decode_image(const std::vector<std::uint64_t>& image) {
  program p;
  p.ops.reserve(image.size());
  for (auto w : image) p.ops.push_back(decode(w));
  return p;
}

std::string program::disassemble() const {
  std::string out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    out += std::to_string(i) + ": " + bpntt::isa::disassemble(ops[i]) + "\n";
  }
  return out;
}

std::int16_t program_builder::rel(std::size_t target) const {
  // Offset is applied after the implicit pc increment: pc' = pc + 1 + offset.
  const std::ptrdiff_t delta =
      static_cast<std::ptrdiff_t>(target) - static_cast<std::ptrdiff_t>(ops_.size()) - 1;
  if (delta < -512 || delta > 511) throw std::out_of_range("program_builder: branch too far");
  return static_cast<std::int16_t>(delta);
}

void program_builder::jump_to(std::size_t target) { emit(make_jump(rel(target))); }
void program_builder::branch_nonzero_to(std::size_t target) {
  emit(make_branch_nonzero(rel(target)));
}

program_builder::label program_builder::reserve_branch_zero() {
  emit(make_branch_zero(0));
  return ops_.size() - 1;
}

void program_builder::patch_to_here(label l) {
  if (l >= ops_.size()) throw std::out_of_range("program_builder: bad label");
  micro_op& op = ops_[l];
  if (op.type != op_type::check || op.mode != check_mode::ctrl) {
    throw std::logic_error("program_builder: label is not a branch");
  }
  const std::ptrdiff_t delta =
      static_cast<std::ptrdiff_t>(ops_.size()) - static_cast<std::ptrdiff_t>(l) - 1;
  if (delta < -512 || delta > 511) throw std::out_of_range("program_builder: branch too far");
  op.offset = static_cast<std::int16_t>(delta);
}

program program_builder::take() {
  program p;
  p.ops = std::move(ops_);
  ops_.clear();
  return p;
}

}  // namespace bpntt::isa
