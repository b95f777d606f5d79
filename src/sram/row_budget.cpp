#include "sram/row_budget.h"

#include <stdexcept>
#include <string>

namespace bpntt::sram {

row_budget::row_budget(unsigned banks, unsigned subarrays_per_bank, unsigned rows_per_subarray)
    : banks_(banks), subarrays_(subarrays_per_bank), rows_per_subarray_(rows_per_subarray) {
  if (banks_ == 0 || subarrays_ == 0) {
    throw std::invalid_argument("row_budget: needs at least one bank and one subarray");
  }
  state_.assign(static_cast<std::size_t>(banks_) * subarrays_, {});
}

std::optional<row_span> row_budget::reserve(unsigned bank, unsigned rows) {
  if (bank >= banks_) {
    throw std::invalid_argument("row_budget: reserve names bank " + std::to_string(bank) +
                                " of " + std::to_string(banks_));
  }
  if (rows == 0 || rows > rows_per_subarray_) return std::nullopt;
  for (unsigned sub = 0; sub < subarrays_; ++sub) {
    subarray_state& ss = at(bank, sub);
    // Exact-size reuse first: the working set is uniform (n rows per
    // operand), so a freed span is the natural home of the next arrival
    // and the bump frontier only grows while the subarray genuinely fills.
    for (std::size_t f = 0; f < ss.free_spans.size(); ++f) {
      if (ss.free_spans[f].rows != rows) continue;
      row_span s = ss.free_spans[f];
      ss.free_spans.erase(ss.free_spans.begin() + static_cast<long>(f));
      reserved_ += rows;
      return s;
    }
    if (ss.bump + rows <= rows_per_subarray_) {
      const row_span s{bank, sub, ss.bump, rows};
      ss.bump += rows;
      reserved_ += rows;
      return s;
    }
  }
  return std::nullopt;
}

void row_budget::release(const row_span& s) {
  if (s.bank >= banks_ || s.subarray >= subarrays_ || s.rows == 0) {
    throw std::invalid_argument("row_budget: release of a malformed span");
  }
  subarray_state& ss = at(s.bank, s.subarray);
  ss.free_spans.push_back(s);
  reserved_ -= s.rows;
}

}  // namespace bpntt::sram
