// Per-subarray row-budget accounting for device-resident operands.
//
// BP-NTT's operands live *in* the data subarrays: an operand that stays
// resident between dispatches occupies n physical rows of some subarray
// until it is released.  This module is the capacity ledger the runtime's
// residency manager charges against — reserve() hands out a concrete
// (bank, subarray, row range) placement or refuses because the budget is
// exhausted, release() returns the rows.  Row arithmetic only; which
// operand lives where (and who gets evicted) is the residency manager's
// policy, not this ledger's.
//
// Placement within a bank is first-fit over its subarrays: a released
// span's exact row range is reused before the bump pointer grows, so the
// steady state of a same-sized working set (every NTT operand is n rows)
// never fragments.
//
// NOT internally synchronized — the owning residency manager serializes
// every call under its own mutex (the same contract bank models have with
// the scheduler's claims).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace bpntt::sram {

// One resident allocation: `rows` physical rows of one subarray, starting
// at first_row.  Value type — the residency manager stores it per entry
// and hands it back verbatim on release.
struct row_span {
  unsigned bank = 0;
  unsigned subarray = 0;
  unsigned first_row = 0;
  unsigned rows = 0;

  [[nodiscard]] bool operator==(const row_span&) const = default;
};

class row_budget {
 public:
  // banks x subarrays_per_bank regions of rows_per_subarray reservable
  // rows each.  rows_per_subarray may be 0 (every reserve refuses) — the
  // disabled-residency configuration.
  row_budget(unsigned banks, unsigned subarrays_per_bank, unsigned rows_per_subarray);

  // Reserve `rows` contiguous rows on the named bank; first-fit over its
  // subarrays (freed exact-size spans first, then the bump frontier).
  // std::nullopt when no subarray of the bank can host the span.
  [[nodiscard]] std::optional<row_span> reserve(unsigned bank, unsigned rows);

  // Return a span handed out by reserve().  Releasing foreign spans is a
  // logic error upstream; the ledger only checks shape.
  void release(const row_span& s);

  [[nodiscard]] unsigned banks() const noexcept { return banks_; }
  [[nodiscard]] unsigned subarrays_per_bank() const noexcept { return subarrays_; }
  [[nodiscard]] unsigned rows_per_subarray() const noexcept { return rows_per_subarray_; }

  // Occupancy probes: rows currently reserved on the whole device and the
  // total reservable capacity.
  [[nodiscard]] std::uint64_t reserved_rows() const noexcept { return reserved_; }
  [[nodiscard]] std::uint64_t capacity_rows() const noexcept {
    return static_cast<std::uint64_t>(banks_) * subarrays_ * rows_per_subarray_;
  }

 private:
  struct subarray_state {
    unsigned bump = 0;                  // rows handed out past every freed span
    std::vector<row_span> free_spans;   // released, reusable at exact size
  };

  [[nodiscard]] subarray_state& at(unsigned bank, unsigned subarray) {
    return state_[static_cast<std::size_t>(bank) * subarrays_ + subarray];
  }

  unsigned banks_;
  unsigned subarrays_;
  unsigned rows_per_subarray_;
  std::uint64_t reserved_ = 0;
  std::vector<subarray_state> state_;
};

}  // namespace bpntt::sram
