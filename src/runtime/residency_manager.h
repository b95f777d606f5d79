// On-array operand residency: the NTT-domain operand cache rebuilt as a
// device-resident memory model.
//
// BP-NTT's operands live *in* the SRAM subarrays — a "warm" operand is not
// an entry in a host-side table, it is n physical rows of a particular
// bank's subarray that stayed allocated between dispatches.  The residency
// manager owns that story for the whole runtime: every cached transform is
// keyed by (bank, limb prime, direction, operand digest).  A resident
// operand is always exactly n rows, so each bank is its own LRU cache of
// n-row slots, and each bank's slot count is its exact share of the
// configured `entries`: entries / banks, plus one for each of the first
// entries % banks banks.
//
// Residency is bank-local, on placement and on lookup alike.  An image is
// made resident only on the bank whose wave transformed it (the rows are
// written where the transform ran), and a lookup is served only from a
// bank the dispatch holds: an image resident on any other bank is a miss,
// and the dispatch transforms its own copy.  Two banks may therefore each
// hold a copy of one image; neither ever reads, refreshes or evicts the
// other's.  When a bank is full, its own least recently used unpinned
// entry is evicted (pinned entries — evaluation keys, long-lived constants
// — are exempt); when nothing on it can be evicted, the insert is dropped,
// never misfiled.  Every read and write of a bank's entries therefore
// happens inside a dispatch that holds the bank, which the scheduler runs
// in admission order, so residency does not depend on host timing.  A limb
// stream keeps dispatching to the same banks, so a fixed evaluation key's
// per-limb images stay warm where they are used.  Only a backend with
// device rows has residency: the context builds a manager for banked
// backends alone, and the host backends (cpu/reference) transform every
// operand.
//
// Correctness contract is unchanged from the operand cache it replaces:
// a 64-bit FNV-1a digest qualified by modulus and direction, exact-match
// coefficients guard against collisions (a collision reads as a miss,
// never wrong data), and residency may only ever change cycles, never
// outputs.
//
// Pin-vs-invalidate contract: pin() protects an operand's entries from
// *capacity eviction* only.  Explicit invalidation always wins —
// invalidate() drops pinned entries too and forgets the pin registration,
// since the operand itself is being retired.  A pin registered before the
// operand was ever inserted applies to future inserts of the same
// coefficients.
//
// Thread-safe throughout: limb dispatch groups on disjoint banks genuinely
// run concurrently, and observer threads probe size()/resident_rows() on
// live contexts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "bpntt/bank.h"
#include "telemetry/metrics.h"

namespace bpntt::telemetry {
class trace_recorder;
}

namespace bpntt::runtime {

class residency_manager {
 public:
  struct config {
    unsigned banks = 1;             // placement domains (the device's banks)
    unsigned entries = 0;           // operand budget to split; 0 disables residency
    unsigned rows_per_operand = 1;  // rows one resident operand occupies (= ring order n)
  };

  // Registers the cache.* and residency.* instruments in `registry`; a
  // non-null `rec` receives lookup/evict/pin instants and resident-row
  // counter samples.
  residency_manager(const config& cfg, telemetry::metrics_registry& registry,
                    telemetry::trace_recorder* rec = nullptr);

  residency_manager(const residency_manager&) = delete;
  residency_manager& operator=(const residency_manager&) = delete;

  // The resident image of `coeffs` under (ring_q, dir) on the first bank of
  // `banks` (the dispatch's bank set) that holds one, bumped to that bank's
  // most recently used — or std::nullopt, a miss, also when the image is
  // resident only on a bank outside `banks`.  Counts one hit or one miss.
  [[nodiscard]] std::optional<std::vector<core::u64>> lookup(core::u64 ring_q,
                                                             core::transform_dir dir,
                                                             const std::vector<core::u64>& coeffs,
                                                             const std::vector<unsigned>& banks);

  // Make transformed = NTT_{ring_q,dir}(coeffs) resident on `bank`, the
  // bank the transform executed on, and nowhere else.  When `bank` is full,
  // its least recently used unpinned entry is evicted; when it has none
  // (a zero share, or every slot pinned) the insert is dropped.  No other
  // bank's entry is ever evicted for it.  Re-inserting a key resident on
  // `bank` refreshes recency (and, on a digest collision, the payload) in
  // place; a copy on another bank is left alone.
  // std::logic_error if the device has no such bank or `coeffs` is not
  // rows_per_operand long.
  void insert(core::u64 ring_q, core::transform_dir dir, const std::vector<core::u64>& coeffs,
              std::vector<core::u64> transformed, unsigned bank);

  // Drop every entry derived from `coeffs` (all banks, rings and directions),
  // releasing their rows, pinned entries included, and forget any pin
  // registration for the operand — the retire hook for mutated or freed
  // polynomials (a rotated key, a dropped ciphertext).  Returns the number
  // of entries dropped.
  std::size_t invalidate(const std::vector<core::u64>& coeffs);

  // Pin an operand by value: pinned entries are exempt from capacity
  // eviction (see the pin-vs-invalidate contract above).  Pinning applies
  // to the operand's current entries and to future inserts of the same
  // coefficients.  Idempotent.
  void pin(const std::vector<core::u64>& coeffs);

  // Banks currently holding any entry of this limb prime, ascending — the
  // scheduler's residency-affinity hint for bank claiming.
  [[nodiscard]] std::vector<unsigned> banks_holding(core::u64 ring_q) const;

  [[nodiscard]] std::size_t size() const;
  // Rows held by resident operands, and the rows every slot could hold
  // (entries x n: the shares add up to the whole budget).
  [[nodiscard]] core::u64 resident_rows() const;
  [[nodiscard]] core::u64 capacity_rows() const noexcept {
    return static_cast<core::u64>(cfg_.entries) * cfg_.rows_per_operand;
  }
  [[nodiscard]] core::u64 hits() const noexcept { return hits_.value(); }
  [[nodiscard]] core::u64 misses() const noexcept { return misses_.value(); }
  [[nodiscard]] core::u64 evictions() const noexcept { return evictions_.value(); }
  [[nodiscard]] core::u64 resident_rows_peak() const noexcept {
    return resident_rows_peak_.value();
  }

 private:
  struct key {
    unsigned bank = 0;  // the bank whose slot holds the rows
    core::u64 ring_q = 0;
    int dir = 0;
    core::u64 digest = 0;
    auto operator<=>(const key&) const = default;
  };
  struct entry {
    std::vector<core::u64> coeffs;       // exact-match guard against digest collisions
    std::vector<core::u64> transformed;  // the resident NTT image
    std::list<key>::iterator lru;        // position in its bank's order_ list
  };

  [[nodiscard]] static core::u64 digest_of(const std::vector<core::u64>& coeffs) noexcept;
  void touch_locked(entry& e, const key& k);
  [[nodiscard]] bool pinned_registered_locked(core::u64 digest,
                                              const std::vector<core::u64>& coeffs) const;
  // Evict `bank`'s least recently used unpinned entry; returns whether
  // anything was evicted.
  bool evict_one_locked(unsigned bank);
  // Take a slot on `bank`, evicting its own entries under pressure; false
  // when the bank has no slot to give.
  [[nodiscard]] bool place_locked(unsigned bank);
  void erase_locked(std::map<key, entry>::iterator it);
  void publish_rows_locked();

  const config cfg_;
  const std::vector<unsigned> slots_;  // each bank's share of the budget
  mutable std::mutex mu_;
  std::map<key, entry> entries_;
  std::vector<std::list<key>> order_;  // per bank, most recently used first
  // Pin registrations by operand digest (exact coefficients kept per
  // registration — same collision discipline as the entries).
  std::map<core::u64, std::vector<std::vector<core::u64>>> pins_;
  telemetry::counter& hits_;
  telemetry::counter& misses_;
  telemetry::counter& evictions_;
  telemetry::gauge& resident_rows_;
  telemetry::gauge& resident_rows_peak_;
  telemetry::trace_recorder* const rec_;
};

}  // namespace bpntt::runtime
