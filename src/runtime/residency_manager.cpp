#include "runtime/residency_manager.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "telemetry/trace.h"

namespace bpntt::runtime {

namespace {

// A per-lookup instant on the cache track, stamped at the recorder's
// virtual-time watermark (the residency manager never sees frontier values
// itself); a = the limb prime so merged-limb traces separate per modulus.
void note_lookup(telemetry::trace_recorder* rec, bool hit, core::u64 ring_q) {
  if (rec == nullptr) return;
  rec->record({.ts = rec->watermark(),
               .dur = 0,
               .a = ring_q,
               .track = telemetry::kTrackCache,
               .arg = 0,
               .op = hit ? telemetry::trace_op::cache_hit : telemetry::trace_op::cache_miss});
}

// A residency lifecycle instant (evict / pin / move) on the cache
// track; a = the limb prime (or digest for pins, which are ring-agnostic),
// arg = the bank involved.
void note_instant(telemetry::trace_recorder* rec, telemetry::trace_op op, core::u64 a,
                  std::uint32_t arg) {
  if (rec == nullptr) return;
  rec->record({.ts = rec->watermark(), .dur = 0, .a = a, .track = telemetry::kTrackCache,
               .arg = arg, .op = op});
}

// Each bank's exact share of the budget: entries / banks slots, plus one
// more for each of the first entries % banks banks.
std::vector<unsigned> slots_per_bank(const residency_manager::config& cfg) {
  if (cfg.banks == 0 || cfg.rows_per_operand == 0) {
    throw std::invalid_argument("residency_manager: banks/rows must be >= 1");
  }
  std::vector<unsigned> slots(cfg.banks, cfg.entries / cfg.banks);
  for (unsigned b = 0; b < cfg.entries % cfg.banks; ++b) ++slots[b];
  return slots;
}

}  // namespace

residency_manager::residency_manager(const config& cfg, telemetry::metrics_registry& registry,
                                     telemetry::trace_recorder* rec)
    : cfg_(cfg),
      slots_(slots_per_bank(cfg)),
      used_(cfg.banks, 0),
      hits_(registry.make_counter("cache.hits")),
      misses_(registry.make_counter("cache.misses")),
      evictions_(registry.make_counter("residency.evictions")),
      moves_(registry.make_counter("residency.moves")),
      resident_rows_(registry.make_gauge("residency.resident_rows")),
      resident_rows_peak_(registry.make_gauge("residency.resident_rows_peak")),
      rec_(rec) {}

core::u64 residency_manager::digest_of(const std::vector<core::u64>& coeffs) noexcept {
  // FNV-1a over the coefficient words plus the length, 64-bit.
  core::u64 h = 1469598103934665603ULL;
  const auto mix = [&h](core::u64 word) {
    for (unsigned byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFFULL;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<core::u64>(coeffs.size()));
  for (const core::u64 c : coeffs) mix(c);
  return h;
}

void residency_manager::touch_locked(entry& e, const key& k) {
  order_.erase(e.lru);
  order_.push_front(k);
  e.lru = order_.begin();
}

bool residency_manager::pinned_registered_locked(core::u64 digest,
                                                 const std::vector<core::u64>& coeffs) const {
  const auto it = pins_.find(digest);
  if (it == pins_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&coeffs](const std::vector<core::u64>& c) { return c == coeffs; });
}

void residency_manager::publish_rows_locked() {
  const core::u64 rows = static_cast<core::u64>(entries_.size()) * cfg_.rows_per_operand;
  resident_rows_.set(rows);
  resident_rows_peak_.set_max(rows);
  if (rec_ != nullptr) {
    rec_->record({.ts = rec_->watermark(), .dur = 0, .a = rows,
                  .track = telemetry::kTrackCache, .arg = 0,
                  .op = telemetry::trace_op::resident_rows});
  }
}

bool residency_manager::evict_one_locked(unsigned bank) {
  // order_ front = most recent; evict from the back, skipping pinned
  // entries and entries resident on other banks.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const auto ent = entries_.find(*it);
    if (ent == entries_.end()) continue;  // unreachable; defensive
    if (ent->second.bank != bank) continue;
    if (pinned_registered_locked(ent->first.digest, ent->second.coeffs)) continue;
    const core::u64 ring_q = ent->first.ring_q;
    erase_locked(ent);
    evictions_.add();
    note_instant(rec_, telemetry::trace_op::resident_evict, ring_q, bank);
    publish_rows_locked();
    return true;
  }
  return false;
}

bool residency_manager::place_locked(unsigned bank) {
  while (used_[bank] == slots_[bank]) {
    if (!evict_one_locked(bank)) return false;
  }
  ++used_[bank];
  return true;
}

std::optional<residency_manager::hit> residency_manager::lookup(
    core::u64 ring_q, core::transform_dir dir, const std::vector<core::u64>& coeffs) {
  const key k{ring_q, static_cast<int>(dir), digest_of(coeffs)};
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find(k);
  if (it == entries_.end() || it->second.coeffs != coeffs) {
    misses_.add();
    note_lookup(rec_, /*hit=*/false, ring_q);
    return std::nullopt;
  }
  touch_locked(it->second, k);
  hits_.add();
  note_lookup(rec_, /*hit=*/true, ring_q);
  return hit{it->second.transformed, it->second.bank};
}

void residency_manager::insert(core::u64 ring_q, core::transform_dir dir,
                               const std::vector<core::u64>& coeffs,
                               std::vector<core::u64> transformed, unsigned bank) {
  if (bank >= cfg_.banks) {
    throw std::logic_error("residency_manager: insert names bank " + std::to_string(bank) +
                           " but the device has " + std::to_string(cfg_.banks) + " banks");
  }
  if (coeffs.size() != cfg_.rows_per_operand) {
    throw std::logic_error("residency_manager: insert of a " + std::to_string(coeffs.size()) +
                           "-coefficient operand, resident operands are " +
                           std::to_string(cfg_.rows_per_operand) + " rows");
  }
  const key k{ring_q, static_cast<int>(dir), digest_of(coeffs)};
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find(k);
  if (it != entries_.end()) {
    it->second.coeffs = coeffs;
    it->second.transformed = std::move(transformed);
    touch_locked(it->second, k);
    return;
  }
  if (!place_locked(bank)) return;  // a zero share or all pinned: drop, never misfile
  order_.push_front(k);
  entries_.emplace(k, entry{coeffs, std::move(transformed), bank, order_.begin()});
  publish_rows_locked();
}

std::size_t residency_manager::invalidate(const std::vector<core::u64>& coeffs) {
  const core::u64 digest = digest_of(coeffs);
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.digest == digest && it->second.coeffs == coeffs) {
      const auto next = std::next(it);
      erase_locked(it);
      it = next;
      ++dropped;
    } else {
      ++it;
    }
  }
  // Retiring the operand retires its pin registration too: a later
  // insertion of the same value is a fresh operand on probation, not a
  // resurrection of the old pinned resident.
  const auto pit = pins_.find(digest);
  if (pit != pins_.end()) {
    auto& regs = pit->second;
    regs.erase(std::remove(regs.begin(), regs.end(), coeffs), regs.end());
    if (regs.empty()) pins_.erase(pit);
  }
  if (dropped != 0) publish_rows_locked();
  return dropped;
}

void residency_manager::erase_locked(std::map<key, entry>::iterator it) {
  --used_[it->second.bank];
  order_.erase(it->second.lru);
  entries_.erase(it);
}

void residency_manager::pin(const std::vector<core::u64>& coeffs) {
  const core::u64 digest = digest_of(coeffs);
  std::lock_guard<std::mutex> lk(mu_);
  if (!pinned_registered_locked(digest, coeffs)) pins_[digest].push_back(coeffs);
  note_instant(rec_, telemetry::trace_op::resident_pin, digest, 0);
}

std::vector<unsigned> residency_manager::banks_holding(core::u64 ring_q) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::set<unsigned> banks;
  for (const auto& [k, e] : entries_) {
    if (k.ring_q == ring_q) banks.insert(e.bank);
  }
  return {banks.begin(), banks.end()};
}

void residency_manager::note_move(core::u64 ring_q, unsigned from_bank) {
  std::lock_guard<std::mutex> lk(mu_);
  moves_.add();
  note_instant(rec_, telemetry::trace_op::resident_move, ring_q, from_bank);
}

std::size_t residency_manager::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

core::u64 residency_manager::resident_rows() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<core::u64>(entries_.size()) * cfg_.rows_per_operand;
}

}  // namespace bpntt::runtime
