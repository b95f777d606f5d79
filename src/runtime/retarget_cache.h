// Bounded LRU for per-modulus retarget state.
//
// Ring-overridden (RNS limb) dispatches make a backend build execution
// state for the limb prime — the sram backend a kernel library that it
// binds to its existing banks, the cpu backend a Montgomery fast-path, the
// reference backend golden tables.  Those rebuilds were cached forever, so a
// long-lived context cycling through many limb primes (per-request bases,
// key rotation) leaked one retarget entry per modulus it ever saw.  This
// cache bounds them: least-recently-dispatched moduli are evicted past the
// capacity and rebuilt on their next use.
//
// Entries are handed out as shared_ptr so eviction is lifetime-safe: a
// dispatch group still executing on an evicted entry keeps it alive until
// the dispatch returns — the map only drops its own reference.  Thread-safe
// (concurrent dispatch groups fault in different moduli at once).
#pragma once

#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "bpntt/config.h"

namespace bpntt::runtime {

// The bound every backend gives its retarget cache, in moduli.
inline constexpr std::size_t kRetargetCacheModuli = 16;

template <typename T>
class retarget_lru {
 public:
  // Capacity in moduli; at least 1 (a zero-capacity retarget cache would
  // rebuild on every dispatch).
  explicit retarget_lru(std::size_t capacity) : capacity_(capacity < 1 ? 1 : capacity) {}

  // The entry for `key`, building it via `make()` on a miss and bumping it
  // to most-recently-used either way; evicts past capacity.
  template <typename Factory>
  [[nodiscard]] std::shared_ptr<T> get(core::u64 key, Factory&& make) {
    std::unique_lock<std::mutex> lk(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      order_.erase(it->second.second);
      order_.push_front(key);
      it->second.second = order_.begin();
      return it->second.first;
    }
    // Build outside the lock: retargeting is expensive (twiddle tables) and
    // concurrent dispatches faulting in *different* moduli should not
    // serialize on it.  Re-check after reacquiring — a racing dispatch may
    // have installed the same modulus meanwhile.
    lk.unlock();
    auto built = std::make_shared<T>(make());
    lk.lock();
    it = entries_.find(key);
    if (it != entries_.end()) {
      order_.erase(it->second.second);
      order_.push_front(key);
      it->second.second = order_.begin();
      return it->second.first;
    }
    while (entries_.size() >= capacity_) {
      entries_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(key);
    entries_.emplace(key, std::make_pair(built, order_.begin()));
    return built;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::map<core::u64, std::pair<std::shared_ptr<T>, std::list<core::u64>::iterator>> entries_;
  std::list<core::u64> order_;  // most recently used first
};

}  // namespace bpntt::runtime
