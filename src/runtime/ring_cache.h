// The rings a backend dispatches on, one record per modulus.
//
// Every backend runs its configured ring plus, for ring-overridden (RNS
// limb) dispatches, one ring per limb prime — the sram backend a kernel
// library that it binds to its existing banks, the cpu backend a Montgomery
// fast path, the reference backend golden tables.  This cache owns all of
// them and the one rule that picks between them: ring override 0, or the
// configured modulus when the configured ring is the full negacyclic one,
// selects the configured ring; any other modulus selects a limb ring with
// the configured order and tile width at that modulus, always full
// negacyclic (so an incomplete configured ring overridden at its own q
// still retargets, and every backend runs the same transform).
//
// The configured ring is built with the cache and held for its lifetime.
// Limb rings are built lazily and LRU-bounded (kRetargetCacheModuli): a
// long-lived context cycling through many limb primes (per-request bases,
// key rotation) evicts the least-recently-dispatched ones and rebuilds them
// on their next use.  Rings are handed out as shared_ptr so eviction is
// lifetime-safe: a dispatch still executing on an evicted ring keeps it
// alive until the dispatch returns.  Thread-safe (concurrent dispatch
// groups fault in different moduli at once).
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "bpntt/config.h"

namespace bpntt::runtime {

// The bound on every backend's limb rings, in moduli.
inline constexpr std::size_t kRetargetCacheModuli = 16;

template <typename Ring>
class ring_cache {
 public:
  // Builds one ring from its parameters; called once for the configured
  // ring here and once per limb-ring miss.
  using factory = std::function<std::shared_ptr<Ring>(const core::ntt_params&)>;

  ring_cache(const core::ntt_params& configured, factory make)
      : params_(configured), make_(std::move(make)), configured_(make_(params_)) {}

  // The ring a dispatch with ring override `ring_q` runs on.
  [[nodiscard]] std::shared_ptr<Ring> get(core::u64 ring_q) {
    if (ring_q == 0 || (ring_q == params_.q && !params_.incomplete)) return configured_;
    std::unique_lock<std::mutex> lk(mu_);
    if (auto hit = touch(ring_q)) return hit;
    // Build outside the lock: a ring is expensive (twiddle tables) and
    // concurrent dispatches faulting in *different* moduli should not
    // serialize on it.  Re-check after reacquiring — a racing dispatch may
    // have installed the same modulus meanwhile.
    lk.unlock();
    core::ntt_params limb = params_;
    limb.q = ring_q;
    limb.incomplete = false;
    std::shared_ptr<Ring> built = make_(limb);
    lk.lock();
    if (auto hit = touch(ring_q)) return hit;
    while (entries_.size() >= kRetargetCacheModuli) {
      entries_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(ring_q);
    entries_.emplace(ring_q, std::make_pair(built, order_.begin()));
    return built;
  }

  // Limb rings currently held; the configured ring is not counted.
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
  }

 private:
  // The held limb ring for `q`, bumped to most-recently-used; nullptr on a
  // miss.  Caller holds mu_.
  std::shared_ptr<Ring> touch(core::u64 q) {
    auto it = entries_.find(q);
    if (it == entries_.end()) return nullptr;
    order_.erase(it->second.second);
    order_.push_front(q);
    it->second.second = order_.begin();
    return it->second.first;
  }

  const core::ntt_params params_;
  const factory make_;
  const std::shared_ptr<Ring> configured_;
  mutable std::mutex mu_;
  std::map<core::u64, std::pair<std::shared_ptr<Ring>, std::list<core::u64>::iterator>> entries_;
  std::list<core::u64> order_;  // most recently used first
};

}  // namespace bpntt::runtime
