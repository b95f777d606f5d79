#include "telemetry/trace.h"

#include <algorithm>
#include <stdexcept>

namespace bpntt::telemetry {

const char* to_string(trace_op op) noexcept {
  switch (op) {
    case trace_op::ntt_forward: return "ntt_forward";
    case trace_op::ntt_inverse: return "ntt_inverse";
    case trace_op::polymul: return "polymul";
    case trace_op::rescale: return "rescale";
    case trace_op::base_extend: return "base_extend";
    case trace_op::group_enqueue: return "group_enqueue";
    case trace_op::bank_claim: return "bank_claim";
    case trace_op::merge_absorb: return "merge_absorb";
    case trace_op::preempt_yield: return "preempt_yield";
    case trace_op::deadline_miss: return "deadline_miss";
    case trace_op::cache_hit: return "cache_hit";
    case trace_op::cache_miss: return "cache_miss";
    case trace_op::backend_batch: return "backend_batch";
    case trace_op::ticket_admit: return "ticket_admit";
    case trace_op::ticket_complete: return "ticket_complete";
    case trace_op::queue_depth: return "queue_depth";
    case trace_op::resident_evict: return "resident_evict";
    case trace_op::resident_pin: return "resident_pin";
    case trace_op::affinity_hit: return "affinity_hit";
    case trace_op::resident_rows: return "resident_rows";
  }
  return "unknown";
}

trace_recorder::trace_recorder(std::size_t capacity) : slots_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("trace_recorder: capacity must be >= 1");
  }
}

void trace_recorder::record(const trace_event& e) noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  slots_[next_] = e;
  next_ = next_ + 1 == slots_.size() ? 0 : next_ + 1;
  if (size_ == slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++size_;
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

u64 trace_recorder::events_recorded() const noexcept {
  return recorded_.load(std::memory_order_relaxed);
}

u64 trace_recorder::events_dropped() const noexcept {
  return dropped_.load(std::memory_order_relaxed);
}

void trace_recorder::set_watermark(u64 vtime) noexcept {
  u64 cur = watermark_.load(std::memory_order_relaxed);
  while (cur < vtime &&
         !watermark_.compare_exchange_weak(cur, vtime, std::memory_order_relaxed)) {
  }
}

u64 trace_recorder::watermark() const noexcept {
  return watermark_.load(std::memory_order_relaxed);
}

std::vector<trace_event> trace_recorder::snapshot_events() const {
  std::vector<trace_event> out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out.reserve(size_);
    const std::size_t cap = slots_.size();
    for (std::size_t i = cap + next_ - size_; out.size() < size_; ++i) {
      out.push_back(slots_[i % cap]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const trace_event& a, const trace_event& b) { return a.ts < b.ts; });
  return out;
}

void trace_recorder::clear() noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  size_ = 0;
}

}  // namespace bpntt::telemetry
