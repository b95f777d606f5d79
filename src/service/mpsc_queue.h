// Bounded multi-producer / single-consumer queue — the service layer's
// submission ring.
//
// Any number of client threads push typed submissions; one consumer (the
// service's drainer thread) pops them in arrival order.  A std::deque
// behind one mutex carries the traffic: a push or a pop holds the lock for
// one move, far below the cost of the job it carries.
//
// try_push fails (returns false) when the queue holds capacity() items —
// the service turns that into a typed admission_error instead of blocking a
// client thread or growing without bound.
//
// The consumer sleeps in wait_for(), which checks for queued items under
// the same lock a push takes, so a submission that lands just before the
// wait is never slept through.  wake() ends one wait (or the next, when no
// one is waiting yet) for reasons outside the queue, e.g. shutdown.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace bpntt::service {

template <typename T>
class mpsc_queue {
 public:
  explicit mpsc_queue(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("mpsc_queue: capacity must be >= 1");
    }
  }

  mpsc_queue(const mpsc_queue&) = delete;
  mpsc_queue& operator=(const mpsc_queue&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  // Enqueue: true on success, false when the queue is full.
  bool try_push(T&& v) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (items_.size() == capacity_) return false;
      items_.push_back(std::move(v));
    }
    cv_.notify_one();
    return true;
  }

  // Dequeue: true with the front value, false when empty.  The queue keeps
  // no reference to a popped payload.
  bool try_pop(T& out) {
    std::lock_guard<std::mutex> lk(mu_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  [[nodiscard]] bool empty() const {
    std::lock_guard<std::mutex> lk(mu_);
    return items_.empty();
  }

  // End the consumer's current wait_for, or its next one if it is not
  // waiting yet.
  void wake() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      woken_ = true;
    }
    cv_.notify_all();
  }

  // Sleep until an item is queued, wake() is called or the timeout lapses;
  // returns at once if either already happened.  Consumes the wake().
  void wait_for(std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, timeout, [&] { return woken_ || !items_.empty(); });
    woken_ = false;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool woken_ = false;
};

}  // namespace bpntt::service
