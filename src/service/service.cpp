#include "service/service.h"

#include <utility>

#include "telemetry/trace.h"

namespace bpntt::service {

using std::chrono::steady_clock;

const char* to_string(admission_reason r) noexcept {
  switch (r) {
    case admission_reason::queue_full:
      return "queue_full";
    case admission_reason::session_backlog:
      return "session_backlog";
    case admission_reason::session_in_flight:
      return "session_in_flight";
    case admission_reason::closed:
      return "closed";
  }
  return "?";
}

// ---- ticket ----------------------------------------------------------------

runtime::job_result ticket::get() {
  if (!st_) {
    throw std::logic_error("service: ticket is empty (default-constructed)");
  }
  std::unique_lock<std::mutex> lk(st_->mu);
  st_->cv.wait(lk, [&] { return st_->done; });
  if (st_->claimed) {
    throw std::logic_error("service: ticket result already claimed");
  }
  st_->claimed = true;
  return std::move(st_->res);
}

bool ticket::ready() const noexcept {
  if (!st_) return false;
  std::lock_guard<std::mutex> lk(st_->mu);
  return st_->done;
}

// ---- session handle --------------------------------------------------------

ticket session::submit(runtime::job j) {
  if (svc_ == nullptr) throw std::logic_error("service: session handle is not bound");
  return svc_->admit(id_, std::move(j));
}
void session::close() {
  if (svc_ == nullptr) throw std::logic_error("service: session handle is not bound");
  svc_->close_session(id_);
}
service_stats session::stats() const {
  if (svc_ == nullptr) throw std::logic_error("service: session handle is not bound");
  return svc_->session_stats(id_);
}

// ---- service lifecycle -----------------------------------------------------

namespace {

std::size_t checked_queue_capacity(const service_options& sopts) {
  if (sopts.queue_capacity == 0) {
    throw std::invalid_argument("service: queue_capacity must be >= 1");
  }
  return sopts.queue_capacity;
}

}  // namespace

service::service(runtime::runtime_options ropts, service_options sopts)
    : ctx_(std::move(ropts)), queue_(checked_queue_capacity(sopts)) {
  drainer_ = std::thread([this] { drain_loop(); });
}

service::service(runtime::runtime_options ropts,
                 std::unique_ptr<runtime::backend> custom_backend, service_options sopts)
    : ctx_(std::move(ropts), std::move(custom_backend)),
      queue_(checked_queue_capacity(sopts)) {
  drainer_ = std::thread([this] { drain_loop(); });
}

service::~service() {
  closed_.store(true, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);
  queue_.wake();
  if (drainer_.joinable()) drainer_.join();
}

session service::open_session(session_options o) {
  if (o.max_queued == 0 || o.max_in_flight == 0) {
    throw std::invalid_argument(
        "service: session caps max_queued and max_in_flight must be >= 1");
  }
  if (closed_.load(std::memory_order_acquire)) {
    throw admission_error(admission_reason::closed, "service is shutting down");
  }
  auto ss = std::make_shared<session_state>();
  ss->opts = o;
  std::lock_guard<std::mutex> lk(sessions_mu_);
  const unsigned sid = next_session_++;
  sessions_.emplace(sid, std::move(ss));
  return session(this, sid);
}

std::shared_ptr<service::session_state> service::session_of(unsigned sid) const {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  const auto it = sessions_.find(sid);
  if (it == sessions_.end()) {
    throw std::logic_error("service: session handle is foreign to this service");
  }
  return it->second;
}

void service::close_session(unsigned sid) {
  session_of(sid)->closed.store(true, std::memory_order_release);
  // Nudge the drainer so the tenant's stream retires promptly even when
  // the service is otherwise idle.
  queue_.wake();
}

// ---- admission (client threads) --------------------------------------------

ticket service::admit(unsigned sid, runtime::job j) {
  auto sess = session_of(sid);
  sess->submitted.fetch_add(1, std::memory_order_relaxed);
  submitted_.add();

  const auto reject = [&](admission_reason r, std::atomic<u64>& session_ctr,
                          telemetry::counter& global_ctr, const std::string& what) -> ticket {
    session_ctr.fetch_add(1, std::memory_order_relaxed);
    global_ctr.add();
    throw admission_error(r, what);
  };

  if (closed_.load(std::memory_order_acquire) || sess->closed.load(std::memory_order_acquire)) {
    return reject(admission_reason::closed, sess->rej_closed, rej_closed_,
                  "session " + std::to_string(sid) + " is closed");
  }
  // In-flight cap: checked before claiming a backlog slot so a tenant
  // saturating the backend is pushed back immediately.  Both caps are
  // enforced with atomics — concurrent submitters may transiently observe
  // the cap a few entries late, never unboundedly.
  if (sess->in_flight.load(std::memory_order_acquire) >= sess->opts.max_in_flight) {
    return reject(admission_reason::session_in_flight, sess->rej_in_flight, rej_in_flight_,
                  "session " + std::to_string(sid) + " is at its in-flight cap (" +
                      std::to_string(sess->opts.max_in_flight) + ")");
  }
  if (sess->queued.fetch_add(1, std::memory_order_acq_rel) + 1 > sess->opts.max_queued) {
    sess->queued.fetch_sub(1, std::memory_order_acq_rel);
    return reject(admission_reason::session_backlog, sess->rej_backlog, rej_backlog_,
                  "session " + std::to_string(sid) + " is at its backlog cap (" +
                      std::to_string(sess->opts.max_queued) + ")");
  }

  auto st = std::make_shared<ticket::state>();
  submission sub;
  sub.sess = sess;
  sub.st = st;
  sub.job = std::move(j);
  sub.t_submit = steady_clock::now();

  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  if (!queue_.try_push(std::move(sub))) {
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    sess->queued.fetch_sub(1, std::memory_order_acq_rel);
    return reject(admission_reason::queue_full, sess->rej_queue_full, rej_queue_full_,
                  "submission ring is full (" + std::to_string(queue_.capacity()) + " slots)");
  }
  sess->admitted.fetch_add(1, std::memory_order_relaxed);
  admitted_.add();
  return ticket(st);
}

// ---- drainer ---------------------------------------------------------------

void service::ensure_stream(const std::shared_ptr<session_state>& sess) {
  if (sess->has_stream) return;
  const auto& o = sess->opts;
  runtime::stream_options so;
  so.priority = o.priority;
  so.deadline_cycles = o.deadline_cycles;
  so.ring_q = o.ring_q;
  so.chunk_budget = o.chunk_budget;
  sess->stream = ctx_.stream(std::move(so));
  sess->has_stream = true;
  streamed_sessions_.push_back(sess);
}

void service::retire_idle_streams() {
  for (auto it = streamed_sessions_.begin(); it != streamed_sessions_.end();) {
    session_state& ss = **it;
    const bool idle = ss.closed.load(std::memory_order_acquire) &&
                      ss.queued.load(std::memory_order_acquire) == 0 &&
                      ss.in_flight.load(std::memory_order_acquire) == 0;
    if (!idle) {
      ++it;
      continue;
    }
    ss.stream.close();
    ss.has_stream = false;
    it = streamed_sessions_.erase(it);
  }
}

bool service::dispatch(submission&& s, std::map<runtime::job_id, inflight_rec>& inflight) {
  auto sess = std::move(s.sess);
  runtime::job_id id = 0;
  try {
    ensure_stream(sess);
    id = sess->stream.submit(std::move(s.job));
  } catch (const std::exception& e) {
    // Deep validation failed (bad coefficients, capability mismatch, a
    // rescale naming the wrong limb...): the admission already happened, so the
    // rejection is delivered as a failed result, not an exception on the
    // submitting thread.
    sess->queued.fetch_sub(1, std::memory_order_acq_rel);
    runtime::job_result r;
    r.status = runtime::job_status::failed;
    r.error = e.what();
    deliver(*sess, s.st, s.t_submit, std::move(r));
    return false;
  }
  sess->queued.fetch_sub(1, std::memory_order_acq_rel);
  sess->in_flight.fetch_add(1, std::memory_order_acq_rel);
  // Queue wait: admission to stream dispatch — the ring + drainer share of
  // end-to-end latency, the number a saturated service inflates first.
  const auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           steady_clock::now() - s.t_submit)
                           .count();
  queue_wait_ns_.record(static_cast<u64>(wait_ns));
  if (auto* rec = ctx_.tracer()) {
    rec->record({.ts = rec->watermark(),
                 .dur = 0,
                 .a = static_cast<u64>(wait_ns),
                 .track = telemetry::kTrackService,
                 .arg = 0,
                 .op = telemetry::trace_op::ticket_admit});
  }
  inflight.emplace(id, inflight_rec{std::move(sess), std::move(s.st), s.t_submit});
  return true;
}

void service::deliver(session_state& ss, const std::shared_ptr<ticket::state>& st,
                      steady_clock::time_point t_submit, runtime::job_result&& r) {
  const auto lat = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       steady_clock::now() - t_submit)
                       .count();
  const bool ok = r.status == runtime::job_status::ok;
  const bool missed = r.deadline_missed;
  // Service-wide outcome counters and distributions live in the registry;
  // only the per-session mirrors still ride stats_mu_.
  latency_ns_.record(static_cast<u64>(lat));
  exec_cycles_.record(r.wall_cycles);
  (ok ? completed_ : failed_).add();
  if (missed) deadline_misses_.add();
  if (auto* rec = ctx_.tracer()) {
    rec->record({.ts = rec->watermark(),
                 .dur = 0,
                 .a = static_cast<u64>(lat),
                 .track = telemetry::kTrackService,
                 .arg = ok ? 0u : 1u,
                 .op = telemetry::trace_op::ticket_complete});
  }
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ss.latency.record_ns(static_cast<u64>(lat));
    if (ok) {
      ++ss.completed;
    } else {
      ++ss.failed;
    }
    if (missed) ++ss.deadline_misses;
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    drained_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lk(st->mu);
    st->res = std::move(r);
    st->done = true;
  }
  st->cv.notify_all();
}

void service::drain_loop() {
  std::map<runtime::job_id, inflight_rec> inflight;
  for (;;) {
    bool progress = false;
    bool flush_needed = false;
    submission s;
    // Drain the ring: every popped submission lands on its tenant's
    // stream, so one flush below turns this round's submissions into one
    // dispatch group per tenant — the batching the scheduler feeds on.
    while (queue_.try_pop(s)) {
      progress = true;
      flush_needed = dispatch(std::move(s), inflight) || flush_needed;
    }
    if (flush_needed) ctx_.flush();

    // Harvest completions and fulfill tickets.
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (auto r = ctx_.try_wait(it->first)) {
        inflight_rec rec = std::move(it->second);
        it = inflight.erase(it);
        // Drop the gauge before the ticket resolves, so a client that saw
        // get() return never observes itself still counted in flight.
        rec.sess->in_flight.fetch_sub(1, std::memory_order_acq_rel);
        deliver(*rec.sess, rec.st, rec.t_submit, std::move(*r));
        progress = true;
      } else {
        ++it;
      }
    }

    retire_idle_streams();
    if (progress) continue;
    if (stopping_.load(std::memory_order_acquire) && queue_.empty() && inflight.empty()) {
      break;
    }
    // Idle: sleep until a submission or wake() arrives or the poll interval
    // lapses (in-flight work completes on pool threads without a
    // notification, so the timeout doubles as the completion poll).
    queue_.wait_for(inflight.empty() ? std::chrono::microseconds(500)
                                     : std::chrono::microseconds(50));
  }
}

// ---- stats -----------------------------------------------------------------

namespace {

void fill_quantiles(service_stats& s, const latency_histogram& h) {
  s.latency_samples = h.count();
  s.p50_ns = h.quantile_ns(0.50);
  s.p95_ns = h.quantile_ns(0.95);
  s.p99_ns = h.quantile_ns(0.99);
  s.max_ns = h.max_ns();
}

}  // namespace

service_stats service::stats() const {
  service_stats s;
  // Outcome counters first, `submitted` last: each admission bumps
  // submitted before any outcome, so a concurrent snapshot never shows
  // more outcomes than submissions.  All reads come straight from the
  // registry instruments the hot paths update — nothing is mirrored.
  s.admitted = admitted_.value();
  s.rejected_queue_full = rej_queue_full_.value();
  s.rejected_backlog = rej_backlog_.value();
  s.rejected_in_flight = rej_in_flight_.value();
  s.rejected_closed = rej_closed_.value();
  s.completed = completed_.value();
  s.failed = failed_.value();
  s.deadline_misses = deadline_misses_.value();
  s.submitted = submitted_.value();
  s.rejected = s.rejected_queue_full + s.rejected_backlog + s.rejected_in_flight +
               s.rejected_closed;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (const auto& [sid, sess] : sessions_) {
      s.queued += sess->queued.load(std::memory_order_acquire);
      s.in_flight += sess->in_flight.load(std::memory_order_acquire);
    }
  }
  {
    const runtime::scheduler_stats rs = ctx_.stats();
    s.groups_merged = rs.groups_merged;
    s.preemption_yields = rs.preemption_yields;
  }
  fill_quantiles(s, latency_ns_.snapshot());
  return s;
}

service_stats service::session_stats(unsigned sid) const {
  const auto sess = session_of(sid);
  service_stats s;
  s.admitted = sess->admitted.load(std::memory_order_relaxed);
  s.rejected_queue_full = sess->rej_queue_full.load(std::memory_order_relaxed);
  s.rejected_backlog = sess->rej_backlog.load(std::memory_order_relaxed);
  s.rejected_in_flight = sess->rej_in_flight.load(std::memory_order_relaxed);
  s.rejected_closed = sess->rej_closed.load(std::memory_order_relaxed);
  s.submitted = sess->submitted.load(std::memory_order_acquire);
  s.rejected = s.rejected_queue_full + s.rejected_backlog + s.rejected_in_flight +
               s.rejected_closed;
  s.queued = sess->queued.load(std::memory_order_acquire);
  s.in_flight = sess->in_flight.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lk(stats_mu_);
  s.completed = sess->completed;
  s.failed = sess->failed;
  s.deadline_misses = sess->deadline_misses;
  fill_quantiles(s, sess->latency);
  return s;
}

void service::export_trace(const std::string& path) const {
  const u64 outstanding = outstanding_.load(std::memory_order_acquire);
  if (outstanding != 0) {
    throw std::logic_error("service: export_trace needs a drained service (" +
                           std::to_string(outstanding) +
                           " admitted jobs outstanding) — call drain() first");
  }
  ctx_.export_trace(path);
}

void service::drain() {
  std::unique_lock<std::mutex> lk(stats_mu_);
  drained_cv_.wait(lk, [&] { return outstanding_.load(std::memory_order_acquire) == 0; });
}

}  // namespace bpntt::service
