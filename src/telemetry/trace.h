// bpntt::telemetry::trace_recorder — a bounded span recorder for the
// runtime's virtual timeline.
//
// Aggregate counters say *that* a soak run missed deadlines or stopped
// merging; a trace says *which dispatch on which bank* did it.  Every
// layer that already computes virtual-timeline positions (the scheduler's
// per-bank frontiers, the context's distribution paths) stamps fixed-size
// trace_event records here; export_trace() turns the buffer into Chrome
// trace-event JSON that opens directly in Perfetto.
//
// Design: one bounded ring under one mutex.  Recording threads — the
// client thread, the executor pool, the service drainer — each take the
// lock for a struct copy.  A full ring *drops its oldest event* and counts
// it in events_dropped() — tracing is an observability aid, it must never
// block on a consumer or allocate under load.
//
// Virtual-time watermark: layers that do not see frontier values flow past
// them (the operand cache, backend batch hooks) stamp instants at
// watermark() — the highest virtual time the scheduler has accounted so
// far, maintained via set_watermark(). It is monotonic and approximate by
// construction; spans, which carry exact start/duration, never use it.
//
// Threading: every member is safe from any thread at any time.  The lock
// is a leaf — nothing else is acquired while it is held.  The counters and
// the watermark are atomics, read without the lock.
//
// The disabled path is zero-cost by absence: a context without
// runtime_options::with_tracing() holds no recorder at all — every
// instrumentation site is a null-pointer test, no ring is allocated, no
// event is ever constructed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace bpntt::telemetry {

using u64 = std::uint64_t;
using u32 = std::uint32_t;

// What an event marks.  Span ops ride bank tracks with an exact
// [ts, ts+dur) extent on the virtual timeline; the rest are instants or
// counter samples on the synthetic tracks below.
enum class trace_op : std::uint8_t {
  // Dispatch spans (track = bank id, dur = batch wall_cycles).
  ntt_forward = 0,
  ntt_inverse,
  polymul,
  rescale,
  base_extend,
  // Scheduler lifecycle instants (track = kTrackScheduler).
  group_enqueue,
  bank_claim,
  merge_absorb,
  preempt_yield,
  deadline_miss,
  // Operand-cache instants (track = kTrackCache).
  cache_hit,
  cache_miss,
  // Backend execution instants (track = kTrackBackend; a = wall_cycles).
  backend_batch,
  // Service ticket instants (track = kTrackService; a = queue-wait ns).
  ticket_admit,
  ticket_complete,
  // Counter sample (track = kTrackScheduler; a = ready-queue depth).
  queue_depth,
  // Residency lifecycle instants (track = kTrackCache; arg = bank).
  resident_evict,
  resident_pin,
  // Scheduler claimed a bank already holding the group's limb (track =
  // kTrackScheduler; a = group seq).
  affinity_hit,
  // Counter sample (track = kTrackCache; a = device rows reserved).
  resident_rows,
};

[[nodiscard]] const char* to_string(trace_op op) noexcept;

// Synthetic track ids for events that do not belong to a hardware bank.
// Bank spans use track = global bank id (always far below these).
inline constexpr u32 kTrackScheduler = 0xFFFFFF00u;
inline constexpr u32 kTrackCache = 0xFFFFFF01u;
inline constexpr u32 kTrackBackend = 0xFFFFFF02u;
inline constexpr u32 kTrackService = 0xFFFFFF03u;

// One fixed-size record.  POD by design: ring slots are preallocated and
// recording is a struct copy — no allocation, no indirection.
struct trace_event {
  u64 ts = 0;     // virtual-time start (cycles)
  u64 dur = 0;    // span extent in cycles; 0 for instants / counter samples
  u64 a = 0;      // op-specific payload (job count, counter value, ns, ...)
  u32 track = 0;  // bank id, or one of the kTrack* synthetic tracks
  u32 arg = 0;    // group seq / stream id / session id for display
  trace_op op = trace_op::ntt_forward;
};

class trace_recorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  // capacity = events retained, exactly; must be >= 1.
  explicit trace_recorder(std::size_t capacity = kDefaultCapacity);

  trace_recorder(const trace_recorder&) = delete;
  trace_recorder& operator=(const trace_recorder&) = delete;

  // Drops the ring's oldest event when full.
  void record(const trace_event& e) noexcept;

  // Cumulative events accepted into the ring / overwritten by a newer one.
  [[nodiscard]] u64 events_recorded() const noexcept;
  [[nodiscard]] u64 events_dropped() const noexcept;

  // Monotonic virtual-time high-water mark (see header comment).
  void set_watermark(u64 vtime) noexcept;
  [[nodiscard]] u64 watermark() const noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  // The retained events, sorted by ts (stable: record order preserved
  // within a tick).  Non-destructive — exporting a trace does not consume
  // it.
  [[nodiscard]] std::vector<trace_event> snapshot_events() const;

  // Discard retained events (drop/record counters are cumulative and
  // survive).
  void clear() noexcept;

 private:
  mutable std::mutex mu_;
  std::vector<trace_event> slots_;
  std::size_t next_ = 0;  // slot the next event is written to
  std::size_t size_ = 0;  // retained events, ending just before next_
  std::atomic<u64> recorded_{0};
  std::atomic<u64> dropped_{0};
  std::atomic<u64> watermark_{0};
};

}  // namespace bpntt::telemetry
