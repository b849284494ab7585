#pragma once

/// \file
/// Thread-aware trace spans: the tracing half of the observability layer
/// (docs/OBSERVABILITY.md).  An RAII TraceSpan brackets a named operation
/// and records a begin/end pair into a per-thread ring buffer; the buffers
/// are exported together as Chrome trace_event JSON ("X" duration events,
/// one lane per thread) that loads directly in Perfetto / chrome://tracing.
///
/// Hot-path cost model:
///   - tracer disabled (the default): one relaxed atomic load per span.
///   - tracer enabled, steady state: two steady_clock reads plus one store
///     into the calling thread's own buffer — no lock, no allocation.  The
///     only locked operations are a thread's FIRST event (buffer
///     registration) and export/control calls.
///
/// Span names must be string literals or strings interned via
/// Tracer::intern(): events store the pointer, not a copy, so the pointee
/// has to outlive the export.  Literal names follow the `module.phase`
/// convention (enforced by tools/hacc_lint.py, catalogued in
/// docs/OBSERVABILITY.md).
///
/// Concurrency (docs/CONCURRENCY.md): recording is safe from any thread,
/// concurrently with export — each ring publishes its event count with a
/// release store that export acquires.  enable()/disable()/clear() are
/// control-plane calls for quiescent points (no spans in flight on other
/// threads); the TSan CI job runs the concurrent record+export suite at 8
/// threads.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"

namespace hacc::obs {

/// One completed span: [t0, t1) seconds on the recording thread's lane.
/// `name` points at a string literal or a Tracer-interned string.
struct TraceEvent {
  const char* name = nullptr;
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Everything one thread recorded, snapshotted for tests/export.
struct ThreadTraceSnapshot {
  int tid = 0;
  std::string thread_name;
  std::uint64_t dropped = 0;  ///< events lost to ring overflow
  std::vector<TraceEvent> events;
};

/// What an export wrote (the CLI summary line).
struct TraceExportStats {
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  int threads = 0;
};

/// The process-wide span collector.  One instance per process is the
/// intended shape (Tracer::global()); separate instances exist only so the
/// unit tests can run in isolation.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;  ///< events/thread

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The singleton every TraceSpan records into.
  static Tracer& global();

  /// Starts recording.  `events_per_thread` sizes each ring at its first
  /// registration; rings already registered keep their size.  Overflowing a
  /// ring drops the newest events and counts them (ThreadTraceSnapshot /
  /// export stats report the loss — tracing never blocks the traced code).
  void enable(std::size_t events_per_thread = kDefaultCapacity);

  /// Stops recording (spans become one-atomic-load no-ops again).  Already
  /// recorded events stay exportable.
  void disable();

  /// True while spans are being recorded.  Relaxed: a span racing a
  /// disable() may record one last event, which is fine.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all recorded events (ring buffers stay registered and sized).
  /// Quiescent-point call: no spans may be in flight on other threads.
  void clear();

  /// Copies `name` into tracer-owned storage and returns a pointer stable
  /// for the tracer's lifetime — the way dynamic span names (e.g. kernel
  /// names) become recordable.  Repeated calls with the same name return
  /// the same pointer.
  const char* intern(const std::string& name);

  /// Names the calling thread's lane in exports ("main", "worker-3", ...).
  /// Registers no ring: a thread that has not recorded yet keeps the name
  /// thread-locally until its first event registers the ring, so naming
  /// costs no memory while tracing is off.  Threads that never call this
  /// appear as "thread-<tid>".
  void set_thread_name(const std::string& name);

  /// Records a completed span on the calling thread's lane.  `name` must
  /// outlive the export (literal or intern()ed).  No-op while disabled.
  void record(const char* name, double t0, double t1);

  /// Every thread's recorded events, in registration order.
  std::vector<ThreadTraceSnapshot> snapshot() const;

  /// Writes the Chrome trace_event JSON file ("X" events, microsecond
  /// timestamps, one tid per recording thread).  Throws std::runtime_error
  /// when the file cannot be written.
  TraceExportStats write_chrome_trace(const std::string& path) const;

 private:
  // One thread's ring.  The owning thread is the only writer of events[] and
  // the only thread that advances count_; export reads count_ with acquire
  // and never touches events beyond it, so recording needs no lock.
  struct ThreadTrace {
    explicit ThreadTrace(int tid_in, std::size_t capacity)
        : tid(tid_in), events(capacity) {}
    const int tid;
    std::string thread_name;  // written under the tracer mutex only
    std::vector<TraceEvent> events;
    std::atomic<std::size_t> count{0};
    std::atomic<std::uint64_t> dropped{0};
  };

  ThreadTrace* cached_buffer() const;  // nullptr until the first event
  ThreadTrace* thread_buffer();
  ThreadTrace* register_thread();

  // Key for the per-thread ring cache: unique for the process lifetime, so
  // a tracer constructed at a recycled address (test-local instances) can
  // never alias a destroyed tracer's cached ring.
  const std::uint64_t id_;

  std::atomic<bool> enabled_{false};
  mutable util::Mutex mu_;
  // unique_ptr elements: ThreadTrace addresses must survive vector growth,
  // because every recording thread caches its buffer pointer thread-locally.
  std::vector<std::unique_ptr<ThreadTrace>> threads_ HACC_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<std::string>> interned_ HACC_GUARDED_BY(mu_);
  std::size_t capacity_ HACC_GUARDED_BY(mu_) = kDefaultCapacity;
};

/// RAII span: records [construction, destruction) against `name` on the
/// calling thread's lane of Tracer::global().  When the tracer is disabled
/// the constructor is a single relaxed atomic load and nothing else runs.
/// A nullptr name is an explicit no-op span (the shape dynamic call sites
/// use when they only intern a name while tracing is on).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(name != nullptr && Tracer::global().enabled() ? name : nullptr),
        t0_(name_ != nullptr ? util::wtime() : 0.0) {}
  ~TraceSpan() {
    if (name_ != nullptr) Tracer::global().record(name_, t0_, util::wtime());
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  double t0_;
};

}  // namespace hacc::obs
