#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace hacc::obs {

namespace {

// The calling thread's cached ring, per tracer.  A thread touches very few
// tracers in practice (the global one, plus test-local instances), so a tiny
// linear-scan cache keeps the steady-state lookup lock-free without tying
// the thread_local slot to one tracer instance.
struct TlsEntry {
  std::uint64_t tracer_id = 0;  // 0 = empty slot
  void* buffer = nullptr;
};
constexpr int kTlsSlots = 4;
thread_local TlsEntry tls_rings[kTlsSlots];  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables): per-thread cache is the mechanism

// Lane names set before the calling thread's ring exists, per tracer.  A
// name alone must not register a ring: threads that only name themselves
// (every Solver's sched lane) would each pin a full ring while tracing is
// off.  register_thread() applies and clears the name.
struct TlsName {
  std::uint64_t tracer_id = 0;  // 0 = empty slot
  std::string name;
};
thread_local TlsName tls_names[kTlsSlots];  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables): per-thread pending lane names

// The slot holding (or about to hold) `tracer_id`'s pending name.  With more
// tracers than slots the first slot's name is evicted; that lane falls back
// to "thread-<tid>".
TlsName& name_slot(std::uint64_t tracer_id) {
  for (auto& slot : tls_names) {
    if (slot.tracer_id == tracer_id) return slot;
  }
  for (auto& slot : tls_names) {
    if (slot.tracer_id == 0) return slot;
  }
  return tls_names[0];
}

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Minimal JSON string escape for thread/span names embedded in the export.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Tracer() : id_(next_tracer_id()) {}

Tracer::~Tracer() {
  // A destroyed tracer is by contract past its last span (quiescent-point
  // rule), and stale cache entries can never alias a later tracer because
  // ids are unique for the process lifetime.
  enabled_.store(false, std::memory_order_relaxed);
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::size_t events_per_thread) {
  {
    util::MutexLock lock(mu_);
    if (events_per_thread > 0) capacity_ = events_per_thread;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  util::MutexLock lock(mu_);
  for (auto& t : threads_) {
    t->count.store(0, std::memory_order_relaxed);
    t->dropped.store(0, std::memory_order_relaxed);
  }
}

const char* Tracer::intern(const std::string& name) {
  util::MutexLock lock(mu_);
  for (const auto& s : interned_) {
    if (*s == name) return s->c_str();
  }
  interned_.push_back(std::make_unique<std::string>(name));
  return interned_.back()->c_str();
}

Tracer::ThreadTrace* Tracer::cached_buffer() const {
  for (const auto& slot : tls_rings) {
    if (slot.tracer_id == id_) return static_cast<ThreadTrace*>(slot.buffer);
  }
  return nullptr;
}

Tracer::ThreadTrace* Tracer::thread_buffer() {
  ThreadTrace* ring = cached_buffer();
  return ring != nullptr ? ring : register_thread();
}

Tracer::ThreadTrace* Tracer::register_thread() {
  std::string name;
  TlsName& pending = name_slot(id_);
  if (pending.tracer_id == id_) {
    name = std::move(pending.name);
    pending = TlsName{};
  }
  ThreadTrace* ring = nullptr;
  {
    util::MutexLock lock(mu_);
    threads_.push_back(std::make_unique<ThreadTrace>(
        static_cast<int>(threads_.size()), capacity_));
    ring = threads_.back().get();
    ring->thread_name =
        name.empty() ? "thread-" + std::to_string(ring->tid) : std::move(name);
  }
  for (auto& slot : tls_rings) {
    if (slot.tracer_id == 0) {
      slot.tracer_id = id_;
      slot.buffer = ring;
      return ring;
    }
  }
  // More tracers than cache slots on this thread: evict the first entry.
  // Correctness is unaffected (the evicted tracer re-registers a fresh lane
  // on its next record), only lane identity gets split.
  tls_rings[0].tracer_id = id_;
  tls_rings[0].buffer = ring;
  return ring;
}

void Tracer::set_thread_name(const std::string& name) {
  if (ThreadTrace* ring = cached_buffer()) {
    util::MutexLock lock(mu_);
    ring->thread_name = name;
    return;
  }
  TlsName& pending = name_slot(id_);
  pending.tracer_id = id_;
  pending.name = name;
}

void Tracer::record(const char* name, double t0, double t1) {
  if (!enabled()) return;
  ThreadTrace* ring = thread_buffer();
  const std::size_t idx = ring->count.load(std::memory_order_relaxed);
  if (idx >= ring->events.size()) {
    ring->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring->events[idx] = TraceEvent{name, t0, t1};
  // Publish after the event is fully written so a concurrent export that
  // acquires `count` reads a complete record.
  ring->count.store(idx + 1, std::memory_order_release);
}

std::vector<ThreadTraceSnapshot> Tracer::snapshot() const {
  util::MutexLock lock(mu_);
  std::vector<ThreadTraceSnapshot> out;
  out.reserve(threads_.size());
  for (const auto& t : threads_) {
    ThreadTraceSnapshot s;
    s.tid = t->tid;
    s.thread_name = t->thread_name;
    s.dropped = t->dropped.load(std::memory_order_relaxed);
    const std::size_t n = t->count.load(std::memory_order_acquire);
    s.events.assign(t->events.begin(),
                    t->events.begin() + static_cast<std::ptrdiff_t>(n));
    out.push_back(std::move(s));
  }
  return out;
}

TraceExportStats Tracer::write_chrome_trace(const std::string& path) const {
  const auto threads = snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("Tracer: cannot write trace file '" + path + "'");
  }
  TraceExportStats stats;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  const auto sep = [&first, f] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (const auto& t : threads) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 t.tid, json_escape(t.thread_name).c_str());
    if (!t.events.empty()) ++stats.threads;
    stats.dropped += t.dropped;
    for (const auto& e : t.events) {
      sep();
      // Chrome expects microsecond timestamps; wtime() is seconds since an
      // arbitrary epoch shared by every thread, so lanes line up.
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"hacc\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}",
                   json_escape(e.name).c_str(), e.t0 * 1e6,
                   (e.t1 - e.t0) * 1e6, t.tid);
      ++stats.events;
    }
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    throw std::runtime_error("Tracer: error writing trace file '" + path + "'");
  }
  return stats;
}

}  // namespace hacc::obs
