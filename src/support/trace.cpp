#include "support/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "support/live.hpp"
#include "support/report.hpp"
#include "support/timer.hpp"

namespace hpamg::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

constexpr std::size_t kDefaultCapacity = 1u << 15;

/// One thread's recording target. Owned by the registry (so it outlives
/// the thread — simmpi rank threads exit before export). Two access
/// contracts coexist:
///   - `total` is atomic: the owner publishes it with release stores, so
///     stats() may count events on a track that is still recording.
///   - `ring` (the event payloads) is written lock-free by the owner only
///     and read exclusively after that thread quiesces (the export path).
///     `capacity` is immutable once the track is published.
struct TrackBuffer {
  int pid = 0;
  int tid = 0;
  std::string process_name;
  std::string thread_name;
  std::size_t capacity = kDefaultCapacity;
  std::vector<Event> ring;
  std::atomic<std::uint64_t> total{0};  ///< events ever pushed

  void push(const Event& e) {
    const std::uint64_t n = total.load(std::memory_order_relaxed);
    if (n < capacity)
      ring.push_back(e);
    else
      ring[std::size_t(n % capacity)] = e;
    total.store(n + 1, std::memory_order_release);
  }

  /// Ring-free (safe against a live owner): the owner pushes
  /// sequentially, so ring.size() == min(total, capacity) always holds.
  std::uint64_t held() const {
    return std::min<std::uint64_t>(
        total.load(std::memory_order_acquire), capacity);
  }

  std::uint64_t dropped() const {
    const std::uint64_t n = total.load(std::memory_order_acquire);
    return n > capacity ? n - capacity : 0;
  }

  /// Oldest-to-newest traversal across the wrap point. Reads event
  /// payloads: owner-quiesced contexts only (export).
  template <typename F>
  void for_each(F&& f) const {
    const std::uint64_t n = total.load(std::memory_order_acquire);
    if (n <= ring.size()) {
      for (const Event& e : ring) f(e);
      return;
    }
    const std::size_t start = std::size_t(n % capacity);
    for (std::size_t i = 0; i < ring.size(); ++i)
      f(ring[(start + i) % ring.size()]);
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<TrackBuffer>> tracks;
  std::vector<std::pair<std::string, std::string>> metadata;
  std::map<int, int> next_tid;  ///< per-pid thread counter
  std::size_t capacity = kDefaultCapacity;
  std::atomic<std::uint64_t> epoch_ns{0};
  std::atomic<std::uint64_t> next_flow{1};
  /// Bumped by reset() so threads holding a stale thread_local pointer
  /// re-register instead of writing into freed storage.
  std::atomic<std::uint64_t> generation{1};
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during exit
  return *r;
}

thread_local TrackBuffer* t_track = nullptr;
thread_local std::uint64_t t_generation = 0;

/// Registers a fresh buffer for the calling thread under `pid`.
TrackBuffer* acquire_track(int pid, const std::string* process_name,
                           const std::string* thread_name) {
  Registry& R = registry();
  std::lock_guard<std::mutex> lock(R.mu);
  auto tb = std::make_unique<TrackBuffer>();
  tb->pid = pid;
  tb->tid = R.next_tid[pid]++;
  tb->capacity = std::max<std::size_t>(1, R.capacity);
  tb->process_name =
      process_name
          ? *process_name
          : (pid == 0 ? "host" : "rank " + std::to_string(pid - 1));
  tb->thread_name =
      thread_name ? *thread_name : "thread " + std::to_string(tb->tid);
  t_track = tb.get();
  t_generation = R.generation.load(std::memory_order_relaxed);
  R.tracks.push_back(std::move(tb));
  return t_track;
}

TrackBuffer* local_track() {
  if (t_track != nullptr &&
      t_generation == registry().generation.load(std::memory_order_relaxed))
    return t_track;
  return acquire_track(0, nullptr, nullptr);
}

}  // namespace

namespace detail {
void emit(const Event& e) { local_track()->push(e); }
}  // namespace detail

void enable(std::size_t events_per_thread) {
  Registry& R = registry();
  {
    std::lock_guard<std::mutex> lock(R.mu);
    if (events_per_thread > 0) R.capacity = events_per_thread;
  }
  std::uint64_t expected = 0;
  R.epoch_ns.compare_exchange_strong(expected, clock_ns(Clock::kWall));
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void disable() { detail::g_enabled.store(false, std::memory_order_relaxed); }

void reset() {
  Registry& R = registry();
  std::lock_guard<std::mutex> lock(R.mu);
  R.tracks.clear();
  R.metadata.clear();
  R.next_tid.clear();
  R.capacity = kDefaultCapacity;
  R.epoch_ns.store(0);
  R.next_flow.store(1);
  R.generation.fetch_add(1);
}

std::uint64_t now_ns() {
  return clock_ns(Clock::kWall) -
         registry().epoch_ns.load(std::memory_order_relaxed);
}

std::uint64_t next_flow_id() {
  return registry().next_flow.fetch_add(1, std::memory_order_relaxed);
}

void set_thread_track(int pid, const std::string& process_name,
                      const std::string& thread_name) {
  if (!enabled()) return;
  acquire_track(pid, &process_name, &thread_name);
}

void set_metadata(const std::string& key, const std::string& value) {
  Registry& R = registry();
  std::lock_guard<std::mutex> lock(R.mu);
  for (auto& [k, v] : R.metadata)
    if (k == key) {
      v = value;
      return;
    }
  R.metadata.emplace_back(key, value);
}

void instant(const char* name, const char* cat) {
  if (!enabled()) return;
  Event e;
  e.kind = Event::Kind::kInstant;
  e.name = name;
  e.cat = cat;
  e.ts_ns = now_ns();
  detail::emit(e);
  // Instants are rare, deliberate markers (faults, recoveries) — exactly
  // the breadcrumbs the flight recorder should retain.
  live::record(live::EventKind::kInstant, name, cat);
}

void counter(const char* name, const char* series0, std::int64_t value0,
             const char* series1, std::int64_t value1) {
  if (!enabled()) return;
  Event e;
  e.kind = Event::Kind::kCounter;
  e.name = name;
  e.cat = "counter";
  e.ts_ns = now_ns();
  e.arg_name[0] = series0;
  e.arg_val[0] = value0;
  e.nargs = 1;
  if (series1 != nullptr) {
    e.arg_name[1] = series1;
    e.arg_val[1] = value1;
    e.nargs = 2;
  }
  detail::emit(e);
}

namespace {
void emit_flow(Event::Kind kind, const char* name, std::uint64_t id,
               int peer, std::int64_t bytes) {
  if (!enabled()) return;
  Event e;
  e.kind = kind;
  e.name = name;
  e.cat = "flow";
  e.ts_ns = now_ns();
  e.flow_id = id;
  e.arg_name[0] = "peer";
  e.arg_val[0] = peer;
  e.arg_name[1] = "bytes";
  e.arg_val[1] = bytes;
  e.nargs = 2;
  detail::emit(e);
}
}  // namespace

void flow_out(const char* name, std::uint64_t id, int peer,
              std::int64_t bytes) {
  emit_flow(Event::Kind::kFlowOut, name, id, peer, bytes);
}

void flow_in(const char* name, std::uint64_t id, int peer,
             std::int64_t bytes) {
  emit_flow(Event::Kind::kFlowIn, name, id, peer, bytes);
}

void complete(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
              std::int64_t level) {
  const std::uint64_t epoch =
      registry().epoch_ns.load(std::memory_order_relaxed);
  Event e;
  e.kind = Event::Kind::kSpan;
  e.name = name;
  e.cat = "kernel";
  e.ts_ns = begin_ns > epoch ? begin_ns - epoch : 0;
  e.dur_ns = end_ns - begin_ns;
  if (level >= 0) {
    e.arg_name[0] = "level";
    e.arg_val[0] = level;
    e.nargs = 1;
  }
  detail::emit(e);
}

void Span::begin(const char* name, const char* cat) {
  active_ = true;
  e_.kind = Event::Kind::kSpan;
  e_.name = name;
  e_.cat = cat;
  e_.ts_ns = now_ns();
}

void Span::end() {
  // Tracing may have been disabled mid-span; record anyway — the event is
  // complete and the buffer still exists.
  e_.dur_ns = now_ns() - e_.ts_ns;
  detail::emit(e_);
  active_ = false;
}

TraceStats stats() {
  Registry& R = registry();
  std::lock_guard<std::mutex> lock(R.mu);
  TraceStats s;
  s.tracks = R.tracks.size();
  // Counts only, via the atomic `total` — tracks may still be recording
  // (stats() is safe against live writers; export is not).
  for (const auto& t : R.tracks) {
    s.recorded += t->held();
    s.dropped += t->dropped();
  }
  return s;
}

// ------------------------------------------------------------------------
// Chrome trace-event export
// ------------------------------------------------------------------------

namespace {

double to_us(std::uint64_t ns) { return double(ns) * 1e-3; }

void write_event(JsonWriter& w, const TrackBuffer& t, const Event& e) {
  w.begin_object();
  w.kv("name", e.name != nullptr ? e.name : "?");
  w.kv("cat", e.cat != nullptr ? e.cat : "default");
  switch (e.kind) {
    case Event::Kind::kSpan:
      w.kv("ph", "X");
      break;
    case Event::Kind::kInstant:
      w.kv("ph", "i");
      break;
    case Event::Kind::kCounter:
      w.kv("ph", "C");
      break;
    case Event::Kind::kFlowOut:
      w.kv("ph", "s");
      break;
    case Event::Kind::kFlowIn:
      w.kv("ph", "f");
      break;
  }
  w.kv("ts", to_us(e.ts_ns));
  if (e.kind == Event::Kind::kSpan) w.kv("dur", to_us(e.dur_ns));
  w.kv("pid", t.pid);
  w.kv("tid", t.tid);
  if (e.kind == Event::Kind::kInstant) w.kv("s", "t");  // thread-scoped
  if (e.kind == Event::Kind::kFlowOut || e.kind == Event::Kind::kFlowIn) {
    w.kv("id", (unsigned long long)e.flow_id);
    if (e.kind == Event::Kind::kFlowIn) w.kv("bp", "e");  // bind to slice
  }
  if (e.nargs > 0) {
    w.key("args").begin_object();
    for (int a = 0; a < e.nargs; ++a)
      w.kv(e.arg_name[a] != nullptr ? e.arg_name[a] : "?",
           (long long)e.arg_val[a]);
    w.end_object();
  }
  w.end_object();
}

void write_name_metadata(JsonWriter& w, const char* what, int pid, int tid,
                         bool with_tid, const std::string& name) {
  w.begin_object();
  w.kv("name", what);
  w.kv("ph", "M");
  w.kv("pid", pid);
  if (with_tid) w.kv("tid", tid);
  w.key("args").begin_object().kv("name", name).end_object();
  w.end_object();
}

}  // namespace

std::string export_chrome_json() {
  Registry& R = registry();
  std::lock_guard<std::mutex> lock(R.mu);

  // Stable track order: by (pid, tid), creation order as tiebreak.
  std::vector<const TrackBuffer*> tracks;
  tracks.reserve(R.tracks.size());
  for (const auto& t : R.tracks) tracks.push_back(t.get());
  std::stable_sort(tracks.begin(), tracks.end(),
                   [](const TrackBuffer* a, const TrackBuffer* b) {
                     return a->pid != b->pid ? a->pid < b->pid
                                             : a->tid < b->tid;
                   });

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();

  std::uint64_t dropped = 0;
  // Per-track drop counts exported alongside the aggregate: consumers
  // (reader/trace_analyze) need to know WHICH thread wrapped its
  // ring, because an unmatched flow arrow on a dropped-events track is
  // wraparound, not a tracer bug.
  std::vector<std::pair<const TrackBuffer*, std::uint64_t>> dropped_tracks;
  int last_named_pid = -1;
  for (const TrackBuffer* t : tracks) {
    if (t->pid != last_named_pid) {
      write_name_metadata(w, "process_name", t->pid, 0, false,
                          t->process_name);
      last_named_pid = t->pid;
    }
    write_name_metadata(w, "thread_name", t->pid, t->tid, true,
                        t->thread_name);

    // Ring order is completion order for spans; sort by begin timestamp so
    // every track's events come out time-monotonic.
    std::vector<Event> events;
    events.reserve(t->ring.size());
    t->for_each([&](const Event& e) { events.push_back(e); });
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       return a.ts_ns != b.ts_ns
                                  ? a.ts_ns < b.ts_ns
                                  : a.dur_ns > b.dur_ns;  // parents first
                     });
    for (const Event& e : events) write_event(w, *t, e);
    const std::uint64_t d = t->dropped();
    dropped += d;
    if (d > 0) dropped_tracks.emplace_back(t, d);
  }
  w.end_array();

  w.kv("displayTimeUnit", "ms");
  w.key("otherData").begin_object();
  for (const auto& [k, v] : R.metadata) w.kv(k, v);
  w.kv("dropped_events", (unsigned long long)dropped);
  if (!dropped_tracks.empty()) {
    w.key("dropped_by_track").begin_object();
    for (const auto& [t, d] : dropped_tracks) {
      char key[64];
      std::snprintf(key, sizeof(key), "pid%d.tid%d", t->pid, t->tid);
      w.kv(key, (unsigned long long)d);
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

bool write_chrome_json(const std::string& path) {
  const std::string text = export_chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace hpamg::trace
