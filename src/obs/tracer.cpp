#include "obs/tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

namespace slj::obs {

// ---- ThreadRing ------------------------------------------------------------

void ThreadRing::emit(TraceEventKind kind, const char* name, std::int32_t session,
                      std::int64_t arg, std::int64_t t_ns, std::int64_t dur_ns) {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);  // slj-atomic: seqlock
  Slot& slot = slots_[h & (kCapacity - 1)];
  slot.t_ns.store(t_ns, std::memory_order_relaxed);        // slj-atomic: seqlock
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);    // slj-atomic: seqlock
  slot.name.store(name, std::memory_order_relaxed);        // slj-atomic: seqlock
  slot.arg.store(arg, std::memory_order_relaxed);          // slj-atomic: seqlock
  slot.session.store(session, std::memory_order_relaxed);  // slj-atomic: seqlock
  slot.kind.store(static_cast<std::uint8_t>(kind),
                  std::memory_order_relaxed);  // slj-atomic: seqlock
  // Publish: a reader that acquires h+1 sees this slot's stores.
  head_.store(h + 1, std::memory_order_release);
}

void ThreadRing::snapshot_into(std::vector<TraceEvent>& out, std::uint64_t& emitted) const {
  const std::uint64_t h1 = head_.load(std::memory_order_acquire);
  const std::uint64_t floor = floor_.load(std::memory_order_relaxed);  // slj-atomic: snapshot
  // Counted from the reset floor: events hidden by reset() are not losses.
  emitted = h1 - floor;
  std::uint64_t begin = h1 > kCapacity ? h1 - kCapacity : 0;
  begin = std::max(begin, floor);

  std::vector<TraceEvent> scratch;
  scratch.reserve(static_cast<std::size_t>(h1 - begin));
  for (std::uint64_t seq = begin; seq < h1; ++seq) {
    const Slot& slot = slots_[seq & (kCapacity - 1)];
    TraceEvent ev;
    ev.t_ns = slot.t_ns.load(std::memory_order_relaxed);      // slj-atomic: seqlock
    ev.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);  // slj-atomic: seqlock
    ev.name = slot.name.load(std::memory_order_relaxed);      // slj-atomic: seqlock
    ev.arg = slot.arg.load(std::memory_order_relaxed);        // slj-atomic: seqlock
    ev.session = slot.session.load(std::memory_order_relaxed);  // slj-atomic: seqlock
    ev.kind = static_cast<TraceEventKind>(
        slot.kind.load(std::memory_order_relaxed));  // slj-atomic: seqlock
    scratch.push_back(ev);
  }

  // Seqlock validation: the writer may have advanced during the copy. The
  // next unpublished event is h2; its in-progress (or completed) write
  // targets the slot holding seq h2 - kCapacity, so only events with
  // seq + kCapacity > h2 are guaranteed untorn.
  const std::uint64_t h2 = head_.load(std::memory_order_acquire);
  const std::uint64_t stable = h2 > kCapacity ? h2 - kCapacity + 1 : 0;
  for (std::uint64_t seq = begin; seq < h1; ++seq) {
    if (seq < stable) continue;
    const TraceEvent& ev = scratch[static_cast<std::size_t>(seq - begin)];
    if (ev.name != nullptr) out.push_back(ev);
  }
}

// ---- Tracer ----------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

ThreadRing& Tracer::ring() {
  thread_local ThreadRing* cached = nullptr;
  if (cached == nullptr) cached = register_thread();
  return *cached;
}

ThreadRing* Tracer::register_thread() {
  slj::LockGuard lock(registry_mutex_);
  rings_.push_back(std::make_unique<ThreadRing>());
  rings_.back()->tid_ = rings_.size();  // stable 1-based id
  return rings_.back().get();
}

void Tracer::instant(const char* name, std::int32_t session, std::int64_t arg) {
  if (!enabled()) return;
  const std::int64_t now =
      std::chrono::steady_clock::now().time_since_epoch().count();
  ring().emit(TraceEventKind::kInstant, name, session, arg, now, 0);
}

void Tracer::end_span(const char* name, std::int32_t session, std::int64_t arg,
                      std::chrono::steady_clock::time_point start) {
  const auto now = std::chrono::steady_clock::now();
  const std::int64_t dur_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - start).count();
  ring().emit(TraceEventKind::kSpan, name, session, arg,
              start.time_since_epoch().count(), dur_ns < 0 ? 0 : dur_ns);
}

TracerSnapshot Tracer::snapshot() const {
  TracerSnapshot snap;
  snap.enabled = enabled();
  slj::LockGuard lock(registry_mutex_);
  snap.threads.reserve(rings_.size());
  for (const std::unique_ptr<ThreadRing>& ring : rings_) {
    TracerThreadSnapshot thread;
    thread.tid = ring->tid();
    ring->snapshot_into(thread.events, thread.emitted);
    thread.dropped = thread.emitted - thread.events.size();
    snap.total_events += thread.events.size();
    snap.total_dropped += thread.dropped;
    snap.threads.push_back(std::move(thread));
  }
  return snap;
}

void Tracer::reset() {
  slj::LockGuard lock(registry_mutex_);
  for (const std::unique_ptr<ThreadRing>& ring : rings_) {
    // Raising the floor to the current head hides everything emitted so
    // far; the owning thread keeps writing monotonically past it.
    ring->floor_.store(ring->head_.load(std::memory_order_acquire),
                       std::memory_order_relaxed);  // slj-atomic: snapshot
  }
}

// ---- Chrome trace-event export ---------------------------------------------

namespace {

struct FlatEvent {
  TraceEvent ev;
  std::uint64_t tid = 0;
};

/// One "stages" row: every kept span of one name, summed.
struct StageRollup {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t max_ns = 0;
};

}  // namespace

std::string chrome_trace_json(const TracerSnapshot& snapshot) {
  // Flatten, then sort by (start, tid, name) so the export is deterministic
  // for a given snapshot regardless of thread registration order.
  std::vector<FlatEvent> events;
  events.reserve(static_cast<std::size_t>(snapshot.total_events));
  std::int64_t t0 = 0;
  bool have_t0 = false;
  for (const TracerThreadSnapshot& thread : snapshot.threads) {
    for (const TraceEvent& ev : thread.events) {
      if (!have_t0 || ev.t_ns < t0) {
        t0 = ev.t_ns;
        have_t0 = true;
      }
      events.push_back({ev, thread.tid});
    }
  }
  std::sort(events.begin(), events.end(), [](const FlatEvent& a, const FlatEvent& b) {
    if (a.ev.t_ns != b.ev.t_ns) return a.ev.t_ns < b.ev.t_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return std::strcmp(a.ev.name, b.ev.name) < 0;
  });

  std::string out = "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  char buf[384];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i].ev;
    const double ts_us = static_cast<double>(ev.t_ns - t0) / 1e3;
    if (ev.kind == TraceEventKind::kSpan) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                    "\"pid\": 1, \"tid\": %llu, \"args\": {\"session\": %d, \"arg\": %lld}}",
                    i == 0 ? "" : ",", ev.name, ts_us, static_cast<double>(ev.dur_ns) / 1e3,
                    static_cast<unsigned long long>(events[i].tid), ev.session,
                    static_cast<long long>(ev.arg));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f, "
                    "\"pid\": 1, \"tid\": %llu, \"args\": {\"session\": %d, \"arg\": %lld}}",
                    i == 0 ? "" : ",", ev.name, ts_us,
                    static_cast<unsigned long long>(events[i].tid), ev.session,
                    static_cast<long long>(ev.arg));
    }
    out += buf;
  }
  out += events.empty() ? "],\n" : "\n],\n";
  std::snprintf(buf, sizeof(buf),
                "\"tracer\": {\"enabled\": %s, \"events\": %llu, \"dropped\": %llu, "
                "\"threads\": %zu},\n",
                snapshot.enabled ? "true" : "false",
                static_cast<unsigned long long>(snapshot.total_events),
                static_cast<unsigned long long>(snapshot.total_dropped),
                snapshot.threads.size());
  out += buf;

  // Rollup of the same events, keyed by span name (name order keeps the
  // export deterministic); instants carry no duration and are left out.
  std::map<std::string, StageRollup> stages;
  for (const FlatEvent& flat : events) {
    if (flat.ev.kind != TraceEventKind::kSpan) continue;
    StageRollup& row = stages[flat.ev.name];
    ++row.calls;
    row.total_ns += flat.ev.dur_ns;
    row.max_ns = std::max(row.max_ns, flat.ev.dur_ns);
  }
  out += "\"stages\": [";
  bool first = true;
  for (const auto& [name, row] : stages) {
    const double total_ns = static_cast<double>(row.total_ns);
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"calls\": %llu, \"total_ms\": %.3f, "
                  "\"avg_us\": %.3f, \"max_us\": %.3f}",
                  first ? "" : ",", name.c_str(), static_cast<unsigned long long>(row.calls),
                  total_ns / 1e6, total_ns / 1e3 / static_cast<double>(row.calls),
                  static_cast<double>(row.max_ns) / 1e3);
    out += buf;
    first = false;
  }
  out += stages.empty() ? "]\n}\n" : "\n]\n}\n";
  return out;
}

}  // namespace slj::obs
