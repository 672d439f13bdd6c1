// The live workloads: open-loop 60 fps camera sessions pushed into one
// IngestService from a single pacing thread.
//
// Every session behaves like one jump: it opens, streams one whole corpus
// clip (45 frames, 0.75 s) on an absolute 60 fps schedule, then goes quiet
// and ends through the service's idle eviction, whose sink delivers the
// final JumpReport. The camera slot it streamed from opens the next session
// one frame period after its last frame. Each slot has its own phase, so
// frames of different cameras are due at different instants within a
// period and sessions open and end spread over time. Frames are due on the
// schedule whatever the service does, and latency runs from a frame's due
// time to its sink callback.
//
// Threads: this (the calling) thread is the generator, the service owns the
// scheduler thread, and the StreamManager pool adds thread_budget() - 2
// workers, so the scheduler plus the pool make thread_budget() - 1 lanes.
#include "live.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>

#include "ingest/ingest_service.hpp"
#include "obs/service_monitor.hpp"
#include "obs/tracer.hpp"
#include "replay/trace_replayer.hpp"

namespace slj::perfbench {

namespace {

using std::chrono::duration;
using std::chrono::duration_cast;

const Clock::duration kPeriod =
    duration_cast<Clock::duration>(duration<double>(1.0 / kCameraFps));
/// A session silent this long (queue empty) is evicted by the service.
constexpr auto kIdleTimeout = std::chrono::milliseconds(100);
constexpr std::size_t kQueueCapacity = 4;
/// Operator dashboard refresh: ServiceMonitor::poll() every 250 ms.
const Clock::duration kPollEvery = std::chrono::milliseconds(250);
/// Unmeasured head of the run, while the staggered sessions start.
const Clock::duration kRampIn = std::chrono::milliseconds(1500);
/// The incident comes this long after the measured window, so that the
/// window's frames reach their sinks before the dump stalls the service.
const Clock::duration kIncidentDelay = std::chrono::milliseconds(150);
/// No session opens later than this after the measured window, however
/// long the incident took; it bounds the preallocated session records.
const Clock::duration kRunSlack = std::chrono::seconds(30);
/// Validity bound on the pacing thread's p99 wake-up lag: one frame period,
/// beyond which the offered schedule itself has slipped.
constexpr double kGeneratorLagBoundMs = 1000.0 / kCameraFps;

double ms(Clock::duration d) { return duration<double, std::milli>(d).count(); }
double us(Clock::duration d) { return duration<double, std::micro>(d).count(); }
Clock::duration from_seconds(double s) {
  return duration_cast<Clock::duration>(duration<double>(s));
}

/// Low-discrepancy fraction in [0, 1) for slot `s`: well spread for any
/// slot count.
double spread(int s) {
  const double x = (s + 1) * 0.6180339887498949;
  return x - std::floor(x);
}

/// What the sink saw for one delivered frame.
struct Delivered {
  Clock::time_point due;
  Clock::duration latency;          ///< due -> sink
  Clock::duration service_latency;  ///< enqueue -> sink, as the service times it
  bool correct = false;             ///< decoded pose equals the synth truth
};

/// One live session as the benchmark tracks it, indexed by session id.
struct SessionRecord {
  std::size_t clip = 0;
  Clock::time_point first_due{};
  // Generator thread.
  std::uint32_t admitted = 0;
  std::uint32_t replaced = 0;  ///< admitted by displacing an older frame
  std::uint32_t refused = 0;   ///< rejected, rate-limited or closed
  // Scheduler thread (sinks).
  std::uint32_t delivered = 0;
  std::uint32_t mismatched = 0;
  bool reported = false;
  bool report_matches = false;
};

struct Push {
  Clock::time_point due;
  Clock::duration lag;   ///< push start - due
  Clock::duration took;  ///< IngestService::push wall time
  bool dropped = false;  ///< displaced an older frame or was refused
};

/// The sinks' side of the run. Both sinks run on the service's scheduler
/// thread; the generator only writes a session's record before its first
/// push, and everything is read after the service has stopped. Session
/// records are preallocated (ids are dense and never reused), so the
/// scheduler never sees them move.
class Ledger {
 public:
  Ledger(const Corpus& corpus, std::size_t max_sessions, std::size_t max_frames)
      : corpus_(corpus), records_(max_sessions) {
    delivered_.reserve(max_frames);
  }

  SessionRecord& record(int session) { return records_.at(static_cast<std::size_t>(session)); }
  std::size_t capacity() const { return records_.size(); }

  void on_delivery(const ingest::Delivery& d) {
    const Clock::time_point now = Clock::now();
    SessionRecord& rec = record(d.session);
    // Under kDropOldest every push to an open session is admitted, and a
    // closed session refuses all later pushes, so the admission order is
    // the clip's frame index.
    const std::size_t f = static_cast<std::size_t>(d.sequence);
    const ClipReference& ref = corpus_.reference[rec.clip];
    const synth::Clip& clip = corpus_.clips[rec.clip];
    ++rec.delivered;
    if (f >= ref.frames.size() || !same_result(d.update.result, ref.frames[f])) ++rec.mismatched;
    const Clock::time_point due = rec.first_due + static_cast<Clock::rep>(f) * kPeriod;
    const bool correct = f < clip.truth.size() && d.update.result.pose == clip.truth[f].pose;
    delivered_.push_back({due, now - due, d.latency, correct});
  }

  void on_evicted(int session, const core::JumpReport& report) {
    SessionRecord& rec = record(session);
    rec.reported = true;
    rec.report_matches = same_report(report, corpus_.reference[rec.clip].report);
  }

  const std::vector<Delivered>& deliveries() const { return delivered_; }

 private:
  const Corpus& corpus_;
  std::vector<SessionRecord> records_;
  std::vector<Delivered> delivered_;
};

struct WindowStats {
  Samples latency_ms;
  std::size_t offered = 0;    ///< frames due in the window
  std::size_t dropped = 0;    ///< of those, displaced or refused
  std::size_t correct = 0;
  double delivery_rate = 0.0;  ///< frames/s reaching the sinks during the window
};

/// The frames due in [from, to): their latencies, drops and accuracy, and
/// the rate at which deliveries reached the sinks in the same interval
/// (deliveries - 1 over the span from the first to the last of them).
WindowStats window_stats(const Ledger& ledger, const std::vector<Push>& pushes,
                         Clock::time_point from, Clock::time_point to) {
  WindowStats st;
  std::size_t sunk = 0;
  Clock::time_point first = to, last = from;
  for (const Delivered& d : ledger.deliveries()) {
    if (d.due >= from && d.due < to) {
      st.latency_ms.add(ms(d.latency));
      if (d.correct) ++st.correct;
    }
    const Clock::time_point at = d.due + d.latency;
    if (at >= from && at < to) {
      ++sunk;
      first = std::min(first, at);
      last = std::max(last, at);
    }
  }
  if (sunk >= 2 && last > first) {
    st.delivery_rate = static_cast<double>(sunk - 1) / duration<double>(last - first).count();
  }
  for (const Push& p : pushes) {
    if (p.due < from || p.due >= to) continue;
    ++st.offered;
    if (p.dropped) ++st.dropped;
  }
  return st;
}

/// Removes the incident directory however the run ends.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

/// One camera position that streams one session after another.
struct Slot {
  Clock::time_point next_due{};  ///< due time of the slot's next frame
  int session = -1;
  std::size_t clip = 0;
  int frame = 0;  ///< next frame of the current clip; 0 opens a new session
};

}  // namespace

void run_live_traffic(const Corpus& corpus, const LivePlan& plan, Report& report) {
  const unsigned budget = thread_budget();
  const double max_run_s = duration<double>(kRampIn + kRunSlack).count() + plan.seconds + 1.0;
  const std::size_t max_session_ids = static_cast<std::size_t>(
      kReferenceSessions * (max_run_s * kCameraFps / kClipFrames + 2.0));
  const std::size_t max_frames = max_session_ids * kClipFrames;

  Ledger ledger(corpus, max_session_ids, max_frames);
  std::vector<Push> pushes;
  pushes.reserve(max_frames);

  ingest::IngestServiceConfig config;
  config.manager.workers = budget > 2 ? budget - 1 : 1;  // budget - 2 pool threads + scheduler
  auto service = std::make_unique<ingest::IngestService>(corpus.classifier,
                                                          core::PipelineParams{}, config);
  const unsigned lanes = service->manager().lanes();
  report.check("threads.within_budget", 1 + lanes <= budget, 1,
               "generator + " + std::to_string(lanes) + " lanes");
  service->set_eviction_sink(
      [&ledger](int session, const core::JumpReport& r) { ledger.on_evicted(session, r); });

  std::unique_ptr<ScratchDir> incident_dir;
  std::unique_ptr<obs::ServiceMonitor> monitor;
  if (plan.recorded) {
    incident_dir = std::make_unique<ScratchDir>(
        std::filesystem::path(".bench_build") /
        ("perfbench-incident-" + std::to_string(static_cast<long>(getpid()))));
    obs::ServiceMonitorConfig mc;  // default 30 s / 256 MiB recorder, SLO untracked
    mc.incident_dir = incident_dir->path.string();
    mc.max_incidents = 1;
    monitor = std::make_unique<obs::ServiceMonitor>(*service, mc);
  }

  ingest::IngestSessionConfig session_config;
  session_config.queue.capacity = kQueueCapacity;
  session_config.queue.policy = ingest::BackpressurePolicy::kDropOldest;
  session_config.idle_timeout = kIdleTimeout;
  const ingest::IngestService::Sink sink = [&ledger](const ingest::Delivery& d) {
    ledger.on_delivery(d);
  };

  service->start();
  std::printf("live: %d sessions at %.0f fps, %u lanes%s\n", kReferenceSessions, kCameraFps,
              lanes, plan.recorded ? ", ServiceMonitor attached" : "");
  std::fflush(stdout);

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point measure_from = t0 + kRampIn;
  const Clock::time_point measure_to = measure_from + from_seconds(plan.seconds);
  // Sessions stop opening here: at the window's end, or for a recorded run
  // one clip after the incident.
  Clock::time_point stop_at = plan.recorded ? measure_to + kRunSlack : measure_to;

  // Slot s first streams at s's low-discrepancy share of one clip's length:
  // the whole periods stagger the clips, the remainder is the slot's phase
  // within a frame period.
  std::vector<Slot> slots(kReferenceSessions);
  for (int s = 0; s < kReferenceSessions; ++s) {
    slots[static_cast<std::size_t>(s)].next_due =
        t0 + from_seconds(spread(s) * kClipFrames / kCameraFps);
  }

  Samples poll_us;
  Samples open_ms;
  std::vector<std::pair<Clock::time_point, double>> wake_lag_ms;  // (due, oversleep)
  double dump_ms = 0.0;
  bool incident_done = false;
  Clock::time_point incident_at{}, incident_end{};
  std::size_t recorder_bytes = 0;
  std::string incident_path;
  Clock::time_point next_poll = t0 + kPollEvery;
  std::mt19937 clip_rng(plan.seed);
  std::uniform_int_distribution<std::size_t> pick_clip(0, corpus.clips.size() - 1);

  for (;;) {
    // The one pacing thread serves the slot whose frame is due first.
    Slot& slot = *std::min_element(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
      return a.next_due < b.next_due;
    });
    const Clock::time_point due = slot.next_due;
    if (due == Clock::time_point::max()) break;  // every slot has retired
    if (slot.frame == 0 && due >= stop_at) {
      slot.next_due = Clock::time_point::max();
      continue;
    }
    if (Clock::now() < due) {
      std::this_thread::sleep_until(due);
      wake_lag_ms.emplace_back(due, ms(Clock::now() - due));
    }
    if (slot.frame == 0) {
      // A session opens when its first frame is due. open_session waits for
      // a running pass, and that wait is part of the first frame's latency.
      slot.clip = pick_clip(clip_rng);
      const Clock::time_point o0 = Clock::now();
      slot.session =
          service->open_session(corpus.clips[slot.clip].background, session_config, sink);
      open_ms.add(ms(Clock::now() - o0));
      SessionRecord& rec = ledger.record(slot.session);
      rec.clip = slot.clip;
      rec.first_due = due;
    }
    SessionRecord& rec = ledger.record(slot.session);
    const synth::Clip& clip = corpus.clips[slot.clip];
    const Clock::time_point push_start = Clock::now();
    const ingest::PushOutcome outcome =
        service->push(slot.session, clip.frames[static_cast<std::size_t>(slot.frame)]);
    const Clock::duration took = Clock::now() - push_start;
    const bool admitted = ingest::push_accepted(outcome);
    const bool replaced = outcome == ingest::PushOutcome::kReplacedOldest;
    rec.admitted += admitted ? 1 : 0;
    rec.replaced += replaced ? 1 : 0;
    rec.refused += admitted ? 0 : 1;
    pushes.push_back({due, push_start - due, took, replaced || !admitted});
    // After its last frame the session goes quiet until the service evicts
    // it; the slot's next session starts one period later.
    slot.frame = (slot.frame + 1) % kClipFrames;
    slot.next_due += kPeriod;

    if (monitor && !incident_done && due >= measure_to + kIncidentDelay) {
      // The operator incident comes right after the measured window, with
      // the traffic still running: the dump stalls this thread for as long
      // as it takes, and the frames it delays are reported on their own
      // (obs.incident_*) instead of inside the window.
      incident_done = true;
      incident_at = Clock::now();
      incident_path = monitor->trigger_incident("operator");
      incident_end = Clock::now();
      dump_ms = ms(incident_end - incident_at);
      recorder_bytes = monitor->recorder().bytes();
      stop_at = std::min(stop_at, incident_end + kClipFrames * kPeriod);
    }
    const Clock::time_point now = Clock::now();
    if (monitor && now >= next_poll) {
      monitor->poll();
      poll_us.add(us(Clock::now() - now));
      next_poll += kPollEvery;
    }
  }

  // Every session has gone quiet: idle eviction delivers the last reports.
  const Clock::time_point drain_deadline = Clock::now() + std::chrono::seconds(5);
  while (service->open_sessions() > 0 && Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  service->flush();
  service->stop();
  const ingest::IngestMetricsSnapshot snap = service->metrics();
  // The recorder and the tracer go before the replay, which then has the
  // whole thread budget to itself.
  monitor.reset();
  service.reset();
  obs::Tracer::instance().set_enabled(false);

  // ---- correctness -------------------------------------------------------
  std::uint64_t sessions = 0, admitted = 0, replaced = 0, refused = 0, delivered = 0;
  std::uint64_t clean_sessions = 0, frame_mismatches = 0, report_mismatches = 0;
  std::uint64_t unreported = 0;
  for (std::size_t id = 0; id < ledger.capacity(); ++id) {
    const SessionRecord& rec = ledger.record(static_cast<int>(id));
    if (rec.admitted + rec.refused == 0) continue;
    ++sessions;
    admitted += rec.admitted;
    replaced += rec.replaced;
    refused += rec.refused;
    delivered += rec.delivered;
    if (!rec.reported) ++unreported;
    if (rec.replaced != 0 || rec.refused != 0) continue;  // drops change the decoding
    ++clean_sessions;
    const std::uint32_t undelivered =
        kClipFrames - std::min<std::uint32_t>(rec.delivered, kClipFrames);
    frame_mismatches += rec.mismatched + undelivered;
    if (rec.reported && !rec.report_matches) ++report_mismatches;
  }
  std::printf("live: %llu sessions (%llu without drops), %llu frames pushed\n",
              static_cast<unsigned long long>(sessions),
              static_cast<unsigned long long>(clean_sessions),
              static_cast<unsigned long long>(admitted + refused));
  report.check("live.frames_match_reference", frame_mismatches == 0, frame_mismatches);
  report.check("live.reports_match_reference", report_mismatches == 0, report_mismatches);
  report.check("live.every_session_evicted_with_report", unreported == 0, unreported);
  const bool books_balance =
      snap.pushed == snap.delivered + snap.dropped_oldest + snap.discarded;
  report.check("live.accounting_pushed_eq_delivered_dropped_discarded", books_balance, 1,
               std::to_string(snap.pushed) + " != " + std::to_string(snap.delivered) + " + " +
                   std::to_string(snap.dropped_oldest) + " + " +
                   std::to_string(snap.discarded));
  const bool ledger_agrees = snap.pushed == admitted && snap.delivered == delivered &&
                             snap.dropped_oldest == replaced;
  report.check("live.accounting_matches_generator_and_sinks", ledger_agrees, 1);

  // ---- the measured window -----------------------------------------------
  const WindowStats win = window_stats(ledger, pushes, measure_from, measure_to);
  report.attempt(win.offered);
  report.shed("live.frames_dropped_or_rejected", win.dropped);
  report.metric("frames_per_s", win.delivery_rate, "1/s");
  const Samples& lat = win.latency_ms;
  const double p50 = lat.quantile(0.50);
  const double p99 = lat.quantile(0.99);
  report.metric("latency_p50_ms", p50, "ms");
  report.metric("latency_p99_ms", p99, "ms");
  report.metric("latency_samples", static_cast<double>(lat.size()), "count");
  report.metric("latency_beyond_p50", static_cast<double>(lat.count_above(p50)), "count");
  report.metric("latency_beyond_p99", static_cast<double>(lat.count_above(p99)), "count");
  report.metric("latency_max_ms", lat.max(), "ms");
  report.metric("pose_accuracy",
                100.0 * static_cast<double>(win.correct) /
                    static_cast<double>(std::max<std::size_t>(lat.size(), 1)),
                "%");

  // ---- load generator ------------------------------------------------------
  // A run whose pacing thread woke late is invalid rather than a data point;
  // late pushes caused by blocking service calls are part of the latency.
  Samples late_ms, push_us;
  for (const Push& p : pushes) {
    if (p.due < measure_from || p.due >= measure_to) continue;
    late_ms.add(ms(p.lag));
    push_us.add(us(p.took));
  }
  Samples wake_lag;
  for (const auto& [due, lag] : wake_lag_ms) {
    if (due >= measure_from && due < measure_to) wake_lag.add(lag);
  }
  const double wake_lag_p99 = wake_lag.quantile(0.99);
  report.metric("load.generator_lag_ms_p99", wake_lag_p99, "ms");
  report.metric("load.producer_late_ms_p50", late_ms.quantile(0.50), "ms");
  report.metric("load.producer_late_ms_p99", late_ms.quantile(0.99), "ms");
  report.metric("ingest.open_ms_p50", open_ms.quantile(0.50), "ms");
  report.metric("ingest.open_ms_p99", open_ms.quantile(0.99), "ms");
  report.check("load.generator_on_time", wake_lag_p99 <= kGeneratorLagBoundMs, 1,
               "pacing thread p99 wake-up lag above " + std::to_string(kGeneratorLagBoundMs) +
                   " ms");

  // ---- ingest layer ----------------------------------------------------------
  report.metric("ingest.push_us_p50", push_us.quantile(0.50), "us");
  report.metric("ingest.push_us_p99", push_us.quantile(0.99), "us");
  report.metric("ingest.frames_per_tick",
                static_cast<double>(snap.delivered) /
                    static_cast<double>(std::max<std::uint64_t>(snap.ticks, 1)),
                "count");
  report.metric("ingest.queue_depth_peak", static_cast<double>(snap.queue_depth_peak), "count");
  report.metric("ingest.dropped_oldest_pct",
                100.0 * static_cast<double>(snap.dropped_oldest) /
                    static_cast<double>(std::max<std::uint64_t>(snap.pushed, 1)),
                "%");
  // The service's own histogram against exact quantiles of the same
  // enqueue -> sink latencies, over every frame of the run.
  Samples service_ms;
  for (const Delivered& d : ledger.deliveries()) service_ms.add(ms(d.service_latency));
  const double exact_p99 = service_ms.quantile(0.99);
  const double exact_max = service_ms.max();
  report.metric("ingest.service_p99_ms", snap.latency_p99_ms, "ms");
  report.metric("ingest.service_max_ms", snap.latency_max_ms, "ms");
  report.metric("ingest.exact_p99_ms", exact_p99, "ms");
  report.metric("ingest.exact_max_ms", exact_max, "ms");
  report.metric("ingest.hist_p99_over_exact", snap.latency_p99_ms / exact_p99, "ratio");
  if (snap.latency_p99_ms > exact_max) {
    std::printf("finding: the service reports p99 %.3f ms, above the exact max %.3f ms of the "
                "same %zu latencies\n",
                snap.latency_p99_ms, exact_max, service_ms.size());
  }

  // ---- obs and replay --------------------------------------------------------
  if (plan.recorded) {
    report.metric("obs.poll_us_p50", poll_us.quantile(0.50), "us");
    report.metric("obs.dump_ms", dump_ms, "ms");
    // Frames due from the incident on: what the stalled dump cost the cameras.
    const WindowStats after =
        window_stats(ledger, pushes, incident_at, incident_end + kClipFrames * kPeriod);
    report.metric("obs.incident_frames", static_cast<double>(after.offered), "count");
    report.metric("obs.incident_dropped_frames", static_cast<double>(after.dropped), "count");
    report.metric("obs.incident_latency_p99_ms", after.latency_ms.quantile(0.99), "ms");
    report.check("obs.incident_dumped", !incident_path.empty(), 1);
    if (!incident_path.empty()) {
      replay::ReplayOptions options;
      options.workers = budget;  // the calling thread plus budget - 1 pool threads
      const replay::TraceReplayer replayer(corpus.classifier, {}, options);
      const Clock::time_point r0 = Clock::now();
      const replay::ReplayResult replayed = replayer.replay_file(incident_path);
      const double replay_s = seconds_since(r0);
      const double frames =
          static_cast<double>(std::max<std::uint64_t>(replayed.frames_replayed, 1));
      report.check("replay.incident_identical", replayed.identical(),
                   std::max<std::uint64_t>(replayed.total_mismatches(), 1),
                   replayed.first_mismatch());
      report.metric("recorder_span_s", static_cast<double>(replayed.recorded_span_ns) / 1e9, "s");
      report.metric("obs.recorder_bytes_per_frame", static_cast<double>(recorder_bytes) / frames,
                    "B");
      report.metric("replay.replay_us_per_frame", replay_s * 1e6 / frames, "us");
      report.metric("replay.frames", frames, "count");
    }
  }
  report.metric("failed_pct",
                100.0 * static_cast<double>(report.failed()) /
                    static_cast<double>(std::max<std::size_t>(win.offered, 1)),
                "%");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

void run_live(const Options& opt, Report& report) {
  struct LiveState {
    Corpus corpus;
  };
  const LiveState state = timed_setup<LiveState>(
      opt, report, [&](LiveState& s) { s.corpus = build_corpus(opt.seed, corpus_clips(opt)); });

  LivePlan plan;
  plan.seed = opt.seed;
  plan.seconds = opt.seconds;
  plan.recorded = opt.workload == "live_60fps_recorded";
  run_live_traffic(state.corpus, plan, report);
}

}  // namespace slj::perfbench
