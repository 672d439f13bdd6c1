// Observability subsystem tests:
//   * tracer — spans/instants land in per-thread rings, a disabled tracer
//     emits nothing, a span arms at construction, a wrapped ring keeps the
//     newest events, reset() is not counted as loss, the Chrome trace-event
//     export is well-formed and rolls spans up per stage, and one stream
//     tick spans every pipeline stage inside its parent;
//   * histogram edge cases — empty, single-bucket interpolation, saturating
//     clamp into the last bucket, and no quantile above the recorded max;
//   * SLO hysteresis — boundary values never flap the state machine, breach
//     entry/clearing honor the consecutive-evaluation thresholds;
//   * flight recorder — a dump from a live IngestService replays
//     bit-identically at 1/2/4 workers (also when a push was logged after
//     its tick), window and byte budgets evict whole sessions without
//     corrupting the dump, and a dump leaves the capture untouched;
//   * service monitor — a forced SLO breach produces a replayable incident
//     trace exactly once per breach edge.
#include "obs/service_monitor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/stream_engine.hpp"
#include "ingest/ingest_service.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "obs/tracer.hpp"
#include "replay/trace_replayer.hpp"
#include "synth/dataset.hpp"

namespace slj::obs {
namespace {

using namespace std::chrono_literals;

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

synth::Clip mini_clip(std::uint32_t seed = 2008, int frame_count = 10) {
  synth::ClipSpec spec;
  spec.seed = seed;
  spec.frame_count = frame_count;
  spec.camera.width = 96;
  spec.camera.height = 64;
  spec.camera.pixels_per_meter = 24.0;
  spec.camera.origin_x_px = 12.0;
  spec.camera.ground_y_px = 60.0;
  spec.camera.sensor_noise_sigma = 0.0;
  spec.camera.speckle_fraction = 0.0;
  return synth::generate_clip(spec);
}

struct ManualClock {
  std::atomic<std::int64_t> nanos{0};
  std::function<ingest::Clock::time_point()> fn() {
    return [this] { return ingest::Clock::time_point{ingest::Clock::duration{nanos.load()}}; };
  }
  void advance(ingest::Clock::duration d) { nanos.fetch_add(d.count()); }
};

/// RAII guard: tests that enable the process-global tracer always restore
/// the disabled default, even on assertion failure.
struct TracerGuard {
  explicit TracerGuard(bool enable) {
    Tracer::instance().reset();
    Tracer::instance().set_enabled(enable);
  }
  ~TracerGuard() {
    Tracer::instance().set_enabled(false);
    Tracer::instance().reset();
  }
};

/// Sum of kept events across all threads whose name matches.
std::size_t count_events(const TracerSnapshot& snap, const std::string& name) {
  std::size_t n = 0;
  for (const TracerThreadSnapshot& thread : snap.threads) {
    for (const TraceEvent& ev : thread.events) {
      if (name == ev.name) ++n;
    }
  }
  return n;
}

// ---- tracer ----------------------------------------------------------------

TEST(Tracer, SpansAndInstantsLandInSnapshot) {
  TracerGuard guard(true);
  {
    TraceSpan span("obs.test.span", 7, 42);
    Tracer::instance().instant("obs.test.instant", 7, 1);
  }
  const TracerSnapshot snap = Tracer::instance().snapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(count_events(snap, "obs.test.span"), 1u);
  EXPECT_EQ(count_events(snap, "obs.test.instant"), 1u);
  for (const TracerThreadSnapshot& thread : snap.threads) {
    for (const TraceEvent& ev : thread.events) {
      if (std::string("obs.test.span") == ev.name) {
        EXPECT_EQ(ev.kind, TraceEventKind::kSpan);
        EXPECT_EQ(ev.session, 7);
        EXPECT_EQ(ev.arg, 42);
        EXPECT_GE(ev.dur_ns, 0);
      }
    }
  }
}

TEST(Tracer, DisabledTracerEmitsNothing) {
  TracerGuard guard(false);
  {
    TraceSpan span("obs.test.disabled");
    Tracer::instance().instant("obs.test.disabled");
  }
  EXPECT_EQ(count_events(Tracer::instance().snapshot(), "obs.test.disabled"), 0u);
}

TEST(Tracer, WrappedRingKeepsNewestEvents) {
  TracerGuard guard(true);
  const std::size_t total = ThreadRing::kCapacity + 128;
  for (std::size_t i = 0; i < total; ++i) {
    Tracer::instance().instant("obs.test.wrap", -1, static_cast<std::int64_t>(i));
  }
  const TracerSnapshot snap = Tracer::instance().snapshot();
  // Find this thread's ring: the one holding the wrap events.
  std::int64_t newest = -1;
  std::size_t kept = 0;
  for (const TracerThreadSnapshot& thread : snap.threads) {
    for (const TraceEvent& ev : thread.events) {
      if (std::string("obs.test.wrap") == ev.name) {
        ++kept;
        newest = std::max(newest, ev.arg);
      }
    }
  }
  EXPECT_LE(kept, ThreadRing::kCapacity);
  EXPECT_GE(kept, ThreadRing::kCapacity / 2);  // most of the ring survives
  EXPECT_EQ(newest, static_cast<std::int64_t>(total - 1));  // newest kept
  EXPECT_GE(snap.total_dropped, total - ThreadRing::kCapacity);
}

TEST(Tracer, ResetHidesPriorEvents) {
  TracerGuard guard(true);
  Tracer::instance().instant("obs.test.before");
  Tracer::instance().reset();
  Tracer::instance().instant("obs.test.after");
  const TracerSnapshot snap = Tracer::instance().snapshot();
  EXPECT_EQ(count_events(snap, "obs.test.before"), 0u);
  EXPECT_EQ(count_events(snap, "obs.test.after"), 1u);
}

TEST(Tracer, ChromeExportIsWellFormed) {
  TracerGuard guard(true);
  {
    TraceSpan span("obs.test.export", 3, 9);
    Tracer::instance().instant("obs.test.mark");
  }
  const std::string json = chrome_trace_json(Tracer::instance().snapshot());
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"obs.test.export\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"tracer\": {"), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  long braces = 0;
  long brackets = 0;
  for (const char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // An empty snapshot still renders a valid skeleton.
  Tracer::instance().reset();
  const std::string empty = chrome_trace_json(Tracer::instance().snapshot());
  EXPECT_NE(empty.find("\"traceEvents\": []"), std::string::npos);
}

TEST(Tracer, SpanArmsAtConstructionNotDestruction) {
  TracerGuard guard(false);
  {
    TraceSpan span("obs.test.late");
    Tracer::instance().set_enabled(true);  // too late: the span was born disarmed
  }
  EXPECT_EQ(count_events(Tracer::instance().snapshot(), "obs.test.late"), 0u);
}

TEST(Tracer, ResetEventsAreNotCountedAsDropped) {
  TracerGuard guard(true);
  for (int i = 0; i < 10; ++i) Tracer::instance().instant("obs.test.before_reset");
  Tracer::instance().reset();
  for (int i = 0; i < 5; ++i) Tracer::instance().instant("obs.test.after_reset");
  const TracerSnapshot snap = Tracer::instance().snapshot();
  EXPECT_EQ(count_events(snap, "obs.test.after_reset"), 5u);
  // No ring wrapped, so nothing was lost: the 10 events below the reset
  // floor were hidden on purpose, not overwritten.
  EXPECT_EQ(snap.total_dropped, 0u);
  for (const TracerThreadSnapshot& thread : snap.threads) {
    EXPECT_EQ(thread.dropped, 0u);
    EXPECT_EQ(thread.emitted, thread.events.size());
  }
}

TraceEvent span_event(const char* name, std::int64_t t_ns, std::int64_t dur_ns) {
  TraceEvent ev;
  ev.name = name;
  ev.t_ns = t_ns;
  ev.dur_ns = dur_ns;
  ev.kind = TraceEventKind::kSpan;
  return ev;
}

TEST(Tracer, ChromeExportRollsSpansUpPerStage) {
  TracerSnapshot snap;
  TracerThreadSnapshot first;
  first.tid = 1;
  first.events = {span_event("extract", 0, 1000), span_event("extract", 5000, 3000),
                  span_event("thin", 9000, 4000)};
  TraceEvent mark;
  mark.name = "mark";
  mark.t_ns = 9500;
  first.events.push_back(mark);
  TracerThreadSnapshot second;
  second.tid = 2;
  second.events = {span_event("extract", 100, 2000)};
  snap.threads = {first, second};
  snap.total_events = 5;

  const std::string json = chrome_trace_json(snap);
  const std::size_t stages = json.find("\"stages\": [");
  ASSERT_NE(stages, std::string::npos);
  const std::string rollup = json.substr(stages);
  EXPECT_NE(rollup.find("{\"name\": \"extract\", \"calls\": 3, \"total_ms\": 0.006, "
                        "\"avg_us\": 2.000, \"max_us\": 3.000}"),
            std::string::npos)
      << rollup;
  EXPECT_NE(rollup.find("{\"name\": \"thin\", \"calls\": 1, \"total_ms\": 0.004, "
                        "\"avg_us\": 4.000, \"max_us\": 4.000}"),
            std::string::npos)
      << rollup;
  // Instants have no duration and get no row; rows are in name order.
  EXPECT_EQ(rollup.find("mark"), std::string::npos);
  EXPECT_LT(rollup.find("\"extract\""), rollup.find("\"thin\""));

  EXPECT_NE(chrome_trace_json(TracerSnapshot{}).find("\"stages\": []"), std::string::npos);
}

/// Kept events on `tid` other than `outer` that lie inside its [t, t + dur].
std::vector<TraceEvent> events_within(const TracerSnapshot& snap, std::uint64_t tid,
                                      const TraceEvent& outer) {
  std::vector<TraceEvent> inside;
  for (const TracerThreadSnapshot& thread : snap.threads) {
    if (thread.tid != tid) continue;
    for (const TraceEvent& ev : thread.events) {
      const bool is_outer = std::string(ev.name) == outer.name && ev.t_ns == outer.t_ns &&
                            ev.dur_ns == outer.dur_ns;
      if (!is_outer && ev.t_ns >= outer.t_ns && ev.t_ns + ev.dur_ns <= outer.t_ns + outer.dur_ns) {
        inside.push_back(ev);
      }
    }
  }
  return inside;
}

std::size_t count_named(const std::vector<TraceEvent>& events, const std::string& name) {
  std::size_t n = 0;
  for (const TraceEvent& ev : events) {
    if (name == ev.name) ++n;
  }
  return n;
}

TEST(Tracer, StreamTickSpansEveryStageInsideItsParent) {
  const synth::Clip clip = mini_clip(2008, 2);
  const pose::PoseDbnClassifier classifier;
  core::StreamManagerConfig config;
  config.workers = 2;
  core::StreamManager manager(classifier, {}, config);
  const int a = manager.open_session(clip.background);
  const int b = manager.open_session(clip.background);
  const std::vector<core::StreamManager::Feed> feeds = {{a, &clip.frames[0]},
                                                         {b, &clip.frames[1]}};
  std::vector<core::StreamUpdate> updates;

  TracerGuard guard(true);
  manager.tick_into(feeds, updates);
  Tracer::instance().set_enabled(false);
  const TracerSnapshot snap = Tracer::instance().snapshot();
  ASSERT_EQ(snap.total_dropped, 0u);

  const std::vector<std::string> frame_children = {"vision", "decode"};
  const std::vector<std::string> vision_children = {"extract", "thin", "skelgraph",
                                                    "features"};
  const std::vector<std::string> extract_children = {"extract.mask", "extract.median",
                                                     "extract.components", "extract.fill"};
  for (const int session : {a, b}) {
    SCOPED_TRACE("session " + std::to_string(session));
    std::size_t frames = 0;
    for (const TracerThreadSnapshot& thread : snap.threads) {
      for (const TraceEvent& frame : thread.events) {
        if (std::string("frame") != frame.name || frame.session != session) continue;
        ++frames;
        const std::vector<TraceEvent> in_frame = events_within(snap, thread.tid, frame);
        for (const std::string& name : frame_children) {
          EXPECT_EQ(count_named(in_frame, name), 1u) << name;
        }
        for (const std::string& name : vision_children) {
          EXPECT_EQ(count_named(in_frame, name), 1u) << name;
        }
        for (const TraceEvent& vision : in_frame) {
          if (std::string("vision") != vision.name) continue;
          const std::vector<TraceEvent> in_vision = events_within(snap, thread.tid, vision);
          for (const std::string& name : vision_children) {
            EXPECT_EQ(count_named(in_vision, name), 1u) << name;
          }
          EXPECT_EQ(count_named(in_vision, "decode"), 0u);
          for (const TraceEvent& extract : in_vision) {
            if (std::string("extract") != extract.name) continue;
            const std::vector<TraceEvent> in_extract = events_within(snap, thread.tid, extract);
            for (const std::string& name : extract_children) {
              EXPECT_EQ(count_named(in_extract, name), 1u) << name;
            }
          }
        }
      }
    }
    EXPECT_EQ(frames, 1u);
  }
  // One tick over two sessions: exactly two of every stage, none stray.
  for (const char* name :
       {"frame", "vision", "extract", "thin", "skelgraph", "features", "decode", "extract.mask",
        "extract.median", "extract.components", "extract.fill"}) {
    EXPECT_EQ(count_events(snap, name), 2u) << name;
  }
}

// ---- histogram edge cases --------------------------------------------------

TEST(LatencyHistogram, EmptyHistogramReportsZero) {
  const ingest::LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.quantile_ms(0.0), 0.0);
  EXPECT_EQ(histogram.quantile_ms(0.5), 0.0);
  EXPECT_EQ(histogram.quantile_ms(0.99), 0.0);
  EXPECT_EQ(histogram.max_ms(), 0.0);
}

TEST(LatencyHistogram, SingleBucketInterpolatesWithinEdges) {
  ingest::LatencyHistogram histogram;
  for (int i = 0; i < 10; ++i) histogram.record(3us);  // bucket [2, 4) µs
  EXPECT_EQ(histogram.count(), 10u);
  const double p50 = histogram.quantile_ms(0.50);
  const double p99 = histogram.quantile_ms(0.99);
  EXPECT_GE(p50, 0.002);
  EXPECT_LE(p99, 0.004);
  EXPECT_LE(p50, p99);
  // Quantile extremes stay inside the one occupied bucket too.
  EXPECT_GE(histogram.quantile_ms(0.0), 0.002);
  EXPECT_LE(histogram.quantile_ms(1.0), 0.004);
}

TEST(LatencyHistogram, SaturatingLatenciesClampIntoLastBucket) {
  ingest::LatencyHistogram histogram;
  histogram.record(std::chrono::hours(24));  // ~8.6e13 µs >> 2^39 µs
  histogram.record(std::chrono::hours(48));
  EXPECT_EQ(histogram.count(), 2u);
  // Both land in the final bucket; the quantile caps at its upper edge
  // rather than overflowing.
  const double cap_ms = static_cast<double>(std::uint64_t{1}
                                            << (ingest::LatencyHistogram::kBuckets - 1)) /
                        1000.0;
  EXPECT_LE(histogram.quantile_ms(0.99), cap_ms);
  EXPECT_GT(histogram.quantile_ms(0.99), 0.0);
  const double expected_max_ms =
      std::chrono::duration<double, std::milli>(std::chrono::hours(48)).count();
  EXPECT_DOUBLE_EQ(histogram.max_ms(), expected_max_ms);
  // Negative latencies clamp to zero instead of wrapping.
  histogram.record(-5ms);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_GE(histogram.quantile_ms(0.0), 0.0);
}

TEST(LatencyHistogram, QuantilesNeverExceedTheRecordedMax) {
  ingest::LatencyHistogram histogram;
  // 2.1 ms sits near the bottom of the [2048, 4096) µs bucket: interpolating
  // p99 across the whole bucket used to report ~4.07 ms, about twice the
  // largest sample.
  for (int i = 0; i < 100; ++i) histogram.record(2100us);
  EXPECT_DOUBLE_EQ(histogram.max_ms(), 2.1);
  EXPECT_DOUBLE_EQ(histogram.quantile_ms(0.99), 2.1);
  EXPECT_DOUBLE_EQ(histogram.quantile_ms(1.0), 2.1);
  EXPECT_GE(histogram.quantile_ms(0.50), 2.048);
  EXPECT_LE(histogram.quantile_ms(0.50), 2.1);
}

TEST(LatencyHistogram, QuantilesNeverFallBelowTheRecordedMin) {
  ingest::LatencyHistogram histogram;
  EXPECT_DOUBLE_EQ(histogram.min_ms(), 0.0);
  // 900 µs sits near the top of the [512, 1024) µs bucket: interpolating
  // across the whole bucket used to report p0 ≈ 0.517 ms and p50 ≈ 0.771 ms,
  // both below the smallest sample.
  for (int i = 0; i < 100; ++i) histogram.record(900us);
  EXPECT_DOUBLE_EQ(histogram.min_ms(), 0.9);
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.quantile_ms(q), 0.9) << "q=" << q;
  }
  // A spread keeps in-bucket interpolation between the exact extremes.
  histogram.record(600us);
  EXPECT_DOUBLE_EQ(histogram.min_ms(), 0.6);
  EXPECT_DOUBLE_EQ(histogram.quantile_ms(0.0), 0.6);
  EXPECT_GE(histogram.quantile_ms(0.5), 0.6);
  EXPECT_LE(histogram.quantile_ms(0.5), 0.9);
}

// ---- SLO hysteresis --------------------------------------------------------

/// One-session snapshot with the given lifetime p99, always delivering.
ingest::IngestMetricsSnapshot latency_sample(double p99_ms, std::uint64_t delivered) {
  ingest::IngestMetricsSnapshot snap;
  ingest::SessionMetricsSnapshot row;
  row.session = 0;
  row.delivered = delivered;
  row.latency_p99_ms = p99_ms;
  snap.sessions.push_back(row);
  return snap;
}

TEST(SloTracker, BoundaryValuesNeverFlap) {
  SloConfig config;
  config.p99_budget_ms = 10.0;
  config.breach_after = 1;
  config.clear_after = 1;
  config.hysteresis = 0.1;
  SloTracker tracker(config);

  // Sitting exactly on the budget is not a breach (entry needs > budget)...
  for (int i = 0; i < 20; ++i) {
    ingest::IngestMetricsSnapshot snap = latency_sample(10.0, 1 + static_cast<std::uint64_t>(i));
    tracker.evaluate(snap);
    EXPECT_STREQ(snap.sessions[0].slo_state, "ok") << "evaluation " << i;
  }
  EXPECT_EQ(tracker.total_breaches(), 0u);

  // ...and once breached, hovering between budget*(1-h) and budget keeps the
  // breach latched: boundary noise cannot flap ok/breach/ok.
  {
    ingest::IngestMetricsSnapshot snap = latency_sample(10.5, 100);
    tracker.evaluate(snap);
    EXPECT_STREQ(snap.sessions[0].slo_state, "breach");
  }
  for (int i = 0; i < 20; ++i) {
    ingest::IngestMetricsSnapshot snap = latency_sample(i % 2 == 0 ? 9.5 : 10.0, 101);
    tracker.evaluate(snap);
    EXPECT_STREQ(snap.sessions[0].slo_state, "breach") << "evaluation " << i;
  }
  EXPECT_EQ(tracker.total_breaches(), 1u);  // one edge, despite 20 boundary polls

  // Clearing requires the full hysteresis margin (<= 9.0).
  ingest::IngestMetricsSnapshot snap = latency_sample(9.0, 102);
  tracker.evaluate(snap);
  EXPECT_STREQ(snap.sessions[0].slo_state, "ok");
}

TEST(SloTracker, BreachAndClearNeedConsecutiveEvaluations) {
  SloConfig config;
  config.p99_budget_ms = 10.0;
  config.breach_after = 3;
  config.clear_after = 2;
  config.hysteresis = 0.1;
  SloTracker tracker(config);

  const auto eval = [&tracker](double p99) {
    ingest::IngestMetricsSnapshot snap = latency_sample(p99, 50);
    std::vector<SloIncident> incidents;
    tracker.evaluate(snap, &incidents);
    return std::make_pair(std::string(snap.sessions[0].slo_state), incidents.size());
  };

  // Two bad evaluations, then a good one: the consecutive counter resets.
  EXPECT_EQ(eval(20.0).first, "ok");
  EXPECT_EQ(eval(20.0).first, "ok");
  EXPECT_EQ(eval(5.0).first, "ok");
  // Three consecutive bad evaluations breach — exactly one incident fires.
  EXPECT_EQ(eval(20.0).first, "ok");
  EXPECT_EQ(eval(20.0).first, "ok");
  const auto [state, incidents] = eval(20.0);
  EXPECT_EQ(state, "breach");
  EXPECT_EQ(incidents, 1u);
  // One good evaluation is not enough to clear with clear_after = 2.
  EXPECT_EQ(eval(1.0).first, "breach");
  EXPECT_EQ(eval(1.0).first, "ok");
  EXPECT_EQ(tracker.total_breaches(), 1u);
}

TEST(SloTracker, DropGaugeScoresIntervalDeltas) {
  SloConfig config;
  config.drop_rate_budget = 0.2;
  config.breach_after = 1;
  config.clear_after = 1;
  SloTracker tracker(config);

  const auto eval = [&tracker](std::uint64_t pushed, std::uint64_t dropped) {
    ingest::IngestMetricsSnapshot snap;
    ingest::SessionMetricsSnapshot row;
    row.session = 0;
    row.pushed = pushed;
    row.dropped_oldest = dropped;
    snap.sessions.push_back(row);
    tracker.evaluate(snap);
    return std::make_pair(std::string(snap.sessions[0].slo_state), snap.sessions[0].drop_rate);
  };

  // First interval: 100 offered, 10 shed -> 10%, within budget.
  auto [state1, rate1] = eval(100, 10);
  EXPECT_EQ(state1, "ok");
  EXPECT_DOUBLE_EQ(rate1, 0.1);
  // Second interval: +100 offered, +50 shed -> 50% for the interval even
  // though the lifetime ratio is 30%.
  auto [state2, rate2] = eval(200, 60);
  EXPECT_EQ(state2, "breach");
  EXPECT_DOUBLE_EQ(rate2, 0.5);
  // A silent interval (no new offers) leaves gauge and rate untouched.
  auto [state3, rate3] = eval(200, 60);
  EXPECT_EQ(state3, "breach");
  EXPECT_DOUBLE_EQ(rate3, 0.5);
}

TEST(SloTracker, NoBudgetsMeansUntracked) {
  SloTracker tracker{SloConfig{}};
  ingest::IngestMetricsSnapshot snap = latency_sample(1000.0, 50);
  tracker.evaluate(snap);
  EXPECT_STREQ(snap.sessions[0].slo_state, "untracked");
  EXPECT_EQ(snap.slo_breaches, 0u);
  EXPECT_EQ(snap.slo_breached_sessions, 0u);
}

// ---- flight recorder -------------------------------------------------------

struct Rig {
  ManualClock clock;
  pose::PoseDbnClassifier classifier;
  synth::Clip clip = mini_clip();
  std::unique_ptr<ingest::IngestService> service;

  explicit Rig(unsigned workers = 2) {
    ingest::IngestServiceConfig config;
    config.manager.workers = workers;
    config.router.clock = clock.fn();
    service = std::make_unique<ingest::IngestService>(classifier, core::PipelineParams{}, config);
  }

  ingest::IngestSessionConfig session_config(std::size_t capacity = 2) {
    ingest::IngestSessionConfig config;
    config.queue.capacity = capacity;
    config.queue.policy = ingest::BackpressurePolicy::kDropOldest;
    return config;
  }

  /// One deterministic round: pushes per session, clock advance, inline
  /// drain (scheduler stopped) — the cmd_record recipe.
  void round(const std::vector<int>& ids, int pushes, std::vector<std::size_t>& next) {
    for (std::size_t s = 0; s < ids.size(); ++s) {
      for (int k = 0; k < pushes; ++k) {
        service->push(ids[s], clip.frames[next[s] % clip.frames.size()]);
        ++next[s];
      }
    }
    clock.advance(16ms);
    service->flush();
  }
};

void expect_replays_identically(const std::string& path, const pose::PoseDbnClassifier& classifier,
                                std::uint64_t expect_frames) {
  for (const unsigned workers : {1u, 2u, 4u}) {
    replay::ReplayOptions options;
    options.workers = workers;
    const replay::ReplayResult result =
        replay::TraceReplayer(classifier, {}, options).replay_file(path);
    EXPECT_TRUE(result.identical()) << "workers " << workers << ": " << result.first_mismatch();
    EXPECT_EQ(result.frames_replayed, expect_frames) << "workers " << workers;
  }
}

TEST(FlightRecorder, LiveDumpReplaysIdenticallyAcrossWorkers) {
  Rig rig;
  FlightRecorder recorder;
  rig.service->set_tap(&recorder);

  const auto session_config = rig.session_config();
  std::vector<int> ids;
  for (int s = 0; s < 3; ++s) {
    ids.push_back(rig.service->open_session(rig.clip.background, session_config));
  }
  std::vector<std::size_t> next{0, 3, 6};  // staggered feeds
  // 3 pushes into capacity-2 queues: drop-oldest sheds one per round, so the
  // dump must reproduce replaced frames, not just clean deliveries.
  for (int r = 0; r < 6; ++r) rig.round(ids, 3, next);
  for (const int id : ids) rig.service->close_session(id);

  const std::string path = temp_path("flight_closed.sljtrace");
  const FlightRecorder::DumpStats stats = recorder.dump(path);
  EXPECT_EQ(stats.sessions, 3u);
  EXPECT_EQ(stats.closes, 3u);
  EXPECT_EQ(stats.pushes, 3u * 6u * 3u);
  EXPECT_EQ(stats.truncated_sessions, 0u);
  EXPECT_TRUE(stats.has_summary);  // quiescent plane: totals balance

  const ingest::IngestMetricsSnapshot end = rig.service->metrics();
  expect_replays_identically(path, rig.classifier, end.delivered);
}

/// Forwards every event to a FlightRecorder but logs the first admitted push
/// only after the tick that consumed it: the producer-side race in which a
/// push record lands after its tick.
class LatePushTap : public ingest::IngestTap {
 public:
  explicit LatePushTap(FlightRecorder& recorder) : recorder_(recorder) {}

  void on_open(ingest::Clock::time_point now, int session,
               const ingest::IngestSessionConfig& config, const RgbImage& background) override {
    recorder_.on_open(now, session, config, background);
  }
  void on_push(ingest::Clock::time_point now, int session, const RgbImage& frame,
               ingest::PushOutcome outcome, std::uint64_t sequence) override {
    if (!held_ && !released_ && ingest::push_accepted(outcome)) {
      held_ = Held{now, session, frame, outcome, sequence};
      return;
    }
    recorder_.on_push(now, session, frame, outcome, sequence);
  }
  void on_tick(ingest::Clock::time_point now, const ingest::DrainBatch& batch,
               const std::vector<core::StreamUpdate>& updates, std::size_t count) override {
    recorder_.on_tick(now, batch, updates, count);
    if (held_) {
      recorder_.on_push(held_->now, held_->session, held_->frame, held_->outcome,
                        held_->sequence);
      held_.reset();
      released_ = true;
    }
  }
  void on_close(ingest::Clock::time_point now, int session, const core::JumpReport& report,
                std::uint64_t discarded, bool evicted) override {
    recorder_.on_close(now, session, report, discarded, evicted);
  }

  bool released() const { return released_; }

 private:
  struct Held {
    ingest::Clock::time_point now;
    int session;
    RgbImage frame;
    ingest::PushOutcome outcome;
    std::uint64_t sequence;
  };
  FlightRecorder& recorder_;
  std::optional<Held> held_;
  bool released_ = false;
};

TEST(FlightRecorder, PushLoggedAfterItsTickReplaysFromTheFile) {
  Rig rig;
  FlightRecorder recorder;
  LatePushTap tap(recorder);
  rig.service->set_tap(&tap);

  // Queues deep enough that nothing is shed: the held push (the first
  // admitted frame) feeds the first tick's first entry.
  std::vector<int> ids;
  for (int s = 0; s < 2; ++s) {
    ids.push_back(rig.service->open_session(rig.clip.background, rig.session_config(4)));
  }
  std::vector<std::size_t> next{0, 4};
  for (int r = 0; r < 4; ++r) rig.round(ids, 2, next);
  for (const int id : ids) rig.service->close_session(id);
  ASSERT_TRUE(tap.released());

  const std::string path = temp_path("flight_late_push.sljtrace");
  const FlightRecorder::DumpStats stats = recorder.dump(path);
  EXPECT_EQ(stats.truncated_sessions, 0u);  // the push landed before the dump
  EXPECT_TRUE(stats.has_summary);

  // The dump keeps capture order, so the first tick precedes the push that
  // fed its first entry.
  const replay::Trace trace = replay::load_trace(path);
  std::ptrdiff_t tick_at = -1;
  std::ptrdiff_t push_at = -1;
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const auto* tick = std::get_if<replay::TickRecord>(&trace.records[i]);
    if (tick == nullptr) continue;
    const replay::TickEntry& first = tick->entries.at(0);
    tick_at = static_cast<std::ptrdiff_t>(i);
    for (std::size_t j = 0; j < trace.records.size(); ++j) {
      const auto* push = std::get_if<replay::PushRecord>(&trace.records[j]);
      if (push != nullptr && ingest::push_accepted(push->outcome) &&
          push->session == first.session && push->sequence == first.sequence) {
        push_at = static_cast<std::ptrdiff_t>(j);
      }
    }
    break;
  }
  ASSERT_GE(tick_at, 0);
  EXPECT_GT(push_at, tick_at);

  const ingest::IngestMetricsSnapshot end = rig.service->metrics();
  expect_replays_identically(path, rig.classifier, end.delivered);
  const replay::TraceReplayer replayer(rig.classifier);
  EXPECT_TRUE(replayer.replay(trace).identical());
  rig.service->set_tap(nullptr);
}

TEST(FlightRecorder, ConsecutiveIdleDumpsAreByteIdentical) {
  Rig rig;
  FlightRecorder recorder;
  rig.service->set_tap(&recorder);
  const int id = rig.service->open_session(rig.clip.background, rig.session_config(4));
  std::vector<std::size_t> next{0};
  for (int r = 0; r < 3; ++r) rig.round({id}, 2, next);
  rig.service->close_session(id);

  // A dump reads a snapshot and leaves the capture as it was.
  const std::size_t bytes = recorder.bytes();
  const std::string first = temp_path("flight_idle_1.sljtrace");
  const std::string second = temp_path("flight_idle_2.sljtrace");
  recorder.dump(first);
  EXPECT_EQ(recorder.bytes(), bytes);
  recorder.dump(second);
  EXPECT_EQ(recorder.bytes(), bytes);
  const auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  };
  const std::string a = read(first);
  EXPECT_GT(a.size(), 12u);
  EXPECT_EQ(a, read(second));
}

TEST(FlightRecorder, DumpWithSessionsStillOpenIsValid) {
  Rig rig;
  FlightRecorder recorder;
  rig.service->set_tap(&recorder);

  std::vector<int> ids;
  for (int s = 0; s < 2; ++s) {
    ids.push_back(rig.service->open_session(rig.clip.background, rig.session_config(4)));
  }
  std::vector<std::size_t> next{0, 5};
  for (int r = 0; r < 4; ++r) rig.round(ids, 2, next);

  // No close records: the plane is mid-flight but flushed, so the dump is
  // structurally complete and still balances.
  const std::string path = temp_path("flight_open.sljtrace");
  const FlightRecorder::DumpStats stats = recorder.dump(path);
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.closes, 0u);
  EXPECT_TRUE(stats.has_summary);
  EXPECT_GT(stats.span_ns, 0);

  const ingest::IngestMetricsSnapshot end = rig.service->metrics();
  expect_replays_identically(path, rig.classifier, end.delivered);
  for (const int id : ids) rig.service->close_session(id);
}

TEST(FlightRecorder, WindowEvictsClosedSessions) {
  Rig rig;
  FlightRecorderConfig config;
  config.window_ns = std::chrono::nanoseconds(1s).count();
  FlightRecorder recorder(config);
  rig.service->set_tap(&recorder);

  const int early = rig.service->open_session(rig.clip.background, rig.session_config(4));
  std::vector<std::size_t> next{0};
  rig.round({early}, 2, next);
  rig.service->close_session(early);
  EXPECT_EQ(recorder.sessions(), 1u);

  // A later session far outside the window pushes the closed one out.
  rig.clock.advance(5s);
  const int late = rig.service->open_session(rig.clip.background, rig.session_config(4));
  std::vector<std::size_t> late_next{0};
  rig.round({late}, 2, late_next);
  EXPECT_EQ(recorder.sessions(), 1u);
  EXPECT_EQ(recorder.evicted_sessions(), 1u);

  const std::string path = temp_path("flight_window.sljtrace");
  const FlightRecorder::DumpStats stats = recorder.dump(path);
  EXPECT_EQ(stats.sessions, 1u);  // only the live session remains
  EXPECT_EQ(stats.closes, 0u);
  expect_replays_identically(path, rig.classifier, 2);
  rig.service->close_session(late);
}

TEST(FlightRecorder, ByteBudgetTaintsOldestOpenSession) {
  Rig rig;
  FlightRecorderConfig config;
  // Two 96x64 backgrounds (~18 KiB each) fit; the first admitted frames
  // overflow, forcing the recorder to shed the longest-running open session.
  config.max_bytes = 48u << 10;
  FlightRecorder recorder(config);
  rig.service->set_tap(&recorder);

  const int a = rig.service->open_session(rig.clip.background, rig.session_config(4));
  const int b = rig.service->open_session(rig.clip.background, rig.session_config(4));
  std::vector<std::size_t> next{0, 5};
  for (int r = 0; r < 3; ++r) rig.round({a, b}, 2, next);

  EXPECT_GE(recorder.evicted_sessions(), 1u);
  EXPECT_LT(recorder.sessions(), 2u);

  // The dump only ever contains complete-from-open sessions, so whatever
  // survived the shed still replays cleanly.
  const std::string path = temp_path("flight_budget.sljtrace");
  const FlightRecorder::DumpStats stats = recorder.dump(path);
  EXPECT_EQ(stats.sessions, recorder.sessions());
  EXPECT_EQ(stats.truncated_sessions, 0u);
  replay::ReplayOptions options;
  options.workers = 2;
  const replay::ReplayResult result =
      replay::TraceReplayer(rig.classifier, {}, options).replay_file(path);
  EXPECT_TRUE(result.identical()) << result.first_mismatch();
  rig.service->close_session(a);
  rig.service->close_session(b);
}

// ---- service monitor -------------------------------------------------------

TEST(ServiceMonitor, ForcedBreachProducesReplayableIncidentOnce) {
  TracerGuard tracer_guard(false);  // the monitor flips it on; guard restores
  Rig rig;
  ServiceMonitorConfig config;
  config.slo.p99_budget_ms = 0.001;  // 16 ms manual-clock latency always breaches
  config.slo.breach_after = 1;
  config.incident_dir = ::testing::TempDir();
  config.max_incidents = 2;
  ServiceMonitor monitor(*rig.service, config);
  EXPECT_TRUE(Tracer::instance().enabled());

  const int id = rig.service->open_session(rig.clip.background, rig.session_config(4));
  std::vector<std::size_t> next{0};
  for (int r = 0; r < 3; ++r) rig.round({id}, 2, next);

  const ingest::IngestMetricsSnapshot snap = monitor.poll();
  EXPECT_STREQ(snap.sessions[0].slo_state, "breach");
  EXPECT_EQ(snap.slo_breached_sessions, 1u);
  ASSERT_EQ(monitor.incident_paths().size(), 1u);
  const std::string path = monitor.incident_paths()[0];
  EXPECT_TRUE(std::filesystem::exists(path));
  expect_replays_identically(path, rig.classifier, snap.delivered);
  // The breach edge fired a tracer instant alongside the dump.
  EXPECT_GE(count_events(Tracer::instance().snapshot(), "slo.breach"), 1u);

  // Still breached on the next poll: latched, so no second incident.
  rig.round({id}, 2, next);
  monitor.poll();
  EXPECT_EQ(monitor.incidents(), 1u);
  EXPECT_EQ(monitor.incident_paths().size(), 1u);
  rig.service->close_session(id);
}

TEST(ServiceMonitor, ExplicitTriggerHonorsIncidentCap) {
  TracerGuard tracer_guard(false);
  Rig rig;
  ServiceMonitorConfig config;
  config.incident_dir = ::testing::TempDir();
  config.max_incidents = 1;
  ServiceMonitor monitor(*rig.service, config);

  const int id = rig.service->open_session(rig.clip.background, rig.session_config(4));
  std::vector<std::size_t> next{0};
  rig.round({id}, 2, next);

  const std::string first = monitor.trigger_incident("signal");
  EXPECT_FALSE(first.empty());
  EXPECT_TRUE(std::filesystem::exists(first));
  EXPECT_EQ(monitor.trigger_incident("signal"), "");  // cap reached
  EXPECT_EQ(monitor.incidents(), 1u);
  rig.service->close_session(id);
}

// ---- snapshot stamps and per-session latency rows --------------------------

TEST(IngestMetrics, SnapshotSequenceAndWallClockAreMonotonic) {
  Rig rig;
  const ingest::IngestMetricsSnapshot first = rig.service->metrics();
  const ingest::IngestMetricsSnapshot second = rig.service->metrics();
  EXPECT_GT(first.sequence, 0u);
  EXPECT_GT(second.sequence, first.sequence);
  EXPECT_GT(first.wall_ms, 0);
  EXPECT_GE(second.wall_ms, first.wall_ms);
  // The stamps land in the JSON dashboards poll.
  EXPECT_NE(first.to_json().find("\"sequence\": "), std::string::npos);
  EXPECT_NE(first.to_json().find("\"wall_ms\": "), std::string::npos);
}

TEST(IngestMetrics, PerSessionRowsCarryLatencyQuantiles) {
  Rig rig;
  const int id = rig.service->open_session(rig.clip.background, rig.session_config(4));
  std::vector<std::size_t> next{0};
  for (int r = 0; r < 4; ++r) rig.round({id}, 2, next);

  const ingest::IngestMetricsSnapshot snap = rig.service->metrics();
  ASSERT_EQ(snap.sessions.size(), 1u);
  const ingest::SessionMetricsSnapshot& row = snap.sessions[0];
  EXPECT_EQ(row.delivered, 8u);
  // Manual clock: every delivery is one 16 ms round old.
  EXPECT_GT(row.latency_p50_ms, 0.0);
  EXPECT_LE(row.latency_p50_ms, row.latency_p99_ms);
  EXPECT_NE(snap.to_json().find("\"slo_state\": \"untracked\""), std::string::npos);
  rig.service->close_session(id);
}

}  // namespace
}  // namespace slj::obs
