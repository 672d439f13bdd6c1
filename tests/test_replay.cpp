// Record/replay regression harness tests:
//   * golden parity — a deterministically recorded 3-session ingest run must
//     replay bit-identically at any worker count, under all three
//     backpressure policies (plus rate limiting and idle eviction);
//   * the checked-in trace corpus (tests/corpus/*.sljtrace) replays
//     bit-identically modulo a posterior tolerance for cross-libm builds;
//   * divergence detection — a tampered golden output is reported, not
//     silently accepted;
//   * format robustness — truncated files, bit-flipped bytes and oversized
//     length prefixes fail with std::runtime_error, never UB (this file is
//     part of the ASan/UBSan job: scripts/ci.sh --sanitize / --replay).
#include "replay/trace_replayer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ingest/ingest_service.hpp"
#include "obs/flight_recorder.hpp"
#include "synth/dataset.hpp"

namespace slj::replay {
namespace {

using namespace std::chrono_literals;

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// Tiny noise-free studio clip: flat-colour frames keep traces small and the
/// vision pass fast while still driving the full pipeline.
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

struct RecordSpec {
  ingest::BackpressurePolicy policy = ingest::BackpressurePolicy::kDropOldest;
  int sessions = 3;
  int frames_per_session = 8;
  int pushes_per_round = 3;  ///< > capacity exercises the shed path
  std::size_t capacity = 2;
  double rate_tokens_per_second = 0.0;
};

/// The recorder `sljtool record` captures with: a zero window keeps every
/// closed session, so a dump after the last close is the whole run.
obs::FlightRecorderConfig whole_run() {
  obs::FlightRecorderConfig config;
  config.window_ns = 0;
  return config;
}

/// Dumps `recorder` to `path` after every session has closed and asserts the
/// dump is the whole run: all `opened` sessions, none truncated or evicted,
/// and a summary equal to the plane's own counters.
void dump_whole_run(obs::FlightRecorder& recorder, const std::string& path, std::size_t opened,
                    const ingest::IngestMetricsSnapshot& metrics) {
  const obs::FlightRecorder::DumpStats stats = recorder.dump(path);
  EXPECT_EQ(stats.sessions, opened);
  EXPECT_EQ(stats.truncated_sessions, 0u);
  EXPECT_TRUE(stats.has_summary);
  EXPECT_EQ(recorder.evicted_sessions(), 0u);

  const Trace trace = load_trace(path);
  ASSERT_FALSE(trace.records.empty());
  const auto* summary = std::get_if<SummaryRecord>(&trace.records.back());
  ASSERT_NE(summary, nullptr) << "the dump ends without a summary record";
  EXPECT_EQ(summary->pushed, metrics.pushed);
  EXPECT_EQ(summary->delivered, metrics.delivered);
  EXPECT_EQ(summary->dropped_oldest, metrics.dropped_oldest);
  EXPECT_EQ(summary->rejected, metrics.rejected);
  EXPECT_EQ(summary->rate_limited, metrics.rate_limited);
  EXPECT_EQ(summary->closed_pushes, metrics.closed_pushes);
  EXPECT_EQ(summary->discarded, metrics.discarded);
  EXPECT_EQ(summary->ticks, metrics.ticks);
  EXPECT_EQ(summary->evicted_sessions, metrics.evicted_sessions);
}

/// Deterministic in-process recording: manual clock, stopped scheduler,
/// inline flush() drains — the same recipe as `sljtool record`.
void record_trace(const std::string& path, const pose::PoseDbnClassifier& classifier,
                  const synth::Clip& clip, const RecordSpec& spec) {
  ManualClock clock;
  ingest::IngestServiceConfig config;
  config.manager.workers = 2;
  config.router.clock = clock.fn();
  ingest::IngestService service(classifier, {}, config);
  obs::FlightRecorder recorder(whole_run());
  service.set_tap(&recorder);

  ingest::IngestSessionConfig session_config;
  session_config.queue.capacity = spec.capacity;
  session_config.queue.policy = spec.policy;
  session_config.queue.rate.tokens_per_second = spec.rate_tokens_per_second;
  session_config.queue.rate.burst = 2.0;
  int per_round = spec.pushes_per_round;
  if (spec.policy == ingest::BackpressurePolicy::kBlock &&
      per_round > static_cast<int>(spec.capacity)) {
    per_round = static_cast<int>(spec.capacity);  // a blocking push would deadlock
  }

  std::vector<int> ids;
  for (int s = 0; s < spec.sessions; ++s) {
    ids.push_back(service.open_session(clip.background, session_config));
  }
  std::vector<std::size_t> next(ids.size());
  for (std::size_t s = 0; s < ids.size(); ++s) next[s] = s;
  const long target = static_cast<long>(spec.frames_per_session) * spec.sessions;
  long pushed = 0;
  while (pushed < target) {
    for (std::size_t s = 0; s < ids.size(); ++s) {
      for (int k = 0; k < per_round && pushed < target; ++k) {
        service.push(ids[s], clip.frames[next[s] % clip.frames.size()]);
        ++next[s];
        ++pushed;
      }
    }
    clock.advance(16ms);
    service.flush();
  }
  for (const int id : ids) service.close_session(id);
  dump_whole_run(recorder, path, ids.size(), service.metrics());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

/// Field-by-field equality of two replay results.
void expect_same_result(const ReplayResult& a, const ReplayResult& b, const std::string& where) {
  EXPECT_EQ(a.sessions_opened, b.sessions_opened) << where;
  EXPECT_EQ(a.sessions_closed, b.sessions_closed) << where;
  EXPECT_EQ(a.ticks, b.ticks) << where;
  EXPECT_EQ(a.frames_replayed, b.frames_replayed) << where;
  EXPECT_EQ(a.recorded_span_ns, b.recorded_span_ns) << where;
  EXPECT_EQ(a.has_summary, b.has_summary) << where;
  EXPECT_EQ(a.update_mismatches, b.update_mismatches) << where;
  EXPECT_EQ(a.report_mismatches, b.report_mismatches) << where;
  EXPECT_EQ(a.accounting_mismatches, b.accounting_mismatches) << where;
  EXPECT_EQ(a.mismatches, b.mismatches) << where;
}

// ---- golden parity ---------------------------------------------------------

TEST(Replay, GoldenParityAcrossWorkersAndPolicies) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = mini_clip();
  const ingest::BackpressurePolicy policies[] = {
      ingest::BackpressurePolicy::kBlock,
      ingest::BackpressurePolicy::kDropOldest,
      ingest::BackpressurePolicy::kRejectNewest,
  };
  for (const auto policy : policies) {
    const std::string path =
        temp_path(std::string("parity_") + ingest::policy_name(policy) + ".sljtrace");
    RecordSpec spec;
    spec.policy = policy;
    record_trace(path, classifier, clip, spec);

    for (const unsigned workers : {1u, 2u, 4u}) {
      ReplayOptions options;
      options.workers = workers;  // tolerance 0: must be bit-identical
      const ReplayResult result = TraceReplayer(classifier, {}, options).replay_file(path);
      EXPECT_TRUE(result.identical())
          << ingest::policy_name(policy) << " @ " << workers
          << " workers: " << result.first_mismatch();
      EXPECT_EQ(result.sessions_opened, 3u);
      EXPECT_EQ(result.sessions_closed, 3u);
      EXPECT_GT(result.frames_replayed, 0u);
      EXPECT_TRUE(result.has_summary);
    }
  }
}

TEST(Replay, RateLimitedRecordingReplaysIdentically) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = mini_clip();
  const std::string path = temp_path("parity_rate.sljtrace");
  RecordSpec spec;
  spec.pushes_per_round = 2;
  spec.rate_tokens_per_second = 30.0;  // every other 16 ms round runs dry
  record_trace(path, classifier, clip, spec);

  const ReplayResult result = TraceReplayer(classifier).replay_file(path);
  EXPECT_TRUE(result.identical()) << result.first_mismatch();

  // The limiter must actually have shed pushes, or the test proves nothing.
  const Trace trace = load_trace(path);
  std::uint64_t rate_limited = 0;
  for (const TraceRecord& record : trace.records) {
    if (const auto* push = std::get_if<PushRecord>(&record)) {
      rate_limited += push->outcome == ingest::PushOutcome::kRateLimited ? 1 : 0;
    }
  }
  EXPECT_GT(rate_limited, 0u);
}

TEST(Replay, IdleEvictionRoundTrips) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = mini_clip();
  const std::string path = temp_path("parity_evict.sljtrace");

  ManualClock clock;
  ingest::IngestServiceConfig config;
  config.manager.workers = 1;
  config.router.clock = clock.fn();
  ingest::IngestService service(classifier, {}, config);
  obs::FlightRecorder recorder(whole_run());
  service.set_tap(&recorder);

  ingest::IngestSessionConfig evictable;
  evictable.queue.capacity = 4;
  evictable.idle_timeout = 100ms;
  const int dies = service.open_session(clip.background, evictable);
  const int lives = service.open_session(clip.background, evictable);

  for (int i = 0; i < 3; ++i) {
    service.push(dies, clip.frames[static_cast<std::size_t>(i)]);
    service.push(lives, clip.frames[static_cast<std::size_t>(i)]);
    clock.advance(16ms);
    service.flush();
  }
  // Only `lives` stays active; the next pass evicts `dies` mid-recording.
  clock.advance(200ms);
  service.push(lives, clip.frames[3]);
  service.flush();
  service.close_session(lives);
  dump_whole_run(recorder, path, 2, service.metrics());

  for (const unsigned workers : {1u, 3u}) {
    ReplayOptions options;
    options.workers = workers;
    const ReplayResult result = TraceReplayer(classifier, {}, options).replay_file(path);
    EXPECT_TRUE(result.identical()) << result.first_mismatch();
    EXPECT_EQ(result.sessions_closed, 2u);  // one evicted, one closed
  }
}

// ---- the checked-in corpus -------------------------------------------------

TEST(Replay, CorpusReplaysBitIdentically) {
  const std::filesystem::path corpus(SLJ_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(corpus)) << corpus;

  const pose::PoseDbnClassifier classifier;  // corpus is recorded untrained
  std::size_t traces = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() != ".sljtrace") continue;
    ++traces;
    for (const unsigned workers : {1u, 4u}) {
      ReplayOptions options;
      options.workers = workers;
      // Posteriors come out of exp/log, which differ by a few ulps across
      // libm builds; everything else must still match exactly.
      options.posterior_tolerance = 1e-9;
      const ReplayResult result =
          TraceReplayer(classifier, {}, options).replay_file(entry.path().string());
      EXPECT_TRUE(result.identical())
          << entry.path().filename() << " @ " << workers << " workers: "
          << result.first_mismatch();
      EXPECT_EQ(result.sessions_opened, 3u) << entry.path().filename();
      EXPECT_TRUE(result.has_summary) << entry.path().filename();
    }
  }
  // One per backpressure policy plus the rate-limited run.
  EXPECT_GE(traces, 4u);
}

TEST(Replay, StreamedReplayMatchesInMemoryReplayOnCorpus) {
  const std::filesystem::path corpus(SLJ_CORPUS_DIR);
  const pose::PoseDbnClassifier classifier;
  std::size_t traces = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() != ".sljtrace") continue;
    ++traces;
    const Trace loaded = load_trace(entry.path().string());
    for (const unsigned workers : {1u, 2u, 4u}) {
      ReplayOptions options;
      options.workers = workers;
      options.posterior_tolerance = 1e-9;
      const TraceReplayer replayer(classifier, {}, options);
      const ReplayResult streamed = replayer.replay_file(entry.path().string());
      EXPECT_TRUE(streamed.identical()) << entry.path().filename() << ": "
                                        << streamed.first_mismatch();
      expect_same_result(streamed, replayer.replay(loaded),
                         entry.path().filename().string() + " @ " + std::to_string(workers) +
                             " workers");
    }
  }
  EXPECT_GE(traces, 4u);
}

// ---- divergence detection --------------------------------------------------

TEST(Replay, DetectsTamperedGoldenOutputs) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = mini_clip();
  const std::string path = temp_path("tamper_base.sljtrace");
  RecordSpec spec;
  record_trace(path, classifier, clip, spec);
  const Trace trace = load_trace(path);

  {  // a flipped posterior ulp must be caught at tolerance 0
    Trace tampered = trace;
    bool done = false;
    for (TraceRecord& record : tampered.records) {
      if (auto* tick = std::get_if<TickRecord>(&record); tick && !tick->entries.empty()) {
        tick->entries[0].update.result.posterior =
            tick->entries[0].update.result.posterior * (1.0 + 1e-15) + 1e-300;
        done = true;
        break;
      }
    }
    ASSERT_TRUE(done);
    const std::string tampered_path = temp_path("tamper_posterior.sljtrace");
    save_trace(tampered, tampered_path);
    const ReplayResult result = TraceReplayer(classifier).replay_file(tampered_path);
    EXPECT_GT(result.update_mismatches, 0u);
    EXPECT_FALSE(result.identical());
  }

  {  // a tampered final report must be caught
    Trace tampered = trace;
    bool done = false;
    for (TraceRecord& record : tampered.records) {
      if (auto* close = std::get_if<CloseRecord>(&record);
          close && !close->report.findings.empty()) {
        close->report.findings[0].passed = !close->report.findings[0].passed;
        done = true;
        break;
      }
    }
    ASSERT_TRUE(done);
    const std::string tampered_path = temp_path("tamper_report.sljtrace");
    save_trace(tampered, tampered_path);
    const ReplayResult result = TraceReplayer(classifier).replay_file(tampered_path);
    EXPECT_GT(result.report_mismatches, 0u);
  }

  {  // cooked books: a wrong discard count breaks the accounting re-balance
    Trace tampered = trace;
    bool done = false;
    for (TraceRecord& record : tampered.records) {
      if (auto* close = std::get_if<CloseRecord>(&record)) {
        close->discarded += 1;
        done = true;
        break;
      }
    }
    ASSERT_TRUE(done);
    const std::string tampered_path = temp_path("tamper_books.sljtrace");
    save_trace(tampered, tampered_path);
    const ReplayResult result = TraceReplayer(classifier).replay_file(tampered_path);
    EXPECT_GT(result.accounting_mismatches, 0u);
  }
}

TEST(Replay, RejectsStructurallyTornTraces) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = mini_clip();
  const std::string path = temp_path("torn_base.sljtrace");
  RecordSpec spec;
  record_trace(path, classifier, clip, spec);
  const Trace trace = load_trace(path);

  {  // a tick naming a session that never opened (torn prefix)
    Trace torn = trace;
    std::erase_if(torn.records,
                  [](const TraceRecord& r) { return std::holds_alternative<OpenRecord>(r); });
    const std::string torn_path = temp_path("torn_no_open.sljtrace");
    save_trace(torn, torn_path);
    EXPECT_THROW(TraceReplayer(classifier).replay_file(torn_path), std::runtime_error);
  }

  {  // a tick referencing a frame no push record admitted
    Trace torn = trace;
    bool done = false;
    for (TraceRecord& record : torn.records) {
      if (auto* tick = std::get_if<TickRecord>(&record); tick && !tick->entries.empty()) {
        tick->entries[0].sequence += 1000;
        done = true;
        break;
      }
    }
    ASSERT_TRUE(done);
    const std::string torn_path = temp_path("torn_frame.sljtrace");
    save_trace(torn, torn_path);
    EXPECT_THROW(TraceReplayer(classifier).replay_file(torn_path), std::runtime_error);
  }
}

// ---- format round trip -----------------------------------------------------

TEST(TraceFormat, RoundTripPreservesEveryRecordType) {
  Trace trace;
  OpenRecord open;
  open.t_ns = 123;
  open.session = 0;
  open.config.queue_capacity = 5;
  open.config.policy = ingest::BackpressurePolicy::kRejectNewest;
  open.config.rate_tokens_per_second = 12.5;
  open.config.idle_timeout_ns = 777;
  open.background = std::make_shared<const RgbImage>(8, 4, Rgb{10, 20, 30});  // flat: RLE
  trace.records.emplace_back(open);

  PushRecord push;
  push.t_ns = 456;
  push.session = 0;
  push.outcome = ingest::PushOutcome::kAccepted;
  push.sequence = 7;
  RgbImage pixels(3, 3);
  for (int y = 0; y < 3; ++y) {  // every pixel distinct: exercises the raw path
    for (int x = 0; x < 3; ++x) {
      pixels.at(x, y) = Rgb{static_cast<std::uint8_t>(x * 40 + y),
                            static_cast<std::uint8_t>(y * 80), static_cast<std::uint8_t>(x)};
    }
  }
  push.frame = std::make_shared<const RgbImage>(std::move(pixels));
  trace.records.emplace_back(push);

  TickRecord tick;
  tick.t_ns = 789;
  TickEntry entry;
  entry.session = 0;
  entry.sequence = 7;
  entry.update.frame_index = 7;
  entry.update.airborne = true;
  entry.update.result.pose = pose::PoseId::kAirTuckHandsForward;
  entry.update.result.best_pose = pose::PoseId::kUnknown;
  entry.update.result.posterior = 0.123456789012345;
  entry.update.result.stage = pose::Stage::kInTheAir;
  entry.update.result.candidate_index = -1;
  core::ResolvedFault fault;
  fault.finding.rule = core::FaultRule::kFlightLegCarry;
  fault.finding.passed = true;
  fault.finding.evidence_frames = {5, 6, 7};
  fault.frame = 7;
  entry.update.resolved.push_back(fault);
  tick.entries.push_back(entry);
  trace.records.emplace_back(tick);

  CloseRecord close;
  close.t_ns = 1000;
  close.session = 0;
  close.evicted = true;
  close.discarded = 2;
  close.report.findings.push_back(fault.finding);
  trace.records.emplace_back(close);

  SummaryRecord summary;
  summary.pushed = 11;
  summary.delivered = 8;
  summary.dropped_oldest = 1;
  summary.discarded = 2;
  summary.ticks = 9;
  trace.records.emplace_back(summary);

  const std::string path = temp_path("roundtrip.sljtrace");
  save_trace(trace, path);
  const Trace loaded = load_trace(path);
  ASSERT_EQ(loaded.records.size(), trace.records.size());

  const auto& open2 = std::get<OpenRecord>(loaded.records[0]);
  EXPECT_EQ(open2.t_ns, 123);
  EXPECT_EQ(open2.config.queue_capacity, 5u);
  EXPECT_EQ(open2.config.policy, ingest::BackpressurePolicy::kRejectNewest);
  ASSERT_TRUE(open2.background);
  EXPECT_EQ(*open2.background, *open.background);

  const auto& push2 = std::get<PushRecord>(loaded.records[1]);
  EXPECT_EQ(push2.sequence, 7u);
  ASSERT_TRUE(push2.frame);
  EXPECT_EQ(*push2.frame, *push.frame);

  const auto& tick2 = std::get<TickRecord>(loaded.records[2]);
  ASSERT_EQ(tick2.entries.size(), 1u);
  EXPECT_EQ(tick2.entries[0].update.result.pose, pose::PoseId::kAirTuckHandsForward);
  EXPECT_EQ(tick2.entries[0].update.result.best_pose, pose::PoseId::kUnknown);
  EXPECT_EQ(tick2.entries[0].update.result.posterior, 0.123456789012345);  // bit-exact
  EXPECT_EQ(tick2.entries[0].update.result.candidate_index, -1);
  ASSERT_EQ(tick2.entries[0].update.resolved.size(), 1u);
  EXPECT_EQ(tick2.entries[0].update.resolved[0].finding.evidence_frames,
            (std::vector<int>{5, 6, 7}));

  const auto& close2 = std::get<CloseRecord>(loaded.records[3]);
  EXPECT_TRUE(close2.evicted);
  EXPECT_EQ(close2.discarded, 2u);
  ASSERT_EQ(close2.report.findings.size(), 1u);

  const auto& summary2 = std::get<SummaryRecord>(loaded.records[4]);
  EXPECT_EQ(summary2.pushed, 11u);
  EXPECT_EQ(summary2.ticks, 9u);

  // The open record's decoder byte and the tracker byte after it are
  // written as 0 (the classifier's online rule is the only decoder, the
  // largest component the only jumper rule); any other value is a corrupt
  // record. Header (12) + length prefix (4) + type (1) + t_ns (8) + session
  // (4) + the 33 session-config bytes before the decoder byte.
  constexpr std::size_t kDecoder = 12 + 4 + 1 + 8 + 4 + 33;
  const std::string good = read_file(path);
  for (const std::size_t constant : {kDecoder, kDecoder + 1}) {
    ASSERT_EQ(good[constant], 0) << "byte " << constant;
    std::string bad = good;
    bad[constant] = 1;
    write_file(path, bad);
    EXPECT_THROW(load_trace(path), std::runtime_error) << "byte " << constant;
  }
}

// ---- robustness: the fuzz surface ------------------------------------------

TEST(TraceFormat, RejectsBadMagicAndVersion) {
  const std::string path = temp_path("header.sljtrace");
  save_trace(Trace{}, path);
  const std::string good = read_file(path);

  for (std::size_t i = 0; i < 12; ++i) {  // magic + version bytes
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    write_file(path, bad);
    EXPECT_THROW(load_trace(path), std::runtime_error) << "header byte " << i;
  }
}

TEST(TraceFormat, RejectsGroundLineValuesOtherThanTheConstants) {
  Trace trace;
  OpenRecord open;
  open.session = 0;
  open.background = std::make_shared<const RgbImage>(4, 2, Rgb{10, 20, 30});
  trace.records.emplace_back(open);
  const std::string path = temp_path("ground_constants.sljtrace");
  save_trace(trace, path);
  const std::string good = read_file(path);

  // Header (12) + length prefix (4) + type (1) + t_ns (8) + session (4) +
  // the 35 session-config bytes before its two ground-line i32s.
  constexpr std::size_t kLift = 12 + 4 + 1 + 8 + 4 + 35;
  constexpr std::size_t kCalibration = kLift + 4;
  ASSERT_EQ(good[kLift], core::GroundMonitor::kLiftThresholdPx);
  ASSERT_EQ(good[kCalibration], core::GroundMonitor::kCalibrationFrames);
  EXPECT_NO_THROW(load_trace(path));

  const std::pair<std::size_t, char> corruptions[] = {
      {kLift, 2}, {kLift, 4}, {kCalibration, 0}, {kCalibration, 6}};
  for (const auto& [offset, value] : corruptions) {
    std::string bad = good;
    bad[offset] = value;
    write_file(path, bad);
    EXPECT_THROW(load_trace(path), std::runtime_error)
        << "byte " << offset << " = " << static_cast<int>(value);
  }
}

TEST(TraceFormat, EveryTruncationFailsCleanly) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = mini_clip(7, 4);
  const std::string base = temp_path("trunc_base.sljtrace");
  RecordSpec spec;
  spec.sessions = 1;
  spec.frames_per_session = 2;
  record_trace(base, classifier, clip, spec);
  const std::string good = read_file(base);
  ASSERT_GT(good.size(), 16u);

  const std::string path = temp_path("trunc.sljtrace");
  std::size_t rejected = 0;
  for (std::size_t len = 0; len < good.size(); ++len) {
    write_file(path, good.substr(0, len));
    // A cut at an exact record boundary legally loads a shorter trace; any
    // other cut must throw. Either way: no crash, no UB (ASan/UBSan job).
    try {
      load_trace(path);
    } catch (const std::runtime_error&) {
      ++rejected;
    }
    // The streamed replay reads the same bytes through TraceReader: it may
    // report divergence or reject a torn trace, but never misbehave.
    try {
      TraceReplayer(classifier).replay_file(path);
    } catch (const std::runtime_error&) {
    }
  }
  EXPECT_GT(rejected, good.size() / 2);
}

TEST(TraceFormat, EveryBitFlipFailsCleanlyOrLoads) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = mini_clip(9, 4);
  const std::string base = temp_path("flip_base.sljtrace");
  RecordSpec spec;
  spec.sessions = 1;
  spec.frames_per_session = 2;
  record_trace(base, classifier, clip, spec);
  const std::string good = read_file(base);

  const std::string path = temp_path("flip.sljtrace");
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0xff);
    write_file(path, bad);
    // Corrupt values may still parse (a flipped pixel byte is just a
    // different image); what is forbidden is UB or an uncontrolled throw.
    try {
      load_trace(path);
    } catch (const std::runtime_error&) {
    }
    try {
      TraceReplayer(classifier).replay_file(path);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(TraceFormat, RejectsOversizedLengthPrefix) {
  const std::string path = temp_path("oversized.sljtrace");
  save_trace(Trace{}, path);
  std::string bytes = read_file(path);
  // Append a record claiming a 4 GiB payload: must be rejected from the
  // length prefix alone, before any allocation sized from it.
  const char huge[5] = {'\xff', '\xff', '\xff', '\xff', 1};
  bytes.append(huge, sizeof(huge));
  write_file(path, bytes);
  EXPECT_THROW(load_trace(path), std::runtime_error);

  // Same with a length that passes the cap but overruns the file.
  std::string lying = read_file(path);
  lying.resize(12);
  const char overrun[5] = {16, 0, 0, 0, 1};
  lying.append(overrun, sizeof(overrun));
  lying.push_back('\x00');  // 1 byte of payload instead of 16
  write_file(path, lying);
  EXPECT_THROW(load_trace(path), std::runtime_error);
}

TEST(TraceFormat, SkipsUnknownRecordTypes) {
  const std::string path = temp_path("unknown_type.sljtrace");
  Trace trace;
  SummaryRecord summary;
  summary.pushed = 3;
  trace.records.emplace_back(summary);
  save_trace(trace, path);

  std::string bytes = read_file(path);
  // Splice an unknown record type (99) with a 3-byte payload before the
  // summary, right after the header.
  const char unknown[8] = {3, 0, 0, 0, 99, 'x', 'y', 'z'};
  bytes.insert(12, unknown, sizeof(unknown));
  write_file(path, bytes);

  const Trace loaded = load_trace(path);  // forward compatible: no throw
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(std::get<SummaryRecord>(loaded.records[0]).pushed, 3u);
}

}  // namespace
}  // namespace slj::replay
