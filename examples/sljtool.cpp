// sljtool — command-line front end for the full system:
//
//   sljtool generate --out DIR [--seed N]        export a synthetic corpus
//   sljtool train    --data DIR --model FILE     train the pose DBN
//   sljtool analyze  --model FILE --clip DIR     poses + coaching + score
//   sljtool evaluate --model FILE --data DIR     per-clip accuracy
//   sljtool stream   --model FILE --clip DIR     replay the clip as live feeds
//   sljtool serve    [--sessions N] [...]        async ingest service demo
//   sljtool record   --out FILE [...]            record a deterministic ingest
//                                                trace (.sljtrace)
//   sljtool replay   --trace FILE [...]          re-drive a trace and verify
//                                                bit-identical analysis
//   sljtool top      [--slo-p99 MS] [...]        live per-session SLO table with
//                                                a flight recorder attached: an
//                                                SLO breach (or SIGUSR1) dumps
//                                                the retained window as a
//                                                replayable incident .sljtrace
//   sljtool trace-export --trace FILE --out FILE replay a trace with the event
//                                                tracer on and export its
//                                                timeline + per-stage rollup as
//                                                Chrome trace-event JSON
//
// Clip directories use the clip_io format (background.ppm, frame_NNN.ppm,
// manifest.txt) — real footage can be dropped in the same layout.
//
// analyze and evaluate run the vision pass on the ClipEngine worker pool
// (--workers N, default: hardware concurrency); the jumper is each frame's
// largest foreground component. stream pushes the clip one frame at a time
// through StreamManager sessions — simulated concurrent cameras — printing
// advice the moment a movement-standard rule resolves, and verifies the
// live results against the batch classifier. serve goes fully asynchronous: N producer threads
// push frames at a jittery camera cadence into the IngestService's bounded
// per-session queues while the scheduler drains, analyses and delivers,
// with the live telemetry table refreshed as it runs.
//
// Flags come in `--name value` pairs. Each subcommand accepts the flags its
// usage line lists; any other flag, or a flag with no value, exits 1 with
// an error naming it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/clip_engine.hpp"
#include "core/evaluation.hpp"
#include "core/scoring.hpp"
#include "core/stream_engine.hpp"
#include "core/trainer.hpp"
#include "ingest/ingest_service.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/service_monitor.hpp"
#include "obs/tracer.hpp"
#include "replay/trace_replayer.hpp"
#include "synth/clip_io.hpp"
#include "synth/dataset.hpp"

namespace {

using namespace slj;

std::map<std::string, std::string> parse_flags(int argc, char** argv, int start,
                                               const std::vector<std::string>& accepted) {
  std::map<std::string, std::string> flags;
  for (int i = start; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw std::runtime_error("expected flag, got " + arg);
    const std::string name = arg.substr(2);
    if (std::find(accepted.begin(), accepted.end(), name) == accepted.end()) {
      throw std::runtime_error("unknown flag " + arg);
    }
    if (i + 1 >= argc) throw std::runtime_error("flag " + arg + " has no value");
    flags[name] = argv[i + 1];
  }
  return flags;
}

std::string require(const std::map<std::string, std::string>& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

/// An integer flag in [lo, hi]; `fallback` when absent. The whole value
/// must parse: "8x" is rejected, not read as 8.
long long_flag(const std::map<std::string, std::string>& flags, const std::string& key,
               long fallback, long lo, long hi) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  long value = lo - 1;
  try {
    std::size_t used = 0;
    value = std::stol(it->second, &used);
    if (used != it->second.size()) value = lo - 1;
  } catch (const std::exception&) {
  }
  if (value < lo || value > hi) {
    throw std::runtime_error("--" + key + " must be an integer in [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + "], got '" + it->second + "'");
  }
  return value;
}

/// A real flag in [lo, hi] (NaN never is); `fallback` when absent. The
/// whole value must parse.
double double_flag(const std::map<std::string, std::string>& flags, const std::string& key,
                   double fallback, double lo, double hi) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  double value = lo - 1.0;
  try {
    std::size_t used = 0;
    value = std::stod(it->second, &used);
    if (used != it->second.size()) value = lo - 1.0;
  } catch (const std::exception&) {
  }
  if (!(value >= lo && value <= hi)) {
    throw std::runtime_error("--" + key + " must be in [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + "], got '" + it->second + "'");
  }
  return value;
}

int cmd_generate(const std::map<std::string, std::string>& flags) {
  synth::DatasetSpec spec;
  spec.seed = static_cast<std::uint32_t>(long_flag(flags, "seed", spec.seed, 0, 4294967295L));
  const std::string out = require(flags, "out");
  std::printf("generating %zu train + %zu test clips (seed %u)...\n",
              spec.train_clip_frames.size(), spec.test_clip_frames.size(), spec.seed);
  const synth::Dataset dataset = synth::generate_dataset(spec);
  synth::save_dataset(dataset, out);
  std::printf("wrote %zu train frames and %zu test frames under %s\n", dataset.train_frames(),
              dataset.test_frames(), out.c_str());
  return 0;
}

int cmd_train(const std::map<std::string, std::string>& flags) {
  const synth::Dataset dataset = synth::load_dataset(require(flags, "data"));
  core::FramePipeline pipeline;
  pose::PoseDbnClassifier classifier;
  std::printf("training on %zu clips (%zu frames)...\n", dataset.train.size(),
              dataset.train_frames());
  const core::TrainingStats stats = core::train_on_dataset(classifier, pipeline, dataset);
  std::printf("trained on %zu frames (%zu without skeleton)\n", stats.frames,
              stats.frames_without_skeleton);
  const std::string model_path = require(flags, "model");
  std::ofstream out(model_path);
  if (!out) throw std::runtime_error("cannot write " + model_path);
  classifier.save(out);
  std::printf("model written to %s\n", model_path.c_str());
  return 0;
}

/// --workers for the ClipEngine; 0 (the default) = hardware concurrency.
core::ClipEngineConfig engine_config(const std::map<std::string, std::string>& flags) {
  core::ClipEngineConfig config;
  config.workers = static_cast<unsigned>(long_flag(flags, "workers", 0, 0, 1024));
  return config;
}

pose::PoseDbnClassifier load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  return pose::PoseDbnClassifier::load(in);
}

int cmd_analyze(const std::map<std::string, std::string>& flags) {
  const double ppm = double_flag(flags, "ppm", 72.0, 1.0, 10000.0);
  core::ClipEngine engine({}, engine_config(flags));
  const pose::PoseDbnClassifier classifier = load_model(require(flags, "model"));
  const synth::Clip clip = synth::load_clip(require(flags, "clip"));

  const core::ClipObservation observation = engine.process(clip);
  const std::vector<pose::FrameResult> poses =
      classifier.classify_sequence(observation.candidate_sets(), observation.airborne);
  for (std::size_t i = 0; i < poses.size(); ++i) {
    std::printf("frame %3zu  [%-14s]  %s\n", i,
                std::string(pose::stage_name(poses[i].stage)).c_str(),
                std::string(pose::pose_name(poses[i].pose)).c_str());
  }
  const core::JumpScore score =
      core::score_jump(observation.frames, observation.airborne, poses, ppm);
  std::printf("\n%s", score.form.to_string().c_str());
  if (score.measurement.valid()) {
    std::printf("measured distance: %.2f m\n", score.measurement.distance_m);
  }
  std::printf("score: %d/100 (%s)\n", score.total, score.grade.c_str());
  return 0;
}

int cmd_stream(const std::map<std::string, std::string>& flags) {
  const pose::PoseDbnClassifier classifier = load_model(require(flags, "model"));
  const synth::Clip clip = synth::load_clip(require(flags, "clip"));

  const long sessions = long_flag(flags, "sessions", 1, 1, 1024);

  core::StreamManagerConfig config;
  config.workers = engine_config(flags).workers;

  core::StreamManager manager(classifier, {}, config);
  std::vector<int> ids;
  for (long s = 0; s < sessions; ++s) ids.push_back(manager.open_session(clip.background));
  std::printf("streaming %zu frames into %ld concurrent session%s...\n\n", clip.frames.size(),
              sessions, sessions == 1 ? "" : "s");

  // Every session replays the same clip — N simulated cameras on one jump.
  std::vector<pose::FrameResult> live;
  std::vector<core::StreamManager::Feed> feeds(ids.size());
  std::vector<core::StreamUpdate> updates;
  for (const RgbImage& frame : clip.frames) {
    for (std::size_t s = 0; s < ids.size(); ++s) feeds[s] = {ids[s], &frame};
    manager.tick_into(feeds, updates);
    const core::StreamUpdate& u = updates.front();  // narrate session 0
    live.push_back(u.result);
    std::printf("frame %3zu %s [%-14s]  %-32s p=%.3f\n", u.frame_index,
                u.airborne ? "air " : "gnd ", std::string(pose::stage_name(u.result.stage)).c_str(),
                std::string(pose::pose_name(u.result.pose)).c_str(), u.result.posterior);
    for (const core::ResolvedFault& r : u.resolved) {
      std::printf("          >> %s: %s\n", r.finding.passed ? "PASS" : "FAIL",
                  std::string(core::rule_name(r.finding.rule)).c_str());
      if (!r.finding.passed) {
        std::printf("             advice: %s\n", std::string(core::rule_advice(r.finding.rule)).c_str());
      }
    }
  }
  const core::JumpReport report = manager.close_session(ids.front());
  for (std::size_t s = 1; s < ids.size(); ++s) manager.close_session(ids[s]);
  std::printf("\n%s", report.to_string().c_str());

  // Live results must agree frame for frame with the batch classifier.
  core::ClipEngine engine({}, engine_config(flags));
  const core::ClipObservation observation = engine.process(clip);
  const std::vector<pose::FrameResult> batch =
      classifier.classify_sequence(observation.candidate_sets(), observation.airborne);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (live[i].pose != batch[i].pose || live[i].stage != batch[i].stage ||
        live[i].posterior != batch[i].posterior) {
      ++mismatches;
    }
  }
  std::printf("verify vs batch classifier: %s\n",
              mismatches == 0 ? "identical on every frame"
                              : (std::to_string(mismatches) + " mismatching frames").c_str());
  return mismatches == 0 ? 0 : 1;
}

void print_serve_table(const ingest::IngestMetricsSnapshot& snap, double elapsed_s) {
  std::printf(
      "t=%5.1fs  pushed %6llu  delivered %6llu  dropped %5llu  "
      "depth %3zu (deepest queue %zu)  p50 %6.2f ms  p99 %6.2f ms\n",
      elapsed_s, static_cast<unsigned long long>(snap.pushed),
      static_cast<unsigned long long>(snap.delivered),
      static_cast<unsigned long long>(snap.dropped_oldest), snap.queue_depth, snap.queue_depth_peak,
      snap.latency_p50_ms, snap.latency_p99_ms);
}

// serve: the push-based service end to end. N producer threads play jittery
// cameras — each pushes the clip's frames (cycled) at its target fps with
// per-frame timing noise — against the IngestService's bounded queues while
// the scheduler thread drains, analyses and delivers. The telemetry table
// refreshes twice a second; the final snapshot is printed as JSON.
int cmd_serve(const std::map<std::string, std::string>& flags) {
  pose::PoseDbnClassifier classifier;  // untrained by default: same frame cost
  if (const auto it = flags.find("model"); it != flags.end()) classifier = load_model(it->second);
  synth::Clip clip;
  if (const auto it = flags.find("clip"); it != flags.end()) {
    clip = synth::load_clip(it->second);
  } else {
    synth::ClipSpec spec;
    spec.seed = static_cast<std::uint32_t>(long_flag(flags, "seed", 2008, 1, 1u << 30));
    clip = synth::generate_clip(spec);
  }

  const long sessions = long_flag(flags, "sessions", 4, 1, 1024);
  const double seconds = double_flag(flags, "seconds", 4.0, 0.1, 3600.0);
  const double fps = double_flag(flags, "fps", 60.0, 1.0, 10000.0);
  const double jitter = double_flag(flags, "jitter", 0.5, 0.0, 1.0);

  ingest::IngestServiceConfig config;
  config.manager.workers = static_cast<unsigned>(long_flag(flags, "workers", 0, 0, 1024));
  ingest::IngestSessionConfig session_config;
  session_config.queue.capacity =
      static_cast<std::size_t>(long_flag(flags, "capacity", 8, 1, 4096));

  ingest::IngestService service(classifier, {}, config);
  std::vector<int> ids;
  for (long s = 0; s < sessions; ++s) {
    ids.push_back(service.open_session(clip.background, session_config));
  }
  std::printf("serving %ld jittery %.0f fps camera%s (drop-oldest queue capacity %zu) "
              "for %.1f s...\n\n",
              sessions, fps, sessions == 1 ? "" : "s", session_config.queue.capacity, seconds);
  service.start();

  using WallClock = std::chrono::steady_clock;
  const auto start = WallClock::now();
  const auto deadline = start + std::chrono::duration_cast<WallClock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < ids.size(); ++s) {
    producers.emplace_back([&, s] {
      std::mt19937 rng(static_cast<std::uint32_t>(1000 + s));
      std::uniform_real_distribution<double> noise(1.0 - jitter, 1.0 + jitter);
      const double period_s = 1.0 / fps;
      std::size_t frame = s;  // stagger the feeds
      while (WallClock::now() < deadline) {
        service.push(ids[s], clip.frames[frame % clip.frames.size()]);
        ++frame;
        std::this_thread::sleep_for(
            std::chrono::duration_cast<WallClock::duration>(
                std::chrono::duration<double>(period_s * noise(rng))));
      }
    });
  }

  while (WallClock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    print_serve_table(service.metrics(),
                      std::chrono::duration<double>(WallClock::now() - start).count());
  }
  for (std::thread& t : producers) t.join();
  service.flush();

  const ingest::IngestMetricsSnapshot snap = service.metrics();
  std::printf("\nper-session:\n");
  std::printf("  id   pushed  delivered  dropped  fps\n");
  for (const ingest::SessionMetricsSnapshot& row : snap.sessions) {
    std::printf("  %2d  %7llu  %9llu  %7llu  %5.1f\n", row.session,
                static_cast<unsigned long long>(row.pushed),
                static_cast<unsigned long long>(row.delivered),
                static_cast<unsigned long long>(row.dropped_oldest), row.throughput_fps);
  }
  std::printf("\nfinal snapshot:\n%s\n", snap.to_json().c_str());
  for (const int id : ids) service.close_session(id);
  service.stop();

  // Drop accounting must balance exactly: every admitted frame was either
  // delivered to a sink or discarded by an accounted mechanism.
  const ingest::IngestMetricsSnapshot end = service.metrics();
  const bool balanced = end.pushed == end.delivered + end.dropped_oldest + end.discarded;
  std::printf("accounting: pushed %llu == delivered %llu + dropped %llu + discarded %llu  [%s]\n",
              static_cast<unsigned long long>(end.pushed),
              static_cast<unsigned long long>(end.delivered),
              static_cast<unsigned long long>(end.dropped_oldest),
              static_cast<unsigned long long>(end.discarded), balanced ? "ok" : "MISMATCH");
  return balanced ? 0 : 1;
}

/// Why a finished recording cannot stand as a golden trace, or "" when it
/// can. The dump at `path` must hold every one of the `opened` sessions
/// whole, which fails when the byte budget evicted one, and its summary
/// (built from the dumped records) must equal the plane's own counters.
std::string capture_refusal(const obs::FlightRecorder& recorder,
                            const obs::FlightRecorder::DumpStats& stats, std::size_t opened,
                            std::size_t budget, const std::string& path,
                            const ingest::IngestMetricsSnapshot& metrics) {
  if (recorder.evicted_sessions() > 0 || stats.sessions != opened ||
      stats.truncated_sessions > 0 || !stats.has_summary) {
    return "capture is not whole within the recorder's " + std::to_string(budget >> 20) +
           " MiB budget (" + std::to_string(stats.sessions) + " of " + std::to_string(opened) +
           " sessions dumped, " + std::to_string(recorder.evicted_sessions()) + " evicted, " +
           std::to_string(stats.truncated_sessions) + " truncated" +
           (stats.has_summary ? "" : ", no summary") + "); record fewer sessions or frames";
  }
  std::optional<replay::SummaryRecord> summary;
  replay::TraceReader reader(path);
  while (reader.next()) {
    if (reader.type() == static_cast<std::uint8_t>(replay::RecordType::kSummary)) {
      summary = std::get<replay::SummaryRecord>(*reader.record());
    }
  }
  if (!summary) return "dump has no summary record";
  const struct {
    const char* name;
    std::uint64_t dumped, live;
  } totals[] = {
      {"pushed", summary->pushed, metrics.pushed},
      {"delivered", summary->delivered, metrics.delivered},
      {"dropped_oldest", summary->dropped_oldest, metrics.dropped_oldest},
      {"closed_pushes", summary->closed_pushes, metrics.closed_pushes},
      {"discarded", summary->discarded, metrics.discarded},
      {"ticks", summary->ticks, metrics.ticks},
      {"evicted_sessions", summary->evicted_sessions, metrics.evicted_sessions},
  };
  for (const auto& total : totals) {
    if (total.dumped != total.live) {
      return std::string("dumped summary ") + total.name + " " + std::to_string(total.dumped) +
             " differs from the service's " + std::to_string(total.live);
    }
  }
  return "";
}

// record: capture a *deterministic* ingest run as a .sljtrace file. Unlike
// serve, nothing here depends on wall-clock or thread timing: the router
// runs on a manual clock, the scheduler stays stopped, and every round is
// pushed single-threaded then drained inline through flush(). The same
// flags therefore always produce byte-for-byte the same trace — which is
// what makes the checked-in regression corpus reproducible.
//
// Each round pushes --pushes-per-round frames into every session, advances
// the virtual clock by 1/fps, and drains. With --pushes-per-round above
// --capacity, drop-oldest sheds frames for real.
//
// The capture is a FlightRecorder dump taken once every session has closed.
// A zero window keeps every closed session, so the dump is the whole run
// unless the byte budget evicted a session; then, or when the dumped
// summary disagrees with the plane's metrics, the trace is refused.
int cmd_record(const std::map<std::string, std::string>& flags) {
  pose::PoseDbnClassifier classifier;  // untrained by default: no model file needed
  if (const auto it = flags.find("model"); it != flags.end()) classifier = load_model(it->second);

  synth::Clip clip;
  if (const auto it = flags.find("clip"); it != flags.end()) {
    clip = synth::load_clip(it->second);
  } else {
    synth::ClipSpec spec;
    spec.seed = static_cast<std::uint32_t>(long_flag(flags, "seed", 2008, 1, 1u << 30));
    if (long_flag(flags, "mini", 0, 0, 1) != 0) {
      // Tiny noise-free studio: frames RLE-compress ~50x, keeping corpus
      // traces small enough to check into the repository.
      spec.camera.width = 96;
      spec.camera.height = 64;
      spec.camera.pixels_per_meter = 24.0;
      spec.camera.origin_x_px = 12.0;
      spec.camera.ground_y_px = 60.0;
      spec.camera.sensor_noise_sigma = 0.0;
      spec.camera.speckle_fraction = 0.0;
    }
    clip = synth::generate_clip(spec);
  }

  const std::string out = require(flags, "out");
  const long sessions = long_flag(flags, "sessions", 3, 1, 64);
  const long frames = long_flag(flags, "frames", 18, 1, 100000);
  const double fps = double_flag(flags, "fps", 60.0, 1.0, 10000.0);
  const long per_round = long_flag(flags, "pushes-per-round", 2, 1, 64);

  ingest::IngestSessionConfig session_config;
  session_config.queue.capacity =
      static_cast<std::size_t>(long_flag(flags, "capacity", 2, 1, 4096));

  // Manual clock: the plane's only time source, advanced by hand per round.
  std::atomic<std::int64_t> now_ns{0};
  ingest::IngestServiceConfig config;
  config.manager.workers = static_cast<unsigned>(long_flag(flags, "workers", 1, 0, 1024));
  config.router.clock = [&now_ns] {
    return ingest::Clock::time_point(ingest::Clock::duration(now_ns.load()));
  };

  ingest::IngestService service(classifier, {}, config);
  obs::FlightRecorderConfig recorder_config;
  recorder_config.window_ns = 0;
  obs::FlightRecorder recorder(recorder_config);
  service.set_tap(&recorder);

  std::vector<int> ids;
  for (long s = 0; s < sessions; ++s) {
    ids.push_back(service.open_session(clip.background, session_config));
  }

  const auto period_ns = static_cast<std::int64_t>(1e9 / fps);
  std::vector<std::size_t> next(ids.size());
  for (std::size_t s = 0; s < ids.size(); ++s) next[s] = s;  // stagger the feeds
  long pushed = 0;
  while (pushed < frames * sessions) {
    for (std::size_t s = 0; s < ids.size(); ++s) {
      for (long k = 0; k < per_round && pushed < frames * sessions; ++k) {
        service.push(ids[s], clip.frames[next[s] % clip.frames.size()]);
        ++next[s];
        ++pushed;
      }
    }
    now_ns.fetch_add(period_ns);
    service.flush();  // scheduler stopped: drains inline, deterministically
  }
  for (const int id : ids) service.close_session(id);

  const ingest::IngestMetricsSnapshot snap = service.metrics();
  const obs::FlightRecorder::DumpStats stats = recorder.dump(out);
  const std::string refusal =
      capture_refusal(recorder, stats, ids.size(), recorder_config.max_bytes, out, snap);
  if (!refusal.empty()) {
    std::remove(out.c_str());
    std::fprintf(stderr, "error: %s: %s\n", out.c_str(), refusal.c_str());
    return 1;
  }
  const std::size_t events = stats.sessions + stats.pushes + stats.ticks + stats.closes;
  std::printf("recorded %zu events to %s (%ld sessions, %llu pushed, %llu delivered, "
              "%llu dropped)\n",
              events, out.c_str(), sessions, static_cast<unsigned long long>(snap.pushed),
              static_cast<unsigned long long>(snap.delivered),
              static_cast<unsigned long long>(snap.dropped_oldest));

  // Immediate self-check: the trace must replay bit-identically in-process.
  replay::ReplayOptions options;
  options.workers = 1;
  const replay::ReplayResult check =
      replay::TraceReplayer(classifier, {}, options).replay_file(out);
  std::printf("self-check: %s\n",
              check.identical() ? "replays bit-identically"
                                : ("DIVERGED: " + check.first_mismatch()).c_str());
  return check.identical() ? 0 : 1;
}

// replay: re-drive a trace through today's code and verify the recorded
// golden outputs, at any worker count. Exit status 0 = bit-identical
// (within --tolerance for posteriors, for cross-toolchain corpora).
int cmd_replay(const std::map<std::string, std::string>& flags) {
  pose::PoseDbnClassifier classifier;
  if (const auto it = flags.find("model"); it != flags.end()) classifier = load_model(it->second);

  replay::ReplayOptions options;
  options.workers = static_cast<unsigned>(long_flag(flags, "workers", 1, 0, 1024));
  options.posterior_tolerance = double_flag(flags, "tolerance", 0.0, 0.0, 1.0);

  const replay::TraceReplayer replayer(classifier, {}, options);
  const replay::ReplayResult result = replayer.replay_file(require(flags, "trace"));

  std::printf("replayed %llu ticks / %llu frames across %llu sessions "
              "(recorded span %.3f s, workers %u)\n",
              static_cast<unsigned long long>(result.ticks),
              static_cast<unsigned long long>(result.frames_replayed),
              static_cast<unsigned long long>(result.sessions_opened),
              static_cast<double>(result.recorded_span_ns) / 1e9, options.workers);
  if (!result.has_summary) std::printf("warning: trace has no summary record\n");
  for (const std::string& m : result.mismatches) std::printf("  mismatch: %s\n", m.c_str());
  std::printf("verdict: %s (%llu update, %llu report, %llu accounting mismatches)\n",
              result.identical() ? "bit-identical" : "DIVERGED",
              static_cast<unsigned long long>(result.update_mismatches),
              static_cast<unsigned long long>(result.report_mismatches),
              static_cast<unsigned long long>(result.accounting_mismatches));
  return result.identical() ? 0 : 1;
}

#ifdef SIGUSR1
/// Set by the SIGUSR1 handler; cmd_top's refresh loop turns it into an
/// operator-requested incident dump.
volatile std::sig_atomic_t g_dump_requested = 0;
void on_dump_signal(int) { g_dump_requested = 1; }
#endif

// top: the live operator view. Same jittery producers as serve, but with the
// full observability stack attached — the event tracer on, a FlightRecorder
// riding as the service's tap, and every refresh scored against the SLO
// budgets. A gauge crossing into breach (or SIGUSR1) dumps the recorder's
// retained window as incident_<n>_<reason>.sljtrace, replayable with
// `sljtool replay`.
int cmd_top(const std::map<std::string, std::string>& flags) {
  pose::PoseDbnClassifier classifier;
  if (const auto it = flags.find("model"); it != flags.end()) classifier = load_model(it->second);
  synth::Clip clip;
  if (const auto it = flags.find("clip"); it != flags.end()) {
    clip = synth::load_clip(it->second);
  } else {
    synth::ClipSpec spec;
    spec.seed = static_cast<std::uint32_t>(long_flag(flags, "seed", 2008, 1, 1u << 30));
    clip = synth::generate_clip(spec);
  }

  const long sessions = long_flag(flags, "sessions", 4, 1, 1024);
  const double seconds = double_flag(flags, "seconds", 4.0, 0.1, 3600.0);
  const double fps = double_flag(flags, "fps", 60.0, 1.0, 10000.0);
  const double jitter = double_flag(flags, "jitter", 0.5, 0.0, 1.0);
  const long refresh_ms = long_flag(flags, "refresh", 500, 50, 60000);
  const bool plain = long_flag(flags, "plain", 0, 0, 1) != 0;

  ingest::IngestServiceConfig config;
  config.manager.workers = static_cast<unsigned>(long_flag(flags, "workers", 0, 0, 1024));
  ingest::IngestSessionConfig session_config;
  session_config.queue.capacity =
      static_cast<std::size_t>(long_flag(flags, "capacity", 8, 1, 4096));

  obs::ServiceMonitorConfig monitor_config;
  monitor_config.slo.p99_budget_ms = double_flag(flags, "slo-p99", 0.0, 0.0, 1e9);
  monitor_config.slo.drop_rate_budget = double_flag(flags, "slo-drop", 0.0, 0.0, 1.0);
  monitor_config.slo.breach_after =
      static_cast<int>(long_flag(flags, "slo-breach-after", 2, 1, 1000));
  monitor_config.slo.clear_after =
      static_cast<int>(long_flag(flags, "slo-clear-after", 2, 1, 1000));
  monitor_config.incident_dir = [&flags] {
    const auto it = flags.find("incident-dir");
    return it != flags.end() ? it->second : std::string(".");
  }();
  monitor_config.max_incidents =
      static_cast<std::size_t>(long_flag(flags, "max-incidents", 4, 0, 64));

  ingest::IngestService service(classifier, {}, config);
  // The monitor installs the flight recorder tap and must exist before any
  // session opens — a session the recorder never saw open cannot be dumped.
  obs::ServiceMonitor monitor(service, monitor_config);
#ifdef SIGUSR1
  g_dump_requested = 0;
  std::signal(SIGUSR1, on_dump_signal);
#endif

  std::vector<int> ids;
  for (long s = 0; s < sessions; ++s) {
    ids.push_back(service.open_session(clip.background, session_config));
  }
  std::printf("top: %ld jittery %.0f fps camera%s for %.1f s  (SLO: p99 %s, drop-rate %s; "
              "incidents -> %s)\n",
              sessions, fps, sessions == 1 ? "" : "s", seconds,
              monitor_config.slo.latency_tracked()
                  ? (std::to_string(monitor_config.slo.p99_budget_ms) + " ms").c_str()
                  : "untracked",
              monitor_config.slo.drops_tracked()
                  ? std::to_string(monitor_config.slo.drop_rate_budget).c_str()
                  : "untracked",
              monitor_config.incident_dir.c_str());
  service.start();

  using WallClock = std::chrono::steady_clock;
  const auto start = WallClock::now();
  const auto deadline = start + std::chrono::duration_cast<WallClock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < ids.size(); ++s) {
    producers.emplace_back([&, s] {
      std::mt19937 rng(static_cast<std::uint32_t>(1000 + s));
      std::uniform_real_distribution<double> noise(1.0 - jitter, 1.0 + jitter);
      const double period_s = 1.0 / fps;
      std::size_t frame = s;  // stagger the feeds
      while (WallClock::now() < deadline) {
        service.push(ids[s], clip.frames[frame % clip.frames.size()]);
        ++frame;
        std::this_thread::sleep_for(
            std::chrono::duration_cast<WallClock::duration>(
                std::chrono::duration<double>(period_s * noise(rng))));
      }
    });
  }

  const auto print_table = [&](const ingest::IngestMetricsSnapshot& snap, double elapsed_s) {
    if (!plain) std::printf("\033[H\033[2J");
    std::printf("sljtool top  t=%5.1fs  seq %llu  sessions %zu  depth %zu  "
                "p50 %.2f ms  p99 %.2f ms  breached %zu (total breaches %llu)\n",
                elapsed_s, static_cast<unsigned long long>(snap.sequence), snap.open_sessions,
                snap.queue_depth, snap.latency_p50_ms, snap.latency_p99_ms,
                snap.slo_breached_sessions, static_cast<unsigned long long>(snap.slo_breaches));
    std::printf("  id    fps    pushed  delivered  dropped  depth  "
                "p50 ms  p99 ms  drop%%   slo\n");
    for (const ingest::SessionMetricsSnapshot& row : snap.sessions) {
      std::printf("  %2d  %5.1f  %8llu  %9llu  %7llu  %5zu  %6.2f  %6.2f  %5.1f  %s\n",
                  row.session, row.throughput_fps,
                  static_cast<unsigned long long>(row.pushed),
                  static_cast<unsigned long long>(row.delivered),
                  static_cast<unsigned long long>(row.dropped_oldest), row.queue_depth,
                  row.latency_p50_ms, row.latency_p99_ms, 100.0 * row.drop_rate, row.slo_state);
    }
  };

  while (WallClock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
#ifdef SIGUSR1
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      const std::string path = monitor.trigger_incident("signal");
      if (!path.empty()) std::printf("incident dumped on signal: %s\n", path.c_str());
    }
#endif
    print_table(monitor.poll(),
                std::chrono::duration<double>(WallClock::now() - start).count());
  }
  for (std::thread& t : producers) t.join();
  service.flush();

  const ingest::IngestMetricsSnapshot snap = monitor.poll();
  print_table(snap, std::chrono::duration<double>(WallClock::now() - start).count());
  std::printf("\nfinal snapshot:\n%s\n", snap.to_json().c_str());
  for (const int id : ids) service.close_session(id);
  service.stop();

  for (const std::string& path : monitor.incident_paths()) {
    std::printf("incident trace: %s\n", path.c_str());
  }
  std::printf("flight recorder: %zu sessions retained, ~%zu KiB, %llu evicted, "
              "%llu incidents\n",
              monitor.recorder().sessions(), monitor.recorder().bytes() / 1024,
              static_cast<unsigned long long>(monitor.recorder().evicted_sessions()),
              static_cast<unsigned long long>(monitor.incidents()));

  if (const auto it = flags.find("trace-json"); it != flags.end()) {
    std::ofstream json(it->second);
    if (!json) throw std::runtime_error("cannot write " + it->second);
    json << obs::chrome_trace_json(obs::Tracer::instance().snapshot());
    std::printf("trace timeline written to %s\n", it->second.c_str());
  }

  const ingest::IngestMetricsSnapshot end = service.metrics();
  const bool balanced = end.pushed == end.delivered + end.dropped_oldest + end.discarded;
  std::printf("accounting: pushed %llu == delivered %llu + dropped %llu + discarded %llu  [%s]\n",
              static_cast<unsigned long long>(end.pushed),
              static_cast<unsigned long long>(end.delivered),
              static_cast<unsigned long long>(end.dropped_oldest),
              static_cast<unsigned long long>(end.discarded), balanced ? "ok" : "MISMATCH");
  return balanced ? 0 : 1;
}

// trace-export: replay a .sljtrace with the event tracer enabled and write
// its timeline and per-stage rollup as Chrome trace-event JSON (open in
// chrome://tracing or Perfetto). The replay's bit-identity verdict is the
// exit status, so the export doubles as a regression check.
int cmd_trace_export(const std::map<std::string, std::string>& flags) {
  pose::PoseDbnClassifier classifier;
  if (const auto it = flags.find("model"); it != flags.end()) classifier = load_model(it->second);

  const std::string trace_path = require(flags, "trace");
  const std::string out_path = require(flags, "out");
  replay::ReplayOptions options;
  options.workers = static_cast<unsigned>(long_flag(flags, "workers", 1, 0, 1024));
  options.posterior_tolerance = double_flag(flags, "tolerance", 0.0, 0.0, 1.0);

  obs::Tracer::instance().set_enabled(true);
  obs::Tracer::instance().reset();

  const replay::TraceReplayer replayer(classifier, {}, options);
  const replay::ReplayResult result = replayer.replay_file(trace_path);
  obs::Tracer::instance().set_enabled(false);

  const obs::TracerSnapshot tracer_snap = obs::Tracer::instance().snapshot();
  std::ofstream json(out_path);
  if (!json) throw std::runtime_error("cannot write " + out_path);
  json << obs::chrome_trace_json(tracer_snap);

  std::printf("replayed %llu ticks / %llu frames across %llu sessions; "
              "exported %llu trace events (%llu dropped) from %zu threads to %s\n",
              static_cast<unsigned long long>(result.ticks),
              static_cast<unsigned long long>(result.frames_replayed),
              static_cast<unsigned long long>(result.sessions_opened),
              static_cast<unsigned long long>(tracer_snap.total_events),
              static_cast<unsigned long long>(tracer_snap.total_dropped),
              tracer_snap.threads.size(), out_path.c_str());
  std::printf("verdict: %s\n", result.identical() ? "bit-identical" : "DIVERGED");
  return result.identical() ? 0 : 1;
}

int cmd_evaluate(const std::map<std::string, std::string>& flags) {
  core::ClipEngine engine({}, engine_config(flags));
  const pose::PoseDbnClassifier classifier = load_model(require(flags, "model"));
  const synth::Dataset dataset = synth::load_dataset(require(flags, "data"));
  core::DatasetEvaluation eval;
  try {
    eval = core::evaluate_dataset(classifier, engine, dataset.test);
  } catch (const core::ClipListError& e) {
    // Name the clip by the directory it was loaded from.
    throw std::invalid_argument(synth::clip_dir_name("test", e.index) + ": " + e.what());
  }
  for (std::size_t i = 0; i < eval.clips.size(); ++i) {
    std::printf("clip %zu: %.1f%% pose accuracy (%zu/%zu)\n", i + 1,
                100.0 * eval.clips[i].accuracy(), eval.clips[i].correct,
                eval.clips[i].frames);
  }
  std::printf("overall: %.1f%%\n", 100.0 * eval.overall_accuracy());
  return 0;
}

int usage() {
  std::printf("usage:\n"
              "  sljtool generate --out DIR [--seed N]\n"
              "  sljtool train    --data DIR --model FILE\n"
              "  sljtool analyze  --model FILE --clip DIR [--ppm PIXELS_PER_METER]\n"
              "                   [--workers N]\n"
              "  sljtool evaluate --model FILE --data DIR [--workers N]\n"
              "  sljtool stream   --model FILE --clip DIR [--sessions N] [--workers N]\n"
              "  sljtool serve    [--model FILE] [--clip DIR | --seed N] [--sessions N]\n"
              "                   [--seconds S] [--fps F] [--jitter 0..1] [--workers N]\n"
              "                   [--capacity N]\n"
              "  sljtool record   --out FILE [--model FILE] [--clip DIR | --seed N] [--mini 0|1]\n"
              "                   [--sessions N] [--frames N] [--pushes-per-round N] [--fps F]\n"
              "                   [--capacity N] [--workers N]\n"
              "  sljtool replay   --trace FILE [--model FILE] [--workers N] [--tolerance X]\n"
              "  sljtool top      [--model FILE] [--clip DIR | --seed N] [--sessions N]\n"
              "                   [--seconds S] [--fps F] [--jitter 0..1] [--workers N]\n"
              "                   [--capacity N] [--refresh MS] [--plain 0|1]\n"
              "                   [--slo-p99 MS] [--slo-drop 0..1] [--slo-breach-after N]\n"
              "                   [--slo-clear-after N] [--incident-dir DIR] [--max-incidents N]\n"
              "                   [--trace-json FILE]\n"
              "  sljtool trace-export --trace FILE --out FILE [--model FILE] [--workers N]\n"
              "                   [--tolerance X]\n");
  return 2;
}

struct Subcommand {
  const char* name;
  int (*run)(const std::map<std::string, std::string>&);
  std::vector<std::string> flags;  ///< the flag names it accepts, without "--"
};

}  // namespace

int main(int argc, char** argv) {
  static const Subcommand kSubcommands[] = {
      {"generate", cmd_generate, {"out", "seed"}},
      {"train", cmd_train, {"data", "model"}},
      {"analyze", cmd_analyze, {"model", "clip", "ppm", "workers"}},
      {"evaluate", cmd_evaluate, {"model", "data", "workers"}},
      {"stream", cmd_stream, {"model", "clip", "sessions", "workers"}},
      {"serve",
       cmd_serve,
       {"model", "clip", "seed", "sessions", "seconds", "fps", "jitter", "workers", "capacity"}},
      {"record",
       cmd_record,
       {"out", "model", "clip", "seed", "mini", "sessions", "frames", "pushes-per-round", "fps",
        "capacity", "workers"}},
      {"replay", cmd_replay, {"trace", "model", "workers", "tolerance"}},
      {"top",
       cmd_top,
       {"model", "clip", "seed", "sessions", "seconds", "fps", "jitter", "workers", "capacity",
        "refresh", "plain", "slo-p99", "slo-drop", "slo-breach-after", "slo-clear-after",
        "incident-dir", "max-incidents", "trace-json"}},
      {"trace-export", cmd_trace_export, {"trace", "out", "model", "workers", "tolerance"}},
  };
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const auto sub = std::find_if(std::begin(kSubcommands), std::end(kSubcommands),
                                [&cmd](const Subcommand& s) { return cmd == s.name; });
  if (sub == std::end(kSubcommands)) return usage();
  try {
    return sub->run(parse_flags(argc, argv, 2, sub->flags));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
