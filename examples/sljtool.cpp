// sljtool — command-line front end for the full system (usage() lists each
// subcommand's flags):
//
//   generate  export a synthetic corpus
//   train     train the pose DBN
//   analyze   poses + coaching + score for one clip
//   evaluate  per-clip pose accuracy on a corpus's test clips
//   stream    push a clip a frame at a time into N sessions (simulated
//             cameras), printing advice the moment a rule resolves, and
//             check every live frame against the batch classifier
//   record    record a deterministic ingest run as a .sljtrace
//   replay    re-drive a .sljtrace and verify bit-identical analysis
//             (--trace-json: also export the replay's tracer timeline)
//   top       the async ingest service under jittery cameras, with a live
//             SLO table and a flight recorder that dumps incidents
//
// Clip directories use the clip_io format (background.ppm, frame_NNN.ppm,
// manifest.txt) — real footage can be dropped in the same layout. The
// vision pass runs on --workers N lanes (default: hardware concurrency);
// the jumper is each frame's largest foreground component.
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
#include <type_traits>
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

using Flags = std::map<std::string, std::string>;

/// Flags come in `--name value` pairs. Each subcommand accepts the flags its
/// usage line lists; any other flag, or a flag with no value, is an error
/// naming it, and main exits 1.
Flags parse_flags(int argc, char** argv, int start, const std::vector<std::string>& accepted) {
  Flags flags;
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

std::string require(const Flags& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

/// A number flag in [lo, hi] (NaN never is); `fallback` when absent. The
/// whole value must parse: "8x" is rejected, not read as 8.
template <typename T>
T number_flag(const Flags& flags, const std::string& key, T fallback, T lo, T hi) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  T value = lo - 1;
  try {
    std::size_t used = 0;
    if constexpr (std::is_integral_v<T>) {
      value = std::stol(it->second, &used);
    } else {
      value = std::stod(it->second, &used);
    }
    if (used != it->second.size()) value = lo - 1;
  } catch (const std::exception&) {
  }
  if (!(value >= lo && value <= hi)) {
    throw std::runtime_error("--" + key + " must be " +
                             (std::is_integral_v<T> ? "an integer in [" : "in [") +
                             std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
                             it->second + "'");
  }
  return value;
}
constexpr auto long_flag = number_flag<long>;
constexpr auto double_flag = number_flag<double>;

int cmd_generate(const Flags& flags) {
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

int cmd_train(const Flags& flags) {
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
core::ClipEngineConfig engine_config(const Flags& flags) {
  core::ClipEngineConfig config;
  config.workers = static_cast<unsigned>(long_flag(flags, "workers", 0, 0, 1024));
  return config;
}

pose::PoseDbnClassifier load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  return pose::PoseDbnClassifier::load(in);
}

/// What record and top feed the ingest plane: the --model (untrained when
/// absent, which costs the same per frame) and the --clip DIR, or else the
/// clip generated from --seed N.
struct LiveInputs {
  pose::PoseDbnClassifier classifier;
  synth::Clip clip;
};

LiveInputs load_live_inputs(const Flags& flags) {
  LiveInputs in;
  if (const auto it = flags.find("model"); it != flags.end()) {
    in.classifier = load_model(it->second);
  }
  if (const auto it = flags.find("clip"); it != flags.end()) {
    in.clip = synth::load_clip(it->second);
    return in;
  }
  synth::ClipSpec spec;
  spec.seed = static_cast<std::uint32_t>(long_flag(flags, "seed", 2008, 1, 1u << 30));
  if (long_flag(flags, "mini", 0, 0, 1) != 0) {  // only record accepts --mini
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
  in.clip = synth::generate_clip(spec);
  return in;
}

/// Writes the tracer's events as Chrome trace-event JSON (chrome://tracing, Perfetto).
void write_trace_json(const std::string& path) {
  const obs::TracerSnapshot snap = obs::Tracer::instance().snapshot();
  std::ofstream json(path);
  if (!json) throw std::runtime_error("cannot write " + path);
  json << obs::chrome_trace_json(snap);
  std::printf("trace timeline written to %s (%llu events, %llu dropped)\n", path.c_str(),
              static_cast<unsigned long long>(snap.total_events),
              static_cast<unsigned long long>(snap.total_dropped));
}

int cmd_analyze(const Flags& flags) {
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

int cmd_stream(const Flags& flags) {
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
// top, nothing here depends on wall-clock or thread timing: the router
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
int cmd_record(const Flags& flags) {
  const auto [classifier, clip] = load_live_inputs(flags);
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
// golden outputs bit for bit, posteriors included, at any worker count; exit
// status 0 = bit-identical. --trace-json FILE runs the replay with the event
// tracer on and writes its timeline and per-stage rollup to FILE.
int cmd_replay(const Flags& flags) {
  pose::PoseDbnClassifier classifier;
  if (const auto it = flags.find("model"); it != flags.end()) classifier = load_model(it->second);
  const std::string trace = require(flags, "trace");

  replay::ReplayOptions options;
  options.workers = static_cast<unsigned>(long_flag(flags, "workers", 1, 0, 1024));

  const auto trace_json = flags.find("trace-json");
  obs::Tracer::instance().reset();
  obs::Tracer::instance().set_enabled(trace_json != flags.end());
  const replay::ReplayResult result =
      replay::TraceReplayer(classifier, {}, options).replay_file(trace);
  obs::Tracer::instance().set_enabled(false);

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
  if (trace_json != flags.end()) write_trace_json(trace_json->second);
  return result.identical() ? 0 : 1;
}

#ifdef SIGUSR1
/// Set by the SIGUSR1 handler; cmd_top's refresh loop turns it into an
/// operator-requested incident dump.
volatile std::sig_atomic_t g_dump_requested = 0;
void on_dump_signal(int) { g_dump_requested = 1; }
#endif

// top: the push-based service end to end. N producer threads play jittery
// cameras — each pushes the clip's frames (cycled) at its target fps with
// per-frame timing noise — against the IngestService's bounded queues while
// the scheduler drains, analyses and delivers. The event tracer is on, a
// FlightRecorder rides as the service's tap, and every refresh is scored
// against the SLO budgets: a gauge crossing into breach (or SIGUSR1) dumps
// the recorder's window as incident_<n>_<reason>.sljtrace, replayable with
// `sljtool replay`. The exit status is the exact drop-accounting check.
int cmd_top(const Flags& flags) {
  const auto [classifier, clip] = load_live_inputs(flags);

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
  if (const auto it = flags.find("incident-dir"); it != flags.end()) {
    monitor_config.incident_dir = it->second;
  }
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
  std::printf("top: %ld jittery %.0f fps camera%s for %.1f s  (SLO budgets, 0 = untracked: "
              "p99 %g ms, drop-rate %g; incidents -> %s)\n",
              sessions, fps, sessions == 1 ? "" : "s", seconds, monitor_config.slo.p99_budget_ms,
              monitor_config.slo.drop_rate_budget, monitor_config.incident_dir.c_str());
  service.start();

  using WallClock = std::chrono::steady_clock;
  const auto start = WallClock::now();
  const auto deadline = start + std::chrono::duration_cast<WallClock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < ids.size(); ++s) {
    producers.emplace_back([&, s, &frames = clip.frames] {
      std::mt19937 rng(static_cast<std::uint32_t>(1000 + s));
      std::uniform_real_distribution<double> noise(1.0 - jitter, 1.0 + jitter);
      const double period_s = 1.0 / fps;
      std::size_t frame = s;  // stagger the feeds
      while (WallClock::now() < deadline) {
        service.push(ids[s], frames[frame % frames.size()]);
        ++frame;
        std::this_thread::sleep_for(std::chrono::duration<double>(period_s * noise(rng)));
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

  if (const auto it = flags.find("trace-json"); it != flags.end()) write_trace_json(it->second);

  const ingest::IngestMetricsSnapshot end = service.metrics();
  const bool balanced = end.pushed == end.delivered + end.dropped_oldest + end.discarded;
  std::printf("accounting: pushed %llu == delivered %llu + dropped %llu + discarded %llu  [%s]\n",
              static_cast<unsigned long long>(end.pushed),
              static_cast<unsigned long long>(end.delivered),
              static_cast<unsigned long long>(end.dropped_oldest),
              static_cast<unsigned long long>(end.discarded), balanced ? "ok" : "MISMATCH");
  return balanced ? 0 : 1;
}

int cmd_evaluate(const Flags& flags) {
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
              "  sljtool record   --out FILE [--model FILE] [--clip DIR | --seed N] [--mini 0|1]\n"
              "                   [--sessions N] [--frames N] [--pushes-per-round N] [--fps F]\n"
              "                   [--capacity N] [--workers N]\n"
              "  sljtool replay   --trace FILE [--model FILE] [--workers N] [--trace-json FILE]\n"
              "  sljtool top      [--model FILE] [--clip DIR | --seed N] [--sessions N]\n"
              "                   [--seconds S] [--fps F] [--jitter 0..1] [--workers N]\n"
              "                   [--capacity N] [--refresh MS] [--plain 0|1]\n"
              "                   [--slo-p99 MS] [--slo-drop 0..1] [--incident-dir DIR]\n"
              "                   [--max-incidents N] [--trace-json FILE]\n");
  return 2;
}

struct Subcommand {
  const char* name;
  int (*run)(const Flags&);
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
      {"record", cmd_record,
       {"out", "model", "clip", "seed", "mini", "sessions", "frames", "pushes-per-round", "fps",
        "capacity", "workers"}},
      {"replay", cmd_replay, {"trace", "model", "workers", "trace-json"}},
      {"top", cmd_top,
       {"model", "clip", "seed", "sessions", "seconds", "fps", "jitter", "workers", "capacity",
        "refresh", "plain", "slo-p99", "slo-drop", "incident-dir", "max-incidents", "trace-json"}},
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
