// Ingest-plane tests: drop-oldest semantics and its shed count, idle-timeout
// eviction, drop accounting, and — the acceptance bar — batch parity:
// StreamUpdates delivered through the full push -> queue -> drain -> tick ->
// sink plane must be identical to a direct StreamSession::push_frame replay
// whenever no frame is dropped. The multi-producer stress test is the
// suite's TSan target (see scripts/ci.sh --tsan-stress): concurrent producers
// against queues deep enough to hold every frame, with per-session ordering
// and parity checked after the dust settles.
#include "ingest/ingest_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/simd.hpp"
#include "core/stream_engine.hpp"
#include "synth/dataset.hpp"

namespace slj::ingest {
namespace {

using namespace std::chrono_literals;

synth::Clip make_clip(std::uint32_t seed, int frame_count = 16) {
  synth::ClipSpec spec;
  spec.seed = seed;
  spec.frame_count = frame_count;
  return synth::generate_clip(spec);
}

/// A frame whose top-left pixel encodes `tag`, so queue tests can tell
/// exactly which frames drop-oldest kept.
RgbImage tagged_frame(std::uint8_t tag) {
  RgbImage frame(4, 4, Rgb{0, 0, 0});
  frame.at(0, 0) = Rgb{tag, tag, tag};
  return frame;
}

std::uint8_t tag_of(const RgbImage& frame) { return frame.at(0, 0).r; }

Clock::time_point at_ms(std::int64_t ms) {
  return Clock::time_point{std::chrono::milliseconds(ms)};
}

/// Manual clock injectable through IngestRouter::Config::clock; safe to
/// advance from the test thread while producers/scheduler read it.
struct ManualClock {
  std::atomic<std::int64_t> nanos{0};
  std::function<Clock::time_point()> fn() {
    return [this] { return Clock::time_point{Clock::duration{nanos.load()}}; };
  }
  void advance(Clock::duration d) { nanos.fetch_add(d.count()); }
};

// ---- FrameQueue ------------------------------------------------------------

TEST(FrameQueue, DropOldestShedsTheStalestFrame) {
  FrameQueueConfig config;
  config.capacity = 2;
  FrameQueue queue(config);

  EXPECT_EQ(queue.push(tagged_frame(10), at_ms(0)), PushOutcome::kAccepted);
  EXPECT_EQ(queue.push(tagged_frame(11), at_ms(1)), PushOutcome::kAccepted);
  EXPECT_EQ(queue.push(tagged_frame(12), at_ms(2)), PushOutcome::kReplacedOldest);
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.admitted(), 3u);
  EXPECT_EQ(queue.dropped(), 1u);

  // Frame 10 was shed; 11 and 12 drain in admission order with their
  // original sequence numbers and enqueue stamps.
  PendingFrame out;
  ASSERT_TRUE(queue.pop_into(out));
  EXPECT_EQ(tag_of(out.frame), 11);
  EXPECT_EQ(out.sequence, 1u);
  EXPECT_EQ(out.enqueued_at, at_ms(1));
  ASSERT_TRUE(queue.pop_into(out));
  EXPECT_EQ(tag_of(out.frame), 12);
  EXPECT_EQ(out.sequence, 2u);
  EXPECT_FALSE(queue.pop_into(out));
}

TEST(FrameQueue, RejectsZeroCapacity) {
  FrameQueueConfig config;
  config.capacity = 0;
  EXPECT_THROW(FrameQueue{config}, std::invalid_argument);
}

TEST(FrameQueue, ConcurrentPushesRacingCloseAccountExactly) {
  // Producers race a close() landing mid-stream against a queue small enough
  // to shed. Whatever the interleaving, the accounting must balance: every
  // push is admitted (kAccepted or kReplacedOldest) or refused (kClosed),
  // admitted() equals the admitted count, dropped() the replace count, and
  // exactly admitted - dropped frames drain afterwards — no frame is both
  // refused and enqueued, none vanish.
  FrameQueueConfig config;
  config.capacity = 16;
  FrameQueue queue(config);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 32;
  std::atomic<int> accepted{0};
  std::atomic<int> replaced{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        const PushOutcome outcome = queue.push(tagged_frame(7), at_ms(i));
        if (outcome == PushOutcome::kReplacedOldest) replaced.fetch_add(1);
        if (push_accepted(outcome)) {
          accepted.fetch_add(1);
        } else {
          ASSERT_EQ(outcome, PushOutcome::kClosed);
        }
      }
    });
  }
  queue.close();  // races the pushes by design
  for (std::thread& t : producers) t.join();

  const std::uint64_t pushed = static_cast<std::uint64_t>(accepted.load());
  EXPECT_EQ(queue.admitted(), pushed);
  EXPECT_EQ(queue.dropped(), static_cast<std::uint64_t>(replaced.load()));
  EXPECT_EQ(queue.depth(), pushed - queue.dropped());
  PendingFrame out;
  std::uint64_t drained = 0;
  std::uint64_t last_sequence = 0;
  while (queue.pop_into(out)) {
    // Sequences stay strictly increasing across the close boundary.
    if (drained > 0) EXPECT_GT(out.sequence, last_sequence);
    last_sequence = out.sequence;
    ++drained;
  }
  EXPECT_EQ(pushed, drained + queue.dropped());
}

// ---- LatencyHistogram ------------------------------------------------------

TEST(LatencyHistogram, QuantilesCarryAtMostOneOctaveOfError) {
  LatencyHistogram histogram;
  EXPECT_DOUBLE_EQ(histogram.quantile_ms(0.5), 0.0);  // empty

  // 100 samples at ~3 ms, 1 outlier at ~100 ms.
  for (int i = 0; i < 100; ++i) histogram.record(3ms);
  histogram.record(100ms);
  EXPECT_EQ(histogram.count(), 101u);
  EXPECT_DOUBLE_EQ(histogram.max_ms(), 100.0);
  // 3 ms lands in the [2048, 4096) µs bucket.
  EXPECT_GE(histogram.quantile_ms(0.50), 2.0);
  EXPECT_LE(histogram.quantile_ms(0.50), 4.1);
  // p99 is still inside the 3 ms mass; p100 reaches the outlier's bucket.
  EXPECT_LE(histogram.quantile_ms(0.99), 4.1);
  EXPECT_GE(histogram.quantile_ms(1.0), 64.0);
}

// ---- IngestMetrics ---------------------------------------------------------

TEST(IngestMetrics, SnapshotSimdBlockNamesTheBuildsBackendAndByteLanes) {
  // docs/metrics_schema.md's `simd` object: {"backend": "…", "u8_lanes": N}.
  const std::string json = IngestMetricsSnapshot{}.to_json();
  const std::size_t open = json.find("\"simd\": {");
  ASSERT_NE(open, std::string::npos) << json;
  const std::size_t close = json.find('}', open);
  ASSERT_NE(close, std::string::npos) << json;
  const std::string block = json.substr(open, close - open);

  const std::string backend_key = "\"backend\": \"";
  const std::size_t b = block.find(backend_key);
  ASSERT_NE(b, std::string::npos) << block;
  const std::size_t b_begin = b + backend_key.size();
  const std::string backend = block.substr(b_begin, block.find('"', b_begin) - b_begin);

  const std::string lanes_key = "\"u8_lanes\": ";
  const std::size_t l = block.find(lanes_key);
  ASSERT_NE(l, std::string::npos) << block;
  const int lanes = std::stoi(block.substr(l + lanes_key.size()));

  EXPECT_EQ(backend, simd::backend_name());
  if constexpr (std::is_same_v<simd::Active, simd::ScalarBackend>) {
    EXPECT_EQ(backend, "scalar");
  } else {
    EXPECT_EQ(backend, "sse2");
  }
  EXPECT_EQ(lanes, simd::VecU8<simd::Active>::kLanes);
}

// ---- IngestRouter ----------------------------------------------------------

TEST(IngestRouter, DrainTakesAtMostOneFramePerSessionInIdOrder) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(3, 4);
  core::StreamManager manager(classifier);
  ManualClock clock;
  IngestRouter::Config config;
  config.clock = clock.fn();
  IngestRouter router(manager, config);

  const int a = router.open(clip.background);
  const int b = router.open(clip.background);
  EXPECT_EQ(router.push(a, clip.frames[0]), PushOutcome::kAccepted);
  EXPECT_EQ(router.push(a, clip.frames[1]), PushOutcome::kAccepted);
  EXPECT_EQ(router.push(a, clip.frames[2]), PushOutcome::kAccepted);
  EXPECT_EQ(router.push(b, clip.frames[0]), PushOutcome::kAccepted);
  EXPECT_EQ(router.total_depth(), 4u);

  DrainBatch batch;
  ASSERT_EQ(router.drain(batch), 2u);  // one frame per session
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.feeds[0].session, a);
  EXPECT_EQ(batch.feeds[1].session, b);
  EXPECT_EQ(batch.pending(0).sequence, 0u);
  EXPECT_EQ(batch.feeds[0].frame, &batch.pending(0).frame);
  EXPECT_EQ(router.depth(a), 2u);
  EXPECT_EQ(router.depth(b), 0u);

  ASSERT_EQ(router.drain(batch), 1u);  // only a has frames left
  EXPECT_EQ(batch.feeds[0].session, a);
  EXPECT_EQ(batch.pending(0).sequence, 1u);
  router.close(a);
  router.close(b);
}

TEST(IngestRouter, UnknownIdsThrowAndClosedSessionsRefuseQuietly) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(5, 4);
  core::StreamManager manager(classifier);
  IngestRouter router(manager);

  EXPECT_THROW(router.push(0, clip.frames[0]), std::invalid_argument);
  const int id = router.open(clip.background);
  EXPECT_THROW(router.push(id + 1, clip.frames[0]), std::invalid_argument);
  EXPECT_THROW(router.depth(id + 1), std::invalid_argument);

  EXPECT_EQ(router.push(id, clip.frames[0]), PushOutcome::kAccepted);
  std::uint64_t discarded = 0;
  router.close(id, &discarded);
  EXPECT_EQ(discarded, 1u);  // the queued frame was dropped with the session
  EXPECT_EQ(router.snapshot().discarded, 1u);  // ...and metered, so books balance
  EXPECT_EQ(router.open_sessions(), 0u);
  // A producer racing the close gets a refusal, not an exception.
  EXPECT_EQ(router.push(id, clip.frames[0]), PushOutcome::kClosed);
  EXPECT_THROW(router.close(id), std::invalid_argument);
}

TEST(IngestRouter, SealRefusesPushesButKeepsFramesDrainable) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(7, 4);
  core::StreamManager manager(classifier);
  IngestRouter router(manager);

  const int id = router.open(clip.background);
  EXPECT_EQ(router.push(id, clip.frames[0]), PushOutcome::kAccepted);
  router.seal(id);
  EXPECT_EQ(router.push(id, clip.frames[1]), PushOutcome::kClosed);
  DrainBatch batch;
  EXPECT_EQ(router.drain(batch), 1u);  // the admitted frame still drains
  router.close(id);
}

TEST(IngestRouter, IdleTimeoutCollectsOnlySilentDrainedSessions) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(9, 4);
  core::StreamManager manager(classifier);
  ManualClock clock;
  IngestRouter::Config config;
  config.clock = clock.fn();
  config.session.idle_timeout = 100ms;
  IngestRouter router(manager, config);

  const int idle = router.open(clip.background);
  const int busy = router.open(clip.background);
  IngestSessionConfig immortal;
  const int forever = router.open(clip.background, immortal);  // no timeout

  EXPECT_EQ(router.push(idle, clip.frames[0]), PushOutcome::kAccepted);
  EXPECT_EQ(router.push(busy, clip.frames[0]), PushOutcome::kAccepted);
  DrainBatch batch;
  EXPECT_EQ(router.drain(batch), 2u);

  std::vector<int> evictable;
  clock.advance(50ms);
  router.collect_idle(evictable);
  EXPECT_TRUE(evictable.empty());  // within the timeout

  clock.advance(100ms);
  EXPECT_EQ(router.push(busy, clip.frames[1]), PushOutcome::kAccepted);  // activity
  router.collect_idle(evictable);
  // `idle` timed out; `busy` just pushed (and has a queued frame); `forever`
  // opted out of eviction.
  ASSERT_EQ(evictable.size(), 1u);
  EXPECT_EQ(evictable[0], idle);

  // A queued frame alone also shields a silent session: drain first.
  evictable.clear();
  clock.advance(200ms);
  router.collect_idle(evictable);
  EXPECT_EQ(evictable.size(), 1u);  // still just `idle`: busy has depth 1
  for (const int id : {idle, busy, forever}) router.close(id);
}

TEST(IngestRouter, SnapshotAccountsDropsByPolicyExactly) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(11, 4);
  core::StreamManager manager(classifier);
  IngestRouter router(manager);

  IngestSessionConfig dropping;
  dropping.queue.capacity = 2;
  IngestSessionConfig roomy;
  roomy.queue.capacity = 8;

  const int d = router.open(clip.background, dropping);
  const int r = router.open(clip.background, roomy);
  for (int i = 0; i < 4; ++i) {
    router.push(d, clip.frames[0]);
    router.push(r, clip.frames[0]);
  }
  router.seal(r);
  EXPECT_EQ(router.push(r, clip.frames[0]), PushOutcome::kClosed);

  const IngestMetricsSnapshot snap = router.snapshot();
  EXPECT_EQ(snap.open_sessions, 2u);
  EXPECT_EQ(snap.pushed, 4u + 4u);  // every push to an open queue is admitted
  EXPECT_EQ(snap.dropped_oldest, 2u);
  EXPECT_EQ(snap.closed_pushes, 1u);
  EXPECT_EQ(snap.queue_depth, 2u + 4u);
  ASSERT_EQ(snap.sessions.size(), 2u);
  EXPECT_EQ(snap.sessions[0].pushed, 4u);
  EXPECT_EQ(snap.sessions[0].dropped_oldest, 2u);
  EXPECT_EQ(snap.sessions[1].pushed, 4u);
  EXPECT_EQ(snap.sessions[1].dropped_oldest, 0u);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"dropped_oldest\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sessions\": ["), std::string::npos);
  EXPECT_EQ(json.find("\"policy\""), std::string::npos);

  // Closing reports what each session shed and discarded.
  std::uint64_t discarded = 0;
  EXPECT_EQ(router.close(d, &discarded).frames_shed, 2u);
  EXPECT_EQ(discarded, 2u);
  EXPECT_EQ(router.close(r, &discarded).frames_shed, 0u);
  EXPECT_EQ(discarded, 4u);
}

// ---- IngestService ---------------------------------------------------------

/// One sink's record of a delivery; Delivery::update references the
/// service's reusable tick buffer, so everything needed is copied out here.
struct Recorded {
  std::uint64_t sequence = 0;
  std::size_t frame_index = 0;
  bool airborne = false;
  pose::FrameResult result;
};

void expect_same_update(const Recorded& got, const core::StreamUpdate& want, std::size_t frame) {
  EXPECT_EQ(got.frame_index, want.frame_index) << "frame " << frame;
  EXPECT_EQ(got.airborne, want.airborne) << "frame " << frame;
  EXPECT_EQ(got.result.pose, want.result.pose) << "frame " << frame;
  EXPECT_EQ(got.result.stage, want.result.stage) << "frame " << frame;
  EXPECT_EQ(got.result.candidate_index, want.result.candidate_index) << "frame " << frame;
  EXPECT_DOUBLE_EQ(got.result.posterior, want.result.posterior) << "frame " << frame;
}

/// Acceptance bar: the service-delivered updates are identical to a direct
/// StreamSession::push_frame replay when no frame is dropped (capacity >=
/// clip length), and so is the final report, frames_shed 0 included.
TEST(IngestService, BatchParityForEveryPolicyWhenNothingDrops) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(2008, 12);

  IngestServiceConfig config;
  config.manager.workers = 2;
  IngestService service(classifier, {}, config);

  IngestSessionConfig session_config;
  session_config.queue.capacity = clip.frames.size();
  std::vector<Recorded> delivered;
  const int id = service.open_session(clip.background, session_config, [&](const Delivery& d) {
    delivered.push_back({d.sequence, d.update.frame_index, d.update.airborne, d.update.result});
  });

  // Scheduler deliberately stopped: flush() runs the drain->tick->deliver
  // passes inline, so the whole parity path is deterministic.
  for (const RgbImage& frame : clip.frames) {
    ASSERT_EQ(service.push(id, frame), PushOutcome::kAccepted);
  }
  service.flush();

  core::StreamSession reference(classifier, clip.background);
  ASSERT_EQ(delivered.size(), clip.frames.size());
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    EXPECT_EQ(delivered[i].sequence, i);
    expect_same_update(delivered[i], reference.push_frame(clip.frames[i]), i);
  }

  // The final report equals the reference session's, and closing leaves the
  // plane empty.
  const core::JumpReport got = service.close_session(id);
  const core::JumpReport want = reference.finish();
  EXPECT_EQ(got.frames_shed, 0u);
  EXPECT_EQ(got.frames_shed, want.frames_shed);
  ASSERT_EQ(got.findings.size(), want.findings.size());
  for (std::size_t i = 0; i < got.findings.size(); ++i) {
    EXPECT_EQ(got.findings[i].rule, want.findings[i].rule);
    EXPECT_EQ(got.findings[i].passed, want.findings[i].passed);
    EXPECT_EQ(got.findings[i].evidence_frames, want.findings[i].evidence_frames);
  }
  EXPECT_EQ(got.to_string(), want.to_string());
  EXPECT_EQ(service.open_sessions(), 0u);

  const IngestMetricsSnapshot snap = service.metrics();
  EXPECT_EQ(snap.pushed, clip.frames.size());
  EXPECT_EQ(snap.delivered, clip.frames.size());
  EXPECT_EQ(snap.dropped_oldest, 0u);
}

TEST(IngestService, DropOldestKeepsDeliveringTheFreshestFrames) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(21, 10);

  IngestServiceConfig config;
  config.manager.workers = 1;
  IngestService service(classifier, {}, config);
  IngestSessionConfig session_config;
  session_config.queue.capacity = 2;
  std::vector<std::uint64_t> sequences;
  const int id = service.open_session(clip.background, session_config,
                                      [&](const Delivery& d) { sequences.push_back(d.sequence); });

  // Ten frames into a 2-deep queue with no consumer: eight are shed.
  for (const RgbImage& frame : clip.frames) service.push(id, frame);
  service.flush();  // delivers the two survivors inline

  ASSERT_EQ(sequences.size(), 2u);
  EXPECT_EQ(sequences[0], 8u);  // the freshest two admissions survived
  EXPECT_EQ(sequences[1], 9u);
  const IngestMetricsSnapshot snap = service.metrics();
  EXPECT_EQ(snap.pushed, 10u);
  EXPECT_EQ(snap.delivered, 2u);
  EXPECT_EQ(snap.dropped_oldest, 8u);
  // The report says which frames it lacks.
  const core::JumpReport report = service.close_session(id);
  EXPECT_EQ(report.frames_shed, 8u);
  EXPECT_NE(report.to_string().find("8 frames shed before analysis"), std::string::npos);
}

/// An idle eviction's report counts the frames its session shed, like an
/// explicit close: a manual-clock session forced to shed k frames reports k.
TEST(IngestService, EvictedSessionReportCountsItsShedFrames) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(34, 7);

  ManualClock clock;
  IngestServiceConfig config;
  config.manager.workers = 1;
  config.router.clock = clock.fn();
  config.poll_interval = 1ms;
  IngestService service(classifier, {}, config);

  IngestSessionConfig session_config;
  session_config.queue.capacity = 2;
  session_config.idle_timeout = 50ms;
  const int id = service.open_session(clip.background, session_config);
  std::mutex mutex;
  std::condition_variable cv;
  int evicted_id = -1;
  std::uint64_t evicted_shed = 0;
  service.set_eviction_sink([&](int session, const core::JumpReport& report) {
    std::lock_guard<std::mutex> lock(mutex);
    evicted_id = session;
    evicted_shed = report.frames_shed;
    cv.notify_all();
  });

  // Seven frames into a 2-deep queue before the scheduler starts: five shed.
  for (const RgbImage& frame : clip.frames) service.push(id, frame);
  service.start();
  service.flush();
  clock.advance(200ms);
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return evicted_id != -1; }));
  }
  service.stop();
  EXPECT_EQ(evicted_id, id);
  EXPECT_EQ(evicted_shed, clip.frames.size() - 2);
  EXPECT_EQ(service.metrics().dropped_oldest, clip.frames.size() - 2);
}

TEST(IngestService, IdleSessionsAreEvictedThroughTheScheduler) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(33, 4);

  ManualClock clock;
  IngestServiceConfig config;
  config.manager.workers = 1;
  config.router.clock = clock.fn();
  config.poll_interval = 1ms;
  IngestService service(classifier, {}, config);

  IngestSessionConfig session_config;
  session_config.idle_timeout = 50ms;
  std::atomic<int> delivered{0};
  const int id = service.open_session(clip.background, session_config,
                                      [&](const Delivery&) { delivered.fetch_add(1); });
  std::mutex mutex;
  std::condition_variable cv;
  int evicted_id = -1;
  int evicted_findings = -1;
  service.set_eviction_sink([&](int session, const core::JumpReport& report) {
    std::lock_guard<std::mutex> lock(mutex);
    evicted_id = session;
    evicted_findings = report.total_count();
    cv.notify_all();
  });

  service.start();
  ASSERT_EQ(service.push(id, clip.frames[0]), PushOutcome::kAccepted);
  service.flush();
  EXPECT_EQ(delivered.load(), 1);

  // Jump the injected clock past the idle timeout; the scheduler notices on
  // its next poll and evicts the session with a final report.
  clock.advance(200ms);
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return evicted_id != -1; }));
  }
  EXPECT_EQ(evicted_id, id);
  EXPECT_EQ(evicted_findings, 6);  // a finished report resolves all six rules
  EXPECT_EQ(service.open_sessions(), 0u);
  EXPECT_EQ(service.metrics().evicted_sessions, 1u);
  service.stop();
}

/// The TSan stress target (scripts/ci.sh --tsan-stress): concurrent
/// producers hammer the queues while the scheduler drains, ticks and
/// delivers. Each queue holds a whole session, so drop-oldest never sheds. Sessions 0..2 have one producer each and must deliver
/// bit-identical results to a direct replay; session 3 is fed by two
/// producers racing each other (MPSC) and must still deliver in admission
/// order with nothing lost.
TEST(IngestService, MultiProducerStressDeliversEveryFrameInOrder) {
  const pose::PoseDbnClassifier classifier;
  const int frames = 10;
  const std::vector<synth::Clip> clips = {make_clip(41, frames), make_clip(42, frames),
                                          make_clip(43, frames), make_clip(44, frames)};

  IngestServiceConfig config;
  config.manager.workers = 2;
  config.poll_interval = 1ms;
  IngestService service(classifier, {}, config);

  IngestSessionConfig session_config;
  session_config.queue.capacity = frames;  // holds a whole session: nothing is shed

  struct PerSession {
    std::mutex mutex;
    std::vector<Recorded> delivered;
  };
  std::vector<PerSession> recorded(clips.size());
  std::vector<int> ids;
  for (std::size_t s = 0; s < clips.size(); ++s) {
    PerSession& bucket = recorded[s];
    ids.push_back(service.open_session(clips[s].background, session_config,
                                       [&bucket](const Delivery& d) {
                                         std::lock_guard<std::mutex> lock(bucket.mutex);
                                         bucket.delivered.push_back(
                                             {d.sequence, d.update.frame_index, d.update.airborne,
                                              d.update.result});
                                       }));
  }

  service.start();
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s + 1 < clips.size(); ++s) {
    producers.emplace_back([&, s] {
      for (const RgbImage& frame : clips[s].frames) {
        ASSERT_EQ(service.push(ids[s], frame), PushOutcome::kAccepted);  // never full
      }
    });
  }
  // Session 3: two producers race; admission interleaving is arbitrary but
  // delivery must follow it exactly.
  const std::size_t last = clips.size() - 1;
  for (int half = 0; half < 2; ++half) {
    producers.emplace_back([&, half] {
      for (int i = half * frames / 2; i < (half + 1) * frames / 2; ++i) {
        ASSERT_EQ(service.push(ids[last], clips[last].frames[static_cast<std::size_t>(i)]),
                  PushOutcome::kAccepted);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  service.flush();
  service.stop();

  // Single-producer sessions: full parity with a direct replay.
  for (std::size_t s = 0; s + 1 < clips.size(); ++s) {
    core::StreamSession reference(classifier, clips[s].background);
    std::lock_guard<std::mutex> lock(recorded[s].mutex);
    ASSERT_EQ(recorded[s].delivered.size(), clips[s].frames.size()) << "session " << s;
    for (std::size_t i = 0; i < clips[s].frames.size(); ++i) {
      EXPECT_EQ(recorded[s].delivered[i].sequence, i) << "session " << s;
      expect_same_update(recorded[s].delivered[i], reference.push_frame(clips[s].frames[i]), i);
    }
  }
  // Contended session: every admitted frame delivered, in admission order.
  {
    std::lock_guard<std::mutex> lock(recorded[last].mutex);
    ASSERT_EQ(recorded[last].delivered.size(), static_cast<std::size_t>(frames));
    for (std::size_t i = 0; i < recorded[last].delivered.size(); ++i) {
      EXPECT_EQ(recorded[last].delivered[i].sequence, i);
      EXPECT_EQ(recorded[last].delivered[i].frame_index, i);
    }
  }

  const IngestMetricsSnapshot snap = service.metrics();
  EXPECT_EQ(snap.pushed, clips.size() * static_cast<std::size_t>(frames));
  EXPECT_EQ(snap.delivered, snap.pushed);
  EXPECT_EQ(snap.dropped_oldest, 0u);
  for (const int id : ids) EXPECT_EQ(service.close_session(id).frames_shed, 0u);
}

TEST(IngestService, CloseSessionFlushesQueuedFramesFirst) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(55, 6);

  IngestServiceConfig config;
  config.manager.workers = 1;
  IngestService service(classifier, {}, config);
  IngestSessionConfig session_config;
  session_config.queue.capacity = clip.frames.size();
  std::atomic<int> delivered{0};
  const int id = service.open_session(clip.background, session_config,
                                      [&](const Delivery&) { delivered.fetch_add(1); });
  for (const RgbImage& frame : clip.frames) service.push(id, frame);

  // close_session seals, flushes inline (scheduler stopped), then closes:
  // every queued frame reaches the sink before the report is produced.
  const core::JumpReport report = service.close_session(id);
  EXPECT_EQ(delivered.load(), static_cast<int>(clip.frames.size()));
  EXPECT_EQ(report.total_count(), 6);
  EXPECT_EQ(service.metrics().delivered, clip.frames.size());
}

TEST(IngestService, WrongSizeFrameIsRefusedAtPushAndTheSessionKeepsDelivering) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(77, 2);
  const RgbImage half(clip.background.width() / 2, clip.background.height() / 2);

  IngestServiceConfig config;
  config.manager.workers = 1;
  IngestService service(classifier, {}, config);
  std::vector<Recorded> delivered;
  std::mutex delivered_mutex;
  const int id = service.open_session(clip.background, [&](const Delivery& d) {
    const std::lock_guard<std::mutex> lock(delivered_mutex);
    delivered.push_back({d.sequence, d.update.frame_index, d.update.airborne, d.update.result});
  });
  // With the scheduler running, an admitted frame the extractor cannot take
  // would throw on the scheduler thread and end the process.
  service.start();
  EXPECT_THROW(service.push(id, half), std::invalid_argument);
  ASSERT_EQ(service.push(id, clip.frames[0]), PushOutcome::kAccepted);
  service.flush();  // returns: the refused attempt was balanced
  service.stop();

  core::StreamSession reference(classifier, clip.background);
  {
    const std::lock_guard<std::mutex> lock(delivered_mutex);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].sequence, 0u);
    expect_same_update(delivered[0], reference.push_frame(clip.frames[0]), 0);
  }
  EXPECT_EQ(service.metrics().pushed, 1u);
  service.close_session(id);
}

TEST(IngestService, StopMidStreamThenFlushDeliversTheRemainderInline) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(66, 12);

  IngestServiceConfig config;
  config.manager.workers = 1;
  config.poll_interval = 1ms;
  IngestService service(classifier, {}, config);
  IngestSessionConfig session_config;
  session_config.queue.capacity = clip.frames.size();
  std::mutex delivered_mutex;
  std::vector<std::uint64_t> delivered;
  const int id = service.open_session(clip.background, session_config,
                                      [&](const Delivery& d) {
                                        std::lock_guard<std::mutex> lock(delivered_mutex);
                                        delivered.push_back(d.sequence);
                                      });

  // First half rides the live scheduler; then stop() lands mid-stream with
  // the second half still queued (or not yet pushed). Frames admitted after
  // stop stay queued — flush() must process them inline on this thread.
  service.start();
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_EQ(service.push(id, clip.frames[i]), PushOutcome::kAccepted);
  }
  service.stop();
  for (std::size_t i = 6; i < clip.frames.size(); ++i) {
    ASSERT_EQ(service.push(id, clip.frames[i]), PushOutcome::kAccepted);
  }
  service.flush();

  std::lock_guard<std::mutex> lock(delivered_mutex);
  ASSERT_EQ(delivered.size(), clip.frames.size());
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], i);  // admission order survives the stop boundary
  }
  EXPECT_EQ(service.metrics().delivered, clip.frames.size());
}

TEST(IngestService, StopStartCyclesKeepDeliveryOrderAndAccounting) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(77, 12);

  IngestServiceConfig config;
  config.manager.workers = 1;
  config.poll_interval = 1ms;
  IngestService service(classifier, {}, config);
  IngestSessionConfig session_config;
  session_config.queue.capacity = clip.frames.size();  // lossless: nothing is shed
  std::mutex delivered_mutex;
  std::vector<std::uint64_t> delivered;
  const int id = service.open_session(clip.background, session_config,
                                      [&](const Delivery& d) {
                                        std::lock_guard<std::mutex> lock(delivered_mutex);
                                        delivered.push_back(d.sequence);
                                      });

  // Three stop/start cycles, four frames each. stop() is idempotent-safe to
  // call around flush(), and a restarted scheduler must pick the plane back
  // up with no frame lost, duplicated, or reordered.
  for (int cycle = 0; cycle < 3; ++cycle) {
    service.start();
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t frame = static_cast<std::size_t>(cycle) * 4 + i;
      ASSERT_EQ(service.push(id, clip.frames[frame]), PushOutcome::kAccepted);
    }
    service.flush();
    service.stop();
    service.stop();  // second stop is a no-op, not a crash or a hang
  }

  std::lock_guard<std::mutex> lock(delivered_mutex);
  ASSERT_EQ(delivered.size(), clip.frames.size());
  for (std::size_t i = 0; i < delivered.size(); ++i) EXPECT_EQ(delivered[i], i);
  const IngestMetricsSnapshot snap = service.metrics();
  EXPECT_EQ(snap.pushed, clip.frames.size());
  EXPECT_EQ(snap.delivered, clip.frames.size());
  EXPECT_EQ(snap.pushed, snap.delivered + snap.dropped_oldest + snap.discarded);
}

TEST(IngestService, CloseSessionRacingBlockedProducersNeverHangs) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(88, 8);

  IngestServiceConfig config;
  config.manager.workers = 1;
  config.poll_interval = 1ms;
  IngestService service(classifier, {}, config);
  IngestSessionConfig session_config;
  session_config.queue.capacity = 1;  // tiny: almost every push sheds a frame
  std::atomic<int> delivered{0};
  const int id = service.open_session(clip.background, session_config,
                                      [&](const Delivery&) { delivered.fetch_add(1); });

  // Producers hammer a 1-deep drop-oldest queue while close_session() lands
  // concurrently. Pushes after the seal get kClosed, and close_session's
  // internal flush must account every admitted frame (delivered, shed or
  // discarded) so it returns instead of waiting forever.
  service.start();
  std::atomic<int> accepted{0};
  std::atomic<int> closed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      for (const RgbImage& frame : clip.frames) {
        const PushOutcome outcome = service.push(id, frame);
        if (push_accepted(outcome)) {
          accepted.fetch_add(1);
        } else {
          ASSERT_EQ(outcome, PushOutcome::kClosed);
          closed.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(5ms);  // let some traffic through first
  const core::JumpReport report = service.close_session(id);
  for (std::thread& t : producers) t.join();
  service.stop();

  // Every producer attempt resolved one way or the other, the session is
  // gone, and the books balance exactly: each admitted frame was delivered,
  // shed by drop-oldest, or discarded by the close.
  EXPECT_EQ(accepted.load() + closed.load(), 3 * static_cast<int>(clip.frames.size()));
  EXPECT_EQ(service.open_sessions(), 0u);
  const IngestMetricsSnapshot snap = service.metrics();
  EXPECT_EQ(snap.pushed, static_cast<std::uint64_t>(accepted.load()));
  EXPECT_EQ(snap.closed_pushes, static_cast<std::uint64_t>(closed.load()));
  EXPECT_EQ(snap.delivered, static_cast<std::uint64_t>(delivered.load()));
  EXPECT_EQ(snap.pushed, snap.delivered + snap.dropped_oldest + snap.discarded);
  EXPECT_EQ(report.frames_shed, snap.dropped_oldest);
}

}  // namespace
}  // namespace slj::ingest
