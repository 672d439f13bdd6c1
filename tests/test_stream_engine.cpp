#include "core/stream_engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/clip_engine.hpp"
#include "synth/dataset.hpp"

namespace slj::core {
namespace {

using pose::FrameResult;

synth::Clip make_clip(std::uint32_t seed, int frame_count = 16) {
  synth::ClipSpec spec;
  spec.seed = seed;
  spec.frame_count = frame_count;
  return synth::generate_clip(spec);
}

void expect_same_result(const FrameResult& got, const FrameResult& want, std::size_t frame) {
  EXPECT_EQ(got.pose, want.pose) << "frame " << frame;
  EXPECT_EQ(got.best_pose, want.best_pose) << "frame " << frame;
  EXPECT_EQ(got.stage, want.stage) << "frame " << frame;
  EXPECT_EQ(got.candidate_index, want.candidate_index) << "frame " << frame;
  EXPECT_DOUBLE_EQ(got.posterior, want.posterior) << "frame " << frame;
}

/// The acceptance bar: pushing a clip frame-by-frame must yield exactly the
/// batch kOnline results (ClipEngine observation + classify_sequence).
TEST(StreamSession, OnlineMatchesBatchPathFrameForFrame) {
  const pose::PoseDbnClassifier classifier;
  for (const std::uint32_t seed : {3u, 2008u}) {
    const synth::Clip clip = make_clip(seed);

    ClipEngineConfig engine_config;
    engine_config.workers = 4;
    ClipEngine engine({}, engine_config);
    const ClipObservation observation = engine.process(clip);
    const std::vector<FrameResult> batch =
        classifier.classify_sequence(observation.candidate_sets(), observation.airborne);

    StreamSession session(classifier, clip.background);
    for (std::size_t i = 0; i < clip.frames.size(); ++i) {
      const StreamUpdate update = session.push_frame(clip.frames[i]);
      EXPECT_EQ(update.frame_index, i);
      EXPECT_EQ(update.airborne, observation.airborne[i]) << "frame " << i;
      expect_same_result(update.result, batch[i], i);
    }
    EXPECT_EQ(session.frames_seen(), clip.frames.size());
  }
}

TEST(StreamSession, PushObservationMatchesPushFrame) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(7, 8);
  FramePipeline pipeline;
  pipeline.set_background(clip.background);

  StreamSession by_frame(classifier, clip.background);
  StreamSession by_observation(classifier, clip.background);
  FrameWorkspace ws;
  FrameObservation obs;
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    const StreamUpdate a = by_frame.push_frame(clip.frames[i]);
    pipeline.process_into(clip.frames[i], ws, obs);
    const StreamUpdate b = by_observation.push_observation(obs);
    EXPECT_EQ(a.airborne, b.airborne) << "frame " << i;
    expect_same_result(a.result, b.result, i);
  }
}

TEST(StreamSession, ReportMatchesBatchDetectFaults) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(11);

  StreamSession session(classifier, clip.background);
  std::vector<FrameResult> results;
  std::size_t resolved_events = 0;
  for (const RgbImage& frame : clip.frames) {
    const StreamUpdate update = session.push_frame(frame);
    results.push_back(update.result);
    resolved_events += update.resolved.size();
  }
  const JumpReport live = session.report();
  const JumpReport batch = detect_faults(results);
  ASSERT_EQ(live.findings.size(), batch.findings.size());
  for (std::size_t i = 0; i < live.findings.size(); ++i) {
    EXPECT_EQ(live.findings[i].rule, batch.findings[i].rule);
    EXPECT_EQ(live.findings[i].passed, batch.findings[i].passed);
    EXPECT_EQ(live.findings[i].evidence_frames, batch.findings[i].evidence_frames);
  }

  // Rules resolve at most once mid-stream; finish() settles the rest and
  // its report agrees with the batch outcome.
  EXPECT_LE(resolved_events, 6u);
  const JumpReport final_report = session.finish();
  EXPECT_EQ(final_report.total_count(), 6);
  EXPECT_EQ(final_report.passed_count(), batch.passed_count());
}

TEST(StreamManager, TickMatchesIndividualSessions) {
  const pose::PoseDbnClassifier classifier;
  const std::vector<synth::Clip> clips = {make_clip(21), make_clip(22), make_clip(23)};

  StreamManagerConfig config;
  config.workers = 4;
  StreamManager manager(classifier, {}, config);
  std::vector<int> ids;
  std::vector<StreamSession> reference;
  for (const synth::Clip& clip : clips) {
    ids.push_back(manager.open_session(clip.background));
    reference.emplace_back(classifier, clip.background);
  }
  EXPECT_EQ(manager.open_sessions(), clips.size());

  const std::size_t frames = clips.front().frames.size();
  std::vector<StreamUpdate> updates;
  for (std::size_t t = 0; t < frames; ++t) {
    std::vector<StreamManager::Feed> feeds;
    for (std::size_t s = 0; s < clips.size(); ++s) {
      feeds.push_back({ids[s], &clips[s].frames[t]});
    }
    manager.tick_into(feeds, updates);
    ASSERT_EQ(updates.size(), feeds.size());
    for (std::size_t s = 0; s < clips.size(); ++s) {
      const StreamUpdate want = reference[s].push_frame(clips[s].frames[t]);
      EXPECT_EQ(updates[s].airborne, want.airborne) << "session " << s << " frame " << t;
      expect_same_result(updates[s].result, want.result, t);
    }
  }

  for (std::size_t s = 0; s < clips.size(); ++s) {
    const JumpReport got = manager.close_session(ids[s]);
    const JumpReport want = reference[s].finish();
    ASSERT_EQ(got.findings.size(), want.findings.size());
    for (std::size_t i = 0; i < got.findings.size(); ++i) {
      EXPECT_EQ(got.findings[i].passed, want.findings[i].passed) << "session " << s;
    }
  }
  EXPECT_EQ(manager.open_sessions(), 0u);
}

TEST(StreamManager, RejectsBadFeeds) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(5, 4);
  StreamManager manager(classifier);
  const int id = manager.open_session(clip.background);

  EXPECT_THROW(manager.push_frame(id + 1, clip.frames[0]), std::invalid_argument);
  EXPECT_THROW(manager.push_frame(-1, clip.frames[0]), std::invalid_argument);
  std::vector<StreamUpdate> updates;
  EXPECT_THROW(manager.tick_into({{id, &clip.frames[0]}, {id, &clip.frames[1]}}, updates),
               std::invalid_argument);
  EXPECT_THROW(manager.tick_into({{id, nullptr}}, updates), std::invalid_argument);

  manager.close_session(id);
  EXPECT_THROW(manager.push_frame(id, clip.frames[0]), std::invalid_argument);
  EXPECT_THROW(manager.close_session(id), std::invalid_argument);
}

/// The documented tick contract: a rejected batch (duplicate session id
/// here) throws *before any session advances*, and tick_into into a reused
/// buffer yields exactly the same updates as a lone session fed the same
/// frames.
TEST(StreamManager, RejectedBatchAdvancesNothingAndTickIntoMatchesTick) {
  const pose::PoseDbnClassifier classifier;
  const synth::Clip clip = make_clip(13, 6);
  StreamManager manager(classifier);
  StreamSession reference(classifier, clip.background);
  const int id = manager.open_session(clip.background);
  const int other = manager.open_session(clip.background);
  const RgbImage half(clip.background.width() / 2, clip.background.height() / 2);

  std::vector<StreamUpdate> updates;
  for (std::size_t t = 0; t < clip.frames.size(); ++t) {
    // Every round first offers invalid batches: one listing the session
    // twice, one pairing its good frame with a half-size frame for another
    // session. Each throw must leave the session un-advanced...
    EXPECT_THROW(
        manager.tick_into({{id, &clip.frames[t]}, {id, &clip.frames[t]}}, updates),
        std::invalid_argument);
    EXPECT_THROW(manager.tick_into({{id, &clip.frames[t]}, {other, &half}}, updates),
                 std::invalid_argument);
    // ...so the valid batch that follows still sees frames in order.
    manager.tick_into({{id, &clip.frames[t]}}, updates);
    ASSERT_EQ(updates.size(), 1u);
    EXPECT_EQ(updates[0].frame_index, t);
    expect_same_result(updates[0].result, reference.push_frame(clip.frames[t]).result, t);
  }
  manager.close_session(id);
  manager.close_session(other);
}

TEST(StreamManager, EmptyTickIsANoOp) {
  const pose::PoseDbnClassifier classifier;
  StreamManager manager(classifier);
  std::vector<StreamUpdate> updates(3);
  manager.tick_into({}, updates);
  EXPECT_TRUE(updates.empty());
}

}  // namespace
}  // namespace slj::core
