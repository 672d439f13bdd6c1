#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "pose/classifier.hpp"

namespace slj::pose {
namespace {

FeatureCandidate make_candidate(const AreaEncoder& enc, int head, int hand, int foot) {
  FeatureCandidate c;
  c.features[Part::kHead] = head;
  c.features[Part::kChest] = enc.missing_state();
  c.features[Part::kHand] = hand;
  c.features[Part::kKnee] = enc.missing_state();
  c.features[Part::kFoot] = foot;
  c.nodes = {0, -1, 1, -1, 2};
  c.occupancy.assign(static_cast<std::size_t>(enc.num_areas()), 0);
  for (const int a : c.features.areas) {
    if (a < enc.num_areas()) c.occupancy[static_cast<std::size_t>(a)] = 1;
  }
  return c;
}

PoseDbnClassifier trained() {
  ClassifierConfig cfg;
  cfg.th_pose = 0.31;
  cfg.laplace_alpha = 0.4;
  PoseDbnClassifier clf(cfg);
  const AreaEncoder& enc = clf.encoder();
  for (int i = 0; i < 30; ++i) {
    clf.observe(PoseId::kStandHandsForward, make_candidate(enc, 2, 0, 6),
                PoseId::kStandHandsForward, Stage::kBeforeJumping, false);
    clf.observe(PoseId::kAirTuckHandsForward, make_candidate(enc, 2, 1, 7),
                PoseId::kAirTuckHandsForward, Stage::kInTheAir, true);
  }
  return clf;
}

TEST(Serialization, RoundTripPreservesAllProbabilities) {
  const PoseDbnClassifier original = trained();
  std::stringstream buffer;
  original.save(buffer);
  const PoseDbnClassifier restored = PoseDbnClassifier::load(buffer);

  const FeatureCandidate probe = make_candidate(original.encoder(), 2, 0, 6);
  for (int p = 0; p < kPoseCount; ++p) {
    const PoseId pose = pose_from_index(p);
    EXPECT_DOUBLE_EQ(original.prior_prob(pose), restored.prior_prob(pose));
    EXPECT_DOUBLE_EQ(original.log_likelihood(pose, probe),
                     restored.log_likelihood(pose, probe));
    EXPECT_DOUBLE_EQ(
        original.transition_prob(pose, PoseId::kStandHandsForward, Stage::kBeforeJumping),
        restored.transition_prob(pose, PoseId::kStandHandsForward, Stage::kBeforeJumping));
  }
  for (int s = 0; s < kStageCount; ++s) {
    const Stage stage = stage_from_index(s);
    EXPECT_DOUBLE_EQ(original.airborne_prob(true, stage), restored.airborne_prob(true, stage));
    for (int s2 = 0; s2 < kStageCount; ++s2) {
      EXPECT_DOUBLE_EQ(original.stage_prob(stage_from_index(s2), stage),
                       restored.stage_prob(stage_from_index(s2), stage));
    }
  }
}

TEST(Serialization, RoundTripPreservesConfig) {
  const PoseDbnClassifier original = trained();
  std::stringstream buffer;
  original.save(buffer);
  const PoseDbnClassifier restored = PoseDbnClassifier::load(buffer);
  EXPECT_EQ(restored.config().num_areas, original.config().num_areas);
  EXPECT_DOUBLE_EQ(restored.config().th_pose, 0.31);
  EXPECT_DOUBLE_EQ(restored.config().laplace_alpha, 0.4);
  EXPECT_EQ(restored.config().dominant_pose, original.config().dominant_pose);
}

TEST(Serialization, RestoredClassifierClassifiesIdentically) {
  const PoseDbnClassifier original = trained();
  std::stringstream buffer;
  original.save(buffer);
  const PoseDbnClassifier restored = PoseDbnClassifier::load(buffer);

  const std::vector<FeatureCandidate> frame{make_candidate(original.encoder(), 2, 0, 6)};
  auto s1 = original.initial_state();
  auto s2 = restored.initial_state();
  const FrameResult r1 = original.classify(frame, false, s1);
  const FrameResult r2 = restored.classify(frame, false, s2);
  EXPECT_EQ(r1.pose, r2.pose);
  EXPECT_DOUBLE_EQ(r1.posterior, r2.posterior);
}

TEST(Serialization, TrainingFramesSurvive) {
  const PoseDbnClassifier original = trained();
  std::stringstream buffer;
  original.save(buffer);
  EXPECT_DOUBLE_EQ(PoseDbnClassifier::load(buffer).training_frames(),
                   original.training_frames());
}

TEST(Serialization, RejectsGarbage) {
  std::stringstream bad("not-a-model 1");
  EXPECT_THROW(PoseDbnClassifier::load(bad), std::runtime_error);
}

TEST(Serialization, RejectsWrongVersion) {
  std::stringstream bad("slj-pose-model 999\nconfig 8");
  EXPECT_THROW(PoseDbnClassifier::load(bad), std::runtime_error);
}

TEST(Serialization, RejectsTruncatedModel) {
  const PoseDbnClassifier original = trained();
  std::stringstream buffer;
  original.save(buffer);
  const std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW(PoseDbnClassifier::load(truncated), std::runtime_error);
}

TEST(Serialization, NonDefaultAreaCountRoundTrips) {
  ClassifierConfig cfg;
  cfg.num_areas = 12;
  PoseDbnClassifier original(cfg);
  std::stringstream buffer;
  original.save(buffer);
  const PoseDbnClassifier restored = PoseDbnClassifier::load(buffer);
  EXPECT_EQ(restored.encoder().num_areas(), 12);
}

/// trained()'s saved text with token `field` (0 = the tag) of the line
/// tagged `tag` replaced by `value`.
std::string with_field(const std::string& tag, std::size_t field, const std::string& value) {
  std::stringstream saved;
  trained().save(saved);
  std::string out;
  std::string line;
  while (std::getline(saved, line)) {
    if (line.rfind(tag + ' ', 0) == 0) {
      std::istringstream tokens(line);
      std::vector<std::string> parts;
      for (std::string t; tokens >> t;) parts.push_back(t);
      parts.at(field) = value;
      line.clear();
      for (const std::string& t : parts) line += (line.empty() ? "" : " ") + t;
    }
    out += line + '\n';
  }
  return out;
}

void expect_load_fails(const std::string& text, const std::string& what) {
  std::stringstream in(text);
  EXPECT_THROW(PoseDbnClassifier::load(in), std::runtime_error) << what;
}

TEST(Serialization, WritesTheNaiveStructureLine) {
  std::stringstream buffer;
  trained().save(buffer);
  EXPECT_NE(buffer.str().find("\ntan -1 -1 -1 -1 -1\n"), std::string::npos);
}

TEST(Serialization, RejectsConfigValuesOutsideTheirRange) {
  // Config tokens: 1 num_areas, 7 dominant pose, 8 temporal mode.
  std::stringstream unchanged(with_field("config", 8, "0"));
  EXPECT_NO_THROW(PoseDbnClassifier::load(unchanged));
  expect_load_fails(with_field("config", 8, "7"), "temporal=7");
  expect_load_fails(with_field("config", 8, "-1"), "temporal=-1");
  expect_load_fails(with_field("config", 7, "99"), "dominant=99");
  expect_load_fails(with_field("config", 7, std::to_string(kPoseCount)), "dominant=unknown");
  expect_load_fails(with_field("config", 1, "1"), "num_areas=1");
  expect_load_fails(with_field("config", 1, "361"), "num_areas=361");
}

TEST(Serialization, RejectsATanParentOtherThanMinusOne) {
  for (std::size_t part = 1; part <= static_cast<std::size_t>(kPartCount); ++part) {
    expect_load_fails(with_field("tan", part, "0"), "tan part " + std::to_string(part));
  }
  expect_load_fails(with_field("tan", 3, "-2"), "tan parent -2");
}

}  // namespace
}  // namespace slj::pose
