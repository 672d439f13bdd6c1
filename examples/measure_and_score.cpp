// Jump measurement and grading — the paper's third system component
// ("(1) human detection, (2) pose estimation, and (3) scoring", Sec. 1):
// measure the jump distance off the silhouettes, check the movement
// standard, and issue a graded report card.
#include <cstdio>

#include "core/clip_engine.hpp"
#include "core/scoring.hpp"
#include "core/trainer.hpp"
#include "synth/dataset.hpp"

int main() {
  using namespace slj;

  // Train the pose model on a small corpus.
  synth::DatasetSpec spec;
  spec.seed = 515;
  spec.train_clip_frames = {44, 43, 44, 43, 44, 43};
  spec.test_clip_frames = {};
  const synth::Dataset dataset = synth::generate_dataset(spec);
  core::FramePipeline pipeline;
  pose::PoseDbnClassifier classifier;
  std::printf("training on %zu frames...\n\n", dataset.train_frames());
  core::train_on_dataset(classifier, pipeline, dataset);
  core::ClipEngine engine(pipeline.params());

  const auto grade = [&](const char* title, std::uint32_t seed, synth::FaultFlags faults) {
    synth::ClipSpec cs;
    cs.seed = seed;
    cs.frame_count = 45;
    cs.faults = faults;
    const synth::Clip clip = synth::generate_clip(cs);

    const core::ClipObservation observation = engine.process(clip);
    const std::vector<pose::FrameResult> poses =
        classifier.classify_sequence(observation.candidate_sets(), observation.airborne);

    const core::JumpScore score = core::score_jump(observation.frames, observation.airborne,
                                                   poses, cs.camera.pixels_per_meter);
    std::printf("=== %s ===\n", title);
    if (score.measurement.valid()) {
      std::printf("distance: %.2f m (take-off frame %d, landing frame %d, %d frames in "
                  "flight)\n",
                  score.measurement.distance_m, score.measurement.takeoff_frame,
                  score.measurement.landing_frame, score.measurement.flight_frames);
    } else {
      std::printf("distance: could not be measured (no complete flight)\n");
    }
    std::printf("form: %d/%d checks passed\n", score.form.passed_count(),
                score.form.total_count());
    std::printf("score: %d/100 — %s\n\n", score.total, score.grade.c_str());
  };

  grade("student A (sound jump)", 900, {});
  synth::FaultFlags no_crouch;
  no_crouch.no_crouch = true;
  grade("student B (no preparatory crouch)", 901, no_crouch);
  synth::FaultFlags stiff;
  stiff.stiff_landing = true;
  stiff.no_arm_swing = true;
  grade("student C (no arm swing, stiff landing)", 902, stiff);
  return 0;
}
