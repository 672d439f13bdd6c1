// D1 (extension) — human detection under distractors. The paper's component
// (1) is "human detection"; its extraction step simply keeps the biggest
// blob, which breaks the moment anything person-sized shares the studio
// (a second child waiting for their turn). This bench composites a static
// distractor blob into every frame and compares pose accuracy with the
// largest-component rule vs the blob tracker, against the same frames
// without the distractor.
#include "bench_common.hpp"
#include "detection/blob_tracker.hpp"
#include "imaging/draw.hpp"
#include "imaging/morphology.hpp"

namespace {

using namespace slj;

/// Paints a person-sized static distractor into the frame's right edge.
RgbImage with_distractor(RgbImage frame) {
  BinaryImage mask(frame.width(), frame.height(), 0);
  const double cx = frame.width() - 26;
  const double ground = 150.0;
  fill_capsule(mask, {cx, ground - 78}, {cx, ground - 30}, 9.0);   // torso+head blob
  fill_capsule(mask, {cx - 3, ground - 30}, {cx - 3, ground}, 5.0);  // legs
  fill_capsule(mask, {cx + 3, ground - 30}, {cx + 3, ground}, 5.0);
  for (int y = 0; y < frame.height(); ++y) {
    for (int x = 0; x < frame.width(); ++x) {
      if (mask.at(x, y)) frame.at(x, y) = {150, 160, 140};
    }
  }
  return frame;
}

}  // namespace

int main() {
  bench::print_header("D1  human detection under a distractor (extension)",
                      "Sec. 1 component (1): human detection; extractor ref [5] is a tracker");

  const synth::Dataset dataset = bench::paper_corpus();
  bench::TrainedSystem sys = bench::train_system(dataset);  // trained on clean clips

  std::size_t frames = 0;
  std::size_t correct_clean = 0, correct_largest = 0, correct_tracked = 0;
  FrameWorkspace ws;
  core::FrameObservation obs_clean;
  core::FrameObservation obs_largest;
  core::FrameObservation obs_tracked;
  BinaryImage tracked_silhouette;
  for (const synth::Clip& clip : dataset.test) {
    sys.pipeline.set_background(clip.background);
    detect::TrackerConfig tracker_config;
    tracker_config.start_x_hint = 55.0;  // the take-off line of the station
    detect::BlobTracker tracker(tracker_config);
    core::GroundMonitor ground_clean, ground_largest, ground_tracked;
    auto state_clean = sys.classifier.initial_state();
    auto state_largest = sys.classifier.initial_state();
    auto state_tracked = sys.classifier.initial_state();
    for (std::size_t i = 0; i < clip.frames.size(); ++i) {
      const RgbImage frame = with_distractor(clip.frames[i]);
      ++frames;

      sys.pipeline.process_into(clip.frames[i], ws, obs_clean);
      const auto r0 = sys.classifier.classify(
          obs_clean.candidates, ground_clean.airborne(obs_clean.bottom_row), state_clean);
      correct_clean += r0.pose == clip.truth[i].pose ? 1 : 0;

      sys.pipeline.process_into(frame, ws, obs_largest);
      const auto r1 = sys.classifier.classify(
          obs_largest.candidates, ground_largest.airborne(obs_largest.bottom_row),
          state_largest);
      correct_largest += r1.pose == clip.truth[i].pose ? 1 : 0;

      // The tracked arm: the extractor's silhouette, replaced by the hole-
      // filled tracked blob whenever the tracker measures one this frame.
      sys.pipeline.extractor().extract_into(frame, ws, tracked_silhouette);
      const detect::TrackResult track = tracker.update(ws.smoothed);
      if (track.measured) {
        fill_holes_into(track.mask, ws.reached, ws.flood_stack, tracked_silhouette);
      }
      sys.pipeline.process_silhouette_into(tracked_silhouette, ws, obs_tracked);
      const auto r2 = sys.classifier.classify(
          obs_tracked.candidates, ground_tracked.airborne(obs_tracked.bottom_row),
          state_tracked);
      correct_tracked += r2.pose == clip.truth[i].pose ? 1 : 0;
    }
  }

  bench::print_rule();
  std::printf("%-36s %-12s\n", "jumper selection", "pose accuracy");
  bench::print_rule();
  std::printf("%-36s %-12.1f\n", "largest component (paper Sec. 2)",
              100.0 * static_cast<double>(correct_largest) / frames);
  std::printf("%-36s %-12.1f\n", "blob tracker (component (1))",
              100.0 * static_cast<double>(correct_tracked) / frames);
  std::printf("%-36s %-12.1f\n", "largest component, no distractor",
              100.0 * static_cast<double>(correct_clean) / frames);
  bench::print_rule();
  std::printf("verdict vs no distractor (one test frame = %.2f pt):\n",
              100.0 / static_cast<double>(frames));
  // One verdict clause per arm: how many test frames the distractor costs it.
  const auto versus_clean = [&](const char* name, std::size_t correct) {
    const long change = static_cast<long>(correct) - static_cast<long>(correct_clean);
    int sign = 0;
    const std::string delta = bench::accuracy_delta(change, frames, sign);
    std::printf("  %-34s %s\n", name, delta.c_str());
    char clause[96];
    if (sign == 0) {
      std::snprintf(clause, sizeof(clause), "holds the distractor-free accuracy");
    } else {
      std::snprintf(clause, sizeof(clause), "%s %ld test frames", sign < 0 ? "loses" : "gains",
                    sign < 0 ? -change : change);
    }
    return std::string(clause);
  };
  const std::string tracked = versus_clean("blob tracker", correct_tracked);
  const std::string largest = versus_clean("largest component", correct_largest);
  std::printf("with the distractor the tracker %s; the largest-component rule %s\n",
              tracked.c_str(), largest.c_str());
  return 0;
}
