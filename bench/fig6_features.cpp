// F6 — Figure 6: feature encoding of the key points on the eight areas of
// the plane around the waist. Reproduced as: the area codes of each body
// part for representative frames, plus the discriminability statistics the
// encoding achieves (how many distinct feature vectors the 22 poses map to)
// at 8 and 16 partitions.
#include <map>
#include <set>

#include "bench_common.hpp"

int main() {
  using namespace slj;
  bench::print_header("F6  waist-centred area encoding",
                      "Fig. 6: key points coded on the eight areas of the plane");

  const synth::Dataset dataset = bench::paper_corpus();

  // Example encodings for one clip (like the two examples in Fig. 6).
  core::FramePipeline pipeline;
  const synth::Clip& clip = dataset.test.front();
  pipeline.set_background(clip.background);
  FrameWorkspace ws;
  core::FrameObservation obs;
  bench::print_rule();
  std::printf("%-7s %-30.30s %-s\n", "frame", "pose", "feature vector");
  bench::print_rule();
  for (const int i : {3, 13, 20, 26, 38}) {
    pipeline.process_into(clip.frames[static_cast<std::size_t>(i)], ws, obs);
    if (obs.candidates.empty()) continue;
    std::printf("%-7d %-30.30s %s\n", i,
                std::string(pose::pose_name(clip.truth[static_cast<std::size_t>(i)].pose)).c_str(),
                pose::to_string(obs.candidates.front().features, pipeline.encoder()).c_str());
  }
  bench::print_rule();

  // Encoding discriminability: distinct feature vectors per pose label over
  // the training corpus, for 8 vs 16 areas.
  for (const int areas : {8, 16}) {
    core::PipelineParams params;
    params.num_areas = areas;
    core::FramePipeline pl(params);
    std::map<int, std::set<std::array<int, pose::kPartCount>>> per_pose;
    std::set<std::array<int, pose::kPartCount>> all;
    std::size_t frames = 0;
    for (const synth::Clip& c : dataset.train) {
      pl.set_background(c.background);
      for (std::size_t i = 0; i < c.frames.size(); ++i) {
        pl.process_into(c.frames[i], ws, obs);
        pose::PartPoints gt{c.truth[i].parts.head, c.truth[i].parts.chest, c.truth[i].parts.hand,
                            c.truth[i].parts.knee, c.truth[i].parts.foot};
        const auto feat = pose::features_from_truth(obs.graph, pl.encoder(), gt);
        if (!feat) continue;
        per_pose[pose::index_of(c.truth[i].pose)].insert(feat->features.areas);
        all.insert(feat->features.areas);
        ++frames;
      }
    }
    // Collisions: feature vectors claimed by more than one pose.
    std::map<std::array<int, pose::kPartCount>, int> owners;
    for (const auto& [p, feats] : per_pose) {
      for (const auto& f : feats) ++owners[f];
    }
    std::size_t shared = 0;
    for (const auto& [f, n] : owners) shared += n > 1 ? 1 : 0;
    std::printf("%d areas: %zu distinct feature vectors over %zu frames; %zu/%zu vectors "
                "claimed by more than one pose\n",
                areas, all.size(), frames, shared, all.size());
  }
  std::printf("paper: \"more partitions instead of just eight ... more information would "
              "further improve the classification results\" — 16 areas must show fewer "
              "cross-pose collisions\n");
  return 0;
}
