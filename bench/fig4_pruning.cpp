// F4 — Figure 4: noisy-branch pruning must delete ONE branch at a time;
// deleting all short branches in one sweep can remove the correct branch
// along with the noisy one. Reproduced as: over a clip, skeleton length
// retained and limb end-points surviving under one-at-a-time vs batch
// pruning, plus key-point distance to ground-truth part locations.
#include "bench_common.hpp"
#include "skelgraph/artifacts.hpp"
#include "thinning/zhang_suen.hpp"

namespace {

double min_distance_to(const std::vector<slj::skel::KeyPoint>& pts, slj::PointF target) {
  double best = 1e9;
  for (const auto& kp : pts) {
    best = std::min(best, slj::distance(slj::to_f(kp.pos), target));
  }
  return best;
}

}  // namespace

int main() {
  using namespace slj;
  bench::print_header("F4  one-at-a-time branch pruning",
                      "Fig. 4: (b) deleting both branches vs (c) deleting only the noisy one");

  synth::ClipSpec spec;
  spec.seed = 2025;
  spec.frame_count = 45;
  const synth::Clip clip = synth::generate_clip(spec);
  seg::ObjectExtractor extractor;
  extractor.set_background(clip.background);
  FrameWorkspace ws;
  BinaryImage sil;
  BinaryImage skeleton;

  double len_one = 0.0, len_batch = 0.0;
  std::size_t ends_one = 0, ends_batch = 0;
  double head_err_one = 0.0, head_err_batch = 0.0;
  int frames = 0;

  for (int i = 0; i < clip.frame_count(); ++i) {
    extractor.extract_into(clip.frames[static_cast<std::size_t>(i)], ws, sil);
    thin::zhang_suen_thin_into(sil, ws, skeleton);
    skel::SkeletonGraph g1 = skel::build_skeleton_graph(skeleton, ws);
    skel::cut_loops(g1);
    skel::SkeletonGraph g2 = g1;
    skel::prune_branches(g1, 10, skel::PruningMode::kOneAtATime);
    skel::prune_branches(g2, 10, skel::PruningMode::kBatch);

    len_one += g1.total_length();
    len_batch += g2.total_length();
    const auto pts1 = skel::extract_key_points(g1);
    const auto pts2 = skel::extract_key_points(g2);
    for (const auto& kp : pts1) ends_one += kp.type == skel::NodeType::kEnd ? 1 : 0;
    for (const auto& kp : pts2) ends_batch += kp.type == skel::NodeType::kEnd ? 1 : 0;
    const PointF head = clip.truth[static_cast<std::size_t>(i)].parts.head;
    head_err_one += min_distance_to(pts1, head);
    head_err_batch += min_distance_to(pts2, head);
    ++frames;
  }

  bench::print_rule();
  std::printf("%-34s %-16s %-16s\n", "metric (clip totals / means)", "one-at-a-time", "batch");
  bench::print_rule();
  std::printf("%-34s %-16.1f %-16.1f\n", "skeleton length retained (px)", len_one, len_batch);
  std::printf("%-34s %-16.1f %-16.1f\n", "limb end-points per frame",
              static_cast<double>(ends_one) / frames, static_cast<double>(ends_batch) / frames);
  std::printf("%-34s %-16.2f %-16.2f\n", "nearest key point to GT head (px)",
              head_err_one / frames, head_err_batch / frames);
  bench::print_rule();
  std::printf("paper: \"Only one branch can be deleted at a time. Otherwise, both the noisy "
              "branch and the correct branch could be removed at the same time.\"\n");
  const bool retains_more = len_one > len_batch;
  const bool head_as_close = head_err_one <= head_err_batch;
  std::printf("verdict: one-at-a-time pruning %s skeleton (%+.1f px) and %s (%+.2f px)%s\n",
              retains_more ? "retains more" : "does not retain more", len_one - len_batch,
              head_as_close ? "keeps the head at least as close" : "keeps the head farther",
              (head_err_one - head_err_batch) / frames,
              retains_more && head_as_close ? ", as Fig. 4 shows" : "");
  return 0;
}
