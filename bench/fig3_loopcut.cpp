// F3 — Figure 3: loops in the skeleton graph are cut with a *maximum*
// spanning tree. Reproduced as: loop counts before/after the cut over a
// clip, and the max-vs-min spanning policy comparison that motivates the
// paper's choice (maximum keeps the long limb segments connected; minimum
// keeps the short stubs left over from junction-cluster removal).
#include "bench_common.hpp"
#include "skelgraph/loop_cut.hpp"
#include "skelgraph/skeleton_graph.hpp"
#include "thinning/zhang_suen.hpp"

namespace {

// The Fig. 3 situation in isolation: after adjacent-junction removal, two
// junction stubs are connected by BOTH the real limb path (long) and a
// leftover shortcut (short). The spanning policy decides which survives.
void crafted_demo() {
  using namespace slj;
  skel::SkeletonGraph graph;
  skel::Node a, b;
  a.pos = {0, 0};
  b.pos = {20, 0};
  a.type = b.type = skel::NodeType::kJunction;
  const int ia = graph.add_node(a);
  const int ib = graph.add_node(b);
  skel::Edge shortcut;
  shortcut.a = ia;
  shortcut.b = ib;
  for (int x = 0; x <= 20; ++x) shortcut.path.push_back({x, 0});
  graph.add_edge(shortcut);
  skel::Edge limb;
  limb.a = ia;
  limb.b = ib;
  limb.path.push_back({0, 0});
  for (int x = 0; x <= 20; ++x) limb.path.push_back({x, 12});
  limb.path.push_back({20, 0});
  graph.add_edge(limb);

  skel::SkeletonGraph g_max = graph, g_min = graph;
  const auto s_max = skel::cut_loops(g_max, skel::SpanningPolicy::kMaximum);
  const auto s_min = skel::cut_loops(g_min, skel::SpanningPolicy::kMinimum);
  std::printf("crafted Fig. 3 loop (limb path vs 20 px shortcut):\n");
  std::printf("  maximum policy keeps %.1f px (the limb)  | minimum keeps %.1f px (the stub)\n",
              s_max.kept_length, s_min.kept_length);
}

}  // namespace

int main() {
  using namespace slj;
  bench::print_header("F3  loop cutting via maximum spanning tree",
                      "Fig. 3: (a) a loop (b) loop cut");
  crafted_demo();

  synth::ClipSpec spec;
  spec.seed = 2025;
  spec.frame_count = 45;
  const synth::Clip clip = synth::generate_clip(spec);
  seg::ObjectExtractor extractor;
  extractor.set_background(clip.background);
  FrameWorkspace ws;
  BinaryImage sil;
  BinaryImage skeleton;

  std::size_t loops_before_total = 0, loops_after_total = 0;
  double kept_max_total = 0.0, kept_min_total = 0.0, skel_total = 0.0;
  int loop_frames = 0;

  bench::print_rule();
  std::printf("%-7s %-14s %-12s %-16s %-16s\n", "frame", "loops before", "loops after",
              "kept len (max)", "kept len (min)");
  bench::print_rule();
  for (int i = 0; i < clip.frame_count(); ++i) {
    extractor.extract_into(clip.frames[static_cast<std::size_t>(i)], ws, sil);
    thin::zhang_suen_thin_into(sil, ws, skeleton);

    skel::SkeletonGraph g_max = skel::build_skeleton_graph(skeleton, ws);
    const double skel_len = g_max.total_length();
    skel::SkeletonGraph g_min = g_max;
    const skel::LoopCutStats s_max = skel::cut_loops(g_max, skel::SpanningPolicy::kMaximum);
    const skel::LoopCutStats s_min = skel::cut_loops(g_min, skel::SpanningPolicy::kMinimum);

    loops_before_total += s_max.loops_before;
    loops_after_total += s_max.loops_after;
    kept_max_total += s_max.kept_length;
    kept_min_total += s_min.kept_length;
    skel_total += skel_len;
    if (s_max.loops_before > 0) {
      ++loop_frames;
      if (loop_frames <= 8) {
        std::printf("%-7d %-14zu %-12zu %-16.1f %-16.1f\n", i, s_max.loops_before,
                    s_max.loops_after, s_max.kept_length, s_min.kept_length);
      }
    }
  }
  bench::print_rule();
  std::printf("loops over the clip: %zu before cut -> %zu after cut\n", loops_before_total,
              loops_after_total);
  std::printf("skeleton length retained: maximum policy %.1f%%, minimum policy %.1f%%\n",
              100.0 * kept_max_total / skel_total, 100.0 * kept_min_total / skel_total);
  std::printf("paper: maximum length is chosen \"to make sure the new junction vertex can "
              "connect to all of its neighbors\" — the maximum tree must retain more of the "
              "skeleton\n");
  return 0;
}
