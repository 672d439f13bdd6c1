// P1 — the paper's motivation for replacing its earlier GA stick-model
// fitter [1] with thinning: "the search process of the genetic algorithm is
// very time-consuming. Therefore, the thinning algorithm is utilized
// instead ... much simpler." Reproduced as per-frame skeletonization wall
// time and key-point fidelity for both methods on the same silhouettes.
#include <chrono>

#include "bench_common.hpp"
#include "ga/ga_fitter.hpp"
#include "skelgraph/artifacts.hpp"
#include "skelgraph/simplify.hpp"
#include "thinning/zhang_suen.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int main() {
  using namespace slj;
  bench::print_header("P1  GA stick-model fitting vs thinning skeletonization",
                      "Sec. 1: the GA search \"is very time-consuming\"; thinning is simpler");

  synth::ClipSpec spec;
  spec.seed = 77;
  spec.frame_count = 45;
  const synth::Clip clip = synth::generate_clip(spec);
  seg::ObjectExtractor extractor;
  extractor.set_background(clip.background);

  const synth::BodyDimensions body = synth::BodyDimensions::for_height(1.38);
  ga::GaConfig ga_cfg;  // defaults: 56 individuals, 60 generations
  const int frames_to_run = 10;  // GA is slow; 10 frames give a stable mean

  double thin_ms = 0.0, ga_ms = 0.0;
  double thin_err = 0.0, ga_err = 0.0;
  double ga_fitness = 0.0;
  FrameWorkspace ws;
  BinaryImage sil;
  BinaryImage skeleton;

  for (int i = 0; i < frames_to_run; ++i) {
    const int frame = i * clip.frame_count() / frames_to_run;
    extractor.extract_into(clip.frames[static_cast<std::size_t>(frame)], ws, sil);
    const synth::FrameTruth& truth = clip.truth[static_cast<std::size_t>(frame)];

    // --- thinning pipeline -------------------------------------------------
    const auto t0 = Clock::now();
    thin::zhang_suen_thin_into(sil, ws, skeleton);
    skel::SkeletonGraph graph = skel::clean_skeleton(skeleton, ws);
    skel::split_edges_at_bends(graph);
    const auto pts = skel::extract_key_points(graph);
    thin_ms += ms_since(t0);
    const auto nearest = [&](PointF target) {
      double best = 1e9;
      for (const auto& kp : pts) best = std::min(best, distance(to_f(kp.pos), target));
      return best;
    };
    thin_err += (nearest(truth.parts.head) + nearest(truth.parts.hand) +
                 nearest(truth.parts.foot)) / 3.0;

    // --- GA stick-model fitting ---------------------------------------------
    ga_cfg.seed = 1000u + static_cast<unsigned>(i);
    ga::GeneticSkeletonFitter fitter(body, spec.camera, ga_cfg);
    const auto t1 = Clock::now();
    const ga::FitResult fit = fitter.fit(sil);
    ga_ms += ms_since(t1);
    ga_fitness += fit.fitness;
    const synth::SilhouetteRenderer renderer(spec.camera);
    const synth::PartTruth ga_parts =
        renderer.part_truth(body, fit.best.angles, fit.best.pelvis_world);
    ga_err += (distance(ga_parts.head, truth.parts.head) +
               distance(ga_parts.hand, truth.parts.hand) +
               distance(ga_parts.foot, truth.parts.foot)) / 3.0;
  }

  bench::print_rule();
  std::printf("%-30s %-18s %-22s\n", "method", "ms per frame", "mean part error (px)");
  bench::print_rule();
  std::printf("%-30s %-18.2f %-22.2f\n", "Z-S thinning + graph cleanup",
              thin_ms / frames_to_run, thin_err / frames_to_run);
  std::printf("%-30s %-18.2f %-22.2f (mean IoU %.2f)\n", "GA stick-model fitting",
              ga_ms / frames_to_run, ga_err / frames_to_run, ga_fitness / frames_to_run);
  bench::print_rule();
  const double speedup = ga_ms / std::max(thin_ms, 1e-9);
  const double error_ratio = thin_err / std::max(ga_err, 1e-9);
  std::printf("speedup of thinning over GA: %.0fx\n", speedup);
  std::printf("part error of thinning over GA: %.1fx\n", error_ratio);
  const char* speed = speedup >= 100.0 ? "orders of magnitude faster than the GA, the paper's "
                                         "reason for switching"
                      : speedup > 1.0  ? "faster than the GA, but not by orders of magnitude"
                                       : "not faster than the GA";
  const char* precision =
      error_ratio > 1.0 ? "the GA localizes joints more precisely, but needs the stick sizes "
                          "\"given by the user\nbeforehand\" (the paper's other criticism)"
                        : "it localizes joints at least as precisely as the GA";
  std::printf("verdict: thinning is %s;\n%s\n", speed, precision);
  return 0;
}
