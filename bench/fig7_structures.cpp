// F7 — Figure 7: (a) the Bayesian network for one pose — root Pose node,
// five hidden part nodes, eight observed area nodes — and (b) the DBN slice
// adding the previous pose and the jumping-stage flag. Reproduced as
// structure dumps (GraphViz DOT + a node table) from the trained model,
// plus an exact-inference sanity check on the exported network.
#include "bench_common.hpp"

int main() {
  using namespace slj;
  bench::print_header("F7  network structures",
                      "Fig. 7: (a) per-pose BN (b) DBN with previous pose + stage");

  const synth::Dataset dataset = bench::paper_corpus();
  pose::PoseDbnClassifier classifier;
  core::FramePipeline pipeline;
  core::train_on_dataset(classifier, pipeline, dataset);

  const pose::PoseId example = pose::PoseId::kStandHandsForward;  // the pose Fig. 7a uses
  const bayes::Network bn = classifier.build_pose_network(example);
  std::printf("Fig. 7(a): BN for \"%s\"\n", std::string(pose::pose_name(example)).c_str());
  bench::print_rule();
  std::printf("%-4s %-38.38s %-8s %-8s\n", "id", "node", "states", "parents");
  bench::print_rule();
  for (int i = 0; i < bn.node_count(); ++i) {
    std::printf("%-4d %-38.38s %-8d %-8zu\n", i, bn.name(i).c_str(), bn.cardinality(i),
                bn.parents(i).size());
  }
  bench::print_rule();
  std::printf("%s\n", bn.to_dot("fig7a").c_str());

  // Exact-inference check: observing the Hand part in its trained forward
  // area must raise P(pose present).
  bayes::Assignment evidence(static_cast<std::size_t>(bn.node_count()), bayes::kUnobserved);
  const double prior = bn.posterior(0, evidence)[1];
  // Find the hand's modal trained area for this pose.
  int best_area = 0;
  double best_p = 0.0;
  for (int a = 0; a < 9; ++a) {
    const int parents[1] = {pose::index_of(example)};
    (void)parents;
    const double p = std::exp(classifier.log_likelihood(
        example, [&] {
          pose::FeatureVector f;
          for (auto& v : f.areas) v = 8;  // all missing
          f[pose::Part::kHand] = a;
          return f;
        }()));
    if (p > best_p) {
      best_p = p;
      best_area = a;
    }
  }
  evidence[static_cast<std::size_t>(*bn.find("Hand"))] = best_area;
  const double post = bn.posterior(0, evidence)[1];
  std::printf("exact inference on the exported BN: P(pose) prior %.3f -> posterior %.3f after "
              "observing Hand in its modal area\n\n",
              prior, post);

  const bayes::Network dbn = classifier.build_dbn_slice();
  std::printf("Fig. 7(b): DBN slice\n");
  bench::print_rule();
  std::printf("%-4s %-38.38s %-8s %-8s\n", "id", "node", "states", "parents");
  bench::print_rule();
  for (int i = 0; i < dbn.node_count(); ++i) {
    std::printf("%-4d %-38.38s %-8d %-8zu\n", i, dbn.name(i).c_str(), dbn.cardinality(i),
                dbn.parents(i).size());
  }
  bench::print_rule();
  std::printf("learned stage self-transitions P(stage_t = s | stage_{t-1} = s):\n");
  for (int s = 0; s < pose::kStageCount; ++s) {
    const auto stage = pose::stage_from_index(s);
    std::printf("  %-16s %.3f   P(airborne | stage) = %.3f\n",
                std::string(pose::stage_name(stage)).c_str(),
                classifier.stage_prob(stage, stage),
                classifier.airborne_prob(true, stage));
  }
  return 0;
}
