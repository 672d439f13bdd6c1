// Discrete forward filtering over a Markov chain — the temporal backbone of
// the DBN (Fig. 7b). The paper propagates a *point estimate* of the
// previous pose; this class implements full belief propagation for
// pose::OnlineForwardDecoder, an offline ablation decoder kept for A7 and
// perfbench and compared there against the paper's point-estimate rule.
#pragma once

#include <span>
#include <vector>

namespace slj::bayes {

class ForwardFilter {
 public:
  /// `transition[i][j]` = P(state_t = j | state_{t-1} = i); rows must be
  /// distributions. `prior` is the t=0 belief.
  ForwardFilter(std::vector<std::vector<double>> transition, std::vector<double> prior);

  /// Potential-matrix variant: rows are non-negative weights that need not
  /// sum to 1 (e.g. hard-gated transition products). Sound for filtering
  /// because the belief is renormalized globally after every step. `prior`
  /// is normalized here; it must have positive mass.
  static ForwardFilter from_potentials(std::vector<std::vector<double>> weights,
                                       std::vector<double> prior);

  std::size_t state_count() const { return prior_.size(); }

  /// Resets the belief to the prior.
  void reset();

  /// Advances one step: predict with the transition model, weight by the
  /// per-state observation likelihood, renormalize. Returns the posterior
  /// belief. A zero-likelihood-everywhere observation keeps the prediction.
  const std::vector<double>& step(std::span<const double> likelihood);

  /// step() with the observation given as log-likelihoods. The maximum
  /// finite entry is subtracted before exponentiating (exact under the
  /// final renormalization), so heavily negative log-emissions — hundreds
  /// of nats below zero — cannot underflow the whole observation to zero
  /// and silently degrade the step into a predict-only update. -inf marks
  /// an impossible state.
  const std::vector<double>& step_log(std::span<const double> log_likelihood);

  /// Bayes update without a time step: weights the current belief by the
  /// observation (same max-log shift as step_log) and renormalizes. Used
  /// for the first frame, where the prior is conditioned on evidence
  /// directly instead of being pushed through the transition model.
  const std::vector<double>& weight_log(std::span<const double> log_likelihood);

  const std::vector<double>& belief() const { return belief_; }

  /// Index of the most probable state.
  int map_state() const;

 private:
  struct UncheckedTag {};
  ForwardFilter(UncheckedTag, std::vector<std::vector<double>> transition,
                std::vector<double> prior);

  const std::vector<double>& apply_likelihood(std::vector<double> predicted,
                                              std::span<const double> likelihood);

  std::vector<std::vector<double>> transition_;
  std::vector<double> prior_;
  std::vector<double> belief_;
};

}  // namespace slj::bayes
