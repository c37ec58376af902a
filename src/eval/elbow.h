#ifndef OSRS_EVAL_ELBOW_H_
#define OSRS_EVAL_ELBOW_H_

#include <vector>

#include "common/status.h"
#include "core/model.h"
#include "coverage/coverage_graph.h"
#include "ontology/ontology.h"

namespace osrs {

/// One sweep of the §5.3 elbow method for choosing the sentiment threshold
/// ε used by the greedy summarizer.
struct ElbowResult {
  std::vector<double> epsilons;
  /// Fraction of review pairs covered by the greedy size-k summary at each
  /// ε (non-decreasing in ε; the curve's knee is the chosen threshold).
  std::vector<double> covered_fraction;
  double chosen_epsilon = 0.0;
};

/// Runs greedy k-Pairs summaries across `epsilons` (must be increasing)
/// and picks the knee of the coverage curve by the maximum-distance-to-
/// chord rule: past the knee, raising ε stops buying coverage — the
/// "rate of covered sentences significantly drops" criterion of §5.3.
/// Every probe graph is built under `build_options`, so a probe that would
/// exceed `max_memory_bytes` (or hits an armed "osrs.coverage.alloc"
/// failpoint) fails the sweep with the builder's status.
Result<ElbowResult> SelectEpsilonByElbow(
    const Ontology& ontology, const std::vector<ConceptSentimentPair>& pairs,
    int k, std::vector<double> epsilons,
    const CoverageBuildOptions& build_options = {});

}  // namespace osrs

#endif  // OSRS_EVAL_ELBOW_H_
