// Exercises the Theorem 1 / Fig. 2 NP-hardness reduction end to end: for
// a family of Set Cover instances, the optimal k-Pairs Coverage cost on
// the reduction DAG equals the target t = 3m + n - 2k exactly when a
// size-k set cover exists. Uses the exact ILP solver as the oracle.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "core/distance.h"
#include "core/reduction.h"
#include "coverage/coverage_graph.h"
#include "solver/ilp_summarizer.h"

namespace {

/// Exhaustive set-cover decision for the ground truth (instances are tiny).
bool HasCoverOfSizeK(const osrs::SetCoverInstance& instance) {
  int m = static_cast<int>(instance.sets.size());
  std::vector<int> chosen;
  // Enumerate all k-subsets of sets.
  std::vector<int> combo(static_cast<size_t>(instance.k));
  for (int i = 0; i < instance.k; ++i) combo[static_cast<size_t>(i)] = i;
  while (true) {
    if (osrs::IsSetCover(instance, combo)) return true;
    int i = instance.k - 1;
    while (i >= 0 && combo[static_cast<size_t>(i)] == m - instance.k + i) --i;
    if (i < 0) return false;
    ++combo[static_cast<size_t>(i)];
    for (int j = i + 1; j < instance.k; ++j) {
      combo[static_cast<size_t>(j)] = combo[static_cast<size_t>(j - 1)] + 1;
    }
  }
}

osrs::SetCoverInstance RandomInstance(osrs::Rng& rng, int n, int m, int k) {
  osrs::SetCoverInstance instance;
  instance.universe_size = n;
  instance.k = k;
  instance.sets.resize(static_cast<size_t>(m));
  // Every element in at least one set (required by the reduction DAG).
  for (int e = 0; e < n; ++e) {
    instance.sets[rng.NextUint64(static_cast<uint64_t>(m))].push_back(e);
  }
  for (auto& set : instance.sets) {
    for (int e = 0; e < n; ++e) {
      if (rng.NextBernoulli(0.25)) set.push_back(e);
    }
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
  }
  return instance;
}

}  // namespace

int main(int argc, char** argv) {
  osrs::bench::StatsSession stats_session(argc, argv);
  osrs::Rng rng(2025);
  osrs::TableWriter table(
      "Theorem 1 reduction: ILP cost == 3m+n-2k  <=>  size-k set cover "
      "exists");
  table.SetHeader({"instance", "n", "m", "k", "target", "ilp_cost",
                   "cover_exists", "agrees"});
  int agreements = 0, total = 0;
  for (int trial = 0; trial < 12; ++trial) {
    int n = 4 + static_cast<int>(rng.NextUint64(5));
    int m = 4 + static_cast<int>(rng.NextUint64(4));
    int k = 2 + static_cast<int>(rng.NextUint64(2));
    osrs::SetCoverInstance instance = RandomInstance(rng, n, m, k);
    osrs::KPairsReduction reduction = osrs::BuildKPairsReduction(instance);
    osrs::PairDistance distance(&reduction.ontology, 0.1);
    osrs::CoverageGraph graph =
        osrs::CoverageGraph::TryBuildForPairs(distance, reduction.pairs)
            .value();
    auto result = osrs::IlpSummarizer().Summarize(graph, reduction.k);
    OSRS_CHECK_MSG(result.ok(), result.status().ToString());
    bool cover = HasCoverOfSizeK(instance);
    bool hit_target = result->cost <= reduction.target + 1e-6;
    bool agrees = (cover == hit_target);
    agreements += agrees ? 1 : 0;
    ++total;
    table.AddRow({osrs::StrFormat("#%d", trial), osrs::StrFormat("%d", n),
                  osrs::StrFormat("%d", m), osrs::StrFormat("%d", k),
                  osrs::StrFormat("%.0f", reduction.target),
                  osrs::StrFormat("%.0f", result->cost),
                  cover ? "yes" : "no", agrees ? "yes" : "NO"});
  }
  table.Print();
  std::printf("\n%d/%d instances agree with the Theorem 1 equivalence\n",
              agreements, total);
  return agreements == total ? 0 : 1;
}
