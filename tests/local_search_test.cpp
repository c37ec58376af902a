#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/distance.h"
#include "coverage/coverage_graph.h"
#include "ontology/snomed_like.h"
#include "solver/exhaustive.h"
#include "solver/greedy.h"
#include "solver/local_search.h"

namespace osrs {
namespace {

struct Instance {
  Ontology ontology;
  std::vector<ConceptSentimentPair> pairs;
};

Instance MakeInstance(uint64_t seed, int num_pairs) {
  SnomedLikeOptions options;
  options.num_concepts = 60;
  options.max_depth = 5;
  options.seed = seed;
  Instance instance;
  instance.ontology = BuildSnomedLikeOntology(options);
  Rng rng(seed * 31 + 5);
  for (int i = 0; i < num_pairs; ++i) {
    ConceptId c = static_cast<ConceptId>(
        1 + rng.NextUint64(instance.ontology.num_concepts() - 1));
    instance.pairs.push_back({c, rng.NextDouble(-1.0, 1.0)});
  }
  return instance;
}

TEST(LocalSearchTest, NeverWorseThanGreedy) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Instance inst = MakeInstance(seed, 40);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph =
        CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
    auto greedy = GreedySummarizer().Summarize(graph, 5);
    auto polished = LocalSearchSummarizer().Summarize(graph, 5);
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(polished.ok());
    EXPECT_LE(polished->cost, greedy->cost + 1e-9) << "seed " << seed;
  }
}

TEST(LocalSearchTest, NeverBetterThanExhaustive) {
  for (uint64_t seed : {6u, 7u, 8u}) {
    Instance inst = MakeInstance(seed, 18);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph =
        CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
    auto exact = ExhaustiveSummarizer().Summarize(graph, 3);
    auto polished = LocalSearchSummarizer().Summarize(graph, 3);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(polished.ok());
    EXPECT_GE(polished->cost, exact->cost - 1e-9);
    // On these small instances the swap polish usually closes the gap.
    EXPECT_LE(polished->cost, exact->cost * 1.10 + 1e-9);
  }
}

TEST(LocalSearchTest, ReportedCostMatchesSelection) {
  Instance inst = MakeInstance(9, 35);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  auto result = LocalSearchSummarizer().Summarize(graph, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->cost, graph.CostOfSelection(result->selected), 1e-9);
  std::set<int> unique(result->selected.begin(), result->selected.end());
  EXPECT_EQ(unique.size(), result->selected.size());
  EXPECT_EQ(result->selected.size(), 4u);
}

TEST(LocalSearchTest, LocalOptimumHasNoImprovingSwap) {
  Instance inst = MakeInstance(10, 24);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  auto result = LocalSearchSummarizer().Summarize(graph, 3);
  ASSERT_TRUE(result.ok());
  // Brute-force verify: no single swap improves the final selection.
  std::set<int> chosen(result->selected.begin(), result->selected.end());
  for (size_t out = 0; out < result->selected.size(); ++out) {
    for (int in = 0; in < graph.num_candidates(); ++in) {
      if (chosen.count(in)) continue;
      std::vector<int> swapped = result->selected;
      swapped[out] = in;
      EXPECT_GE(graph.CostOfSelection(swapped), result->cost - 1e-9)
          << "improving swap " << result->selected[out] << "->" << in;
    }
  }
}

TEST(LocalSearchTest, PassBudgetRespected) {
  Instance inst = MakeInstance(11, 40);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  LocalSearchOptions options;
  options.max_passes = 0;  // no polish: must equal greedy exactly
  auto greedy = GreedySummarizer().Summarize(graph, 5);
  auto frozen = LocalSearchSummarizer(options).Summarize(graph, 5);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(frozen->selected, greedy->selected);
  EXPECT_DOUBLE_EQ(frozen->cost, greedy->cost);
  EXPECT_EQ(frozen->work, 0);
}

TEST(LocalSearchTest, WorksOnWeightedGraphs) {
  Instance inst = MakeInstance(12, 30);
  PairDistance dist(&inst.ontology, 0.5);
  std::vector<double> weights(inst.pairs.size(), 1.0);
  weights[0] = 25.0;  // pair 0 is suddenly very important
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairsWeighted(dist, inst.pairs, weights)
          .value();
  auto result = LocalSearchSummarizer().Summarize(graph, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->cost, graph.CostOfSelection(result->selected), 1e-9);
  // Something covering pair 0 at distance 0 must be selected (pair 0
  // itself covers itself); leaving it to the root would cost 25x depth.
  bool pair0_covered_exactly = false;
  for (int u : result->selected) {
    for (const auto& e : graph.EdgesOf(u)) {
      if (e.endpoint == 0 && e.weight == 0.0) pair0_covered_exactly = true;
    }
  }
  EXPECT_TRUE(pair0_covered_exactly);
}

}  // namespace
}  // namespace osrs
