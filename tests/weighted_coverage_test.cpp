#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cost.h"
#include "core/distance.h"
#include "coverage/coverage_graph.h"
#include "ontology/snomed_like.h"
#include "solver/exhaustive.h"
#include "solver/greedy.h"
#include "solver/ilp_summarizer.h"

namespace osrs {
namespace {

struct Instance {
  Ontology ontology;
  std::vector<ConceptSentimentPair> pairs;
};

/// Pairs with sentiments on a coarse grid so deduplication is exact.
Instance MakeGriddedInstance(uint64_t seed, int num_pairs) {
  SnomedLikeOptions options;
  options.num_concepts = 40;
  options.max_depth = 4;
  options.seed = seed;
  Instance instance;
  instance.ontology = BuildSnomedLikeOntology(options);
  Rng rng(seed * 101 + 7);
  for (int i = 0; i < num_pairs; ++i) {
    ConceptId c = static_cast<ConceptId>(
        1 + rng.NextUint64(instance.ontology.num_concepts() - 1));
    // Grid {-1.0, -0.75, ..., 1.0}: many exact duplicates.
    double s = -1.0 + 0.25 * static_cast<double>(rng.NextUint64(9));
    instance.pairs.push_back({c, s});
  }
  return instance;
}

TEST(DedupePairsTest, MergesExactDuplicates) {
  Instance inst = MakeGriddedInstance(1, 80);
  DedupedPairs deduped = DedupePairs(inst.pairs, 0.1);
  EXPECT_LT(deduped.pairs.size(), inst.pairs.size());
  // Weights sum to the original pair count.
  double total = 0;
  for (double w : deduped.weights) total += w;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(inst.pairs.size()));
  // Every representative index is valid and of matching concept.
  for (size_t i = 0; i < inst.pairs.size(); ++i) {
    int rep = deduped.representative_of[i];
    ASSERT_GE(rep, 0);
    ASSERT_LT(static_cast<size_t>(rep), deduped.pairs.size());
    EXPECT_EQ(deduped.pairs[static_cast<size_t>(rep)].concept_id,
              inst.pairs[i].concept_id);
    // Grid + small quantum => representative sentiment is exact.
    EXPECT_DOUBLE_EQ(deduped.pairs[static_cast<size_t>(rep)].sentiment,
                     inst.pairs[i].sentiment);
  }
}

TEST(DedupePairsTest, QuantumBucketsCloseSentiments) {
  std::vector<ConceptSentimentPair> pairs{{1, 0.50}, {1, 0.52}, {1, 0.91}};
  DedupedPairs deduped = DedupePairs(pairs, 0.1);
  EXPECT_EQ(deduped.pairs.size(), 2u);
  EXPECT_NEAR(deduped.pairs[0].sentiment, 0.51, 1e-12);  // bucket mean
  EXPECT_DOUBLE_EQ(deduped.weights[0], 2.0);
}

TEST(WeightedGraphTest, WeightedCostEqualsDuplicatedCost) {
  // The whole point of deduplication: greedy/exact costs on the weighted
  // deduped graph equal those on the original duplicated graph.
  for (uint64_t seed : {2u, 3u, 4u}) {
    Instance inst = MakeGriddedInstance(seed, 60);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph full =
        CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
    DedupedPairs deduped = DedupePairs(inst.pairs, 1e-6);
    CoverageGraph compact = CoverageGraph::TryBuildForPairsWeighted(
        dist, deduped.pairs, deduped.weights).value();

    EXPECT_LE(compact.num_edges(), full.num_edges());
    EXPECT_NEAR(compact.EmptySummaryCost(), full.EmptySummaryCost(), 1e-9);

    for (int k : {1, 3, 5}) {
      auto greedy_full = GreedySummarizer().Summarize(full, k);
      auto greedy_compact = GreedySummarizer().Summarize(compact, k);
      ASSERT_TRUE(greedy_full.ok());
      ASSERT_TRUE(greedy_compact.ok());
      EXPECT_NEAR(greedy_full->cost, greedy_compact->cost, 1e-9)
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(WeightedGraphTest, IlpRespectsWeights) {
  Instance inst = MakeGriddedInstance(5, 30);
  PairDistance dist(&inst.ontology, 0.5);
  DedupedPairs deduped = DedupePairs(inst.pairs, 1e-6);
  CoverageGraph compact = CoverageGraph::TryBuildForPairsWeighted(
      dist, deduped.pairs, deduped.weights).value();
  for (int k : {1, 2, 3}) {
    auto ilp = IlpSummarizer().Summarize(compact, k);
    auto exact = ExhaustiveSummarizer().Summarize(compact, k);
    ASSERT_TRUE(ilp.ok()) << ilp.status().ToString();
    ASSERT_TRUE(exact.ok());
    EXPECT_NEAR(ilp->cost, exact->cost, 1e-6) << "k " << k;
  }
}

TEST(WeightedGraphTest, HeavyTargetDominatesSelection) {
  // A chain root -> a -> b; pairs on a (weight 1) and b (weight 100) with
  // far-apart sentiments: k=1 must cover the heavy one.
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ConceptId b = onto.AddConcept("b");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.AddEdge(a, b).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.3);
  std::vector<ConceptSentimentPair> pairs{{a, 0.9}, {b, -0.9}};
  std::vector<double> weights{1.0, 100.0};
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairsWeighted(dist, pairs, weights).value();
  auto result = GreedySummarizer().Summarize(graph, 1);
  ASSERT_TRUE(result.ok());
  // Covering b zeroes 100 * depth 2 = 200; covering a only zeroes 1.
  EXPECT_EQ(result->selected, std::vector<int>{1});
  EXPECT_DOUBLE_EQ(result->cost, 1.0);  // a falls back to the root (depth 1)
}

TEST(WeightedGraphTest, DefaultWeightIsOne) {
  Instance inst = MakeGriddedInstance(6, 10);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  for (int w = 0; w < graph.num_targets(); ++w) {
    EXPECT_DOUBLE_EQ(graph.target_weight(w), 1.0);
  }
}

TEST(WeightedGraphTest, RejectsMismatchedWeightVector) {
  Instance inst = MakeGriddedInstance(7, 5);
  PairDistance dist(&inst.ontology, 0.5);
  std::vector<double> weights(3, 1.0);  // wrong size
  Result<CoverageGraph> graph =
      CoverageGraph::TryBuildForPairsWeighted(dist, inst.pairs, weights);
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace osrs
