#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cost.h"
#include "coverage/coverage_graph.h"
#include "ontology/snomed_like.h"

namespace osrs {
namespace {

Ontology BuildChain() {
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ConceptId b = onto.AddConcept("b");
  ConceptId s = onto.AddConcept("s");
  EXPECT_TRUE(onto.AddEdge(root, a).ok());
  EXPECT_TRUE(onto.AddEdge(a, b).ok());
  EXPECT_TRUE(onto.AddEdge(root, s).ok());
  EXPECT_TRUE(onto.Finalize().ok());
  return onto;
}

TEST(CoverageGraphTest, PairsGraphEdgesMatchDefinition) {
  Ontology onto = BuildChain();
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{
      {onto.FindByName("a"), 0.0},   // 0: covers itself and pair 1
      {onto.FindByName("b"), 0.2},   // 1: covers itself only
      {onto.FindByName("b"), 0.9},   // 2: outside eps of 0 and 1
      {onto.FindByName("s"), 0.0},   // 3: unrelated branch
  };
  CoverageGraph graph = CoverageGraph::TryBuildForPairs(dist, pairs).value();
  EXPECT_EQ(graph.num_candidates(), 4);
  EXPECT_EQ(graph.num_targets(), 4);

  // Exhaustively compare edge existence/weight with the direct distance.
  for (int u = 0; u < 4; ++u) {
    std::set<int> targets;
    for (const auto& e : graph.EdgesOf(u)) {
      targets.insert(e.endpoint);
      EXPECT_DOUBLE_EQ(e.weight,
                       dist(pairs[static_cast<size_t>(u)],
                            pairs[static_cast<size_t>(e.endpoint)]));
    }
    for (int w = 0; w < 4; ++w) {
      bool covered = dist.Covers(pairs[static_cast<size_t>(u)],
                                 pairs[static_cast<size_t>(w)]);
      EXPECT_EQ(targets.count(w) > 0, covered) << "u=" << u << " w=" << w;
    }
  }
}

TEST(CoverageGraphTest, RootDistancesMatchDepths) {
  Ontology onto = BuildChain();
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{{onto.FindByName("a"), 0.0},
                                          {onto.FindByName("b"), 0.0}};
  CoverageGraph graph = CoverageGraph::TryBuildForPairs(dist, pairs).value();
  EXPECT_DOUBLE_EQ(graph.root_distance(0), 1.0);
  EXPECT_DOUBLE_EQ(graph.root_distance(1), 2.0);
  EXPECT_DOUBLE_EQ(graph.EmptySummaryCost(), 3.0);
}

TEST(CoverageGraphTest, TransposeMirrorsForward) {
  Ontology onto = BuildChain();
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{{onto.FindByName("a"), 0.0},
                                          {onto.FindByName("b"), 0.1},
                                          {onto.FindByName("b"), 0.2}};
  CoverageGraph graph = CoverageGraph::TryBuildForPairs(dist, pairs).value();
  size_t forward_total = 0, backward_total = 0;
  for (int u = 0; u < graph.num_candidates(); ++u) {
    forward_total += graph.EdgesOf(u).size();
  }
  const CoverageGraph::Transposed backward = graph.Transpose();
  for (int w = 0; w < graph.num_targets(); ++w) {
    backward_total += backward.CoveringOf(w).size();
    for (const auto& back : backward.CoveringOf(w)) {
      bool found = false;
      for (const auto& fwd : graph.EdgesOf(back.endpoint)) {
        if (fwd.endpoint == w && fwd.weight == back.weight) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
  EXPECT_EQ(forward_total, backward_total);
  EXPECT_EQ(forward_total, graph.num_edges());
}

TEST(CoverageGraphTest, CostOfSelectionMatchesBruteForce) {
  Ontology onto = BuildChain();
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{{onto.FindByName("a"), 0.0},
                                          {onto.FindByName("b"), 0.2},
                                          {onto.FindByName("b"), 0.9},
                                          {onto.FindByName("s"), 0.0}};
  CoverageGraph graph = CoverageGraph::TryBuildForPairs(dist, pairs).value();
  for (int u = 0; u < 4; ++u) {
    std::vector<ConceptSentimentPair> summary{pairs[static_cast<size_t>(u)]};
    EXPECT_DOUBLE_EQ(graph.CostOfSelection({u}),
                     SummaryCost(dist, summary, pairs));
  }
  EXPECT_DOUBLE_EQ(graph.CostOfSelection({0, 2}),
                   SummaryCost(dist, {pairs[0], pairs[2]}, pairs));
  EXPECT_DOUBLE_EQ(graph.CostOfSelection({}), SummaryCost(dist, {}, pairs));
}

TEST(CoverageGraphTest, GroupsAggregateByMinimum) {
  Ontology onto = BuildChain();
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{
      {onto.FindByName("a"), 0.0},  // 0
      {onto.FindByName("b"), 0.1},  // 1
      {onto.FindByName("s"), 0.0},  // 2
  };
  // Sentence 0 holds pairs {0, 1}; sentence 1 holds {2}.
  std::vector<std::vector<int>> groups{{0, 1}, {2}};
  CoverageGraph graph =
      CoverageGraph::TryBuildForGroups(dist, pairs, groups).value();
  EXPECT_EQ(graph.num_candidates(), 2);
  EXPECT_EQ(graph.num_targets(), 3);

  // Group 0 covers target 1 both via pair 0 (distance 1) and pair 1
  // (distance 0): the edge must carry the minimum, 0.
  bool found = false;
  for (const auto& e : graph.EdgesOf(0)) {
    if (e.endpoint == 1) {
      EXPECT_DOUBLE_EQ(e.weight, 0.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Selecting both sentences covers everything at distance 0.
  EXPECT_DOUBLE_EQ(graph.CostOfSelection({0, 1}), 0.0);
}

TEST(CoverageGraphTest, GroupSelectionCostMatchesPairUnion) {
  // The §4.5 semantics: cost of selecting sentences X equals
  // C(P(X), P(R)) on the flat pair set.
  Ontology onto = BuildChain();
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{
      {onto.FindByName("a"), 0.0},  {onto.FindByName("b"), 0.4},
      {onto.FindByName("b"), -0.9}, {onto.FindByName("s"), 0.3},
      {onto.FindByName("a"), -0.2},
  };
  std::vector<std::vector<int>> groups{{0, 1}, {2}, {3, 4}};
  CoverageGraph graph =
      CoverageGraph::TryBuildForGroups(dist, pairs, groups).value();

  auto union_cost = [&](const std::vector<int>& gs) {
    std::vector<ConceptSentimentPair> summary;
    for (int g : gs) {
      for (int p : groups[static_cast<size_t>(g)]) {
        summary.push_back(pairs[static_cast<size_t>(p)]);
      }
    }
    return SummaryCost(dist, summary, pairs);
  };
  EXPECT_DOUBLE_EQ(graph.CostOfSelection({0}), union_cost({0}));
  EXPECT_DOUBLE_EQ(graph.CostOfSelection({1}), union_cost({1}));
  EXPECT_DOUBLE_EQ(graph.CostOfSelection({0, 2}), union_cost({0, 2}));
  EXPECT_DOUBLE_EQ(graph.CostOfSelection({0, 1, 2}), union_cost({0, 1, 2}));
}

TEST(CoverageGraphTest, PairNotInAnyGroupIsTargetOnly) {
  Ontology onto = BuildChain();
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{{onto.FindByName("a"), 0.0},
                                          {onto.FindByName("b"), 0.1}};
  std::vector<std::vector<int>> groups{{0}};  // pair 1 is target-only
  CoverageGraph graph =
      CoverageGraph::TryBuildForGroups(dist, pairs, groups).value();
  EXPECT_EQ(graph.num_candidates(), 1);
  EXPECT_EQ(graph.num_targets(), 2);
  // Group 0 still covers target 1 through pair 0.
  EXPECT_DOUBLE_EQ(graph.CostOfSelection({0}), 1.0);
}

TEST(CoverageGraphTest, RandomizedAgainstBruteForce) {
  // Property: on random instances over a synthetic ontology, the graph's
  // selection costs equal the brute-force Definition 2 evaluation.
  SnomedLikeOptions options;
  options.num_concepts = 120;
  options.max_depth = 5;
  Ontology onto = BuildSnomedLikeOntology(options);
  Rng rng(2024);
  PairDistance dist(&onto, 0.5);

  for (int trial = 0; trial < 5; ++trial) {
    std::vector<ConceptSentimentPair> pairs;
    for (int i = 0; i < 40; ++i) {
      ConceptId c = static_cast<ConceptId>(
          1 + rng.NextUint64(onto.num_concepts() - 1));
      pairs.push_back({c, rng.NextDouble(-1.0, 1.0)});
    }
    CoverageGraph graph = CoverageGraph::TryBuildForPairs(dist, pairs).value();
    for (int s = 0; s < 5; ++s) {
      std::vector<size_t> chosen = rng.SampleWithoutReplacement(40, 4);
      std::vector<int> selection(chosen.begin(), chosen.end());
      std::vector<ConceptSentimentPair> summary;
      for (int u : selection) summary.push_back(pairs[static_cast<size_t>(u)]);
      EXPECT_NEAR(graph.CostOfSelection(selection),
                  SummaryCost(dist, summary, pairs), 1e-9);
    }
  }
}

TEST(CoverageGraphTest, AverageDegreeReported) {
  Ontology onto = BuildChain();
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{{onto.FindByName("a"), 0.0},
                                          {onto.FindByName("b"), 0.1}};
  CoverageGraph graph = CoverageGraph::TryBuildForPairs(dist, pairs).value();
  EXPECT_GT(graph.AverageCandidateDegree(), 0.0);
}

}  // namespace
}  // namespace osrs
