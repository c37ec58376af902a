// Parameterized property tests of the coverage framework: invariants of
// Definition 1/2, the coverage graph, and the §4 algorithms, swept across
// ontology shapes and sentiment thresholds.

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/strings.h"
#include "common/rng.h"
#include "core/cost.h"
#include "core/distance.h"
#include "coverage/coverage_graph.h"
#include "ontology/snomed_like.h"
#include "solver/exhaustive.h"
#include "solver/greedy.h"
#include "solver/ilp_summarizer.h"
#include "solver/randomized_rounding.h"

namespace osrs {
namespace {

/// Parameter: (ontology seed, epsilon).
class CoverageProperty
    : public testing::TestWithParam<std::tuple<uint64_t, double>> {
 protected:
  void SetUp() override {
    auto [seed, eps] = GetParam();
    SnomedLikeOptions options;
    options.num_concepts = 70;
    options.max_depth = 5;
    options.multi_parent_prob = 0.15;
    options.seed = seed;
    ontology_ = BuildSnomedLikeOntology(options);
    epsilon_ = eps;
    Rng rng(seed * 997 + 13);
    for (int i = 0; i < 45; ++i) {
      ConceptId c = static_cast<ConceptId>(
          1 + rng.NextUint64(ontology_.num_concepts() - 1));
      pairs_.push_back({c, rng.NextDouble(-1.0, 1.0)});
    }
    rng_ = Rng(seed * 31 + 7);
  }

  std::vector<ConceptSentimentPair> RandomSubset(size_t max_size) {
    size_t count = 1 + rng_.NextUint64(max_size);
    std::vector<ConceptSentimentPair> subset;
    for (size_t index : rng_.SampleWithoutReplacement(
             pairs_.size(), std::min(count, pairs_.size()))) {
      subset.push_back(pairs_[index]);
    }
    return subset;
  }

  Ontology ontology_;
  double epsilon_ = 0.5;
  std::vector<ConceptSentimentPair> pairs_;
  Rng rng_{0};
};

TEST_P(CoverageProperty, RootCoversEverythingAtDepthDistance) {
  PairDistance distance(&ontology_, epsilon_);
  ConceptSentimentPair root_pair{ontology_.root(), -1.0};
  for (const auto& pair : pairs_) {
    double d = distance(root_pair, pair);
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_DOUBLE_EQ(d, ontology_.DepthFromRoot(pair.concept_id));
  }
}

TEST_P(CoverageProperty, DistanceIsNonNegativeAndAgreesWithHierarchy) {
  PairDistance distance(&ontology_, epsilon_);
  for (size_t i = 0; i < pairs_.size(); i += 3) {
    for (size_t j = 0; j < pairs_.size(); j += 3) {
      double d = distance(pairs_[i], pairs_[j]);
      if (std::isfinite(d)) {
        EXPECT_GE(d, 0.0);
        EXPECT_TRUE(ontology_.IsAncestorOrSelf(pairs_[i].concept_id,
                                               pairs_[j].concept_id));
        EXPECT_DOUBLE_EQ(d, ontology_.AncestorDistance(
                                pairs_[i].concept_id, pairs_[j].concept_id));
      }
    }
  }
}

TEST_P(CoverageProperty, CoverageIsMonotoneInEpsilon) {
  PairDistance tight(&ontology_, epsilon_);
  PairDistance loose(&ontology_, epsilon_ + 0.4);
  for (size_t i = 0; i < pairs_.size(); i += 2) {
    for (size_t j = 0; j < pairs_.size(); j += 2) {
      if (tight.Covers(pairs_[i], pairs_[j])) {
        EXPECT_TRUE(loose.Covers(pairs_[i], pairs_[j]));
        EXPECT_DOUBLE_EQ(tight(pairs_[i], pairs_[j]),
                         loose(pairs_[i], pairs_[j]));
      }
    }
  }
}

TEST_P(CoverageProperty, CostIsMonotoneInSummary) {
  PairDistance distance(&ontology_, epsilon_);
  for (int trial = 0; trial < 8; ++trial) {
    auto summary = RandomSubset(6);
    double cost = SummaryCost(distance, summary, pairs_);
    summary.push_back(pairs_[rng_.NextUint64(pairs_.size())]);
    double bigger = SummaryCost(distance, summary, pairs_);
    EXPECT_LE(bigger, cost + 1e-12);
  }
}

TEST_P(CoverageProperty, CostIsSubmodular) {
  // For F ⊆ F' and p ∉ F': gain of p at F is >= gain at F'.
  PairDistance distance(&ontology_, epsilon_);
  for (int trial = 0; trial < 8; ++trial) {
    auto small = RandomSubset(4);
    auto large = small;
    for (int extra = 0; extra < 3; ++extra) {
      large.push_back(pairs_[rng_.NextUint64(pairs_.size())]);
    }
    ConceptSentimentPair p = pairs_[rng_.NextUint64(pairs_.size())];
    double small_cost = SummaryCost(distance, small, pairs_);
    double large_cost = SummaryCost(distance, large, pairs_);
    auto small_plus = small;
    small_plus.push_back(p);
    auto large_plus = large;
    large_plus.push_back(p);
    double gain_small = small_cost - SummaryCost(distance, small_plus, pairs_);
    double gain_large = large_cost - SummaryCost(distance, large_plus, pairs_);
    EXPECT_GE(gain_small, gain_large - 1e-9);
  }
}

TEST_P(CoverageProperty, GraphCostsMatchBruteForce) {
  PairDistance distance(&ontology_, epsilon_);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(distance, pairs_).value();
  EXPECT_NEAR(graph.EmptySummaryCost(), SummaryCost(distance, {}, pairs_),
              1e-9);
  for (int trial = 0; trial < 6; ++trial) {
    size_t count = 1 + rng_.NextUint64(5);
    auto indices = rng_.SampleWithoutReplacement(pairs_.size(), count);
    std::vector<int> selection(indices.begin(), indices.end());
    std::vector<ConceptSentimentPair> summary;
    for (int u : selection) summary.push_back(pairs_[static_cast<size_t>(u)]);
    EXPECT_NEAR(graph.CostOfSelection(selection),
                SummaryCost(distance, summary, pairs_), 1e-9);
  }
}

TEST_P(CoverageProperty, GroupGraphEqualsPairUnionSemantics) {
  PairDistance distance(&ontology_, epsilon_);
  // Random grouping into "sentences" of 1-4 pairs.
  std::vector<std::vector<int>> groups;
  size_t i = 0;
  while (i < pairs_.size()) {
    size_t size = 1 + rng_.NextUint64(4);
    std::vector<int> group;
    for (size_t j = i; j < std::min(i + size, pairs_.size()); ++j) {
      group.push_back(static_cast<int>(j));
    }
    groups.push_back(std::move(group));
    i += size;
  }
  CoverageGraph graph =
      CoverageGraph::TryBuildForGroups(distance, pairs_, groups).value();
  for (int trial = 0; trial < 6; ++trial) {
    size_t count = 1 + rng_.NextUint64(3);
    auto chosen = rng_.SampleWithoutReplacement(groups.size(),
                                                std::min(count, groups.size()));
    std::vector<int> selection(chosen.begin(), chosen.end());
    std::vector<ConceptSentimentPair> union_pairs;
    for (int g : selection) {
      for (int p : groups[static_cast<size_t>(g)]) {
        union_pairs.push_back(pairs_[static_cast<size_t>(p)]);
      }
    }
    EXPECT_NEAR(graph.CostOfSelection(selection),
                SummaryCost(distance, union_pairs, pairs_), 1e-9);
  }
}

TEST_P(CoverageProperty, GreedySatisfiesWolseyBound) {
  // Theorem 4: greedy's size-k summary costs at most opt_{k'}(P) with
  // k' = floor(k / H(Δ·n)). For these sizes k' is 1, so compare against
  // the exhaustive optimum with a single representative.
  PairDistance distance(&ontology_, epsilon_);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(distance, pairs_).value();
  const int k = 6;
  int delta_n = ontology_.max_depth() * static_cast<int>(pairs_.size());
  int k_prime =
      static_cast<int>(static_cast<double>(k) /
                       HarmonicNumber(static_cast<size_t>(delta_n)));
  k_prime = std::max(1, k_prime);
  auto greedy = GreedySummarizer().Summarize(graph, k);
  auto reference = ExhaustiveSummarizer().Summarize(graph, k_prime);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_LE(greedy->cost, reference->cost + 1e-9);
}

TEST_P(CoverageProperty, IlpMatchesExhaustive) {
  PairDistance distance(&ontology_, epsilon_);
  // Shrink to keep the exhaustive oracle cheap.
  std::vector<ConceptSentimentPair> small(pairs_.begin(), pairs_.begin() + 14);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(distance, small).value();
  for (int k : {1, 2, 3}) {
    auto ilp = IlpSummarizer().Summarize(graph, k);
    auto exact = ExhaustiveSummarizer().Summarize(graph, k);
    ASSERT_TRUE(ilp.ok()) << ilp.status().ToString();
    ASSERT_TRUE(exact.ok());
    EXPECT_NEAR(ilp->cost, exact->cost, 1e-6) << "k=" << k;
  }
}

TEST_P(CoverageProperty, AlgorithmCostOrdering) {
  // exhaustive <= {greedy, RR} <= empty, on the same instance.
  PairDistance distance(&ontology_, epsilon_);
  std::vector<ConceptSentimentPair> small(pairs_.begin(), pairs_.begin() + 16);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(distance, small).value();
  const int k = 3;
  auto exact = ExhaustiveSummarizer().Summarize(graph, k);
  auto greedy = GreedySummarizer().Summarize(graph, k);
  auto rr = RandomizedRoundingSummarizer().Summarize(graph, k);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(rr.ok());
  EXPECT_LE(exact->cost, greedy->cost + 1e-9);
  EXPECT_LE(exact->cost, rr->cost + 1e-9);
  EXPECT_LE(greedy->cost, graph.EmptySummaryCost() + 1e-9);
  EXPECT_LE(rr->cost, graph.EmptySummaryCost() + 1e-9);
}

TEST_P(CoverageProperty, DedupePreservesCosts) {
  PairDistance distance(&ontology_, epsilon_);
  // Quantize sentiments to a grid, then dedupe exactly.
  std::vector<ConceptSentimentPair> gridded = pairs_;
  for (auto& pair : gridded) {
    pair.sentiment = std::round(pair.sentiment * 4.0) / 4.0;
  }
  CoverageGraph full =
      CoverageGraph::TryBuildForPairs(distance, gridded).value();
  DedupedPairs deduped = DedupePairs(gridded, 1e-9);
  CoverageGraph compact = CoverageGraph::TryBuildForPairsWeighted(
      distance, deduped.pairs, deduped.weights).value();
  for (int k : {1, 2, 4}) {
    auto a = GreedySummarizer().Summarize(full, std::min(k, full.num_candidates()));
    auto b = GreedySummarizer().Summarize(
        compact, std::min(k, compact.num_candidates()));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(a->cost, b->cost, 1e-9) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoverageProperty,
    testing::Combine(testing::Values(11u, 22u, 33u, 44u),
                     testing::Values(0.2, 0.5, 1.0)),
    [](const testing::TestParamInfo<CoverageProperty::ParamType>& param) {
      return StrFormat("seed%llu_eps%d",
                       static_cast<unsigned long long>(
                           std::get<0>(param.param)),
                       static_cast<int>(std::get<1>(param.param) * 10));
    });

}  // namespace
}  // namespace osrs
