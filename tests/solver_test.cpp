#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/cost.h"
#include "core/reduction.h"
#include "coverage/coverage_graph.h"
#include "ontology/snomed_like.h"
#include "solver/exhaustive.h"
#include "solver/greedy.h"
#include "solver/ilp_summarizer.h"
#include "solver/kmedian_model.h"
#include "solver/randomized_rounding.h"

namespace osrs {
namespace {

/// Random k-Pairs instance over a small synthetic ontology.
struct Instance {
  Ontology ontology;
  std::vector<ConceptSentimentPair> pairs;
};

/// `quantum` > 0 rounds every sentiment to a multiple of it, which makes
/// exact gain ties common.
Instance MakeInstance(uint64_t seed, int num_pairs, int num_concepts = 60,
                      double quantum = 0.0) {
  SnomedLikeOptions options;
  options.num_concepts = num_concepts;
  options.max_depth = 5;
  options.seed = seed;
  Instance instance;
  instance.ontology = BuildSnomedLikeOntology(options);
  Rng rng(seed * 77 + 1);
  for (int i = 0; i < num_pairs; ++i) {
    ConceptId c = static_cast<ConceptId>(
        1 + rng.NextUint64(instance.ontology.num_concepts() - 1));
    // Cluster sentiments around a few modes so coverage is non-trivial.
    double mode = rng.NextBernoulli(0.6) ? 0.6 : -0.4;
    double s = Clamp(mode + rng.NextGaussian(0.0, 0.3), -1.0, 1.0);
    if (quantum > 0.0) s = std::round(s / quantum) * quantum;
    instance.pairs.push_back({c, s});
  }
  return instance;
}

GreedySummarizer EagerGreedy() {
  GreedyOptions options;
  options.heap = GreedyOptions::Heap::kEager;
  return GreedySummarizer(options);
}

// ----------------------------------------------------------------- Greedy --

TEST(GreedyTest, RejectsBadK) {
  Instance inst = MakeInstance(1, 10);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  GreedySummarizer greedy;
  EXPECT_FALSE(greedy.Summarize(graph, -1).ok());
  EXPECT_FALSE(greedy.Summarize(graph, 11).ok());
  EXPECT_TRUE(greedy.Summarize(graph, 10).ok());
}

TEST(GreedyTest, KZeroReturnsEmptySummary) {
  Instance inst = MakeInstance(2, 10);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  auto result = GreedySummarizer().Summarize(graph, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->selected.empty());
  EXPECT_DOUBLE_EQ(result->cost, graph.EmptySummaryCost());
}

TEST(GreedyTest, CostMatchesGraphEvaluation) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    Instance inst = MakeInstance(seed, 40);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph =
        CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
    auto result = GreedySummarizer().Summarize(graph, 6);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result->cost, graph.CostOfSelection(result->selected), 1e-9);
    EXPECT_EQ(result->selected.size(), 6u);
    std::set<int> unique(result->selected.begin(), result->selected.end());
    EXPECT_EQ(unique.size(), 6u);
  }
}

TEST(GreedyTest, EagerAndLazyAgreeOnCost) {
  for (uint64_t seed : {6u, 7u, 8u, 9u}) {
    Instance inst = MakeInstance(seed, 60);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph =
        CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
    auto eager = EagerGreedy().Summarize(graph, 5);
    auto lazy = GreedySummarizer().Summarize(graph, 5);
    ASSERT_TRUE(eager.ok());
    ASSERT_TRUE(lazy.ok());
    EXPECT_EQ(eager->selected, lazy->selected);
    EXPECT_EQ(eager->cost, lazy->cost);
  }
}

TEST(GreedyTest, EagerAndLazyPickTheSameOnTieHeavyGraphs) {
  // The lazy heap (the facade's greedy) must pick exactly what the paper's
  // eager heap picks, ties included: both take the largest gain and, among
  // equal gains, the smallest candidate id. Sentiments quantized to 0.25
  // make exact ties common. Plain, weighted (integer multiplicities, as
  // DedupePairs yields) and group graphs, every k up to 10 — a greedy
  // selection at k is the prefix of the one at 10.
  int tied_instances = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Instance inst = MakeInstance(seed, 12 + static_cast<int>(seed % 40),
                                 /*num_concepts=*/25, /*quantum=*/0.25);
    PairDistance dist(&inst.ontology, 0.25);
    Rng rng(seed * 131 + 7);
    std::vector<double> weights;
    std::vector<std::vector<int>> groups(1 + inst.pairs.size() / 3);
    for (size_t i = 0; i < inst.pairs.size(); ++i) {
      weights.push_back(static_cast<double>(1 + rng.NextUint64(3)));
      groups[rng.NextUint64(groups.size())].push_back(static_cast<int>(i));
    }
    std::erase_if(groups, [](const std::vector<int>& g) { return g.empty(); });
    const std::vector<std::pair<std::string, CoverageGraph>> graphs = {
        {"pairs", CoverageGraph::TryBuildForPairs(dist, inst.pairs).value()},
        {"weighted",
         CoverageGraph::TryBuildForPairsWeighted(dist, inst.pairs, weights)
             .value()},
        {"groups",
         CoverageGraph::TryBuildForGroups(dist, inst.pairs, groups).value()},
    };
    for (const auto& [name, graph] : graphs) {
      const std::string context =
          name + " seed " + std::to_string(seed);
      const int k = std::min(10, graph.num_candidates());
      auto eager = EagerGreedy().Summarize(graph, k);
      auto lazy = GreedySummarizer().Summarize(graph, k);
      ASSERT_TRUE(eager.ok() && lazy.ok()) << context;
      EXPECT_EQ(eager->selected, lazy->selected) << context;
      EXPECT_EQ(eager->cost, lazy->cost) << context;  // exact
      // Count instances whose first pick is a tie, so the test keeps
      // exercising the tie rule.
      std::vector<double> gains;
      const double empty = graph.EmptySummaryCost();
      for (int u = 0; u < graph.num_candidates(); ++u) {
        gains.push_back(empty - graph.CostOfSelection({u}));
      }
      const double top = *std::max_element(gains.begin(), gains.end());
      if (std::count(gains.begin(), gains.end(), top) > 1) ++tied_instances;
    }
  }
  EXPECT_GT(tied_instances, 100) << "the instances no longer produce ties";
}

TEST(GreedyTest, GreedyIsMonotoneInK) {
  Instance inst = MakeInstance(10, 50);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  GreedySummarizer greedy;
  double prev = graph.EmptySummaryCost();
  for (int k = 1; k <= 8; ++k) {
    auto result = greedy.Summarize(graph, k);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->cost, prev + 1e-9);
    prev = result->cost;
  }
}

/// Selection, cost, work and stop state of two greedy answers, bit for bit.
void ExpectSameAnswer(const SummaryResult& a, const SummaryResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.selected, b.selected) << context;
  EXPECT_EQ(a.cost, b.cost) << context;  // exact, not near
  EXPECT_EQ(a.work, b.work) << context;
  EXPECT_EQ(a.approximate, b.approximate) << context;
  EXPECT_EQ(a.stop_reason, b.stop_reason) << context;
}

TEST(GreedyTest, PrefixProperty) {
  // Greedy is prefix-monotone, which is what lets one GreedyRun answer
  // every k. Extending a run in steps equals a one-shot solve, and every
  // prefix of the run equals a cold solve at that k bit for bit: for both
  // heaps, on plain, weighted and group graphs, and under a work budget,
  // which must trip at the same round on a slice as on a cold solve.
  Instance inst = MakeInstance(11, 50);
  PairDistance dist(&inst.ontology, 0.5);
  std::vector<double> weights;
  std::vector<std::vector<int>> groups(17);
  for (size_t i = 0; i < inst.pairs.size(); ++i) {
    weights.push_back(1.0 + static_cast<double>(i % 3));
    groups[i % groups.size()].push_back(static_cast<int>(i));
  }
  const std::vector<std::pair<std::string, CoverageGraph>> graphs = {
      {"pairs", CoverageGraph::TryBuildForPairs(dist, inst.pairs).value()},
      {"weighted",
       CoverageGraph::TryBuildForPairsWeighted(dist, inst.pairs, weights)
           .value()},
      {"groups",
       CoverageGraph::TryBuildForGroups(dist, inst.pairs, groups).value()},
  };
  const ExecutionBudget unlimited;
  for (const auto& [graph_name, graph] : graphs) {
    for (GreedyOptions::Heap heap :
         {GreedyOptions::Heap::kEager, GreedyOptions::Heap::kLazy}) {
      GreedyOptions options;
      options.heap = heap;
      GreedySummarizer greedy(options);
      const std::string context =
          graph_name + "/" + greedy.name();

      auto one_shot = greedy.Summarize(graph, 10);
      ASSERT_TRUE(one_shot.ok()) << context;
      auto run = GreedyRun::Start(graph, heap, unlimited);
      ASSERT_TRUE(run.ok()) << context;
      for (int step : {3, 7, 10}) {
        auto stop = (*run)->ExtendTo(step, unlimited);
        ASSERT_TRUE(stop.ok()) << context;
        EXPECT_EQ(*stop, StatusCode::kOk) << context;
        EXPECT_EQ((*run)->rounds(), step) << context;
      }
      auto sliced_ten = (*run)->Slice(10, unlimited);
      ASSERT_TRUE(sliced_ten.ok()) << context;
      ExpectSameAnswer(*sliced_ten, *one_shot, context + " k=10");

      for (int k = 0; k <= 10; ++k) {
        auto cold = greedy.Summarize(graph, k);
        auto sliced = (*run)->Slice(k, unlimited);
        ASSERT_TRUE(cold.ok() && sliced.ok()) << context;
        ExpectSameAnswer(*sliced, *cold, context + " k=" + std::to_string(k));
        // The short run's prefix is the long run's prefix.
        if (k > 0) {
          EXPECT_EQ(cold->selected.back(), one_shot->selected[k - 1])
              << context;
        }
      }

      // A work budget set to the work recorded before round 5 trips there,
      // on the slice and on the cold solve alike; a budget of 1 trips at
      // the first round that did any work.
      auto five = (*run)->Slice(5, unlimited);
      ASSERT_TRUE(five.ok()) << context;
      ASSERT_GT(five->work, 0) << context;
      for (int64_t max_work : {int64_t{1}, five->work}) {
        ExecutionBudget budget;
        budget.SetMaxWork(max_work);
        for (int k = 0; k <= 10; ++k) {
          const std::string at = context + " max_work=" +
                                 std::to_string(max_work) +
                                 " k=" + std::to_string(k);
          auto cold = greedy.Summarize(graph, k, budget);
          auto sliced = (*run)->Slice(k, budget);
          ASSERT_TRUE(cold.ok() && sliced.ok()) << at;
          ExpectSameAnswer(*sliced, *cold, at);
          // A run extended under the budget stops at that round too, and
          // stays there.
          auto fresh = GreedyRun::Start(graph, heap, budget);
          ASSERT_TRUE(fresh.ok()) << at;
          auto solved = (*fresh)->Solve(k, budget);
          ASSERT_TRUE(solved.ok()) << at;
          ExpectSameAnswer(*solved, *cold, at + " (fresh run)");
          EXPECT_EQ((*fresh)->rounds(),
                    static_cast<int>(cold->selected.size()))
              << at;
        }
        auto tripped = greedy.Summarize(graph, 10, budget);
        ASSERT_TRUE(tripped.ok()) << context;
        EXPECT_TRUE(tripped->approximate) << context;
        EXPECT_LE(tripped->selected.size(), 5u) << context;
      }
    }
  }
}

TEST(GreedyTest, MatchesExhaustiveOnEasyInstance) {
  // With k = 1 greedy IS optimal (single best candidate).
  for (uint64_t seed : {12u, 13u, 14u}) {
    Instance inst = MakeInstance(seed, 25);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph =
        CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
    auto greedy = GreedySummarizer().Summarize(graph, 1);
    auto exact = ExhaustiveSummarizer().Summarize(graph, 1);
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_NEAR(greedy->cost, exact->cost, 1e-9);
  }
}

TEST(GreedyTest, WithinTheoreticalReachOfOptimal) {
  // §5.2 observes greedy within 8% of optimal; on these small instances we
  // allow a loose 25% just to catch gross regressions.
  for (uint64_t seed : {15u, 16u}) {
    Instance inst = MakeInstance(seed, 18);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph =
        CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
    auto greedy = GreedySummarizer().Summarize(graph, 3);
    auto exact = ExhaustiveSummarizer().Summarize(graph, 3);
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(greedy->cost, exact->cost * 1.25 + 1e-9);
    EXPECT_GE(greedy->cost, exact->cost - 1e-9);
  }
}

// ------------------------------------------------------------- Exhaustive --

TEST(ExhaustiveTest, FindsObviousOptimum) {
  // Chain root->a->b, pairs on a and b. k=1: picking the 'a' pair covers
  // both (a at 0, b at 1) = 1 < picking b (a covered by root at 1, b at 0).
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ConceptId b = onto.AddConcept("b");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.AddEdge(a, b).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{{a, 0.0}, {b, 0.0}};
  CoverageGraph graph = CoverageGraph::TryBuildForPairs(dist, pairs).value();
  auto result = ExhaustiveSummarizer().Summarize(graph, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->selected, std::vector<int>{0});
  EXPECT_DOUBLE_EQ(result->cost, 1.0);
}

TEST(ExhaustiveTest, RefusesHugeInstances) {
  Instance inst = MakeInstance(17, 40);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  ExhaustiveSummarizer tiny_budget(/*max_subsets=*/100);
  auto result = tiny_budget.Summarize(graph, 10);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// -------------------------------------------------------------------- ILP --

TEST(IlpTest, MatchesExhaustiveOnRandomInstances) {
  for (uint64_t seed : {20u, 21u, 22u, 23u}) {
    Instance inst = MakeInstance(seed, 16);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph =
        CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
    for (int k : {1, 2, 3}) {
      auto ilp = IlpSummarizer().Summarize(graph, k);
      auto exact = ExhaustiveSummarizer().Summarize(graph, k);
      ASSERT_TRUE(ilp.ok()) << ilp.status().ToString();
      ASSERT_TRUE(exact.ok());
      EXPECT_NEAR(ilp->cost, exact->cost, 1e-6)
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(IlpTest, SentenceGroupsMatchExhaustive) {
  // §4.5 variant: candidates are groups.
  for (uint64_t seed : {24u, 25u}) {
    Instance inst = MakeInstance(seed, 18);
    PairDistance dist(&inst.ontology, 0.5);
    // Groups of 3 consecutive pairs = 6 "sentences".
    std::vector<std::vector<int>> groups;
    for (int g = 0; g < 6; ++g) {
      groups.push_back({3 * g, 3 * g + 1, 3 * g + 2});
    }
    CoverageGraph graph =
        CoverageGraph::TryBuildForGroups(dist, inst.pairs, groups).value();
    auto ilp = IlpSummarizer().Summarize(graph, 2);
    auto exact = ExhaustiveSummarizer().Summarize(graph, 2);
    ASSERT_TRUE(ilp.ok()) << ilp.status().ToString();
    ASSERT_TRUE(exact.ok());
    EXPECT_NEAR(ilp->cost, exact->cost, 1e-6);
  }
}

TEST(IlpTest, RejectsBadK) {
  Instance inst = MakeInstance(26, 8);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  EXPECT_FALSE(IlpSummarizer().Summarize(graph, -2).ok());
  EXPECT_FALSE(IlpSummarizer().Summarize(graph, 100).ok());
}

// ----------------------------------------------------- k-median LP model --

TEST(KMedianModelTest, LpRelaxationLowerBoundsIlp) {
  for (uint64_t seed : {27u, 28u}) {
    Instance inst = MakeInstance(seed, 20);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph =
        CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
    const int k = 3;
    KMedianModel model = BuildKMedianModel(graph, k, /*integral_x=*/false);
    LpSolution lp = RevisedSimplex().Solve(model.problem);
    ASSERT_EQ(lp.status, LpStatus::kOptimal);
    auto exact = ExhaustiveSummarizer().Summarize(graph, k);
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(lp.objective, exact->cost + 1e-6);
    // And the LP is bounded below by 0.
    EXPECT_GE(lp.objective, -1e-9);
  }
}

TEST(KMedianModelTest, IntegralCostFlagDetected) {
  Instance inst = MakeInstance(29, 12);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  KMedianModel model = BuildKMedianModel(graph, 2, false);
  EXPECT_TRUE(model.integral_costs);  // hop distances are integers
}

// --------------------------------------------------- Randomized rounding --

TEST(RandomizedRoundingTest, CostBetweenOptimalAndEmpty) {
  for (uint64_t seed : {30u, 31u}) {
    Instance inst = MakeInstance(seed, 20);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph =
        CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
    const int k = 3;
    auto rr = RandomizedRoundingSummarizer().Summarize(graph, k);
    auto exact = ExhaustiveSummarizer().Summarize(graph, k);
    ASSERT_TRUE(rr.ok()) << rr.status().ToString();
    ASSERT_TRUE(exact.ok());
    EXPECT_GE(rr->cost, exact->cost - 1e-9);
    EXPECT_LE(rr->cost, graph.EmptySummaryCost() + 1e-9);
    EXPECT_EQ(rr->selected.size(), static_cast<size_t>(k));
    std::set<int> unique(rr->selected.begin(), rr->selected.end());
    EXPECT_EQ(unique.size(), static_cast<size_t>(k));
  }
}

TEST(RandomizedRoundingTest, DeterministicForSeed) {
  Instance inst = MakeInstance(32, 25);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  RandomizedRoundingOptions options;
  options.seed = 5;
  auto a = RandomizedRoundingSummarizer(options).Summarize(graph, 4);
  auto b = RandomizedRoundingSummarizer(options).Summarize(graph, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->selected, b->selected);
}

TEST(RandomizedRoundingTest, TopKStrategyIsDeterministicAndSound) {
  Instance inst = MakeInstance(34, 22);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  RandomizedRoundingOptions options;
  options.strategy = RoundingStrategy::kTopK;
  RandomizedRoundingSummarizer topk(options);
  EXPECT_EQ(topk.name(), "LP-top-k");
  auto a = topk.Summarize(graph, 3);
  auto b = topk.Summarize(graph, 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->selected, b->selected);
  EXPECT_EQ(a->selected.size(), 3u);
  auto exact = ExhaustiveSummarizer().Summarize(graph, 3);
  ASSERT_TRUE(exact.ok());
  EXPECT_GE(a->cost, exact->cost - 1e-9);
  EXPECT_LE(a->cost, graph.EmptySummaryCost() + 1e-9);
}

TEST(RandomizedRoundingTest, MoreTrialsNeverWorse) {
  Instance inst = MakeInstance(33, 25);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  RandomizedRoundingOptions one;
  one.seed = 5;
  one.trials = 1;
  RandomizedRoundingOptions many = one;
  many.trials = 8;
  auto a = RandomizedRoundingSummarizer(one).Summarize(graph, 4);
  auto b = RandomizedRoundingSummarizer(many).Summarize(graph, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b->cost, a->cost + 1e-9);
}

// ------------------------------------------------- Degenerate graph sizes

TEST(DegenerateGraphTest, AllAlgorithmsHandleZeroCandidates) {
  // An empty pair set: no candidates, no targets, cost 0 for every k=0.
  Instance inst = MakeInstance(50, 10);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, std::vector<ConceptSentimentPair>{})
          .value();
  EXPECT_EQ(graph.num_candidates(), 0);
  EXPECT_DOUBLE_EQ(graph.EmptySummaryCost(), 0.0);
  auto greedy = GreedySummarizer().Summarize(graph, 0);
  ASSERT_TRUE(greedy.ok());
  EXPECT_TRUE(greedy->selected.empty());
  auto ilp = IlpSummarizer().Summarize(graph, 0);
  ASSERT_TRUE(ilp.ok()) << ilp.status().ToString();
  EXPECT_TRUE(ilp->selected.empty());
  auto rr = RandomizedRoundingSummarizer().Summarize(graph, 0);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  EXPECT_TRUE(rr->selected.empty());
  auto exact = ExhaustiveSummarizer().Summarize(graph, 0);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->selected.empty());
}

TEST(DegenerateGraphTest, KEqualsCandidateCount) {
  Instance inst = MakeInstance(51, 12);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  const int k = graph.num_candidates();
  auto greedy = GreedySummarizer().Summarize(graph, k);
  auto ilp = IlpSummarizer().Summarize(graph, k);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(ilp.ok()) << ilp.status().ToString();
  // Selecting everything: both achieve the all-selected cost, where each
  // pair covers itself at distance 0.
  std::vector<int> all(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) all[static_cast<size_t>(i)] = i;
  double full_cost = graph.CostOfSelection(all);
  EXPECT_DOUBLE_EQ(full_cost, 0.0);
  EXPECT_DOUBLE_EQ(greedy->cost, 0.0);
  EXPECT_NEAR(ilp->cost, 0.0, 1e-9);
}

TEST(DegenerateGraphTest, SingleCandidate) {
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{{a, 0.5}};
  CoverageGraph graph = CoverageGraph::TryBuildForPairs(dist, pairs).value();
  for (int k : {0, 1}) {
    auto greedy = GreedySummarizer().Summarize(graph, k);
    ASSERT_TRUE(greedy.ok());
    EXPECT_DOUBLE_EQ(greedy->cost, k == 0 ? 1.0 : 0.0);
  }
}

// ---------------------------------------------- NP-hardness reduction E2E --

TEST(ReductionSolverTest, IlpDecidesSetCover) {
  // Theorem 1, both directions, via the exact solver: the optimal k-pair
  // summary cost equals the target iff a size-k set cover exists.
  SetCoverInstance coverable;
  coverable.universe_size = 4;
  coverable.sets = {{0, 1}, {1, 2}, {2, 3}, {0, 3}};
  coverable.k = 2;

  SetCoverInstance uncoverable;
  uncoverable.universe_size = 5;
  uncoverable.sets = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  uncoverable.k = 2;  // every pair of sets misses an element

  for (const auto& [instance, expect_cover] :
       {std::pair<SetCoverInstance, bool>{coverable, true},
        std::pair<SetCoverInstance, bool>{uncoverable, false}}) {
    KPairsReduction red = BuildKPairsReduction(instance);
    PairDistance dist(&red.ontology, 0.1);
    CoverageGraph graph =
        CoverageGraph::TryBuildForPairs(dist, red.pairs).value();
    auto result = IlpSummarizer().Summarize(graph, red.k);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (expect_cover) {
      EXPECT_NEAR(result->cost, red.target, 1e-6);
    } else {
      EXPECT_GT(result->cost, red.target + 0.5);
    }
  }
}

TEST(ReductionSolverTest, GreedySolvesEasyCovers) {
  // Greedy achieves the target on an instance where greedy set-cover works.
  SetCoverInstance instance;
  instance.universe_size = 6;
  instance.sets = {{0, 1, 2}, {3, 4, 5}, {0, 3}, {1, 4}};
  instance.k = 2;
  KPairsReduction red = BuildKPairsReduction(instance);
  PairDistance dist(&red.ontology, 0.1);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, red.pairs).value();
  auto result = GreedySummarizer().Summarize(graph, red.k);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->cost, red.target, 1e-9);
}

}  // namespace
}  // namespace osrs
