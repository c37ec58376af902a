// Tests of the execution-budget layer: deadlines, cooperative
// cancellation, deterministic work budgets, and the facade / batch
// graceful-degradation semantics built on top of them.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/batch_summarizer.h"
#include "api/review_summarizer.h"
#include "common/execution_budget.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/distance.h"
#include "core/model.h"
#include "coverage/coverage_graph.h"
#include "fault/failpoint.h"
#include "obs/solver_stats.h"
#include "ontology/cellphone_hierarchy.h"
#include "ontology/snomed_like.h"
#include "solver/exhaustive.h"
#include "solver/greedy.h"
#include "solver/ilp_summarizer.h"
#include "solver/local_search.h"
#include "solver/randomized_rounding.h"

namespace osrs {
namespace {

/// Random k-Pairs instance over a small synthetic ontology (mirrors the
/// helper of solver_test.cpp).
struct Instance {
  Ontology ontology;
  std::vector<ConceptSentimentPair> pairs;
};

Instance MakeInstance(uint64_t seed, int num_pairs, int num_concepts = 60) {
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
    double s = std::clamp(rng.NextGaussian(0.1, 0.5), -1.0, 1.0);
    instance.pairs.push_back({c, s});
  }
  return instance;
}

ExecutionBudget CancelledBudget(const CancellationFlag* flag) {
  ExecutionBudget budget;
  budget.AddCancellation(flag);
  return budget;
}

/// An item whose pair-granularity ILP is far too large for a ~50 ms
/// deadline: `num_pairs` distinct candidates give a k-median LP with
/// num_pairs^2 assignment variables.
Item AdversarialItem(const Ontology& onto, int num_pairs) {
  std::vector<ConceptId> concepts;
  for (const char* name : {"screen", "battery", "price", "camera"}) {
    ConceptId id = onto.FindByName(name);
    if (id != kInvalidConcept) concepts.push_back(id);
  }
  Item item;
  item.id = "adversarial";
  Review review;
  for (int i = 0; i < num_pairs; ++i) {
    double sentiment = -1.0 + 2.0 * i / std::max(1, num_pairs - 1);
    review.sentences.push_back(
        {"s" + std::to_string(i),
         {{concepts[static_cast<size_t>(i) % concepts.size()], sentiment}}});
  }
  item.reviews.push_back(std::move(review));
  return item;
}

Item SmallItem(const Ontology& onto) {
  ConceptId screen = onto.FindByName("screen");
  ConceptId battery = onto.FindByName("battery");
  Item item;
  item.id = "phone-x";
  Review review;
  review.sentences.push_back({"screen is great", {{screen, 0.75}}});
  review.sentences.push_back({"battery is awful", {{battery, -0.9}}});
  item.reviews.push_back(std::move(review));
  return item;
}

// ----------------------------------------- cancellation, every algorithm --

TEST(BudgetCancellationTest, GreedyEagerStopsCancelled) {
  Instance inst = MakeInstance(11, 60);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  GreedyOptions options;
  options.heap = GreedyOptions::Heap::kEager;
  CancellationFlag flag;
  flag.Cancel();
  auto result = GreedySummarizer(options).Summarize(graph, 10,
                                                    CancelledBudget(&flag));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(BudgetCancellationTest, GreedyLazyStopsCancelled) {
  Instance inst = MakeInstance(12, 60);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  GreedyOptions options;
  options.heap = GreedyOptions::Heap::kLazy;
  CancellationFlag flag;
  flag.Cancel();
  auto result = GreedySummarizer(options).Summarize(graph, 10,
                                                    CancelledBudget(&flag));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(BudgetCancellationTest, IlpStopsCancelled) {
  Instance inst = MakeInstance(13, 40);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  CancellationFlag flag;
  flag.Cancel();
  auto result = IlpSummarizer().Summarize(graph, 5, CancelledBudget(&flag));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(BudgetCancellationTest, RandomizedRoundingStopsCancelled) {
  Instance inst = MakeInstance(14, 40);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  CancellationFlag flag;
  flag.Cancel();
  auto result = RandomizedRoundingSummarizer().Summarize(
      graph, 5, CancelledBudget(&flag));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(BudgetCancellationTest, LocalSearchStopsCancelled) {
  Instance inst = MakeInstance(15, 60);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  CancellationFlag flag;
  flag.Cancel();
  auto result = LocalSearchSummarizer().Summarize(graph, 10,
                                                  CancelledBudget(&flag));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(BudgetCancellationTest, ExhaustiveStopsCancelled) {
  Instance inst = MakeInstance(16, 18);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  CancellationFlag flag;
  flag.Cancel();
  auto result = ExhaustiveSummarizer().Summarize(graph, 6,
                                                 CancelledBudget(&flag));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(BudgetCancellationTest, IlpCancelledMidSolveFromAnotherThread) {
  Instance inst = MakeInstance(17, 160);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  CancellationFlag flag;
  std::thread canceller([&flag]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    flag.Cancel();
  });
  Stopwatch watch;
  auto result = IlpSummarizer().Summarize(graph, 8, CancelledBudget(&flag));
  double elapsed = watch.ElapsedSeconds();
  canceller.join();
  // Either the solve was genuinely interrupted (kCancelled) or it was so
  // fast it beat the canceller; both are fine, hanging is not.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  EXPECT_LT(elapsed, 30.0);
}

// --------------------------------------------------------------- deadline --

TEST(BudgetDeadlineTest, ExpiredDeadlineRejectsAllSolvers) {
  Instance inst = MakeInstance(21, 40);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  ExecutionBudget expired = ExecutionBudget::FromDeadlineMs(-1.0);
  EXPECT_EQ(GreedySummarizer().Summarize(graph, 5, expired).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(IlpSummarizer().Summarize(graph, 5, expired).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(
      RandomizedRoundingSummarizer().Summarize(graph, 5, expired)
          .status().code(),
      StatusCode::kDeadlineExceeded);
  EXPECT_EQ(
      LocalSearchSummarizer().Summarize(graph, 5, expired).status().code(),
      StatusCode::kDeadlineExceeded);
  EXPECT_EQ(
      ExhaustiveSummarizer().Summarize(graph, 5, expired).status().code(),
      StatusCode::kDeadlineExceeded);
}

TEST(BudgetDeadlineTest, TinyDeadlineOnLargeIlpReturnsPromptly) {
  Instance inst = MakeInstance(22, 160);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  Stopwatch watch;
  auto result = IlpSummarizer().Summarize(
      graph, 8, ExecutionBudget::FromDeadlineMs(25.0));
  double elapsed = watch.ElapsedSeconds();
  EXPECT_LT(elapsed, 30.0);
  if (result.ok()) {
    // Budget tripped mid-search with an incumbent: must be flagged.
    if (result->approximate) {
      EXPECT_NE(result->stop_reason, StatusCode::kOk);
    }
  } else {
    EXPECT_TRUE(
        result.status().code() == StatusCode::kDeadlineExceeded ||
        result.status().code() == StatusCode::kResourceExhausted)
        << result.status().ToString();
  }
}

// ------------------------------------------------ deterministic work budget --

TEST(BudgetWorkTest, GreedyReturnsPartialIncumbentFlaggedApproximate) {
  Instance inst = MakeInstance(31, 80);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  ExecutionBudget budget;
  budget.SetMaxWork(1);  // trips after the first round's gain recomputes
  auto result = GreedySummarizer().Summarize(graph, 20, budget);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->approximate);
  EXPECT_EQ(result->stop_reason, StatusCode::kResourceExhausted);
  EXPECT_GE(result->selected.size(), 1u);
  EXPECT_LT(result->selected.size(), 20u);
}

TEST(BudgetWorkTest, WorkBudgetIsDeterministic) {
  Instance inst = MakeInstance(32, 80);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  ExecutionBudget budget;
  budget.SetMaxWork(3);
  auto a = GreedySummarizer().Summarize(graph, 20, budget);
  auto b = GreedySummarizer().Summarize(graph, 20, budget);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->selected, b->selected);
  EXPECT_DOUBLE_EQ(a->cost, b->cost);
  EXPECT_EQ(a->approximate, b->approximate);
  EXPECT_EQ(a->stop_reason, b->stop_reason);
}

TEST(BudgetWorkTest, ExhaustiveRefusesPartialEnumeration) {
  Instance inst = MakeInstance(33, 20);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(dist, inst.pairs).value();
  ExecutionBudget budget;
  budget.SetMaxWork(2000);  // C(20, 10) = 184756 combinations, far more
  auto result = ExhaustiveSummarizer().Summarize(graph, 10, budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// ------------------------------------------------- facade fallback chain --

TEST(FacadeFallbackTest, FallsBackToGreedyOnWorkBudget) {
  Ontology onto = BuildCellPhoneHierarchy();
  Item item = AdversarialItem(onto, 60);
  ReviewSummarizerOptions options;
  // The RR work counter includes the LP's simplex iterations, so a budget
  // of 1 trips deterministically before any rounding draw completes.
  options.algorithm = SummaryAlgorithm::kRandomizedRounding;
  options.granularity = SummaryGranularity::kPairs;
  options.max_solver_work = 1;
  options.fallback_chain = {SummaryAlgorithm::kGreedy};
  ReviewSummarizer summarizer(&onto, options);
  auto summary = summarizer.Summarize(item, 5);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary->degraded);
  EXPECT_EQ(summary->algorithm_used, SummaryAlgorithm::kGreedy);
  EXPECT_EQ(summary->stop_reason, StatusCode::kResourceExhausted);
  EXPECT_EQ(summary->entries.size(), 5u);
}

TEST(FacadeFallbackTest, IdenticalBudgetsYieldIdenticalResults) {
  Ontology onto = BuildCellPhoneHierarchy();
  Item item = AdversarialItem(onto, 60);
  ReviewSummarizerOptions options;
  options.algorithm = SummaryAlgorithm::kRandomizedRounding;
  options.granularity = SummaryGranularity::kPairs;
  options.max_solver_work = 1;
  options.fallback_chain = {SummaryAlgorithm::kGreedy};
  ReviewSummarizer summarizer(&onto, options);
  auto a = summarizer.Summarize(item, 5);
  auto b = summarizer.Summarize(item, 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->entries.size(), b->entries.size());
  for (size_t i = 0; i < a->entries.size(); ++i) {
    EXPECT_EQ(a->entries[i].display, b->entries[i].display);
  }
  EXPECT_DOUBLE_EQ(a->cost, b->cost);
  EXPECT_EQ(a->degraded, b->degraded);
  EXPECT_EQ(a->stop_reason, b->stop_reason);
  EXPECT_EQ(a->algorithm_used, b->algorithm_used);
}

TEST(FacadeFallbackTest, CancellationIsNeverAbsorbedByFallbacks) {
  Ontology onto = BuildCellPhoneHierarchy();
  Item item = AdversarialItem(onto, 40);
  CancellationFlag flag;
  flag.Cancel();
  ReviewSummarizerOptions options;
  options.algorithm = SummaryAlgorithm::kIlp;
  options.granularity = SummaryGranularity::kPairs;
  options.cancellation = &flag;
  options.fallback_chain = {SummaryAlgorithm::kGreedy};
  ReviewSummarizer summarizer(&onto, options);
  auto summary = summarizer.Summarize(item, 5);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kCancelled);
}

TEST(FacadeFallbackTest, RetrySameAlgorithmReseedsRandomizedRounding) {
  Ontology onto = BuildCellPhoneHierarchy();
  Item item = AdversarialItem(onto, 30);
  ReviewSummarizerOptions options;
  options.algorithm = SummaryAlgorithm::kRandomizedRounding;
  options.granularity = SummaryGranularity::kPairs;
  options.fallback_chain = {SummaryAlgorithm::kRandomizedRounding,
                            SummaryAlgorithm::kGreedy};
  ReviewSummarizer summarizer(&onto, options);
  // No budget at all: the primary RR succeeds outright and no fallback
  // runs; this test just pins the chain-with-repeats configuration as
  // valid and deterministic.
  auto summary = summarizer.Summarize(item, 4);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_FALSE(summary->degraded);
  EXPECT_EQ(summary->algorithm_used, SummaryAlgorithm::kRandomizedRounding);
  EXPECT_EQ(summary->stop_reason, StatusCode::kOk);
}

// ------------------------------------- greedy fallback continues the run --

/// The value of a solver counter in `stats`, 0 when absent.
int64_t CounterValue(const obs::SolverStats& stats, const std::string& name) {
  for (const auto& counter : stats.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

/// Checks that `summary` is the unbudgeted greedy answer of `item` at k,
/// reached with one heap init.
void ExpectUnbudgetedGreedyWithOneInit(const Ontology& onto, const Item& item,
                                       int k, const ItemSummary& summary) {
  ReviewSummarizerOptions plain;
  plain.granularity = SummaryGranularity::kPairs;
  auto cold = ReviewSummarizer(&onto, plain).Summarize(item, k);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(summary.cost, cold->cost);  // bit for bit
  ASSERT_EQ(summary.entries.size(), cold->entries.size());
  for (size_t i = 0; i < cold->entries.size(); ++i) {
    EXPECT_EQ(summary.entries[i].display, cold->entries[i].display);
  }
  EXPECT_EQ(CounterValue(summary.stats, "candidates_considered"),
            static_cast<int64_t>(summary.num_candidates))
      << "the fallback must continue the primary's run, not redo its init";
  EXPECT_EQ(CounterValue(summary.stats, "greedy_run_starts"), 1);
  EXPECT_EQ(CounterValue(summary.stats, "greedy_run_rounds"), k)
      << "every round runs once";
}

TEST(FacadeFallbackTest, GreedyFallbackContinuesWorkTrippedPrimaryRun) {
  Ontology onto = BuildCellPhoneHierarchy();
  Item item = AdversarialItem(onto, 60);
  ReviewSummarizerOptions options;
  options.granularity = SummaryGranularity::kPairs;
  auto unbudgeted = ReviewSummarizer(&onto, options).Summarize(item, 10);
  ASSERT_TRUE(unbudgeted.ok());
  // The facade's greedy is the lazy heap: its work unit is one gain
  // recompute.
  const int64_t work = CounterValue(unbudgeted->stats, "gain_recomputes");
  ASSERT_GT(work, 1);

  options.max_solver_work = work / 2;
  options.fallback_chain = {SummaryAlgorithm::kGreedy};
  auto summary = ReviewSummarizer(&onto, options).Summarize(item, 10);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary->degraded);
  EXPECT_EQ(summary->stop_reason, StatusCode::kResourceExhausted);
  EXPECT_EQ(summary->algorithm_used, SummaryAlgorithm::kGreedy);
  ExpectUnbudgetedGreedyWithOneInit(onto, item, 10, *summary);
}

TEST(FacadeFallbackTest, GreedyFallbackContinuesFailpointTrippedPrimaryRun) {
  Ontology onto = BuildCellPhoneHierarchy();
  Item item = AdversarialItem(onto, 60);
  ReviewSummarizerOptions options;
  options.granularity = SummaryGranularity::kPairs;
  options.fallback_chain = {SummaryAlgorithm::kGreedy};
  // The 4th round fails: the primary stops after 3 whole rounds and the
  // fallback needs only 2 more (hits 5 and 6). A fallback that started
  // over would hit the 8th evaluation and fail too.
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("osrs.solver.step=error(unavailable):every(4)")
                  .ok());
  auto summary = ReviewSummarizer(&onto, options).Summarize(item, 5);
  fault::FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary->degraded);
  EXPECT_EQ(summary->stop_reason, StatusCode::kUnavailable);
  ExpectUnbudgetedGreedyWithOneInit(onto, item, 5, *summary);
}

TEST(FacadeFallbackTest, ThrowInARoundEmptiesTheRunSlot) {
  Ontology onto = BuildCellPhoneHierarchy();
  Item item = AdversarialItem(onto, 60);
  ReviewSummarizerOptions options;
  options.granularity = SummaryGranularity::kPairs;
  ReviewSummarizer summarizer(&onto, options);
  auto graph = summarizer.BuildGraph(item, 5);
  ASSERT_TRUE(graph.ok());
  const std::shared_ptr<const SummaryGraph> shared = *graph;
  auto source = [&]() -> Result<std::shared_ptr<const SummaryGraph>> {
    return shared;
  };

  // Two whole rounds, then the third throws.
  ASSERT_TRUE(fault::FailpointRegistry::Global()
                  .ArmFromSpec("osrs.solver.step=bad_alloc:every(3)")
                  .ok());
  EXPECT_THROW((void)summarizer.Summarize(item, 5, ExecutionBudget(), source),
               std::bad_alloc);
  fault::FailpointRegistry::Global().DisarmAll();
  EXPECT_EQ(shared->GreedyRunRounds(), -1)
      << "a throwing round must leave the slot empty";

  auto next = summarizer.Summarize(item, 5, ExecutionBudget(), source);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_FALSE(next->degraded);
  EXPECT_EQ(CounterValue(next->stats, "greedy_run_starts"), 1)
      << "a fresh run replaces the lost one";
  EXPECT_EQ(shared->GreedyRunRounds(), 5);
  ExpectUnbudgetedGreedyWithOneInit(onto, item, 5, *next);
}

// ---------------------------------------------------- sentiment validation --

TEST(SentimentValidationTest, RejectsNaNSentiment) {
  Ontology onto = BuildCellPhoneHierarchy();
  Item item = SmallItem(onto);
  item.reviews[0].sentences[0].pairs[0].sentiment =
      std::numeric_limits<double>::quiet_NaN();
  ReviewSummarizer summarizer(&onto, {});
  auto summary = summarizer.Summarize(item, 2);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kInvalidArgument);
}

TEST(SentimentValidationTest, RejectsInfiniteAndOutOfRangeSentiment) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewSummarizer summarizer(&onto, {});
  for (double bad : {std::numeric_limits<double>::infinity(), 1.5, -1.5}) {
    Item item = SmallItem(onto);
    item.reviews[0].sentences[1].pairs[0].sentiment = bad;
    auto summary = summarizer.Summarize(item, 2);
    ASSERT_FALSE(summary.ok()) << "sentiment " << bad << " accepted";
    EXPECT_EQ(summary.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SentimentValidationTest, BoundarySentimentsAreValid) {
  Ontology onto = BuildCellPhoneHierarchy();
  Item item = SmallItem(onto);
  item.reviews[0].sentences[0].pairs[0].sentiment = 1.0;
  item.reviews[0].sentences[1].pairs[0].sentiment = -1.0;
  EXPECT_TRUE(ValidateItem(item).ok());
  ReviewSummarizer summarizer(&onto, {});
  EXPECT_TRUE(summarizer.Summarize(item, 2).ok());
}

// ------------------------------------------------------- batch semantics --

TEST(BatchBudgetTest, NegativeNumThreadsFailsEveryEntry) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<Item> items = {SmallItem(onto), SmallItem(onto)};
  BatchSummarizerOptions options;
  options.num_threads = -2;
  BatchSummarizer batch(&onto, options);
  auto entries = batch.SummarizeAll(items, 2);
  ASSERT_EQ(entries.size(), 2u);
  for (const BatchEntry& entry : entries) {
    EXPECT_EQ(entry.status.code(), StatusCode::kInvalidArgument);
  }
}

TEST(BatchBudgetTest, NegativeKFailsPerItemAndZeroKIsEmpty) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<Item> items = {SmallItem(onto), SmallItem(onto)};
  BatchSummarizer batch(&onto, {});
  auto negative = batch.SummarizeAll(items, -1);
  ASSERT_EQ(negative.size(), 2u);
  for (const BatchEntry& entry : negative) {
    EXPECT_EQ(entry.status.code(), StatusCode::kInvalidArgument);
  }
  auto zero = batch.SummarizeAll(items, 0);
  ASSERT_EQ(zero.size(), 2u);
  for (const BatchEntry& entry : zero) {
    EXPECT_TRUE(entry.status.ok());
    EXPECT_TRUE(entry.summary.entries.empty());
  }
}

TEST(BatchBudgetTest, AdversarialIlpItemDegradesUnderPerItemDeadline) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<Item> items = {SmallItem(onto), AdversarialItem(onto, 150),
                             SmallItem(onto)};
  BatchSummarizerOptions options;
  options.summarizer.algorithm = SummaryAlgorithm::kIlp;
  options.summarizer.granularity = SummaryGranularity::kPairs;
  options.summarizer.deadline_ms = 50.0;
  options.summarizer.fallback_chain = {SummaryAlgorithm::kGreedy};
  options.num_threads = 2;
  BatchSummarizer batch(&onto, options);
  Stopwatch watch;
  auto entries = batch.SummarizeAll(items, 5);
  double elapsed = watch.ElapsedSeconds();
  EXPECT_LT(elapsed, 30.0) << "batch did not return promptly";
  ASSERT_EQ(entries.size(), 3u);
  // The fast items solve exactly within their deadline.
  EXPECT_TRUE(entries[0].status.ok()) << entries[0].status.ToString();
  EXPECT_TRUE(entries[2].status.ok()) << entries[2].status.ToString();
  // The adversarial item either degraded along the fallback chain or
  // reported the deadline; silence or a hang would be the bug.
  const BatchEntry& slow = entries[1];
  if (slow.status.ok()) {
    EXPECT_TRUE(slow.summary.degraded);
    EXPECT_EQ(slow.summary.algorithm_used, SummaryAlgorithm::kGreedy);
    EXPECT_EQ(slow.summary.stop_reason, StatusCode::kDeadlineExceeded);
  } else {
    EXPECT_EQ(slow.status.code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(BatchBudgetTest, BatchDeadlineStampsUnstartedItems) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<Item> items;
  for (int i = 0; i < 6; ++i) items.push_back(AdversarialItem(onto, 120));
  BatchSummarizerOptions options;
  options.summarizer.algorithm = SummaryAlgorithm::kIlp;
  options.summarizer.granularity = SummaryGranularity::kPairs;
  options.summarizer.fallback_chain = {SummaryAlgorithm::kGreedy};
  options.batch_deadline_ms = 40.0;
  options.num_threads = 2;
  BatchSummarizer batch(&onto, options);
  Stopwatch watch;
  auto entries = batch.SummarizeAll(items, 5);
  double elapsed = watch.ElapsedSeconds();
  EXPECT_LT(elapsed, 30.0) << "batch did not return promptly";
  ASSERT_EQ(entries.size(), items.size());
  for (const BatchEntry& entry : entries) {
    if (entry.status.ok()) {
      // In-flight items degrade through the chain; completed ones carry a
      // well-formed summary either way.
      EXPECT_LE(entry.summary.entries.size(), 5u);
    } else {
      EXPECT_EQ(entry.status.code(), StatusCode::kDeadlineExceeded)
          << entry.status.ToString();
    }
  }
}

TEST(BatchBudgetTest, PreCancelledBatchStampsEveryItemCancelled) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<Item> items = {SmallItem(onto), SmallItem(onto),
                             SmallItem(onto)};
  CancellationFlag flag;
  flag.Cancel();
  BatchSummarizerOptions options;
  options.cancellation = &flag;
  BatchSummarizer batch(&onto, options);
  auto entries = batch.SummarizeAll(items, 2);
  ASSERT_EQ(entries.size(), 3u);
  for (const BatchEntry& entry : entries) {
    EXPECT_EQ(entry.status.code(), StatusCode::kCancelled);
  }
}

// ----------------------------------------------------- ToJson diagnostics --

TEST(ItemSummaryJsonTest, EscapesDisplayAndRendersDiagnostics) {
  ItemSummary summary;
  summary.degraded = true;
  summary.algorithm_used = SummaryAlgorithm::kGreedy;
  summary.stop_reason = StatusCode::kDeadlineExceeded;
  SummaryEntry entry;
  entry.display = "say \"hi\"\nback\\slash";
  summary.entries.push_back(entry);
  std::string json = summary.ToJson();
  EXPECT_NE(json.find("\\\"hi\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos) << json;
  EXPECT_NE(json.find("\\\\slash"), std::string::npos) << json;
  EXPECT_NE(json.find("\"diagnostics\":{\"degraded\":true,"
                      "\"algorithm\":\"Greedy\","
                      "\"stop_reason\":\"DeadlineExceeded\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"stats\":{\"phases\":{},\"counters\":{}}}"),
            std::string::npos)
      << json;
  summary.stats.counters.push_back({"greedy_run_rounds", 7});
  EXPECT_NE(summary.ToJson().find("\"counters\":{\"greedy_run_rounds\":7}}"),
            std::string::npos);
  // No raw control characters or unescaped quotes inside string values.
  for (char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
}

}  // namespace
}  // namespace osrs
