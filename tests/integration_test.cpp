// End-to-end integration tests: miniature versions of the paper's
// experiments, pinning the qualitative SHAPES the benches report so a
// regression in any layer (datagen → extraction → graph → solver → eval)
// surfaces as a test failure rather than a silently drifting figure.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "api/annotator.h"
#include "api/review_summarizer.h"
#include "baselines/coverage_selector.h"
#include "baselines/most_popular.h"
#include "baselines/sentence_selector.h"
#include "baselines/textrank.h"
#include "core/cost.h"
#include "coverage/item_graph.h"
#include "datagen/cellphone_corpus.h"
#include "datagen/doctor_corpus.h"
#include "eval/elbow.h"
#include "eval/sent_err.h"
#include "solver/greedy.h"
#include "solver/ilp_summarizer.h"
#include "solver/randomized_rounding.h"

namespace osrs {
namespace {

class QuantitativeShape : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    DoctorCorpusOptions options;
    options.scale = 0.005;  // 5 doctors
    options.ontology_concepts = 800;
    corpus_ = new Corpus(GenerateDoctorCorpus(options));
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  static const Corpus* corpus_;
};

const Corpus* QuantitativeShape::corpus_ = nullptr;

TEST_F(QuantitativeShape, Figure5CostOrderingHolds) {
  // ILP <= RR and ILP <= Greedy on every item and granularity; average
  // cost decreases from pairs to sentences to reviews.
  PairDistance distance(&corpus_->ontology, 0.5);
  const int k = 5;
  double avg_cost[3] = {0, 0, 0};
  int granularity_index = 0;
  for (SummaryGranularity granularity :
       {SummaryGranularity::kPairs, SummaryGranularity::kSentences,
        SummaryGranularity::kReviews}) {
    for (const Item& item : corpus_->items) {
      Item capped = TruncateToPairBudget(item, 150);
      ItemGraph graph =
          TryBuildItemGraph(distance, capped, granularity).value();
      int effective_k = std::min(k, graph.graph.num_candidates());
      auto ilp = IlpSummarizer().Summarize(graph.graph, effective_k);
      auto rr = RandomizedRoundingSummarizer().Summarize(graph.graph,
                                                         effective_k);
      auto greedy = GreedySummarizer().Summarize(graph.graph, effective_k);
      ASSERT_TRUE(ilp.ok()) << ilp.status().ToString();
      ASSERT_TRUE(rr.ok());
      ASSERT_TRUE(greedy.ok());
      EXPECT_LE(ilp->cost, rr->cost + 1e-9);
      EXPECT_LE(ilp->cost, greedy->cost + 1e-9);
      // §5.2 observes greedy within 8% of optimal on full-size items;
      // these miniature capped instances can gap slightly wider, so pin a
      // loose 20% regression bound here (the bench reports the real gap).
      if (ilp->cost > 0) {
        EXPECT_LE(greedy->cost, ilp->cost * 1.20 + 1e-9);
      }
      avg_cost[granularity_index] += ilp->cost;
    }
    ++granularity_index;
  }
  EXPECT_LT(avg_cost[1], avg_cost[0]);  // sentences < pairs
  EXPECT_LT(avg_cost[2], avg_cost[1]);  // reviews < sentences
}

TEST_F(QuantitativeShape, Figure4GreedyIsFastest) {
  PairDistance distance(&corpus_->ontology, 0.5);
  Item capped = TruncateToPairBudget(corpus_->items[0], 150);
  ItemGraph graph =
      TryBuildItemGraph(distance, capped, SummaryGranularity::kPairs).value();
  auto ilp = IlpSummarizer().Summarize(graph.graph, 5);
  auto greedy = GreedySummarizer().Summarize(graph.graph, 5);
  ASSERT_TRUE(ilp.ok());
  ASSERT_TRUE(greedy.ok());
  EXPECT_LT(greedy->seconds, ilp->seconds);
}

TEST_F(QuantitativeShape, CostDecreasesInK) {
  PairDistance distance(&corpus_->ontology, 0.5);
  Item capped = TruncateToPairBudget(corpus_->items[1], 150);
  ItemGraph graph =
      TryBuildItemGraph(distance, capped, SummaryGranularity::kSentences)
          .value();
  GreedySummarizer greedy;
  double previous = graph.graph.EmptySummaryCost();
  for (int k = 1; k <= std::min(10, graph.graph.num_candidates()); ++k) {
    auto result = greedy.Summarize(graph.graph, k);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->cost, previous + 1e-9);
    previous = result->cost;
  }
}

TEST(QualitativeShape, Figure6OursBeatsBaselines) {
  CellPhoneCorpusOptions options;
  options.scale = 0.05;
  Corpus corpus = GenerateCellPhoneCorpus(options);
  const int k = 6;
  double ours_err = 0, popular_err = 0, textrank_err = 0;
  double ours_pen = 0, popular_pen = 0, textrank_pen = 0;
  for (const Item& item : corpus.items) {
    auto candidates = BuildCandidates(item);
    if (candidates.size() > 200) candidates.resize(200);
    std::vector<ConceptSentimentPair> all_pairs;
    for (const auto& candidate : candidates) {
      all_pairs.insert(all_pairs.end(), candidate.pairs.begin(),
                       candidate.pairs.end());
    }
    CoverageGreedySelector ours(&corpus.ontology);
    MostPopularSelector popular;
    TextRankSelector textrank;
    auto score = [&](SentenceSelector& selector, double& plain,
                     double& penalized) {
      auto selected = selector.Select(candidates, k);
      ASSERT_TRUE(selected.ok());
      auto pairs = PairsOfSelection(candidates, *selected);
      plain += SentErr(corpus.ontology, all_pairs, pairs, false);
      penalized += SentErr(corpus.ontology, all_pairs, pairs, true);
    };
    score(ours, ours_err, ours_pen);
    score(popular, popular_err, popular_pen);
    score(textrank, textrank_err, textrank_pen);
  }
  EXPECT_LT(ours_err, popular_err);
  EXPECT_LT(ours_err, textrank_err);
  EXPECT_LT(ours_pen, popular_pen);
  EXPECT_LT(ours_pen, textrank_pen);
}

TEST(QualitativeShape, ElbowLandsNearHalf) {
  DoctorCorpusOptions options;
  options.scale = 0.004;
  options.ontology_concepts = 800;
  Corpus corpus = GenerateDoctorCorpus(options);
  Item capped = TruncateToPairBudget(corpus.items[0], 250);
  auto pairs = PairsOf(CollectPairs(capped));
  ElbowResult result =
      SelectEpsilonByElbow(corpus.ontology, pairs, 8,
                           {0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0, 1.5})
          .value();
  // The generator's sentiment clusters make the knee land in the paper's
  // neighborhood of 0.5.
  EXPECT_GE(result.chosen_epsilon, 0.2);
  EXPECT_LE(result.chosen_epsilon, 1.0);
}

TEST(PipelineShape, RawTextPipelineSupportsAllAlgorithms) {
  // The full path: generate text, strip annotations, re-annotate through
  // extraction+sentiment, then run every facade algorithm.
  CellPhoneCorpusOptions options;
  options.scale = 0.02;
  Corpus corpus = GenerateCellPhoneCorpus(options);
  ReviewAnnotator annotator(&corpus.ontology,
                            SentimentEstimator::LexiconOnly());
  Item item = TruncateToPairBudget(corpus.items[0], 200);
  ASSERT_TRUE(annotator.Annotate(item).ok());
  double ilp_cost = -1;
  for (SummaryAlgorithm algorithm :
       {SummaryAlgorithm::kIlp, SummaryAlgorithm::kGreedy,
        SummaryAlgorithm::kRandomizedRounding,
        SummaryAlgorithm::kLocalSearch}) {
    ReviewSummarizerOptions summarizer_options;
    summarizer_options.algorithm = algorithm;
    ReviewSummarizer summarizer(&corpus.ontology, summarizer_options);
    auto summary = summarizer.Summarize(item, 5);
    ASSERT_TRUE(summary.ok()) << SummaryAlgorithmToString(algorithm) << ": "
                              << summary.status().ToString();
    EXPECT_EQ(summary->entries.size(), 5u);
    if (algorithm == SummaryAlgorithm::kIlp) {
      ilp_cost = summary->cost;
    } else {
      EXPECT_GE(summary->cost, ilp_cost - 1e-9);
    }
  }
}

}  // namespace
}  // namespace osrs
