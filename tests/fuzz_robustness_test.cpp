// Robustness "fuzz" tests: the deserializers must return a Status (never
// crash, throw, or abort) on arbitrarily mutated inputs, and accepted
// inputs must satisfy the class invariants.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "api/batch_summarizer.h"
#include "common/rng.h"
#include "datagen/cellphone_corpus.h"
#include "datagen/corpus_io.h"
#include "ontology/ontology.h"
#include "ontology/snomed_like.h"

namespace osrs {
namespace {

/// Applies `count` random byte-level mutations (replace, insert, delete).
std::string Mutate(std::string text, Rng& rng, int count) {
  static constexpr char kBytes[] =
      "CEISORD\t\n0123456789abcxyz|:.-# ";
  for (int i = 0; i < count && !text.empty(); ++i) {
    size_t pos = rng.NextUint64(text.size());
    switch (rng.NextUint64(3)) {
      case 0:
        text[pos] = kBytes[rng.NextUint64(sizeof(kBytes) - 1)];
        break;
      case 1:
        text.insert(text.begin() + static_cast<long>(pos),
                    kBytes[rng.NextUint64(sizeof(kBytes) - 1)]);
        break;
      default:
        text.erase(text.begin() + static_cast<long>(pos));
        break;
    }
  }
  return text;
}

class FuzzRobustness : public testing::TestWithParam<uint64_t> {};

TEST_P(FuzzRobustness, OntologyDeserializeNeverCrashes) {
  SnomedLikeOptions options;
  options.num_concepts = 60;
  options.seed = GetParam();
  std::string serialized = BuildSnomedLikeOntology(options).Serialize();
  Rng rng(GetParam() * 99 + 1);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = Mutate(serialized, rng, 1 + trial % 12);
    auto result = Ontology::Deserialize(mutated);
    if (result.ok()) {
      // Whatever was accepted must be a coherent finalized DAG.
      EXPECT_TRUE(result->finalized());
      EXPECT_GE(result->num_concepts(), 1u);
      EXPECT_GE(result->max_depth(), 0);
    }
  }
}

TEST_P(FuzzRobustness, CorpusLoadNeverCrashes) {
  CellPhoneCorpusOptions options;
  options.scale = 0.02;
  options.seed = GetParam();
  Corpus corpus = GenerateCellPhoneCorpus(options);
  // Trim to one item so mutation rounds stay fast.
  corpus.items.resize(1);
  corpus.items[0] = TruncateReviews(corpus.items[0], 10);
  auto serialized = SaveCorpus(corpus);
  ASSERT_TRUE(serialized.ok());
  Rng rng(GetParam() * 77 + 3);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = Mutate(*serialized, rng, 1 + trial % 12);
    auto result = LoadCorpus(mutated);
    if (result.ok()) {
      EXPECT_TRUE(result->ontology.finalized());
    }
  }
}

TEST_P(FuzzRobustness, PureGarbageIsRejectedGracefully) {
  Rng rng(GetParam() * 1234 + 5);
  for (int trial = 0; trial < 100; ++trial) {
    std::string garbage;
    size_t length = rng.NextUint64(120);
    for (size_t i = 0; i < length; ++i) {
      garbage.push_back(static_cast<char>(rng.NextUint64(96) + 32));
    }
    (void)Ontology::Deserialize(garbage);
    (void)LoadCorpus(garbage);
    // Reaching here without a crash is the assertion.
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRobustness,
                         testing::Values(1u, 2u, 3u, 4u));

// ------------------------------------------ deadline/cancellation fuzzing --

SummaryAlgorithm RandomAlgorithm(Rng& rng) {
  // Draws 0 and 1 are both greedy (1 was the lazy-heap variant, now the
  // facade's one greedy), so every seed keeps its draws.
  switch (rng.NextUint64(5)) {
    case 0:
    case 1: return SummaryAlgorithm::kGreedy;
    case 2: return SummaryAlgorithm::kIlp;
    case 3: return SummaryAlgorithm::kRandomizedRounding;
    default: return SummaryAlgorithm::kLocalSearch;
  }
}

/// Random tiny deadlines, work budgets, thread counts, and mid-batch
/// cancellation must never crash, deadlock, or produce a malformed batch:
/// exactly one entry per item, each OK (entries within k and flagged
/// consistently), kDeadlineExceeded, or kCancelled.
TEST_P(FuzzRobustness, TinyBudgetsNeverCrashOrMalformBatches) {
  CellPhoneCorpusOptions corpus_options;
  corpus_options.scale = 0.02;
  corpus_options.seed = GetParam();
  Corpus corpus = GenerateCellPhoneCorpus(corpus_options);
  corpus.items.resize(std::min<size_t>(corpus.items.size(), 4));
  for (Item& item : corpus.items) item = TruncateReviews(item, 12);

  Rng rng(GetParam() * 313 + 7);
  for (int trial = 0; trial < 12; ++trial) {
    CancellationFlag flag;
    BatchSummarizerOptions options;
    options.summarizer.algorithm = RandomAlgorithm(rng);
    options.summarizer.deadline_ms =
        rng.NextBernoulli(0.7) ? static_cast<double>(rng.NextUint64(8)) : 0.0;
    if (rng.NextBernoulli(0.5)) {
      options.summarizer.max_solver_work =
          static_cast<int64_t>(1 + rng.NextUint64(200));
    }
    options.batch_deadline_ms =
        rng.NextBernoulli(0.3) ? static_cast<double>(rng.NextUint64(15)) : 0.0;
    options.num_threads = static_cast<int>(rng.NextUint64(4));
    options.cancellation = &flag;
    const bool cancel_midway = rng.NextBernoulli(0.3);
    // Draw the delay on this thread: Rng is not thread-safe.
    const uint64_t cancel_after_ms = rng.NextUint64(5);
    std::thread canceller;
    if (cancel_midway) {
      canceller = std::thread([&flag, cancel_after_ms]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(cancel_after_ms));
        flag.Cancel();
      });
    }
    int k = static_cast<int>(rng.NextUint64(6));

    BatchSummarizer batch(&corpus.ontology, options);
    auto entries = batch.SummarizeAll(corpus.items, k);
    if (canceller.joinable()) canceller.join();

    ASSERT_EQ(entries.size(), corpus.items.size());
    for (const BatchEntry& entry : entries) {
      if (entry.status.ok()) {
        EXPECT_LE(entry.summary.entries.size(), static_cast<size_t>(k));
        if (entry.summary.degraded) {
          EXPECT_NE(entry.summary.stop_reason, StatusCode::kOk);
        }
        // The JSON rendering of any produced summary stays well-formed
        // (no raw control characters from review text).
        for (char c : entry.summary.ToJson()) {
          EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
        }
      } else {
        EXPECT_TRUE(
            entry.status.code() == StatusCode::kDeadlineExceeded ||
            entry.status.code() == StatusCode::kCancelled)
            << entry.status.ToString();
      }
    }
  }
}

/// The fallback chain is deterministic under identical (work-based)
/// budgets: wall-clock plays no part, so two runs agree entry for entry.
TEST_P(FuzzRobustness, FallbackChainDeterministicUnderWorkBudgets) {
  CellPhoneCorpusOptions corpus_options;
  corpus_options.scale = 0.02;
  corpus_options.seed = GetParam();
  Corpus corpus = GenerateCellPhoneCorpus(corpus_options);
  corpus.items.resize(std::min<size_t>(corpus.items.size(), 3));
  for (Item& item : corpus.items) item = TruncateReviews(item, 12);

  Rng rng(GetParam() * 517 + 9);
  for (int trial = 0; trial < 6; ++trial) {
    BatchSummarizerOptions options;
    options.summarizer.algorithm = RandomAlgorithm(rng);
    options.summarizer.max_solver_work =
        static_cast<int64_t>(1 + rng.NextUint64(50));
    options.summarizer.fallback_chain = {SummaryAlgorithm::kGreedy};
    options.num_threads = 2;
    int k = static_cast<int>(1 + rng.NextUint64(5));

    BatchSummarizer batch(&corpus.ontology, options);
    auto a = batch.SummarizeAll(corpus.items, k);
    auto b = batch.SummarizeAll(corpus.items, k);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].status.code(), b[i].status.code());
      EXPECT_EQ(a[i].summary.degraded, b[i].summary.degraded);
      EXPECT_EQ(a[i].summary.stop_reason, b[i].summary.stop_reason);
      EXPECT_EQ(a[i].summary.algorithm_used, b[i].summary.algorithm_used);
      ASSERT_EQ(a[i].summary.entries.size(), b[i].summary.entries.size());
      for (size_t j = 0; j < a[i].summary.entries.size(); ++j) {
        EXPECT_EQ(a[i].summary.entries[j].display,
                  b[i].summary.entries[j].display);
      }
    }
  }
}

}  // namespace
}  // namespace osrs
