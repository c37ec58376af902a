// Chaos tests of the fault-injection subsystem (src/fault/failpoint.h)
// and the resilience machinery built on it: the BatchSummarizer exception
// boundary, the transient-failure RetryPolicy, and the per-item isolation
// guarantee. The core of the file is a randomized campaign: 200+ failpoint
// schedules — random subsets of the production sites armed with random
// actions and triggers — each driven through a full batch, asserting the
// invariants the subsystem promises:
//
//   * the process never dies (bad_alloc injections are isolated);
//   * SummarizeAll returns exactly one coherent entry per item;
//   * per-entry retry counts never exceed the policy budget;
//   * single-threaded schedules are bit-reproducible under a fixed seed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/annotator.h"
#include "api/batch_summarizer.h"
#include "api/review_summarizer.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/status.h"
#include "common/strings.h"
#include "core/model.h"
#include "datagen/corpus_io.h"
#include "fault/failpoint.h"
#include "ontology/cellphone_hierarchy.h"
#include "ontology/ontology.h"

namespace osrs {
namespace {

using fault::FailAction;
using fault::Failpoint;
using fault::FailpointRegistry;
using fault::FailpointSpec;
using fault::FailTrigger;
using fault::ParseFailpointSpec;

/// The failpoint sites the batch pipeline evaluates per solve attempt.
constexpr const char* kBatchSites[] = {
    "osrs.coverage.alloc",
    "osrs.solver.step",
    "osrs.lp.pivot",
};

/// RAII: every test starts and ends with a fully disarmed registry, so a
/// failed EXPECT cannot leak an armed failpoint into the next test.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }
};

class FailpointSpecTest : public ChaosTest {};
class FailpointTriggerTest : public ChaosTest {};
class FailpointRegistryTest : public ChaosTest {};
class ExceptionBoundaryTest : public ChaosTest {};
class RetryPolicyTest : public ChaosTest {};
class AnnotationFailpointTest : public ChaosTest {};
class DeadlineRetryTest : public ChaosTest {};
class IoFailpointTest : public ChaosTest {};
class ChaosCampaignTest : public ChaosTest {};

Item SmallItem(const Ontology& onto, const std::string& id) {
  ConceptId screen = onto.FindByName("screen");
  ConceptId battery = onto.FindByName("battery");
  Item item;
  item.id = id;
  Review review;
  review.sentences.push_back({"screen is great", {{screen, 0.75}}});
  review.sentences.push_back({"battery is awful", {{battery, -0.9}}});
  item.reviews.push_back(std::move(review));
  return item;
}

/// A small random item over the cell-phone ontology: a handful of
/// sentences, each carrying one or two random concept-sentiment pairs.
Item RandomItem(const Ontology& onto, Rng& rng, const std::string& id) {
  Item item;
  item.id = id;
  Review review;
  int num_sentences = static_cast<int>(rng.NextInt(3, 7));
  for (int s = 0; s < num_sentences; ++s) {
    Sentence sentence;
    sentence.text = id + "-s" + std::to_string(s);
    int num_pairs = static_cast<int>(rng.NextInt(1, 2));
    for (int p = 0; p < num_pairs; ++p) {
      ConceptId c = static_cast<ConceptId>(
          1 + rng.NextUint64(onto.num_concepts() - 1));
      double sentiment =
          std::clamp(rng.NextGaussian(0.0, 0.6), -1.0, 1.0);
      sentence.pairs.push_back({c, sentiment});
    }
    review.sentences.push_back(std::move(sentence));
  }
  item.reviews.push_back(std::move(review));
  return item;
}

/// Semantic fingerprint of one batch entry: status, retry accounting, and
/// every solution field of the summary — but none of the timing fields
/// (budget_spent_ms, solver_seconds, stats), which legitimately vary
/// between runs.
std::string Fingerprint(const BatchEntry& entry) {
  std::string out = StrFormat(
      "status=%s retries=%d exhausted=%d isolated=%d",
      StatusCodeToString(entry.status.code()), entry.retries,
      entry.exhausted_retries ? 1 : 0, entry.isolated_exception ? 1 : 0);
  if (!entry.status.ok()) {
    out += " msg=" + entry.status.message();
    return out;
  }
  const ItemSummary& s = entry.summary;
  out += StrFormat(
      " cost=%.17g eps=%.17g pairs=%zu cands=%zu edges=%zu degraded=%d "
      "algo=%s stop=%s",
      s.cost, s.epsilon, s.num_pairs, s.num_candidates, s.num_edges,
      s.degraded ? 1 : 0, SummaryAlgorithmToString(s.algorithm_used),
      StatusCodeToString(s.stop_reason));
  for (const SummaryEntry& e : s.entries) {
    out += StrFormat(" [%s|%d|%.17g|%d|%d]", e.display.c_str(),
                     e.pair.concept_id, e.pair.sentiment, e.review_index,
                     e.sentence_index);
  }
  return out;
}

// ------------------------------------------------------------ spec grammar --

TEST_F(FailpointSpecTest, ParsesErrorActionWithEveryTrigger) {
  auto parsed =
      ParseFailpointSpec("osrs.io.read=error(unavailable):every(3)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->first, "osrs.io.read");
  EXPECT_EQ(parsed->second.action, FailAction::kError);
  EXPECT_EQ(parsed->second.code, StatusCode::kUnavailable);
  EXPECT_EQ(parsed->second.trigger, FailTrigger::kEveryNth);
  EXPECT_EQ(parsed->second.n, 3);
}

TEST_F(FailpointSpecTest, DefaultTriggerIsAlways) {
  auto parsed = ParseFailpointSpec("x=bad_alloc");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->second.action, FailAction::kThrowBadAlloc);
  EXPECT_EQ(parsed->second.trigger, FailTrigger::kAlways);
}

TEST_F(FailpointSpecTest, ParsesDelayWithTimes) {
  auto parsed = ParseFailpointSpec(" x = delay(2.5) : times(4) ");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->second.action, FailAction::kDelay);
  EXPECT_DOUBLE_EQ(parsed->second.delay_ms, 2.5);
  EXPECT_EQ(parsed->second.trigger, FailTrigger::kTimes);
  EXPECT_EQ(parsed->second.n, 4);
}

TEST_F(FailpointSpecTest, ParsesProbabilityWithSeed) {
  auto parsed = ParseFailpointSpec("x=error(internal):prob(0.25,99)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->second.code, StatusCode::kInternal);
  EXPECT_EQ(parsed->second.trigger, FailTrigger::kProbability);
  EXPECT_DOUBLE_EQ(parsed->second.probability, 0.25);
  EXPECT_EQ(parsed->second.seed, 99u);
}

TEST_F(FailpointSpecTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "no-equals-sign",            // missing '='
      "=error(internal)",          // empty name
      "x=error(bogus_code)",       // unknown status code
      "x=error(ok)",               // cannot inject OK
      "x=frobnicate",              // unknown action
      "x=bad_alloc(3)",            // bad_alloc takes no args
      "x=delay(-1)",               // negative delay
      "x=error(internal):every(0)",   // every() needs >= 1
      "x=error(internal):prob(1.5)",  // p out of range
      "x=error(internal):never",      // unknown trigger
  };
  for (const char* spec : bad) {
    auto parsed = ParseFailpointSpec(spec);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << spec;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

// ------------------------------------------------------- trigger semantics --

TEST_F(FailpointTriggerTest, OnceFiresExactlyOnce) {
  Failpoint* fp = FailpointRegistry::Global().Get("chaos.test.once");
  FailpointSpec spec;
  spec.trigger = FailTrigger::kOnce;
  fp->Arm(spec);
  EXPECT_FALSE(fp->Evaluate().ok());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(fp->Evaluate().ok());
  EXPECT_EQ(fp->hits(), 11);
  EXPECT_EQ(fp->injections(), 1);
}

TEST_F(FailpointTriggerTest, TimesFiresFirstN) {
  Failpoint* fp = FailpointRegistry::Global().Get("chaos.test.times");
  FailpointSpec spec;
  spec.trigger = FailTrigger::kTimes;
  spec.n = 3;
  fp->Arm(spec);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(fp->Evaluate().ok());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(fp->Evaluate().ok());
  EXPECT_EQ(fp->injections(), 3);
}

TEST_F(FailpointTriggerTest, EveryNthFiresOnMultiples) {
  Failpoint* fp = FailpointRegistry::Global().Get("chaos.test.every");
  FailpointSpec spec;
  spec.trigger = FailTrigger::kEveryNth;
  spec.n = 3;
  fp->Arm(spec);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(!fp->Evaluate().ok());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      true, false, false, true}));
}

TEST_F(FailpointTriggerTest, ProbabilityIsDeterministicUnderFixedSeed) {
  Failpoint* fp = FailpointRegistry::Global().Get("chaos.test.prob");
  FailpointSpec spec;
  spec.trigger = FailTrigger::kProbability;
  spec.probability = 0.5;
  spec.seed = 12345;
  auto run = [&]() {
    fp->Arm(spec);  // Arm() reseeds, restarting the schedule.
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!fp->Evaluate().ok());
    return fired;
  };
  std::vector<bool> first = run();
  std::vector<bool> second = run();
  EXPECT_EQ(first, second);
  // Sanity: p=0.5 over 64 hits fires at least once and skips at least once.
  EXPECT_GT(fp->injections(), 0);
  EXPECT_LT(fp->injections(), 64);
}

TEST_F(FailpointTriggerTest, DisarmedFailpointIsFree) {
  Failpoint* fp = FailpointRegistry::Global().Get("chaos.test.disarmed");
  EXPECT_FALSE(fp->armed());
  EXPECT_TRUE(fp->Evaluate().ok());
  EXPECT_TRUE(OSRS_FAILPOINT("chaos.test.disarmed").ok());
  FailpointSpec spec;
  fp->Arm(spec);
  EXPECT_FALSE(fp->Evaluate().ok());
  fp->Disarm();
  EXPECT_TRUE(fp->Evaluate().ok());
}

TEST_F(FailpointTriggerTest, InjectedErrorCarriesFailpointName) {
  Failpoint* fp = FailpointRegistry::Global().Get("chaos.test.named");
  FailpointSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  fp->Arm(spec);
  Status status = fp->Evaluate();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("chaos.test.named"), std::string::npos);
}

// --------------------------------------------------------------- registry --

TEST_F(FailpointRegistryTest, HandlesAreStablePerName) {
  Failpoint* a = FailpointRegistry::Global().Get("chaos.test.stable");
  Failpoint* b = FailpointRegistry::Global().Get("chaos.test.stable");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->name(), "chaos.test.stable");
}

TEST_F(FailpointRegistryTest, ArmFromSpecArmsMultiple) {
  Status status = FailpointRegistry::Global().ArmFromSpec(
      "chaos.test.multi_a=error(unavailable):once; "
      "chaos.test.multi_b=delay(0.1):every(2);");
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::vector<std::string> armed = FailpointRegistry::Global().ArmedNames();
  EXPECT_EQ(armed, (std::vector<std::string>{"chaos.test.multi_a",
                                             "chaos.test.multi_b"}));
  FailpointRegistry::Global().DisarmAll();
  EXPECT_TRUE(FailpointRegistry::Global().ArmedNames().empty());
}

TEST_F(FailpointRegistryTest, ArmFromSpecRejectsMalformedTail) {
  Status status = FailpointRegistry::Global().ArmFromSpec(
      "chaos.test.ok_head=error(unavailable);chaos.test.bad=frobnicate");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ exception boundary --

// Satellite 1 + acceptance criterion: a batch with one always-throwing
// item completes; that entry is kInternal with isolated_exception set, and
// every other entry is bit-identical to a fault-free run of the same batch.
TEST_F(ExceptionBoundaryTest, ThrowingItemIsIsolatedAndOthersBitIdentical) {
  Ontology onto = BuildCellPhoneHierarchy();
  Rng rng(404);
  std::vector<Item> items;
  for (int i = 0; i < 6; ++i) {
    items.push_back(RandomItem(onto, rng, "item" + std::to_string(i)));
  }

  BatchSummarizerOptions options;
  options.num_threads = 1;  // deterministic item order => hit order
  options.retry_policy.max_retries = 2;
  options.retry_policy.initial_backoff_ms = 0.01;
  options.retry_policy.max_backoff_ms = 0.05;
  BatchSummarizer batch(&onto, options);

  std::vector<BatchEntry> clean = batch.SummarizeAll(items, 3);
  ASSERT_EQ(clean.size(), items.size());
  for (const BatchEntry& entry : clean) {
    ASSERT_TRUE(entry.status.ok()) << entry.status.ToString();
  }

  // One graph build per attempt, single-threaded: hits 1..3 all belong to
  // item 0 (initial try + 2 retries), so times(3) models an item that
  // throws on every attempt while leaving items 1..5 untouched.
  FailpointSpec spec;
  spec.action = FailAction::kThrowBadAlloc;
  spec.trigger = FailTrigger::kTimes;
  spec.n = 3;
  FailpointRegistry::Global().Get("osrs.coverage.alloc")->Arm(spec);
  std::vector<BatchEntry> faulted = batch.SummarizeAll(items, 3);
  FailpointRegistry::Global().DisarmAll();

  ASSERT_EQ(faulted.size(), items.size());
  EXPECT_EQ(faulted[0].status.code(), StatusCode::kInternal);
  EXPECT_TRUE(faulted[0].isolated_exception);
  EXPECT_TRUE(faulted[0].exhausted_retries);
  EXPECT_EQ(faulted[0].retries, 2);
  EXPECT_NE(faulted[0].status.message().find("bad_alloc"),
            std::string::npos);
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_EQ(Fingerprint(faulted[i]), Fingerprint(clean[i]))
        << "entry " << i << " diverged from the fault-free run";
  }

  BatchStats stats = AggregateBatchStats(faulted);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.ok, static_cast<int64_t>(items.size()) - 1);
  EXPECT_EQ(stats.isolated_exceptions, 1);
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.exhausted_retries, 1);
  EXPECT_NE(stats.ToJson().find("\"isolated_exceptions\":1"),
            std::string::npos);
}

TEST_F(ExceptionBoundaryTest, BadAllocInSolverIsIsolatedToo) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<Item> items = {SmallItem(onto, "a"), SmallItem(onto, "b")};

  FailpointSpec spec;
  spec.action = FailAction::kThrowBadAlloc;
  spec.trigger = FailTrigger::kOnce;
  FailpointRegistry::Global().Get("osrs.solver.step")->Arm(spec);

  BatchSummarizerOptions options;
  options.num_threads = 1;
  BatchSummarizer batch(&onto, options);
  std::vector<BatchEntry> entries = batch.SummarizeAll(items, 2);
  FailpointRegistry::Global().DisarmAll();

  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].status.code(), StatusCode::kInternal);
  EXPECT_TRUE(entries[0].isolated_exception);
  EXPECT_TRUE(entries[1].status.ok()) << entries[1].status.ToString();
}

// ------------------------------------------------------------ retry policy --

TEST_F(RetryPolicyTest, TransientFailureSucceedsAfterRetry) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<Item> items = {SmallItem(onto, "a")};

  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.trigger = FailTrigger::kTimes;
  spec.n = 2;  // first two attempts fail, third succeeds
  FailpointRegistry::Global().Get("osrs.coverage.alloc")->Arm(spec);

  BatchSummarizerOptions options;
  options.num_threads = 1;
  options.retry_policy.max_retries = 3;
  options.retry_policy.initial_backoff_ms = 0.01;
  options.retry_policy.max_backoff_ms = 0.05;
  BatchSummarizer batch(&onto, options);
  std::vector<BatchEntry> entries = batch.SummarizeAll(items, 2);
  FailpointRegistry::Global().DisarmAll();

  ASSERT_EQ(entries.size(), 1u);
  ASSERT_TRUE(entries[0].status.ok()) << entries[0].status.ToString();
  EXPECT_EQ(entries[0].retries, 2);
  EXPECT_EQ(entries[0].summary.retries, 2);  // stamped through to ToJson
  EXPECT_FALSE(entries[0].exhausted_retries);
  EXPECT_NE(entries[0].summary.ToJson().find("\"retries\":2"),
            std::string::npos);
}

TEST_F(RetryPolicyTest, PermanentFailureIsNeverRetried) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<Item> items = {SmallItem(onto, "a")};

  FailpointSpec spec;
  spec.code = StatusCode::kInvalidArgument;
  FailpointRegistry::Global().Get("osrs.coverage.alloc")->Arm(spec);

  BatchSummarizerOptions options;
  options.num_threads = 1;
  options.retry_policy.max_retries = 5;
  BatchSummarizer batch(&onto, options);
  std::vector<BatchEntry> entries = batch.SummarizeAll(items, 2);
  Failpoint* fp = FailpointRegistry::Global().Get("osrs.coverage.alloc");
  int64_t hits = fp->hits();
  FailpointRegistry::Global().DisarmAll();

  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(entries[0].retries, 0);
  EXPECT_FALSE(entries[0].exhausted_retries);
  EXPECT_EQ(hits, 1) << "a permanent failure must not be re-attempted";
}

TEST_F(RetryPolicyTest, DataLossIsNeverRetried) {
  // kDataLoss means durable bytes are corrupt (store/snapshot.h): no
  // number of re-attempts can un-corrupt a file, so the retry policy must
  // treat it as permanent even with a generous retry budget.
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<Item> items = {SmallItem(onto, "a")};

  FailpointSpec spec;
  spec.code = StatusCode::kDataLoss;
  FailpointRegistry::Global().Get("osrs.coverage.alloc")->Arm(spec);

  BatchSummarizerOptions options;
  options.num_threads = 1;
  options.retry_policy.max_retries = 5;
  options.retry_policy.initial_backoff_ms = 0.01;
  BatchSummarizer batch(&onto, options);
  std::vector<BatchEntry> entries = batch.SummarizeAll(items, 2);
  int64_t hits =
      FailpointRegistry::Global().Get("osrs.coverage.alloc")->hits();
  FailpointRegistry::Global().DisarmAll();

  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(entries[0].retries, 0);
  EXPECT_EQ(hits, 1) << "data loss must not be re-attempted";
}

TEST_F(RetryPolicyTest, DefaultPolicyNeverRetries) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<Item> items = {SmallItem(onto, "a")};

  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;
  FailpointRegistry::Global().Get("osrs.coverage.alloc")->Arm(spec);

  BatchSummarizerOptions options;  // retry_policy.max_retries == 0
  options.num_threads = 1;
  BatchSummarizer batch(&onto, options);
  std::vector<BatchEntry> entries = batch.SummarizeAll(items, 2);
  int64_t hits =
      FailpointRegistry::Global().Get("osrs.coverage.alloc")->hits();
  FailpointRegistry::Global().DisarmAll();

  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(entries[0].retries, 0);
  // exhausted_retries is reserved for policies that actually retried.
  EXPECT_FALSE(entries[0].exhausted_retries);
  EXPECT_EQ(hits, 1);
}

// Regression: a retry whose backoff the remaining batch deadline cannot
// fund must be skipped outright, not started with near-zero budget. The
// old behavior clamped the sleep to the remaining deadline and attempted
// anyway, so the doomed attempt failed kDeadlineExceeded at entry —
// masking the real transient failure — after burning the whole remaining
// budget asleep. With a 10-second backoff against a sub-second batch
// deadline, finishing fast with the transient status preserved is the fix.
TEST_F(RetryPolicyTest, BackoffExceedingBatchDeadlineSkipsRetry) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<Item> items = {SmallItem(onto, "a")};

  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;
  FailpointRegistry::Global().Get("osrs.coverage.alloc")->Arm(spec);

  BatchSummarizerOptions options;
  options.num_threads = 1;
  options.batch_deadline_ms = 500.0;
  options.retry_policy.max_retries = 5;
  options.retry_policy.initial_backoff_ms = 10000.0;
  options.retry_policy.max_backoff_ms = 10000.0;
  options.retry_policy.jitter = 0.0;
  BatchSummarizer batch(&onto, options);

  Stopwatch watch;
  std::vector<BatchEntry> entries = batch.SummarizeAll(items, 2);
  double elapsed_ms = watch.ElapsedMillis();
  FailpointRegistry::Global().DisarmAll();

  ASSERT_EQ(entries.size(), 1u);
  // The transient status survives: not kDeadlineExceeded from a doomed
  // attempt, and no retry was started (the 10 s backoff was never funded).
  EXPECT_EQ(entries[0].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(entries[0].retries, 0);
  EXPECT_TRUE(entries[0].exhausted_retries);
  EXPECT_LT(elapsed_ms, 5000.0)
      << "the unfunded 10 s backoff appears to have been slept";
}

TEST_F(RetryPolicyTest, RetryableTaxonomyMatchesDocs) {
  EXPECT_TRUE(StatusCodeIsRetryable(StatusCode::kUnavailable));
  EXPECT_TRUE(StatusCodeIsRetryable(StatusCode::kResourceExhausted));
  EXPECT_TRUE(StatusCodeIsRetryable(StatusCode::kInternal));
  EXPECT_FALSE(StatusCodeIsRetryable(StatusCode::kOk));
  EXPECT_FALSE(StatusCodeIsRetryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(StatusCodeIsRetryable(StatusCode::kNotFound));
  EXPECT_FALSE(StatusCodeIsRetryable(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(StatusCodeIsRetryable(StatusCode::kCancelled));
  EXPECT_FALSE(StatusCodeIsRetryable(StatusCode::kDataLoss));
}

// ---------------------------------------------------- annotation sites -----

// The serve-time annotation pipeline evaluates two failpoints per
// sentence: osrs.extraction.pairs before concept extraction and
// osrs.sentiment.score before sentiment scoring. An injection surfaces as
// the annotator's Status — a live request crossing annotation fails
// cleanly instead of producing a half-annotated item.

TEST_F(AnnotationFailpointTest, ExtractionFailpointFailsAnnotation) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewAnnotator annotator(&onto, SentimentEstimator::LexiconOnly());
  Item item = SmallItem(onto, "a");

  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.extraction.pairs=error(unavailable):once")
                  .ok());
  Status first = annotator.Annotate(item);
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(StatusCodeIsRetryable(first.code()));
  Status second = annotator.Annotate(item);  // 'once' spent
  EXPECT_TRUE(second.ok()) << second.ToString();
}

TEST_F(AnnotationFailpointTest, SentimentFailpointFailsAnnotation) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewAnnotator annotator(&onto, SentimentEstimator::LexiconOnly());

  FailpointSpec spec;
  spec.code = StatusCode::kInternal;
  spec.trigger = FailTrigger::kOnce;
  FailpointRegistry::Global().Get("osrs.sentiment.score")->Arm(spec);

  // The scoring site only evaluates for sentences that extracted at least
  // one concept (no concepts = nothing to score).
  auto annotated = annotator.AnnotateTexts(
      "a", {"screen is great. battery is awful."}, {});
  EXPECT_EQ(annotated.status().code(), StatusCode::kInternal);
  auto retried = annotator.AnnotateTexts(
      "a", {"screen is great. battery is awful."}, {});
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();
}

TEST_F(AnnotationFailpointTest, DelayInjectionStallsButSucceeds) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewAnnotator annotator(&onto, SentimentEstimator::LexiconOnly());
  Item item = SmallItem(onto, "a");

  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.sentiment.score=delay(1):always")
                  .ok());
  Status status = annotator.Annotate(item);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(FailpointRegistry::Global()
                .Get("osrs.sentiment.score")
                ->injections(),
            0);
}

// ----------------------------------------------- deadline x retry ----------

// Interaction of the batch deadline with the retry policy: backoffs are
// only slept when the remaining deadline can fund them, so the deadline
// cannot expire in the middle of a backoff, and every funded attempt
// starts with real budget. Timings use wide margins (solves are ~10 ms,
// backoffs hundreds of ms) so the assertions hold on slow machines.

TEST_F(DeadlineRetryTest, TransientStatusSurvivesDeadlineLimitedRetries) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<Item> items = {SmallItem(onto, "a")};

  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;  // every attempt fails transient
  FailpointRegistry::Global().Get("osrs.coverage.alloc")->Arm(spec);

  BatchSummarizerOptions options;
  options.num_threads = 1;
  options.batch_deadline_ms = 500.0;
  options.retry_policy.max_retries = 10;  // deadline, not count, limits
  options.retry_policy.initial_backoff_ms = 200.0;
  options.retry_policy.max_backoff_ms = 200.0;
  options.retry_policy.backoff_multiplier = 1.0;
  options.retry_policy.jitter = 0.0;
  BatchSummarizer batch(&onto, options);

  Stopwatch watch;
  std::vector<BatchEntry> entries = batch.SummarizeAll(items, 2);
  double elapsed_ms = watch.ElapsedMillis();
  FailpointRegistry::Global().DisarmAll();

  ASSERT_EQ(entries.size(), 1u);
  // ~500 ms funds at most two 200 ms backoffs; the third is skipped. The
  // final status is the transient failure, never kDeadlineExceeded.
  EXPECT_EQ(entries[0].status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(entries[0].exhausted_retries);
  EXPECT_GE(entries[0].retries, 1);
  EXPECT_LE(entries[0].retries, 2);
  EXPECT_LT(elapsed_ms, 3000.0);
}

TEST_F(DeadlineRetryTest, ItemsShareOneBatchBudgetAcrossRetries) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<Item> items = {SmallItem(onto, "a"), SmallItem(onto, "b")};

  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;
  FailpointRegistry::Global().Get("osrs.coverage.alloc")->Arm(spec);

  BatchSummarizerOptions options;
  options.num_threads = 1;  // item b runs after a drained the budget
  options.batch_deadline_ms = 800.0;
  options.retry_policy.max_retries = 10;
  options.retry_policy.initial_backoff_ms = 300.0;
  options.retry_policy.max_backoff_ms = 300.0;
  options.retry_policy.backoff_multiplier = 1.0;
  options.retry_policy.jitter = 0.0;
  BatchSummarizer batch(&onto, options);

  std::vector<BatchEntry> entries = batch.SummarizeAll(items, 2);
  FailpointRegistry::Global().DisarmAll();

  ASSERT_EQ(entries.size(), 2u);
  // Item a funds ~two 300 ms backoffs from the 800 ms budget; item b then
  // starts with only the leftovers, so its backoff is never funded. Both
  // keep the transient status; the budget they shared is what differed.
  EXPECT_EQ(entries[0].status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(entries[0].exhausted_retries);
  EXPECT_GE(entries[0].retries, 1);
  EXPECT_EQ(entries[1].status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(entries[1].exhausted_retries);
  EXPECT_EQ(entries[1].retries, 0)
      << "item b found budget for a backoff item a should have drained";
  EXPECT_LT(entries[1].retries, entries[0].retries);
}

// ------------------------------------------------------------ I/O sites ----

TEST_F(IoFailpointTest, ReadFailpointInjectsRetryableError) {
  Ontology onto = BuildCellPhoneHierarchy();
  Corpus corpus;
  corpus.domain = "cellphone";
  corpus.ontology = onto;
  corpus.items.push_back(SmallItem(onto, "a"));
  std::string path = ::testing::TempDir() + "/chaos_io_corpus.txt";
  ASSERT_TRUE(SaveCorpusToFile(corpus, path).ok());

  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.io.read=error(unavailable):once")
                  .ok());
  auto first = LoadCorpusFromFile(path);
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(StatusCodeIsRetryable(first.status().code()));
  auto second = LoadCorpusFromFile(path);  // 'once' spent: succeeds now
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  FailpointRegistry::Global().DisarmAll();
  std::remove(path.c_str());
}

TEST_F(IoFailpointTest, WriteFailpointInjectsError) {
  Ontology onto = BuildCellPhoneHierarchy();
  Corpus corpus;
  corpus.domain = "cellphone";
  corpus.ontology = onto;
  std::string path = ::testing::TempDir() + "/chaos_io_write.txt";

  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.trigger = FailTrigger::kOnce;
  FailpointRegistry::Global().Get("osrs.io.write")->Arm(spec);
  Status status = SaveCorpusToFile(corpus, path);
  FailpointRegistry::Global().DisarmAll();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  std::remove(path.c_str());
}

TEST_F(IoFailpointTest, OntologyFinalizeFailpointPropagates) {
  FailpointSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.trigger = FailTrigger::kOnce;
  FailpointRegistry::Global().Get("osrs.ontology.finalize")->Arm(spec);

  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId leaf = onto.AddConcept("leaf");
  ASSERT_TRUE(onto.AddEdge(root, leaf).ok());
  Status first = onto.Finalize();
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(onto.finalized());
  Status second = onto.Finalize();  // injection spent: real path runs
  FailpointRegistry::Global().DisarmAll();
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_TRUE(onto.finalized());
}

// --------------------------------------------------- randomized campaign ---

/// One randomized schedule: which sites are armed and how, plus the batch
/// configuration it runs under. Everything derives from the schedule seed.
struct Schedule {
  std::vector<std::pair<std::string, FailpointSpec>> armed;
  SummaryAlgorithm algorithm = SummaryAlgorithm::kGreedy;
  int max_retries = 0;
  int num_threads = 1;
};

Schedule MakeSchedule(uint64_t seed) {
  Rng rng(seed);
  Schedule schedule;
  const SummaryAlgorithm algorithms[] = {
      SummaryAlgorithm::kGreedy,
      SummaryAlgorithm::kGreedyLazy,
      SummaryAlgorithm::kIlp,
      SummaryAlgorithm::kRandomizedRounding,
  };
  schedule.algorithm = algorithms[rng.NextUint64(4)];
  schedule.max_retries = static_cast<int>(rng.NextInt(0, 2));
  for (const char* site : kBatchSites) {
    if (!rng.NextBernoulli(0.5)) continue;
    FailpointSpec spec;
    double action_draw = rng.NextDouble();
    if (action_draw < 0.4) {
      spec.action = FailAction::kError;
      spec.code = StatusCode::kUnavailable;
    } else if (action_draw < 0.55) {
      spec.action = FailAction::kError;
      spec.code = StatusCode::kResourceExhausted;
    } else if (action_draw < 0.7) {
      spec.action = FailAction::kError;
      spec.code = StatusCode::kInvalidArgument;
    } else if (action_draw < 0.85) {
      spec.action = FailAction::kThrowBadAlloc;
    } else {
      spec.action = FailAction::kDelay;
      spec.delay_ms = 0.01;
    }
    double trigger_draw = rng.NextDouble();
    if (trigger_draw < 0.2) {
      spec.trigger = FailTrigger::kAlways;
    } else if (trigger_draw < 0.4) {
      spec.trigger = FailTrigger::kOnce;
    } else if (trigger_draw < 0.6) {
      spec.trigger = FailTrigger::kTimes;
      spec.n = rng.NextInt(1, 4);
    } else if (trigger_draw < 0.8) {
      spec.trigger = FailTrigger::kEveryNth;
      spec.n = rng.NextInt(1, 4);
    } else {
      spec.trigger = FailTrigger::kProbability;
      spec.probability = rng.NextDouble();
      spec.seed = rng.Next();
    }
    schedule.armed.emplace_back(site, spec);
  }
  // An all-quiet schedule still exercises the disarmed fast path, but at
  // least one armed site keeps the campaign adversarial.
  if (schedule.armed.empty()) {
    FailpointSpec spec;
    spec.code = StatusCode::kUnavailable;
    spec.trigger = FailTrigger::kEveryNth;
    spec.n = 2;
    schedule.armed.emplace_back("osrs.solver.step", spec);
  }
  return schedule;
}

/// Arms the schedule, runs the batch, checks the per-entry invariants, and
/// accumulates per-site injection counts. Returns the entry fingerprints.
std::vector<std::string> RunSchedule(
    const Schedule& schedule, const Ontology& onto,
    const std::vector<Item>& items,
    std::map<std::string, int64_t>* injections) {
  FailpointRegistry::Global().DisarmAll();
  for (const auto& [site, spec] : schedule.armed) {
    FailpointRegistry::Global().Get(site)->Arm(spec);
  }

  BatchSummarizerOptions options;
  options.summarizer.algorithm = schedule.algorithm;
  options.summarizer.seed = 7;
  options.num_threads = schedule.num_threads;
  options.retry_policy.max_retries = schedule.max_retries;
  options.retry_policy.initial_backoff_ms = 0.01;
  options.retry_policy.max_backoff_ms = 0.05;
  BatchSummarizer batch(&onto, options);
  std::vector<BatchEntry> entries = batch.SummarizeAll(items, 3);

  EXPECT_EQ(entries.size(), items.size());
  std::vector<std::string> fingerprints;
  for (const BatchEntry& entry : entries) {
    EXPECT_GE(entry.retries, 0);
    EXPECT_LE(entry.retries, schedule.max_retries)
        << "retries exceed the policy budget";
    if (entry.exhausted_retries) {
      EXPECT_EQ(entry.retries, schedule.max_retries);
      EXPECT_TRUE(StatusCodeIsRetryable(entry.status.code()));
    }
    if (entry.status.ok()) {
      EXPECT_LE(entry.summary.entries.size(), 3u);
      EXPECT_TRUE(std::isfinite(entry.summary.cost));
      EXPECT_GE(entry.summary.cost, 0.0);
      EXPECT_GT(entry.summary.num_pairs, 0u);
      for (const SummaryEntry& e : entry.summary.entries) {
        EXPECT_NE(e.pair.concept_id, kInvalidConcept);
        EXPECT_FALSE(e.display.empty());
      }
    } else {
      EXPECT_FALSE(entry.status.message().empty());
    }
    fingerprints.push_back(Fingerprint(entry));
  }

  for (const auto& [site, spec] : schedule.armed) {
    (*injections)[site] +=
        FailpointRegistry::Global().Get(site)->injections();
  }
  FailpointRegistry::Global().DisarmAll();
  return fingerprints;
}

// The tentpole acceptance test: 210 randomized failpoint schedules (140
// single-threaded, each replayed twice and required to be bit-identical;
// 70 two-threaded, invariants only) over full batches. The process
// surviving to the end is itself the headline assertion — every injected
// bad_alloc crossed the worker boundary without a std::terminate.
TEST_F(ChaosCampaignTest, TwoHundredTenRandomSchedules) {
  Ontology onto = BuildCellPhoneHierarchy();
  Rng item_rng(2026);
  std::vector<Item> items;
  for (int i = 0; i < 6; ++i) {
    items.push_back(RandomItem(onto, item_rng, "item" + std::to_string(i)));
  }

  std::map<std::string, int64_t> injections;
  int64_t total_injections = 0;

  for (uint64_t seed = 0; seed < 140; ++seed) {
    Schedule schedule = MakeSchedule(1000 + seed);
    schedule.num_threads = 1;
    std::vector<std::string> first =
        RunSchedule(schedule, onto, items, &injections);
    std::vector<std::string> second =
        RunSchedule(schedule, onto, items, &injections);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i], second[i])
          << "schedule " << seed << " entry " << i
          << " not reproducible under a fixed seed";
    }
  }

  for (uint64_t seed = 0; seed < 70; ++seed) {
    Schedule schedule = MakeSchedule(5000 + seed);
    schedule.num_threads = 2;
    RunSchedule(schedule, onto, items, &injections);
  }

  // Coverage: every batch-pipeline site actually injected at least once
  // over the campaign (osrs.lp.pivot only fires under the LP-based
  // algorithms, which ~half the schedules select).
  for (const char* site : kBatchSites) {
    EXPECT_GT(injections[site], 0)
        << "site " << site << " was armed but never exercised";
    total_injections += injections[site];
  }
  EXPECT_GT(total_injections, 210) << "campaign barely injected anything";
}

}  // namespace
}  // namespace osrs
