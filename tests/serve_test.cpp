// Tests of the overload-resilient serving layer (src/serve): the bounded
// epoch-keyed summary cache, the per-item-version coverage graph shared
// across solves, single-flight coalescing, admission control,
// deadline-aware load shedding, degraded stale serving, failpoint-driven
// chaos behavior, and the request-accounting identities
// (submitted == admitted + rejected; admitted == completed + shed + failed
// once drained).

#include <sys/stat.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/review_summarizer.h"
#include "common/slog.h"
#include "common/strings.h"
#include "core/model.h"
#include "datagen/cellphone_corpus.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "ontology/cellphone_hierarchy.h"
#include "ontology/ontology.h"
#include "serve/server.h"
#include "serve/summary_cache.h"
#include "store/atomic_file.h"
#include "store/state_store.h"

namespace osrs::serve {
namespace {

using fault::FailpointRegistry;

/// Solution-field fingerprint of a summary — everything except timings.
std::string Fingerprint(const ItemSummary& s) {
  std::string out = StrFormat(
      "cost=%.17g eps=%.17g pairs=%zu cands=%zu edges=%zu degraded=%d",
      s.cost, s.epsilon, s.num_pairs, s.num_candidates, s.num_edges,
      s.degraded ? 1 : 0);
  for (const SummaryEntry& e : s.entries) {
    out += StrFormat(" [%s|%d|%.17g|%d|%d]", e.display.c_str(),
                     e.pair.concept_id, e.pair.sentiment, e.review_index,
                     e.sentence_index);
  }
  return out;
}

Item MakeItem(const Ontology& onto, const std::string& id,
              double shift = 0.0) {
  ConceptId screen = onto.FindByName("screen");
  ConceptId battery = onto.FindByName("battery");
  ConceptId camera = onto.FindByName("camera");
  Item item;
  item.id = id;
  Review review;
  review.sentences.push_back(
      {id + ": screen is great", {{screen, 0.75 - shift}}});
  review.sentences.push_back(
      {id + ": battery is awful", {{battery, -0.9 + shift}}});
  review.sentences.push_back(
      {id + ": camera is fine", {{camera, 0.4 - shift}}});
  item.reviews.push_back(std::move(review));
  return item;
}

/// Every test starts and ends with a disarmed failpoint registry.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().DisarmAll();
    onto_ = BuildCellPhoneHierarchy();
  }
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }

  std::vector<Item> Items(int n) {
    std::vector<Item> items;
    for (int i = 0; i < n; ++i) {
      items.push_back(
          MakeItem(onto_, "item" + std::to_string(i), 0.05 * i));
    }
    return items;
  }

  Ontology onto_;
};

class SummaryCacheTest : public ::testing::Test {};

// -------------------------------------------------------- summary cache ----

ItemSummary FakeSummary(double cost) {
  ItemSummary summary;
  summary.cost = cost;
  summary.entries.push_back({"entry", {1, 0.5}, 0, 0});
  return summary;
}

TEST_F(SummaryCacheTest, LookupHitRefreshesAndMissCounts) {
  SummaryCache cache(2);
  CacheKey a{"a", 0, 1, 5};
  ItemSummary out;
  EXPECT_FALSE(cache.Lookup(a, &out));
  cache.Insert(a, FakeSummary(1.0));
  EXPECT_TRUE(cache.Lookup(a, &out));
  EXPECT_DOUBLE_EQ(out.cost, 1.0);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.inserts, 1);
}

TEST_F(SummaryCacheTest, EvictsLeastRecentlyUsed) {
  SummaryCache cache(2);
  CacheKey a{"a", 0, 1, 5}, b{"b", 0, 1, 5}, c{"c", 0, 1, 5};
  cache.Insert(a, FakeSummary(1));
  cache.Insert(b, FakeSummary(2));
  ItemSummary out;
  ASSERT_TRUE(cache.Lookup(a, &out));  // a is now MRU; b is LRU
  cache.Insert(c, FakeSummary(3));     // evicts b
  EXPECT_TRUE(cache.Lookup(a, &out));
  EXPECT_FALSE(cache.Lookup(b, &out));
  EXPECT_TRUE(cache.Lookup(c, &out));
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST_F(SummaryCacheTest, CapacityZeroDisablesEverything) {
  SummaryCache cache(0);
  CacheKey a{"a", 0, 1, 5};
  cache.Insert(a, FakeSummary(1));
  ItemSummary out;
  EXPECT_FALSE(cache.Lookup(a, &out));
  uint64_t epoch = 0;
  EXPECT_FALSE(cache.LookupLatest("a", 1, 5, &out, &epoch));
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().inserts, 0);
}

TEST_F(SummaryCacheTest, LookupLatestFindsNewestEpochAcrossBumps) {
  SummaryCache cache(4);
  cache.Insert(CacheKey{"a", 0, 1, 5}, FakeSummary(1));
  cache.Insert(CacheKey{"a", 3, 1, 5}, FakeSummary(2));
  ItemSummary out;
  uint64_t epoch = 0;
  ASSERT_TRUE(cache.LookupLatest("a", 1, 5, &out, &epoch));
  EXPECT_EQ(epoch, 3u);  // the most recently inserted generation
  EXPECT_DOUBLE_EQ(out.cost, 2.0);
  // A different fingerprint or k is a different summary family entirely.
  EXPECT_FALSE(cache.LookupLatest("a", 2, 5, &out, &epoch));
  EXPECT_FALSE(cache.LookupLatest("a", 1, 4, &out, &epoch));
  EXPECT_EQ(cache.stats().stale_hits, 1);
}

TEST_F(SummaryCacheTest, EvictionDropsLatestIndexOnlyForItsOwnEntry) {
  SummaryCache cache(2);
  cache.Insert(CacheKey{"a", 0, 1, 5}, FakeSummary(1));
  cache.Insert(CacheKey{"a", 1, 1, 5}, FakeSummary(2));  // latest -> epoch 1
  cache.Insert(CacheKey{"b", 0, 1, 5}, FakeSummary(3));  // evicts a@0
  ItemSummary out;
  uint64_t epoch = 0;
  // a@0 (the LRU entry) was evicted, but latest_ pointed at a@1 — the
  // stale-serving index must survive the eviction of an older sibling.
  ASSERT_TRUE(cache.LookupLatest("a", 1, 5, &out, &epoch));
  EXPECT_EQ(epoch, 1u);
  cache.Insert(CacheKey{"c", 0, 1, 5}, FakeSummary(4));  // evicts a@1
  cache.Insert(CacheKey{"d", 0, 1, 5}, FakeSummary(5));  // evicts b@0
  EXPECT_FALSE(cache.LookupLatest("a", 1, 5, &out, &epoch));
}

TEST_F(SummaryCacheTest, ClearDropsEntriesKeepsStats) {
  SummaryCache cache(2);
  cache.Insert(CacheKey{"a", 0, 1, 5}, FakeSummary(1));
  cache.Clear();
  ItemSummary out;
  EXPECT_FALSE(cache.Lookup(CacheKey{"a", 0, 1, 5}, &out));
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().inserts, 1);
}

// -------------------------------------------------- options fingerprint ----

TEST(OptionsFingerprintTest, SolutionFieldsChangeItRuntimeKnobsDoNot) {
  ReviewSummarizerOptions base;
  uint64_t h = OptionsFingerprint(base);
  EXPECT_EQ(h, OptionsFingerprint(base));

  ReviewSummarizerOptions epsilon = base;
  epsilon.epsilon = 0.6;
  EXPECT_NE(OptionsFingerprint(epsilon), h);
  ReviewSummarizerOptions algorithm = base;
  algorithm.algorithm = SummaryAlgorithm::kIlp;
  EXPECT_NE(OptionsFingerprint(algorithm), h);
  ReviewSummarizerOptions chain = base;
  chain.fallback_chain.push_back(SummaryAlgorithm::kGreedyLazy);
  EXPECT_NE(OptionsFingerprint(chain), h);

  // Deployment-tuning knobs proven not to affect the solution.
  ReviewSummarizerOptions runtime = base;
  runtime.deadline_ms = 123.0;
  runtime.collect_stats = !base.collect_stats;
  runtime.graph_build_threads = 4;
  EXPECT_EQ(OptionsFingerprint(runtime), h);
}

// ----------------------------------------------------- cache + epochs ------

TEST_F(ServeTest, CacheHitIsBitIdenticalToFreshSolve) {
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  request.k = 2;
  ServeResponse first = server.Serve(request);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(first.outcome, ServeOutcome::kSolved);
  EXPECT_FALSE(first.degraded);

  ServeResponse second = server.Serve(request);
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_EQ(second.outcome, ServeOutcome::kCacheHit);
  EXPECT_EQ(Fingerprint(second.summary), Fingerprint(first.summary));

  // And both match a direct full-budget ReviewSummarizer solve.
  ReviewSummarizer summarizer(&onto_, options.summarizer);
  auto direct = summarizer.Summarize(Items(1)[0], 2);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(Fingerprint(first.summary), Fingerprint(*direct));

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.solves, 1);
  EXPECT_EQ(counters.cache_hits, 1);
  EXPECT_EQ(counters.completed, 2);
}

TEST_F(ServeTest, EpochBumpInvalidatesCache) {
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  ASSERT_TRUE(server.Serve(request).status.ok());
  EXPECT_EQ(server.Serve(request).outcome, ServeOutcome::kCacheHit);

  EXPECT_EQ(server.BumpEpoch(), 1u);
  ServeResponse after = server.Serve(request);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.outcome, ServeOutcome::kSolved)
      << "epoch bump must invalidate the exact-hit path";
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_EQ(server.counters().solves, 2);
  EXPECT_EQ(server.counters().epoch_bumps, 1);
}

TEST_F(ServeTest, UpdateItemBumpsEpochAndServesNewContent) {
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  ServeResponse before = server.Serve(request);
  ASSERT_TRUE(before.status.ok());

  server.UpdateItem(MakeItem(onto_, "item0", 0.3));
  EXPECT_EQ(server.epoch(), 1u);
  ServeResponse after = server.Serve(request);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.outcome, ServeOutcome::kSolved);
  EXPECT_NE(Fingerprint(after.summary), Fingerprint(before.summary))
      << "the refreshed item's reviews must reach the solver";
}

TEST_F(ServeTest, UnknownItemAndNegativeKAreRejected) {
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest missing;
  missing.item_id = "nope";
  ServeResponse response = server.Serve(missing);
  EXPECT_EQ(response.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);

  ServeRequest bad;
  bad.item_id = "item0";
  bad.k = -1;
  response = server.Serve(bad);
  EXPECT_EQ(response.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.submitted, 2);
  EXPECT_EQ(counters.rejected, 2);
  EXPECT_EQ(counters.admitted, 0);
}

// --------------------------------------------------------- coalescing ------

TEST_F(ServeTest, ConcurrentRequestsForOneItemCoalesceIntoOneSolve) {
  // Stretch the solve with an injected 250 ms stall so every thread
  // submits while the flight is still in the air.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=delay(250):always")
                  .ok());

  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  constexpr int kClients = 8;
  std::vector<ServeResponse> responses(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &responses, c] {
      ServeRequest request;
      request.item_id = "item0";
      responses[static_cast<size_t>(c)] = server.Serve(request);
    });
  }
  for (std::thread& thread : threads) thread.join();
  FailpointRegistry::Global().DisarmAll();

  int solved = 0, coalesced = 0;
  for (const ServeResponse& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(Fingerprint(response.summary),
              Fingerprint(responses[0].summary))
        << "every coalesced waiter must receive the identical summary";
    if (response.outcome == ServeOutcome::kSolved) ++solved;
    if (response.outcome == ServeOutcome::kCoalesced) ++coalesced;
  }
  EXPECT_EQ(solved, 1);
  EXPECT_EQ(coalesced, kClients - 1);

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.solves, 1) << "a hot item must cost exactly one solve";
  EXPECT_EQ(counters.coalesced, kClients - 1);
  EXPECT_EQ(counters.completed, kClients);
  EXPECT_EQ(counters.submitted, counters.admitted + counters.rejected);
}

// ------------------------------------------------- admission + shedding ----

TEST_F(ServeTest, FullQueueRejectsWithResourceExhausted) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=delay(250):always")
                  .ok());
  ServeOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 1;
  SummaryServer server(&onto_, Items(3), options);

  // item0 occupies the single worker; item1 fills the queue; item2 must
  // be turned away at the door. Distinct items so nothing coalesces.
  std::thread first([&server] {
    ServeRequest request;
    request.item_id = "item0";
    EXPECT_TRUE(server.Serve(request).status.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread second([&server] {
    ServeRequest request;
    request.item_id = "item1";
    EXPECT_TRUE(server.Serve(request).status.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ServeRequest request;
  request.item_id = "item2";
  ServeResponse rejected = server.Serve(request);
  EXPECT_EQ(rejected.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);

  first.join();
  second.join();
  FailpointRegistry::Global().DisarmAll();

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.rejected, 1);
  EXPECT_EQ(counters.completed, 2);
  EXPECT_EQ(counters.submitted, counters.admitted + counters.rejected);
  EXPECT_EQ(counters.admitted,
            counters.completed + counters.shed + counters.failed);
}

TEST_F(ServeTest, ExpiredDeadlinesAreShedWithoutStarvingAdmittedWork) {
  ServeOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;  // no stale fallback: shedding is visible
  SummaryServer server(&onto_, Items(1), options);

  // A 1 µs deadline is always expired by dequeue time, so the worker
  // sheds instead of starting a doomed solve.
  for (int i = 0; i < 5; ++i) {
    ServeRequest request;
    request.item_id = "item0";
    request.deadline_ms = 0.001;
    ServeResponse response = server.Serve(request);
    EXPECT_EQ(response.outcome, ServeOutcome::kShed);
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  }

  // Shedding must not have wedged the worker: an unconstrained request
  // still completes.
  ServeRequest request;
  request.item_id = "item0";
  ServeResponse ok = server.Serve(request);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.outcome, ServeOutcome::kSolved);

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.shed, 5);
  EXPECT_EQ(counters.completed, 1);
  EXPECT_EQ(counters.solves, 1) << "shed requests must not reach the solver";
  EXPECT_EQ(counters.admitted,
            counters.completed + counters.shed + counters.failed);
}

TEST_F(ServeTest, OverBudgetRequestServesStaleDegradedSummary) {
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  ServeResponse fresh = server.Serve(request);
  ASSERT_TRUE(fresh.status.ok());
  server.BumpEpoch();  // the cached summary is now one generation old

  ServeRequest hurried = request;
  hurried.deadline_ms = 0.001;  // expired by dequeue
  ServeResponse degraded = server.Serve(hurried);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_EQ(degraded.outcome, ServeOutcome::kDegraded);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_TRUE(degraded.summary.degraded);
  EXPECT_EQ(degraded.epoch, 0u) << "the answer came from the old epoch";
  EXPECT_EQ(server.counters().shed, 0)
      << "a degraded answer is a completion, not a shed";
  EXPECT_EQ(server.counters().degraded, 1);
  EXPECT_EQ(server.cache_stats().stale_hits, 1);
}

// ----------------------------------------------------------- chaos ---------

TEST_F(ServeTest, SolveFailureFallsBackToStaleThenErrors) {
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  ASSERT_TRUE(server.Serve(request).status.ok());
  server.BumpEpoch();

  // First post-bump solve fails transiently: the stale summary answers,
  // flagged degraded.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=error(unavailable):once")
                  .ok());
  ServeResponse degraded = server.Serve(request);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_EQ(degraded.outcome, ServeOutcome::kDegraded);
  EXPECT_EQ(degraded.epoch, 0u);

  // Same failure with stale serving disabled: a clean error, process alive.
  ServeOptions strict = options;
  strict.serve_stale_when_over_budget = false;
  SummaryServer strict_server(&onto_, Items(1), strict);
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=error(unavailable):once")
                  .ok());
  ServeResponse failed = strict_server.Serve(request);
  EXPECT_EQ(failed.outcome, ServeOutcome::kFailed);
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(strict_server.counters().failed, 1);
}

TEST_F(ServeTest, InjectedBadAllocIsIsolatedToItsRequest) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.coverage.alloc=bad_alloc:once")
                  .ok());
  ServeOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  ServeResponse failed = server.Serve(request);
  EXPECT_EQ(failed.outcome, ServeOutcome::kFailed);
  EXPECT_EQ(failed.status.code(), StatusCode::kResourceExhausted);

  // The worker survived the exception; the next request solves normally.
  ServeResponse ok = server.Serve(request);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.outcome, ServeOutcome::kSolved);
  // The failed build stored nothing: the healthy read built the graph
  // afresh, and that is the only build counted.
  EXPECT_TRUE(ok.trace.HasSpan(obs::RequestSpanKind::kGraphBuild));
  EXPECT_EQ(server.counters().graph_builds, 1);
}

TEST_F(ServeTest, OverMemoryLimitItemFailsEveryRead) {
  ServeOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;
  options.summarizer.max_memory_bytes = 64;  // below any real graph
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  for (int read = 0; read < 3; ++read) {
    request.k = 1 + read;
    ServeResponse response = server.Serve(request);
    EXPECT_EQ(response.outcome, ServeOutcome::kFailed) << "read " << read;
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
        << "read " << read << ": " << response.status.ToString();
    EXPECT_TRUE(response.trace.HasSpan(obs::RequestSpanKind::kGraphBuild))
        << "read " << read << " must try the build again";
  }
  EXPECT_EQ(server.counters().graph_builds, 0);
  EXPECT_EQ(server.counters().failed, 3);
}

TEST_F(ServeTest, CacheFailpointDegradesToMissNeverFailsRequests) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.cache=error(unavailable):always")
                  .ok());
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  for (int i = 0; i < 2; ++i) {
    ServeResponse response = server.Serve(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.outcome, ServeOutcome::kSolved);
  }
  // An unavailable cache means no hits and no inserts — just solves.
  EXPECT_EQ(server.counters().solves, 2);
  EXPECT_EQ(server.counters().cache_hits, 0);
  EXPECT_EQ(server.cache_stats().inserts, 0);
}

TEST_F(ServeTest, AdmitFailpointRejectsAtTheFrontDoor) {
  ASSERT_TRUE(
      FailpointRegistry::Global()
          .ArmFromSpec("osrs.serve.admit=error(resource_exhausted):once")
          .ok());
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest request;
  request.item_id = "item0";
  ServeResponse rejected = server.Serve(request);
  EXPECT_EQ(rejected.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  ServeResponse ok = server.Serve(request);
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
}

// ------------------------------------------------------------ shutdown -----

TEST_F(ServeTest, StopDrainsQueuedRequestsAndRejectsNewOnes) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=delay(250):always")
                  .ok());
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(3), options);

  std::vector<ServeResponse> responses(3);
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&server, &responses, i] {
      ServeRequest request;
      request.item_id = "item" + std::to_string(i);
      responses[static_cast<size_t>(i)] = server.Serve(request);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  // item0 is mid-solve; item1 and item2 are queued. Stop fails the queued
  // ones with kUnavailable and lets the in-flight solve finish.
  server.Stop();
  for (std::thread& thread : threads) thread.join();
  FailpointRegistry::Global().DisarmAll();

  int ok = 0, unavailable = 0;
  for (const ServeResponse& response : responses) {
    if (response.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      ++unavailable;
    }
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(unavailable, 2);

  ServeRequest late;
  late.item_id = "item0";
  ServeResponse rejected = server.Serve(late);
  EXPECT_EQ(rejected.outcome, ServeOutcome::kRejected);
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.submitted, counters.admitted + counters.rejected);
  EXPECT_EQ(counters.admitted,
            counters.completed + counters.shed + counters.failed);
}

// ---------------------------------------------- shared coverage graph -----

/// A generated phone item of ~100 reviews (343 pairs), and the same item
/// after `extra` more reviews arrived from another item of the corpus.
class SharedGraphTest : public ServeTest {
 protected:
  void SetUp() override {
    ServeTest::SetUp();
    Corpus corpus = GenerateCellPhoneCorpus({.scale = 0.05});
    onto_ = std::move(corpus.ontology);
    item_ = corpus.items[2];
    donor_ = corpus.items[1];
  }

  Item NextVersion(int extra) const {
    Item next = item_;
    for (int r = 0; r < extra; ++r) {
      next.reviews.push_back(donor_.reviews[static_cast<size_t>(r)]);
    }
    return next;
  }

  /// Serves `expected.id` at each k of `ks` in order (cache bypassed) and
  /// checks each answer against a cold facade solve of `expected`, bit for
  /// bit. Returns the responses in request order.
  std::vector<ServeResponse> ExpectColdAnswers(
      SummaryServer& server, const Item& expected,
      const ReviewSummarizerOptions& summarizer_options,
      const std::string& context,
      const std::vector<int>& ks = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
    ReviewSummarizer cold(&onto_, summarizer_options);
    std::vector<ServeResponse> responses;
    for (int k : ks) {
      ServeRequest request;
      request.item_id = expected.id;
      request.k = k;
      request.bypass_cache = true;
      ServeResponse served = server.Serve(request);
      EXPECT_TRUE(served.status.ok())
          << context << " k=" << k << ": " << served.status.ToString();
      EXPECT_EQ(served.outcome, ServeOutcome::kSolved) << context;
      auto direct = cold.Summarize(expected, k);
      EXPECT_TRUE(direct.ok()) << direct.status().ToString();
      if (direct.ok()) {
        EXPECT_EQ(Fingerprint(served.summary), Fingerprint(*direct))
            << context << " k=" << k;
      }
      responses.push_back(std::move(served));
    }
    return responses;
  }

  Item item_;
  Item donor_;
};

TEST_F(SharedGraphTest, ServedAnswersEqualColdSolvesAcrossBumpAndUpdate) {
  for (SummaryGranularity granularity :
       {SummaryGranularity::kPairs, SummaryGranularity::kSentences,
        SummaryGranularity::kReviews}) {
    SCOPED_TRACE(static_cast<int>(granularity));
    ServeOptions options;
    options.num_threads = 2;
    options.summarizer.granularity = granularity;
    SummaryServer server(&onto_, {item_}, options);

    ExpectColdAnswers(server, item_, options.summarizer, "first version");
    EXPECT_EQ(server.counters().graph_builds, 1)
        << "ten reads of one version must share one graph";

    // An epoch bump invalidates summaries, not the item: same graph.
    server.BumpEpoch();
    ExpectColdAnswers(server, item_, options.summarizer, "after bump");
    EXPECT_EQ(server.counters().graph_builds, 1);

    // A new version is built once; every answer is the new version's.
    const Item next = NextVersion(5);
    server.UpdateItem(next);
    ExpectColdAnswers(server, next, options.summarizer, "after update");
    EXPECT_EQ(server.counters().graph_builds, 2);
  }
}

TEST_F(SharedGraphTest, GraphBuildSpanMarksOnlyTheReadThatBuilt) {
  obs::MetricsRegistry::Global().SetEnabled(true);
  obs::Gauge* graph_bytes =
      obs::MetricsRegistry::Global().GetGauge("osrs.serve.graph_bytes");
  const int64_t bytes_before = graph_bytes->value();
  {
    // One worker: when a response arrives, the worker has released the
    // previous flight's item version, so the gauge is exact.
    ServeOptions options;
    options.num_threads = 1;
    SummaryServer server(&onto_, {item_}, options);
    ReviewSummarizer facade(&onto_, options.summarizer);

    ServeRequest request;
    request.item_id = item_.id;
    request.bypass_cache = true;
    request.k = 3;
    ServeResponse first = server.Serve(request);
    ASSERT_TRUE(first.status.ok()) << first.status.ToString();
    EXPECT_TRUE(first.trace.HasSpan(obs::RequestSpanKind::kGraphBuild));
    request.k = 4;
    ServeResponse second = server.Serve(request);
    ASSERT_TRUE(second.status.ok()) << second.status.ToString();
    EXPECT_FALSE(second.trace.HasSpan(obs::RequestSpanKind::kGraphBuild))
        << "a reused graph must not show a build span";
    auto first_graph = facade.BuildGraph(item_, 3);
    ASSERT_TRUE(first_graph.ok());
    EXPECT_EQ(graph_bytes->value() - bytes_before,
              static_cast<int64_t>((*first_graph)->EstimateBytes()));

    const Item next = NextVersion(5);
    server.UpdateItem(next);
    ServeResponse updated = server.Serve(request);
    ASSERT_TRUE(updated.status.ok()) << updated.status.ToString();
    EXPECT_TRUE(updated.trace.HasSpan(obs::RequestSpanKind::kGraphBuild));
    auto next_graph = facade.BuildGraph(next, 4);
    ASSERT_TRUE(next_graph.ok());
    EXPECT_NE((*next_graph)->EstimateBytes(), (*first_graph)->EstimateBytes());
    EXPECT_EQ(graph_bytes->value() - bytes_before,
              static_cast<int64_t>((*next_graph)->EstimateBytes()))
        << "the replaced version's graph must be freed";
    EXPECT_NE(server.counters().ToJson().find("\"graph_builds\":2"),
              std::string::npos)
        << server.counters().ToJson();
  }
  EXPECT_EQ(graph_bytes->value(), bytes_before)
      << "stopping the server frees every graph";
  obs::MetricsRegistry::Global().SetEnabled(false);
}

TEST_F(SharedGraphTest, ConcurrentDistinctKOnFreshItemBuildOnce) {
  for (SummaryAlgorithm algorithm :
       {SummaryAlgorithm::kGreedy, SummaryAlgorithm::kGreedyLazy}) {
    SCOPED_TRACE(SummaryAlgorithmToString(algorithm));
    // Stall the one build so the other reads arrive while it runs; they
    // then all reach the version's greedy run at once.
    ASSERT_TRUE(FailpointRegistry::Global()
                    .ArmFromSpec("osrs.coverage.alloc=delay(100):once")
                    .ok());
    ServeOptions options;
    options.num_threads = 8;
    options.summarizer.algorithm = algorithm;
    SummaryServer server(&onto_, {item_}, options);

    constexpr int kClients = 8;
    std::vector<ServeResponse> responses(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([this, &server, &responses, c] {
        ServeRequest request;
        request.item_id = item_.id;
        request.k = 1 + c;
        responses[static_cast<size_t>(c)] = server.Serve(request);
      });
    }
    for (std::thread& thread : threads) thread.join();
    FailpointRegistry::Global().DisarmAll();

    ReviewSummarizer cold(&onto_, options.summarizer);
    int started = 0;
    int rounds = 0;
    for (int c = 0; c < kClients; ++c) {
      const ServeResponse& response = responses[static_cast<size_t>(c)];
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.outcome, ServeOutcome::kSolved)
          << "distinct k never coalesce";
      EXPECT_TRUE(response.trace.balanced());
      auto direct = cold.Summarize(item_, 1 + c);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(Fingerprint(response.summary), Fingerprint(*direct))
          << "k=" << 1 + c;
      // Reads that ran rounds or waited on the one that did show a span.
      EXPECT_EQ(response.trace.HasSpan(obs::RequestSpanKind::kGreedy),
                response.summary.greedy_run.active);
      started += response.summary.greedy_run.started ? 1 : 0;
      rounds += response.summary.greedy_run.rounds;
    }
    EXPECT_EQ(server.counters().solves, kClients);
    EXPECT_EQ(server.counters().graph_builds, 1)
        << "concurrent reads of one version must wait on a single build";
    EXPECT_EQ(server.counters().greedy_runs, 1)
        << "concurrent reads of one version must share one greedy run";
    EXPECT_EQ(started, 1);
    EXPECT_EQ(rounds, kClients) << "every round runs once, for the largest k";
  }
}

TEST_F(SharedGraphTest, GreedyRunAnswersAnyKOrderLikeColdSolves) {
  const std::vector<std::vector<int>> orders = {
      {10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
      {4, 9, 1, 7, 10, 2, 6, 3, 8, 5},
  };
  const Item next = NextVersion(5);
  for (SummaryGranularity granularity :
       {SummaryGranularity::kPairs, SummaryGranularity::kSentences,
        SummaryGranularity::kReviews}) {
    for (SummaryAlgorithm algorithm :
         {SummaryAlgorithm::kGreedy, SummaryAlgorithm::kGreedyLazy}) {
      for (const std::vector<int>& order : orders) {
        const std::string context = StrFormat(
            "granularity %d, %s, first k %d", static_cast<int>(granularity),
            SummaryAlgorithmToString(algorithm), order.front());
        ServeOptions options;
        options.num_threads = 2;
        options.summarizer.granularity = granularity;
        options.summarizer.algorithm = algorithm;
        SummaryServer server(&onto_, {item_}, options);

        std::vector<ServeResponse> first =
            ExpectColdAnswers(server, item_, options.summarizer, context,
                              order);
        EXPECT_EQ(server.counters().greedy_runs, 1) << context;
        int high = 0;  // the longest the run has been
        for (size_t i = 0; i < first.size(); ++i) {
          const GreedyRunUse& use = first[i].summary.greedy_run;
          EXPECT_EQ(use.started, i == 0) << context;
          EXPECT_EQ(use.rounds, std::max(0, order[i] - high)) << context;
          high = std::max(high, order[i]);
          // A read that only sliced the run shows no greedy span.
          EXPECT_EQ(first[i].trace.HasSpan(obs::RequestSpanKind::kGreedy),
                    use.rounds > 0 || use.started)
              << context << " k=" << order[i];
        }

        // An epoch bump keeps the version, so its graph and its run: every
        // answer is a slice.
        server.BumpEpoch();
        for (const ServeResponse& sliced : ExpectColdAnswers(
                 server, item_, options.summarizer, context + " bumped",
                 order)) {
          EXPECT_EQ(sliced.summary.greedy_run.rounds, 0) << context;
          EXPECT_FALSE(sliced.trace.HasSpan(obs::RequestSpanKind::kGreedy));
        }
        EXPECT_EQ(server.counters().greedy_runs, 1) << context;

        // A new version starts its own run; the old run never answers
        // (every answer is the new version's cold answer).
        server.UpdateItem(next);
        std::vector<ServeResponse> updated = ExpectColdAnswers(
            server, next, options.summarizer, context + " updated", order);
        EXPECT_TRUE(updated.front().summary.greedy_run.started) << context;
        EXPECT_EQ(server.counters().greedy_runs, 2) << context;
        EXPECT_EQ(server.counters().graph_builds, 2) << context;
      }
    }
  }
  // The update must change answers, or the old run could pass for new.
  ReviewSummarizer cold(&onto_, {});
  auto old_answer = cold.Summarize(item_, 10);
  auto new_answer = cold.Summarize(next, 10);
  ASSERT_TRUE(old_answer.ok() && new_answer.ok());
  EXPECT_NE(Fingerprint(*old_answer), Fingerprint(*new_answer));
}

TEST_F(SharedGraphTest, WorkBudgetDegradesServedSlicesLikeColdSolves) {
  const std::vector<int> shuffled = {4, 9, 1, 7, 10, 2, 6, 3, 8, 5};
  for (SummaryAlgorithm algorithm :
       {SummaryAlgorithm::kGreedy, SummaryAlgorithm::kGreedyLazy}) {
    // Half the work of an unbudgeted k = 10 solve: a cold k = 10 degrades.
    ReviewSummarizerOptions unbudgeted;
    unbudgeted.algorithm = algorithm;
    auto full = ReviewSummarizer(&onto_, unbudgeted).Summarize(item_, 10);
    ASSERT_TRUE(full.ok());
    int64_t work = 0;
    for (const auto& counter : full->stats.counters) {
      if (counter.name == "key_updates" || counter.name == "gain_recomputes") {
        work = counter.value;
      }
    }
    ASSERT_GT(work, 1);
    // With the default chain a greedy fallback finishes what the primary
    // started; with none the primary's incumbent is the answer.
    for (const std::vector<SummaryAlgorithm>& chain :
         {std::vector<SummaryAlgorithm>{SummaryAlgorithm::kGreedy},
          std::vector<SummaryAlgorithm>{}}) {
      const std::string context =
          StrFormat("%s, %zu fallbacks", SummaryAlgorithmToString(algorithm),
                    chain.size());
      ServeOptions options;
      options.num_threads = 2;
      options.summarizer.algorithm = algorithm;
      options.summarizer.max_solver_work = work / 2;
      options.summarizer.fallback_chain = chain;
      auto cold_ten =
          ReviewSummarizer(&onto_, options.summarizer).Summarize(item_, 10);
      ASSERT_TRUE(cold_ten.ok());
      ASSERT_TRUE(cold_ten->degraded) << context;

      SummaryServer server(&onto_, {item_}, options);
      int degraded = 0;
      for (const ServeResponse& served : ExpectColdAnswers(
               server, item_, options.summarizer, context, shuffled)) {
        degraded += served.summary.degraded ? 1 : 0;
      }
      EXPECT_GT(degraded, 0) << context;
      EXPECT_LT(degraded, 10) << context << ": small k fit the budget";
    }
  }
}

TEST_F(SharedGraphTest, AutoEpsilonBuildsPerRequestAndMatchesColdSolves) {
  ServeOptions options;
  options.num_threads = 1;
  options.summarizer.auto_epsilon = true;
  SummaryServer server(&onto_, {item_}, options);
  ReviewSummarizer cold(&onto_, options.summarizer);

  // On this item the elbow picks a different ε for k=2 than for k=6, so a
  // graph shared between the two would answer one of them wrongly.
  std::vector<double> epsilons;
  int64_t builds = 0;
  for (int k : {2, 6, 2}) {
    ServeRequest request;
    request.item_id = item_.id;
    request.k = k;
    request.bypass_cache = true;
    ServeResponse served = server.Serve(request);
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    auto direct = cold.Summarize(item_, k);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(Fingerprint(served.summary), Fingerprint(*direct)) << "k=" << k;
    EXPECT_TRUE(served.trace.HasSpan(obs::RequestSpanKind::kGraphBuild));
    EXPECT_EQ(server.counters().graph_builds, ++builds)
        << "auto_epsilon must build one graph per request";
    epsilons.push_back(served.summary.epsilon);
  }
  EXPECT_NE(epsilons[0], epsilons[1])
      << "test item no longer separates the elbow choices of k=2 and k=6";
}

// ------------------------------------------------- request tracing ---------

using obs::RequestSpanKind;

TEST_F(ServeTest, CoalescedFollowersShareSolveSpanWithDistinctRequestIds) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("osrs.serve.solve=delay(250):always")
                  .ok());
  ServeOptions options;
  options.num_threads = 1;
  SummaryServer server(&onto_, Items(1), options);

  constexpr int kClients = 6;
  std::vector<ServeResponse> responses(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &responses, c] {
      ServeRequest request;
      request.item_id = "item0";
      responses[static_cast<size_t>(c)] = server.Serve(request);
    });
  }
  for (std::thread& thread : threads) thread.join();
  FailpointRegistry::Global().DisarmAll();

  std::set<uint64_t> request_ids;
  const ServeResponse* leader = nullptr;
  for (const ServeResponse& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.trace.balanced());
    EXPECT_TRUE(response.trace.HasSpan(RequestSpanKind::kSolve))
        << "followers must carry the leader's solve span";
    EXPECT_GT(response.request_id, 0u);
    EXPECT_EQ(response.request_id, response.trace.context.request_id);
    EXPECT_EQ(response.trace_id, obs::DeriveTraceId(response.request_id));
    EXPECT_EQ(response.summary.request_id, response.request_id);
    EXPECT_EQ(response.summary.trace_id, response.trace_id);
    request_ids.insert(response.request_id);
    if (response.outcome == ServeOutcome::kSolved) leader = &response;
  }
  EXPECT_EQ(request_ids.size(), static_cast<size_t>(kClients))
      << "coalescing must not collapse request identities";
  ASSERT_NE(leader, nullptr);
  EXPECT_FALSE(leader->trace.HasSpan(RequestSpanKind::kCoalescedWait));
  int64_t leader_solve_ns =
      leader->trace.SpanDurationNs(RequestSpanKind::kSolve);
  for (const ServeResponse& response : responses) {
    if (response.outcome != ServeOutcome::kCoalesced) continue;
    EXPECT_EQ(response.trace.SpanDurationNs(RequestSpanKind::kSolve),
              leader_solve_ns)
        << "the solve span is shared, byte for byte, with the leader";
    EXPECT_TRUE(response.trace.HasSpan(RequestSpanKind::kCoalescedWait));
  }
}

TEST_F(ServeTest, ShedDegradedAndCompletedOutcomesCarryBalancedSpanTrees) {
  ServeOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;  // no stale fallback: shedding is visible
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest hurried;
  hurried.item_id = "item0";
  hurried.deadline_ms = 0.001;  // expired by dequeue
  ServeResponse shed = server.Serve(hurried);
  ASSERT_EQ(shed.outcome, ServeOutcome::kShed);
  EXPECT_TRUE(shed.trace.balanced());
  EXPECT_TRUE(shed.trace.HasSpan(RequestSpanKind::kQueueWait));
  EXPECT_TRUE(shed.trace.HasSpan(RequestSpanKind::kShedDecision));
  EXPECT_FALSE(shed.trace.HasSpan(RequestSpanKind::kSolve))
      << "a shed request must not carry a solve span";

  ServeRequest request;
  request.item_id = "item0";
  ServeResponse completed = server.Serve(request);
  ASSERT_TRUE(completed.status.ok());
  EXPECT_TRUE(completed.trace.balanced());
  EXPECT_TRUE(completed.trace.HasSpan(RequestSpanKind::kQueueWait));
  EXPECT_TRUE(completed.trace.HasSpan(RequestSpanKind::kSolve));

  // Degraded stale serve: cache on, epoch bumped, expired deadline.
  ServeOptions stale_options;
  stale_options.num_threads = 1;
  SummaryServer stale_server(&onto_, Items(1), stale_options);
  ASSERT_TRUE(stale_server.Serve(request).status.ok());
  stale_server.BumpEpoch();
  ServeResponse degraded = stale_server.Serve(hurried);
  ASSERT_EQ(degraded.outcome, ServeOutcome::kDegraded);
  EXPECT_TRUE(degraded.trace.balanced());
  EXPECT_TRUE(degraded.trace.HasSpan(RequestSpanKind::kQueueWait));
  EXPECT_TRUE(degraded.trace.HasSpan(RequestSpanKind::kStaleFallback));

  // Front-door rejection: still one balanced trace.
  ServeRequest unknown;
  unknown.item_id = "no-such-item";
  ServeResponse rejected = server.Serve(unknown);
  ASSERT_EQ(rejected.outcome, ServeOutcome::kRejected);
  EXPECT_TRUE(rejected.trace.balanced());
}

TEST(TraceRingTest, EvictsOldestFirstAtCapacity) {
  obs::TraceRing ring(3);
  for (uint64_t id = 1; id <= 5; ++id) {
    obs::RequestTrace trace;
    trace.context.request_id = id;
    ring.Push(trace);
  }
  std::vector<obs::RequestTrace> traces = ring.Snapshot();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].context.request_id, 3u) << "oldest evicted first";
  EXPECT_EQ(traces[1].context.request_id, 4u);
  EXPECT_EQ(traces[2].context.request_id, 5u);
}

TEST_F(ServeTest, ServerTraceRingKeepsTheMostRecentRequests) {
  ServeOptions options;
  options.num_threads = 1;
  options.trace_ring_capacity = 2;
  SummaryServer server(&onto_, Items(1), options);
  for (int i = 0; i < 5; ++i) {
    ServeRequest request;
    request.item_id = "item0";
    ASSERT_TRUE(server.Serve(request).status.ok());
  }
  std::vector<obs::RequestTrace> traces = server.recent_traces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].context.request_id, 4u);
  EXPECT_EQ(traces[1].context.request_id, 5u);
  for (const obs::RequestTrace& trace : traces) {
    EXPECT_TRUE(trace.balanced());
  }
}

TEST_F(ServeTest, StructuredLogsEmitSlowAndShedEvents) {
  // The sink runs under the logger's emit lock, so appends from the
  // worker thread and the caller thread cannot interleave.
  std::string captured;
  slog::SetSink(
      [](std::string_view line, void* user_data) {
        static_cast<std::string*>(user_data)->append(line);
      },
      &captured);

  ServeOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;
  options.slow_request_threshold_ms = 1e-6;  // everything is "slow"
  SummaryServer server(&onto_, Items(1), options);

  ServeRequest hurried;
  hurried.item_id = "item0";
  hurried.deadline_ms = 0.001;
  ASSERT_EQ(server.Serve(hurried).outcome, ServeOutcome::kShed);
  ServeRequest request;
  request.item_id = "item0";
  ASSERT_TRUE(server.Serve(request).status.ok());
  slog::SetSink(nullptr, nullptr);

  EXPECT_NE(captured.find("\"message\":\"request shed\""), std::string::npos)
      << captured;
  EXPECT_NE(captured.find("\"message\":\"slow request\""), std::string::npos);
  EXPECT_NE(captured.find("\"trace_id\":\""), std::string::npos)
      << "events must carry the log-correlation id";
  // The span tree rides inside the "spans" field as an escaped JSON
  // string, so look for the bare kind token.
  EXPECT_NE(captured.find("queue_wait"), std::string::npos)
      << "the slow-request event must embed the span tree";
}

// ------------------------------------------------- durability & drain ------

/// Fresh empty state directory for restart tests (clears generations a
/// previous run of the binary may have left).
std::string FreshServeStateDir(const std::string& tag) {
  std::string dir = testing::TempDir() + "/osrs_serve_state_" + tag;
  (void)::mkdir(dir.c_str(), 0755);
  store::StateStoreOptions naming_options;
  naming_options.dir = dir;
  store::StateStore naming(naming_options);
  for (uint64_t gen = 0; gen < 64; ++gen) {
    (void)store::RemoveFile(naming.SnapshotPath(gen));
    (void)store::RemoveFile(naming.JournalPath(gen));
  }
  return dir;
}

TEST_F(ServeTest, RestartRecoversMutationsAndEpochWithColdCache) {
  std::string dir = FreshServeStateDir("restart");
  ServeOptions options;
  options.num_threads = 1;
  options.state_dir = dir;

  std::string updated_fingerprint;
  uint64_t epoch_before = 0;
  {
    SummaryServer server(&onto_, Items(1), options);
    ASSERT_TRUE(server.recovery_status().ok())
        << server.recovery_status().ToString();
    server.UpdateItem(MakeItem(onto_, "item0", 0.3));
    ServeRequest request;
    request.item_id = "item0";
    ServeResponse response = server.Serve(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    updated_fingerprint = Fingerprint(response.summary);
    epoch_before = server.epoch();
    ASSERT_TRUE(server.Drain(2000.0));
  }

  // Restart against the same state dir, constructor-seeded with the
  // ORIGINAL (pre-update) corpus: recovery must overlay the journaled
  // update and restore the epoch, so the server picks up exactly where
  // the drained instance left off.
  SummaryServer restarted(&onto_, Items(1), options);
  ASSERT_TRUE(restarted.recovery_status().ok())
      << restarted.recovery_status().ToString();
  EXPECT_TRUE(restarted.persistence_enabled());
  EXPECT_TRUE(restarted.recovery_info().found_snapshot);
  EXPECT_EQ(restarted.epoch(), epoch_before) << "epoch continuity";

  // The cache is COLD after restart: the first request must be a fresh
  // solve at the recovered epoch — never a stale/degraded answer from a
  // previous life — and must see the recovered (updated) reviews.
  ServeRequest request;
  request.item_id = "item0";
  ServeResponse response = restarted.Serve(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.outcome, ServeOutcome::kSolved);
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.epoch, epoch_before);
  EXPECT_EQ(restarted.cache_stats().stale_hits, 0u);
  EXPECT_EQ(Fingerprint(response.summary), updated_fingerprint)
      << "recovered reviews must produce the same summary the pre-restart "
         "server served";
}

TEST_F(ServeTest, DrainCompletesWorkRejectsNewAndCollapsesJournal) {
  std::string dir = FreshServeStateDir("drain");
  ServeOptions options;
  options.num_threads = 2;
  options.state_dir = dir;
  SummaryServer server(&onto_, Items(3), options);
  ASSERT_TRUE(server.recovery_status().ok());

  for (int i = 0; i < 3; ++i) {
    server.UpdateItem(MakeItem(onto_, "item" + std::to_string(i), 0.2));
    ServeRequest request;
    request.item_id = "item" + std::to_string(i);
    ASSERT_TRUE(server.Serve(request).status.ok());
  }

  EXPECT_TRUE(server.Drain(2000.0)) << "drain must finish within deadline";

  // Post-drain admission is closed.
  ServeRequest late;
  late.item_id = "item0";
  ServeResponse rejected = server.Serve(late);
  EXPECT_NE(rejected.outcome, ServeOutcome::kSolved);
  EXPECT_FALSE(rejected.status.ok());

  // The accounting identities hold once drained: nothing in flight is
  // unaccounted for.
  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.submitted, counters.admitted + counters.rejected);
  EXPECT_EQ(counters.admitted,
            counters.completed + counters.shed + counters.failed);

  // Drain's final compaction collapsed the journal into a snapshot: a
  // recovery replays zero records and sees every mutation in the snapshot.
  store::StateStoreOptions store_options;
  store_options.dir = dir;
  store::StateStore store(store_options);
  store::SnapshotData state;
  Result<store::RecoveryInfo> info = store.Recover(&state);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->found_snapshot);
  EXPECT_EQ(info->journal_records_replayed, 0u);
  EXPECT_EQ(info->epoch, server.epoch());
  EXPECT_EQ(state.items.size(), 3u);
}

TEST_F(ServeTest, WatchdogCancelsStalledSolveAndServerSurvives) {
  ServeOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;  // no stale fallback: the stall is visible
  options.watchdog_stall_threshold_ms = 5.0;
  options.watchdog_poll_ms = 1.0;
  SummaryServer server(&onto_, Items(1), options);

  // Stall the solve (inside the watchdog's measured window) far past the
  // threshold: the watchdog must fire and cancel it via the budget's
  // cancellation flag.
  fault::FailpointSpec spec;
  spec.action = fault::FailAction::kDelay;
  spec.delay_ms = 100.0;
  spec.trigger = fault::FailTrigger::kOnce;
  FailpointRegistry::Global().Get("osrs.serve.solve")->Arm(spec);

  ServeRequest request;
  request.item_id = "item0";
  ServeResponse stalled = server.Serve(request);
  FailpointRegistry::Global().DisarmAll();
  EXPECT_GE(server.counters().watchdog_stalls, 1)
      << "a 100ms solve against a 5ms threshold must trip the watchdog";

  // The cancellation is scoped to the stalled flight: the next request
  // solves normally on the same worker.
  ServeResponse healthy = server.Serve(request);
  ASSERT_TRUE(healthy.status.ok()) << healthy.status.ToString();
  EXPECT_EQ(healthy.outcome, ServeOutcome::kSolved);
  (void)stalled;

  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.admitted,
            counters.completed + counters.shed + counters.failed);
}

}  // namespace
}  // namespace osrs::serve
