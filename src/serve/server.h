#ifndef OSRS_SERVE_SERVER_H_
#define OSRS_SERVE_SERVER_H_

// The overload-resilient serving layer: a long-lived SummaryServer that
// answers per-item summary requests from a worker pool behind a bounded
// queue, staying correct and responsive when offered load exceeds solve
// capacity. Four mechanisms compose (see DESIGN.md, "Serving
// architecture"):
//
//   * admission control — Serve() rejects with kResourceExhausted before
//     enqueueing when the queue is full or the estimated wait (queue depth
//     x observed p50 solve cost / workers) exceeds policy or the request's
//     own deadline;
//   * deadline-aware load shedding — a worker dequeuing a request whose
//     remaining budget cannot cover the observed p50 solve cost drops it
//     (kResourceExhausted) instead of starting a doomed solve, unless a
//     degraded answer is available;
//   * single-flight coalescing — concurrent requests for the same
//     (item, epoch, options, k) attach to one in-flight solve and all
//     receive its result, so a hot item costs one solve;
//   * graceful degradation — when over budget or when a solve fails
//     transiently, the server answers with the cached previous-epoch
//     summary (flagged degraded) rather than erroring, when one exists.
//
// Results are cached in a bounded LRU keyed by (item, corpus epoch,
// options fingerprint, k); BumpEpoch() invalidates the whole corpus
// generation in O(1) without touching entries. Below the result cache,
// each item version's coverage graph is built once and shared by every
// solve of that version whatever its k (not under auto_epsilon, whose ε
// depends on k). A version UpdateItem installs is built off the read path:
// one builder thread builds its graph and starts its greedy run (the heap
// init) right after the write, so its reads only slice or extend the run.
// A version no write-time build reached (the versions the server booted
// with, or a read that beat the builder) is built by its first solve.
// Failpoints osrs.serve.{admit,solve,cache} let the chaos suite drive
// every path; an exception escaping a solve or a build (injected bad_alloc
// included) is isolated to that request or build — the process never
// dies.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/review_summarizer.h"
#include "common/execution_budget.h"
#include "common/stopwatch.h"
#include "common/sync.h"
#include "core/model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ontology/ontology.h"
#include "serve/summary_cache.h"
#include "store/state_store.h"

namespace osrs::serve {

/// Server configuration. The summarizer options apply to every solve; the
/// per-request knobs are deadline and k only, so one options fingerprint
/// covers the whole server lifetime.
struct ServeOptions {
  ReviewSummarizerOptions summarizer;
  /// Worker threads; 0 = hardware concurrency.
  int num_threads = 0;
  /// Admission bound: requests beyond this queue depth are rejected with
  /// kResourceExhausted. Must be >= 1.
  size_t max_queue_depth = 256;
  /// Admission bound on estimated wait (queue depth x p50 / workers) in
  /// milliseconds; <= 0 disables the wait-based check.
  double max_estimated_wait_ms = 0.0;
  /// Deadline for requests that do not carry their own; <= 0 = unlimited.
  double default_deadline_ms = 0.0;
  /// LRU capacity in summaries; 0 disables caching (and with it the
  /// degraded stale-answer path).
  size_t cache_capacity = 1024;
  /// When true (default) an over-budget or transiently failed request is
  /// answered with the latest cached summary for its item (any epoch),
  /// flagged degraded, instead of being shed/failed.
  bool serve_stale_when_over_budget = true;
  /// Solve-cost observations required before the p50 estimate gates
  /// admission and shedding (cold-start protection: with fewer samples
  /// only queue depth and already-expired deadlines shed).
  int64_t min_cost_samples = 20;
  /// Completed request traces retained in memory (recent_traces(), the
  /// osrs_serve `traces` REPL verb); 0 disables retention. Oldest are
  /// evicted first.
  size_t trace_ring_capacity = 128;
  /// Requests whose total latency exceeds this emit their full span tree
  /// as one structured "slow request" log event; <= 0 disables.
  double slow_request_threshold_ms = 0.0;
  /// Durability: directory for the snapshot + journal pair (see
  /// store/state_store.h). Empty disables persistence entirely. The
  /// directory must exist; construction recovers the committed state from
  /// it before any worker starts.
  std::string state_dir;
  /// When a journal record counts as committed (store/journal.h).
  store::FsyncPolicy fsync_policy = store::FsyncPolicy::kEveryRecord;
  /// Max ms between journal fsyncs under FsyncPolicy::kInterval.
  uint64_t fsync_interval_ms = 50;
  /// Journal size that triggers automatic compaction into a fresh
  /// snapshot; 0 disables size-based compaction.
  uint64_t journal_compact_threshold_bytes = 8ull << 20;
  /// Default deadline for Drain() when the caller passes <= 0.
  double drain_deadline_ms = 5000.0;
  /// Watchdog: a solve running longer than this is cancelled through its
  /// worker's CancellationFlag (the solver returns its degraded incumbent
  /// or kCancelled); <= 0 disables the watchdog thread.
  double watchdog_stall_threshold_ms = 0.0;
  /// How often the watchdog samples worker progress.
  double watchdog_poll_ms = 20.0;
};

/// One summary request. The item must have been loaded into the server.
struct ServeRequest {
  std::string item_id;
  int k = 5;
  /// Wall-clock budget for this request (queue wait included); <= 0 uses
  /// ServeOptions::default_deadline_ms.
  double deadline_ms = 0.0;
  /// Skip the exact-hit cache read (the result is still inserted). Only
  /// the summary cache is skipped: the solve still reuses the item
  /// version's coverage graph when it was built (at write time or by an
  /// earlier solve), and a
  /// greedy solve still answers from that graph's greedy run (a slice, or
  /// an extension by the missing rounds), which equals a cold solve.
  bool bypass_cache = false;
};

/// Where a response came from — the failure-semantics-v3 taxonomy
/// (DESIGN.md): every request ends in exactly one of these.
enum class ServeOutcome {
  kRejected,   // admission control refused it (kResourceExhausted)
  kCacheHit,   // exact current-epoch cache hit
  kCoalesced,  // attached to another request's in-flight solve
  kSolved,     // a fresh solve (possibly internally degraded by budget)
  kDegraded,   // answered with a stale cached summary, flagged degraded
  kShed,       // dropped at dequeue: budget could not fund a solve
  kFailed,     // solve failed and no degraded answer existed
};

const char* ServeOutcomeToString(ServeOutcome outcome);

/// One request's answer plus serving diagnostics.
struct ServeResponse {
  Status status;        // OK for kCacheHit/kCoalesced/kSolved/kDegraded
  ItemSummary summary;  // default-constructed on error
  ServeOutcome outcome = ServeOutcome::kFailed;
  /// True when `summary` is not a fresh full-budget answer: either the
  /// solve degraded internally (summary.degraded) or a stale epoch was
  /// served. Mirrored into summary.degraded.
  bool degraded = false;
  /// Corpus epoch the summary was solved under (== epoch at submit time
  /// for fresh solves; older for stale degraded answers).
  uint64_t epoch = 0;
  double queue_ms = 0.0;  // admission to dequeue (0 for cache hits)
  double total_ms = 0.0;  // Serve() entry to return
  /// Monotonic per-server id of this request and the 64-bit trace id
  /// derived from it (obs::DeriveTraceId). Coalesced followers keep their
  /// own ids while sharing the leader's solve span.
  uint64_t request_id = 0;
  uint64_t trace_id = 0;
  /// The request's span tree: balanced (every span closed) for every
  /// outcome, with queue-wait and solve spans for requests that reached a
  /// worker. Mirrored into the server's trace ring.
  obs::RequestTrace trace;
};

/// Monotonic request accounting. Invariants (checked by serve_test and
/// bench_serve): submitted == admitted + rejected, and — once the queue is
/// drained — admitted == completed + shed + failed. `completed` includes
/// cache hits, coalesced waiters, fresh solves, and degraded answers.
struct ServerCounters {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t failed = 0;
  int64_t coalesced = 0;   // waiters that attached to an in-flight solve
  int64_t solves = 0;      // solver invocations (not per-request)
  int64_t cache_hits = 0;  // exact-epoch hits
  int64_t degraded = 0;    // responses with degraded == true
  int64_t epoch_bumps = 0;
  int64_t watchdog_stalls = 0;  // solves cancelled by the stall watchdog
  /// Coverage graphs built (successful builds only), wherever they ran: by
  /// the write-time builder or by a solve. About one per item version that
  /// was written or read, or one per solve under auto_epsilon.
  int64_t graph_builds = 0;
  /// Greedy runs started (heap inits that completed), by the write-time
  /// builder or by successful solves: about one per item version, since
  /// later solves of any k slice or extend the version graph's run.
  int64_t greedy_runs = 0;
  /// Graphs the write-time builder built (a part of graph_builds): versions
  /// UpdateItem installed whose build no read had started first.
  int64_t write_builds = 0;

  std::string ToJson() const;
};

/// Long-lived serving daemon over one annotated corpus. Serve() is
/// thread-safe and blocking — callers are the "connections"; concurrency
/// comes from calling it on many threads, a worker pool solves behind the
/// queue. Construction starts the workers; destruction (or Stop) drains
/// the queue, failing still-queued requests with kUnavailable, and joins.
class SummaryServer {
 public:
  /// `ontology` must outlive the server; `items` are copied in and served
  /// by Item::id (duplicate ids: last wins).
  SummaryServer(const Ontology* ontology, std::vector<Item> items,
                ServeOptions options);
  ~SummaryServer();
  SummaryServer(const SummaryServer&) = delete;
  SummaryServer& operator=(const SummaryServer&) = delete;

  /// Answers one request (blocking). Never throws; every failure mode is
  /// a Status per the ServeOutcome taxonomy.
  ServeResponse Serve(const ServeRequest& request)
      OSRS_EXCLUDES(mutex_, items_mutex_, counters_mutex_, cost_mutex_);

  /// Invalidates every cached summary by advancing the corpus epoch —
  /// O(1), no cache traversal. In-flight solves complete under the epoch
  /// they started with and cache as already-stale entries. With
  /// persistence on, the bump is journaled before this returns.
  uint64_t BumpEpoch()
      OSRS_EXCLUDES(mutation_mutex_, items_mutex_, counters_mutex_);
  uint64_t epoch() const { return epoch_.value(); }

  /// Replaces (or adds) one item and bumps the epoch: "reviews arrived".
  /// The new version is queued for the write-time builder, which builds
  /// its graph and starts its greedy run unless a read has already started
  /// the build or the version is replaced before its turn; this call does
  /// not wait for it. The old version's graph is freed once no solve uses
  /// it any more. With persistence on, the mutation is journaled
  /// (committed per the fsync policy) before this returns.
  void UpdateItem(Item item)
      OSRS_EXCLUDES(mutation_mutex_, items_mutex_, counters_mutex_,
                    builder_mutex_);

  /// Blocks until the write-time builder has no build queued or running,
  /// or `timeout_ms` has passed; returns true when it is idle. True at once
  /// under auto_epsilon (no builder) and after Stop().
  bool WaitForWriteBuilds(double timeout_ms) OSRS_EXCLUDES(builder_mutex_);

  /// Stops accepting requests, fails whatever is still queued with
  /// kUnavailable, drops the queued write-time builds, and joins the
  /// workers, the builder (after the build it is running) and the
  /// watchdog. Idempotent.
  void Stop()
      OSRS_EXCLUDES(mutex_, counters_mutex_, watchdog_mutex_, builder_mutex_);

  /// Graceful drain: stops admitting new requests, waits for every
  /// admitted flight to complete (up to `deadline_ms`; <= 0 uses
  /// ServeOptions::drain_deadline_ms), then stops the workers — shedding
  /// with kUnavailable whatever the deadline cut off — and the builder,
  /// as Stop() does, and writes a final snapshot when persistence is on.
  /// Write-time builds are not waited for. Returns true when everything
  /// admitted completed within the deadline. Idempotent; safe to race
  /// with Stop().
  bool Drain(double deadline_ms = 0.0)
      OSRS_EXCLUDES(mutex_, items_mutex_, counters_mutex_, mutation_mutex_,
                    watchdog_mutex_, builder_mutex_);

  /// Compacts the journal into a fresh snapshot of the current state now
  /// (the osrs_serve `snapshot` verb). kFailedPrecondition when
  /// persistence is disabled.
  Status ForceSnapshot()
      OSRS_EXCLUDES(mutex_, items_mutex_, mutation_mutex_);

  /// OK when persistence is off or recovery succeeded; the recovery
  /// failure (kDataLoss for corrupt durable state) otherwise. A server
  /// with a failed recovery starts empty and does not persist — callers
  /// that care (osrs_serve does) must check before serving traffic.
  const Status& recovery_status() const { return recovery_status_; }
  /// What startup recovery found (valid when recovery_status() is OK and
  /// persistence is on).
  const store::RecoveryInfo& recovery_info() const { return recovery_info_; }
  bool persistence_enabled() const { return store_ != nullptr; }

  ServerCounters counters() const OSRS_EXCLUDES(counters_mutex_);
  /// The most recent completed request traces, oldest first (bounded by
  /// ServeOptions::trace_ring_capacity).
  std::vector<obs::RequestTrace> recent_traces() const {
    return trace_ring_.Snapshot();
  }
  CacheStats cache_stats() const { return cache_.stats(); }
  /// Observed solve-cost distribution (the shed threshold's input).
  obs::HistogramSnapshot solve_cost_snapshot() const
      OSRS_EXCLUDES(cost_mutex_);
  /// Current p50 solve-cost estimate in ms (0 until min_cost_samples).
  double p50_solve_ms() const OSRS_EXCLUDES(cost_mutex_);
  int num_workers() const { return num_workers_; }

 private:
  struct Flight;
  struct ItemVersion;

  /// Per-worker progress the watchdog samples. The solve start time is a
  /// nanosecond offset on the shared watchdog clock (-1 = idle);
  /// `generation` increments per solve so the watchdog fires at most once
  /// per stalled solve. Atomics, not a mutex: the watchdog must read
  /// while the worker is wedged inside a solve.
  struct WorkerState {
    std::atomic<int64_t> solve_start_ns{-1};
    std::atomic<uint64_t> generation{0};
    CancellationFlag cancel;
  };

  ServeResponse ServeImpl(const ServeRequest& request)
      OSRS_EXCLUDES(mutex_, items_mutex_, counters_mutex_, cost_mutex_);
  void WorkerLoop(int worker_index) OSRS_EXCLUDES(mutex_);
  void ProcessFlight(const std::shared_ptr<Flight>& flight, int worker_index)
      OSRS_EXCLUDES(mutex_, items_mutex_, counters_mutex_, cost_mutex_);
  void WatchdogLoop() OSRS_EXCLUDES(watchdog_mutex_, counters_mutex_);
  /// Recovers committed state from options_.state_dir into items_/epoch_
  /// (overlaying `initial_items`) and persists the merged initial state.
  void RecoverState(std::vector<Item>* initial_items)
      OSRS_EXCLUDES(items_mutex_);
  /// Snapshot of the current corpus (items + epoch) for compaction.
  store::SnapshotData CaptureState() OSRS_EXCLUDES(items_mutex_);
  /// Journals one mutation and auto-compacts when due; never fails the
  /// in-memory mutation — persistence trouble is logged and the journal
  /// self-heals through compaction on the next mutation.
  void JournalMutation(const Item* item, uint64_t epoch_after)
      OSRS_REQUIRES(mutation_mutex_) OSRS_EXCLUDES(items_mutex_);
  /// Removes the flight from the coalescing map, applies per-request
  /// accounting (once per attached request), fills the flight's response,
  /// and wakes every waiter.
  void CompleteFlight(const std::shared_ptr<Flight>& flight,
                      ServeResponse response)
      OSRS_EXCLUDES(mutex_, counters_mutex_);
  void ObserveSolveCost(double ms) OSRS_EXCLUDES(cost_mutex_);
  /// One solve of `version` through the facade, exceptions caught, with
  /// `trace` installed on this thread: the solve's spans and counters
  /// record into it. Counts the greedy runs a successful solve started
  /// (its greedy_run_starts) in greedy_runs.
  Result<ItemSummary> GuardedSolve(ItemVersion& version, int k,
                                   const ExecutionBudget& budget,
                                   obs::RequestTrace* trace)
      OSRS_EXCLUDES(counters_mutex_);
  /// The version's shared graph: built by this call when nothing has built
  /// it, waited for when a solve or the builder is building it. The graph
  /// source of every solve and the builder's first step (`write_time`,
  /// which also counts the build in write_builds). Records a kGraphBuild
  /// span on the installed trace unless the graph was already there.
  Result<std::shared_ptr<const SummaryGraph>> AcquireGraph(
      ItemVersion& version, const ReviewSummarizer& summarizer, int k,
      bool write_time) OSRS_EXCLUDES(counters_mutex_);
  /// The builder thread: takes queued versions in write order until Stop.
  void BuilderLoop() OSRS_EXCLUDES(builder_mutex_);
  /// One write-time build: skips a version that was replaced, acquires
  /// its graph, then starts its greedy run when greedy is configured.
  /// Failures are logged and leave the slots empty for the reads.
  void BuildWrittenVersion(const std::weak_ptr<ItemVersion>& written,
                           const ReviewSummarizer& summarizer)
      OSRS_EXCLUDES(items_mutex_, counters_mutex_, builder_mutex_);
  /// Stale-cache fallback; returns true and fills `response` when a
  /// degraded answer exists and policy allows serving it. Records a
  /// kStaleFallback span on the flight's trace either way.
  bool TryServeStale(Flight& flight, ServeResponse* response);

  const Ontology* ontology_;
  const ServeOptions options_;
  const uint64_t options_fingerprint_;
  /// Fixed at construction (immutable thereafter, so admission may read
  /// it without a lock).
  const int num_workers_;

  /// Immutable item versions so a worker can solve against an item while
  /// UpdateItem swaps the map entry underneath it. Each carries the
  /// coverage graph built for it, so graph memory is one graph per live
  /// item, plus replaced versions that in-flight solves still hold, plus
  /// at most one version the builder is building.
  mutable Mutex items_mutex_;  // UpdateItem vs worker reads
  std::unordered_map<std::string, std::shared_ptr<ItemVersion>> items_
      OSRS_GUARDED_BY(items_mutex_);

  CorpusEpoch epoch_;
  SummaryCache cache_;

  /// Serializes corpus mutations with their journal appends so the
  /// journal's record order matches epoch order exactly (replay must
  /// reproduce the same final state).
  mutable Mutex mutation_mutex_;
  /// Null when persistence is off (no --state-dir) or recovery failed.
  /// Set once during construction, so the pointer itself is read without
  /// a lock; the StateStore serializes its own internals.
  std::unique_ptr<store::StateStore> store_;
  Status recovery_status_;
  store::RecoveryInfo recovery_info_;

  /// Queue + coalescing state under one mutex. workers_ lives here too:
  /// Stop() swaps the thread vector out under the lock so two concurrent
  /// Stop() calls (or Stop racing the destructor) cannot both join —
  /// the join itself happens after the lock is dropped.
  Mutex mutex_;
  CondVar work_cv_;
  std::deque<std::shared_ptr<Flight>> queue_ OSRS_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_
      OSRS_GUARDED_BY(mutex_);
  bool stopping_ OSRS_GUARDED_BY(mutex_) = false;
  /// Drain mode: admission rejects (kUnavailable) but workers keep
  /// draining the queue, unlike stopping_ which also stops the workers.
  bool draining_ OSRS_GUARDED_BY(mutex_) = false;
  /// Notified whenever flights_ empties (a flight completed); Drain waits
  /// on it under mutex_.
  CondVar drain_cv_;
  /// Per-worker ReviewSummarizer instances live in WorkerLoop.
  std::vector<std::thread> workers_ OSRS_GUARDED_BY(mutex_);

  /// Stall watchdog. The states vector is sized at construction and never
  /// resized, so workers and the watchdog index it without a lock; the
  /// mutex exists only for the watchdog's interruptible sleep.
  Stopwatch watchdog_clock_;
  std::vector<std::unique_ptr<WorkerState>> worker_states_;
  mutable Mutex watchdog_mutex_;
  CondVar watchdog_cv_;
  bool watchdog_stop_ OSRS_GUARDED_BY(watchdog_mutex_) = false;
  std::thread watchdog_;

  /// Solve-cost estimate feeding admission and shedding. Kept as a plain
  /// snapshot under its own mutex so the policy works even when the
  /// global metrics registry is disabled.
  mutable Mutex cost_mutex_;
  obs::HistogramSnapshot solve_cost_ OSRS_GUARDED_BY(cost_mutex_);
  double p50_solve_ms_cached_ OSRS_GUARDED_BY(cost_mutex_) = 0.0;

  /// Request accounting (own mutex: counters are read by admission while
  /// workers update them).
  mutable Mutex counters_mutex_;
  ServerCounters counters_ OSRS_GUARDED_BY(counters_mutex_);

  /// Request-id source (ids start at 1) and the ring of completed traces.
  std::atomic<uint64_t> next_request_id_{0};
  obs::TraceRing trace_ring_;

  /// Write-time builder (not started under auto_epsilon). The queue holds
  /// versions in write order as weak pointers, so a queued build never
  /// keeps a replaced version (and its item) alive. Readers never wait on
  /// the queue, only on a version's graph slot. Stop() clears the queue;
  /// the build running then completes before the thread is joined.
  Mutex builder_mutex_;
  CondVar builder_cv_;       // a version was queued, or stop
  CondVar builder_idle_cv_;  // a build finished, or stop
  std::deque<std::weak_ptr<ItemVersion>> build_queue_
      OSRS_GUARDED_BY(builder_mutex_);
  bool builder_busy_ OSRS_GUARDED_BY(builder_mutex_) = false;
  bool builder_stop_ OSRS_GUARDED_BY(builder_mutex_) = false;
  std::thread builder_;
};

}  // namespace osrs::serve

#endif  // OSRS_SERVE_SERVER_H_
