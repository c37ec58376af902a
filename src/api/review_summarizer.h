#ifndef OSRS_API_REVIEW_SUMMARIZER_H_
#define OSRS_API_REVIEW_SUMMARIZER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/execution_budget.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/model.h"
#include "coverage/item_graph.h"
#include "obs/solver_stats.h"
#include "ontology/ontology.h"
#include "solver/greedy.h"

namespace osrs {

/// Monotonic corpus-version counter. Every mutation of the served corpus
/// (a review added or removed, a re-annotation) bumps it; consumers that
/// key derived artifacts by the epoch — the serving layer's summary cache
/// today, the planned incremental engine's snapshots tomorrow — treat any
/// entry carrying an older epoch as stale without having to diff the
/// corpus itself. Thread-safe; bumping while solves are in flight is fine
/// (in-flight results are stamped with the epoch they started under).
///
/// Intentionally a bare atomic rather than a common/sync.h Mutex-guarded
/// counter: there is no multi-field invariant to protect, and the acq_rel
/// bump / acquire read pair is the whole ordering contract — a consumer
/// that observes epoch N also observes every corpus write made before
/// the bump to N. Atomics sit outside Clang's capability analysis by
/// design (see DESIGN.md, "Static analysis v2").
class CorpusEpoch {
 public:
  CorpusEpoch() = default;
  CorpusEpoch(const CorpusEpoch&) = delete;
  CorpusEpoch& operator=(const CorpusEpoch&) = delete;

  uint64_t value() const { return epoch_.load(std::memory_order_acquire); }

  /// Advances the epoch; returns the new value. Safe from any thread.
  uint64_t Bump() {
    return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// Sets the counter to a recovered value. Only for startup recovery,
  /// before any consumer can observe the epoch — epochs must never move
  /// backwards once serving begins (cache keys and journal records both
  /// assume monotonicity).
  void Restore(uint64_t value) {
    epoch_.store(value, std::memory_order_release);
  }

 private:
  std::atomic<uint64_t> epoch_{0};
};

/// Which §4 algorithm the facade runs.
enum class SummaryAlgorithm {
  kGreedy,              // Algorithm 2 (the paper's recommended default),
                        // solved with the lazy heap
  kIlp,                 // exact §4.2 (bundled branch-and-bound)
  kRandomizedRounding,  // Algorithm 1 over the LP relaxation
  kLocalSearch,         // greedy + swap polish (extension, see solver/)
};

const char* SummaryAlgorithmToString(SummaryAlgorithm algorithm);

/// Facade configuration.
struct ReviewSummarizerOptions {
  /// Sentiment threshold ε of Definition 1 (0.5 = the elbow choice, §5.3).
  double epsilon = 0.5;
  /// When set, ε is chosen per item by the §5.3 elbow method over a
  /// default grid instead of using `epsilon`. Costs one greedy run per
  /// grid point before the real solve.
  bool auto_epsilon = false;
  SummaryAlgorithm algorithm = SummaryAlgorithm::kGreedy;
  SummaryGranularity granularity = SummaryGranularity::kSentences;
  /// Worker threads for coverage-graph construction (§4.1), including the
  /// auto_epsilon probes: targets are sharded across threads, each writing
  /// its edges straight into disjoint slices of the final CSR, and the
  /// graph is identical at every setting. 1 (the default) builds serially;
  /// 0 uses the hardware concurrency; negative values are an
  /// InvalidArgument error at Summarize time. Graph construction dominates
  /// a greedy solve that builds its graph (~83% of such a solve on the
  /// phone corpus). SummaryServer builds each item version's graph once:
  /// on its builder thread when UpdateItem installs the version, or on
  /// the version's first read when no write-time build has started (the
  /// versions it booted with, or a read that beat the builder). There this
  /// figure describes only those builds. Raising this pays off when
  /// requests do not already keep every core busy.
  int graph_build_threads = 1;
  /// Upper bound on the bytes any coverage graph built for the item may
  /// occupy (the solve graph and every auto_epsilon probe); 0 (the
  /// default) means unlimited. The builder's counting pass knows the exact
  /// edge total before allocating, so an over-budget item fails fast with
  /// kResourceExhausted — a retryable code, so a BatchSummarizer
  /// RetryPolicy will re-attempt it (useful when the pressure is transient)
  /// and otherwise the item is isolated instead of OOM-killing the process.
  size_t max_memory_bytes = 0;
  /// Seed of the randomized-rounding draw (unused by other algorithms).
  /// Fallback attempts reseed deterministically (seed + attempt index) so a
  /// retried randomized rounding draws a fresh sample.
  uint64_t seed = 7;

  /// Wall-clock budget per Summarize call in milliseconds; <= 0 disables
  /// the deadline. When the deadline trips mid-solve the facade degrades
  /// along `fallback_chain` instead of failing (see below).
  double deadline_ms = 0.0;
  /// Deterministic work budget per solve attempt (same solver-defined unit
  /// as SummaryResult::work: B&B nodes, simplex iterations, greedy gain
  /// recomputes, ...); <= 0 means unlimited. Unlike the wall-clock deadline
  /// this is reproducible, so tests can exercise degradation
  /// deterministically.
  int64_t max_solver_work = 0;
  /// Optional cooperative cancellation; the flag must outlive the call.
  /// Cancellation always surfaces as a kCancelled error — it is the one
  /// budget trip the fallback chain does not absorb.
  const CancellationFlag* cancellation = nullptr;
  /// When true, a ModelValidator pass (see validate/model_validator.h)
  /// runs before solving: the item's pairs, the sentence grouping, and the
  /// solver configuration are checked against the §2 model invariants.
  /// Error-severity findings fail the call with kInvalidArgument carrying
  /// the rendered report; warning findings are attached to
  /// ItemSummary::validation_warnings. Off by default because a trusted
  /// serving path should not pay the extra corpus walk per request.
  bool strict_validation = false;
  /// When true (the default) each Summarize call returns phase timings
  /// plus solver progress counters on ItemSummary::stats, aggregated from
  /// what it recorded in the trace installed on its thread (see
  /// obs/trace.h), or in a local one when none is installed. Costs two
  /// clock reads per recorded span, plus one small span-list allocation
  /// per call when no trace is installed; set false to skip both when no
  /// trace is installed.
  bool collect_stats = true;
  /// Algorithms tried, in order, after the primary `algorithm` trips its
  /// budget (or fails for any reason other than cancellation / invalid
  /// arguments). Entries are attempted verbatim — repeating the primary
  /// algorithm retries it (useful for randomized rounding, which reseeds
  /// per attempt). The final fallback attempt runs with only the
  /// cancellation flags attached, so unless cancelled the facade always
  /// returns a summary, flagged `degraded`.
  std::vector<SummaryAlgorithm> fallback_chain = {SummaryAlgorithm::kGreedy};
};

/// 64-bit fingerprint of every option field that can change the *outcome*
/// of a full-budget solve: epsilon / auto_epsilon, algorithm, granularity,
/// seed, max_solver_work, strict_validation, max_memory_bytes, and the
/// fallback chain. Runtime-only knobs that are proven not to affect the
/// solution — deadline_ms, cancellation, collect_stats, and
/// graph_build_threads (the sharded builder is bit-identical at any thread
/// count) — are deliberately excluded, so a cache keyed by this hash keeps
/// its hits across deployment-tuning changes. Two option structs with the
/// same fingerprint produce bit-identical non-degraded summaries for the
/// same item and k.
uint64_t OptionsFingerprint(const ReviewSummarizerOptions& options);

/// One representative in a summary.
struct SummaryEntry {
  /// Human-readable rendering: "concept = +0.65" for pair granularity, the
  /// sentence text for sentences, the first sentence + review index for
  /// reviews.
  std::string display;
  /// The underlying pair (pair granularity) or the first pair of the
  /// selected sentence/review.
  ConceptSentimentPair pair;
  int review_index = -1;
  int sentence_index = -1;  // -1 at pair/review granularity
};

/// A computed summary plus diagnostics.
struct ItemSummary {
  std::vector<SummaryEntry> entries;
  /// Definition 2 coverage cost of the selection.
  double cost = 0.0;
  /// Solver wall-clock seconds of the attempt that produced `entries`
  /// (excludes graph construction). A greedy attempt answered from the
  /// graph's run reports only what this call did: a pure slice reports
  /// microseconds, not the time of the rounds it returns; an attempt that
  /// waited for the run, started it or extended it includes that.
  double solver_seconds = 0.0;
  /// The ε actually used (differs from the configured one under
  /// auto_epsilon).
  double epsilon = 0.0;
  size_t num_pairs = 0;
  size_t num_candidates = 0;
  size_t num_edges = 0;

  /// True when the summary is not the configured algorithm's full-budget
  /// answer: a budget tripped and either a fallback algorithm produced the
  /// result or the primary stopped early with its best incumbent.
  bool degraded = false;
  /// The algorithm that produced `entries` (differs from the configured
  /// one after a fallback).
  SummaryAlgorithm algorithm_used = SummaryAlgorithm::kGreedy;
  /// Why degradation happened (kOk when `degraded` is false): typically
  /// kDeadlineExceeded or kResourceExhausted.
  StatusCode stop_reason = StatusCode::kOk;
  /// Total wall-clock milliseconds spent in Summarize, across every
  /// attempt. Unlike `solver_seconds` it includes getting the graph: its
  /// construction, or under SummaryServer a wait on another request's
  /// build of it (near zero when the graph was already built).
  double budget_spent_ms = 0.0;
  /// Warning-severity findings of the strict-validation pass, rendered as
  /// "warning OSRS-XXX-NNN [location]: message" lines. Always empty unless
  /// ReviewSummarizerOptions::strict_validation is set.
  std::vector<std::string> validation_warnings;
  /// Per-phase timings and solver progress counters of this solve (empty
  /// when ReviewSummarizerOptions::collect_stats is false): the solver-phase
  /// spans and counters the call recorded in its trace (obs/trace.h),
  /// aggregated by obs::SolverStats::FromTrace. They count only work this
  /// call did: a greedy attempt that slices the graph's run adds no
  /// heap_init or greedy_iterations phase and no counters, and one that
  /// extends the run adds only its new rounds (greedy_run_rounds; a
  /// completed heap init counts in greedy_run_starts).
  obs::SolverStats stats;
  /// Transient-failure retries this summary consumed before succeeding.
  /// Always 0 from ReviewSummarizer::Summarize itself — retrying is
  /// BatchSummarizer's job (see BatchSummarizerOptions::retry_policy),
  /// which stamps the count on the entry it returns.
  int retries = 0;
  /// Log-correlation identity of the serving request that produced this
  /// summary (see obs/trace.h). Stamped by SummaryServer; 0 for
  /// summaries computed outside the serving layer.
  uint64_t request_id = 0;
  uint64_t trace_id = 0;

  /// Compact JSON rendering (entries, cost, diagnostics) for tooling.
  ///
  /// Diagnostic fields live only under one "diagnostics" object (degraded,
  /// algorithm, stop_reason, budget_spent_ms, solver_seconds, retries,
  /// request_id, trace_id — the hex log-correlation id —
  /// validation_warnings, stats); the top level holds the summary itself
  /// (cost, epsilon, sizes, entries). What the greedy attempts did with
  /// the graph's run is in stats (greedy_run_starts, greedy_run_rounds)
  /// and, under SummaryServer, in the request's span tree.
  std::string ToJson() const;
};

/// The k-independent half of a solve: the §4.1 coverage graph of one item
/// at the configured granularity, plus the ε it was built for. It depends
/// only on the item, ε and the granularity, so one graph serves every k
/// (SummaryServer shares it across the requests for one item version).
///
/// Immutable once built, except for its run slot: one resumable lazy-heap
/// GreedyRun (solver/greedy.h). The first greedy solve on the graph starts
/// the run, and later ones extend it only as far as the largest k asked
/// for. Every greedy attempt the facade makes on the graph answers from
/// the run, primary and fallback alike: it slices the run when it is long
/// enough, and otherwise extends it under its own budget. A slice replays
/// the budget checks of the rounds it returns, so every answer equals a
/// cold solve bit for bit. A run is tiny next to its graph (a few bytes
/// per target, per candidate and per round; see GreedyRun) and shares the
/// graph's lifetime.
/// Concurrent solves may use the graph; the slot serializes the ones that
/// extend a run.
class SummaryGraph {
 public:
  SummaryGraph(double epsilon, ItemGraph item_graph);
  ~SummaryGraph();
  SummaryGraph(const SummaryGraph&) = delete;
  SummaryGraph& operator=(const SummaryGraph&) = delete;

  /// The ε the graph was built with (the elbow's choice under
  /// auto_epsilon).
  const double epsilon;
  const ItemGraph item_graph;

  /// CoverageGraph::EstimateBytes of the graph: the heap bytes of its CSR
  /// lanes, offsets and root distances. The run is not counted, so the
  /// figure is fixed from the build on.
  size_t EstimateBytes() const;

  /// A greedy solve of k (in [0, num_candidates]) under `budget`, answered
  /// from the graph's run: GreedyRun::Solve on it, after waiting for any
  /// other solve extending it. The run stays at its last whole round when
  /// a budget, the "osrs.solver.step" failpoint or cancellation interrupts
  /// a round. An exception thrown by the init or a round, or a budget trip
  /// during the init, leaves the slot empty, so the next solve starts a
  /// new run. On the installed trace it records a "greedy" span when it
  /// waits on, starts or extends the run (none for a pure slice), and
  /// counts a completed start in greedy_run_starts and the rounds it ran
  /// in greedy_run_rounds. `seconds` of the result covers the whole call.
  Result<SummaryResult> SolveGreedy(int k, const ExecutionBudget& budget) const;

  /// Rounds recorded by the run; -1 while its slot is empty.
  int GreedyRunRounds() const;

 private:
  struct RunSlot {
    Mutex mutex;
    CondVar extended_cv;
    /// Set while a solve holds the run outside the lock to start or
    /// extend it; the run is then out of the slot.
    bool extending OSRS_GUARDED_BY(mutex) = false;
    std::unique_ptr<GreedyRun> run OSRS_GUARDED_BY(mutex);
  };

  mutable RunSlot slot_;
};

/// The library's top-level entry point: reviews of one item in, the k most
/// representative pairs / sentences / reviews out, using the ontology- and
/// sentiment-aware coverage framework of §2 with the §4 algorithms.
///
/// Typical use:
///
///   Ontology phones = BuildCellPhoneHierarchy();
///   ReviewSummarizer summarizer(&phones, {});
///   auto summary = summarizer.Summarize(item, /*k=*/5);
///   for (const auto& entry : summary->entries) std::puts(entry.display.c_str());
///
/// Items must carry concept-sentiment pairs; run ReviewAnnotator first for
/// raw text. The ontology must outlive the summarizer.
class ReviewSummarizer {
 public:
  ReviewSummarizer(const Ontology* ontology,
                   ReviewSummarizerOptions options = {});

  /// Summarizes `item` with (up to) k representatives. k larger than the
  /// candidate count is truncated; k < 0 is an error, as are non-finite or
  /// out-of-range sentiments anywhere in the item.
  ///
  /// Budgets come from the options (deadline_ms / max_solver_work /
  /// cancellation). When a budget trips the facade walks `fallback_chain`;
  /// only cancellation (kCancelled), invalid input, or an already-expired
  /// budget at entry surface as errors.
  Result<ItemSummary> Summarize(const Item& item, int k) const;

  /// As above, additionally tightened by `external` — used by
  /// BatchSummarizer to impose a whole-batch deadline and cancellation on
  /// top of the per-item options.
  Result<ItemSummary> Summarize(const Item& item, int k,
                                const ExecutionBudget& external) const;

  /// Supplies the graph one solve runs on. It may build a fresh graph with
  /// BuildGraph or return one shared with other solves of the same item.
  using GraphSource =
      std::function<Result<std::shared_ptr<const SummaryGraph>>()>;

  /// The solve half: as above, but the graph comes from `graph_source`
  /// instead of being built here. The request checks run first and on
  /// every call: k, item validation, strict validation and the budget
  /// check at entry. Only then is `graph_source` called, exactly once,
  /// and the fallback chain runs on what it returns. A graph-source
  /// error is returned as is. The graph must have been built by
  /// BuildGraph of a summarizer with the same ε, auto_epsilon and
  /// granularity, from this `item` (and, under auto_epsilon, this k).
  /// Plain Summarize is this call with a source that runs BuildGraph.
  Result<ItemSummary> Summarize(const Item& item, int k,
                                const ExecutionBudget& external,
                                const GraphSource& graph_source) const;

  /// The build half: validates `item` and builds its coverage graph under
  /// the configured ε (or, under auto_epsilon, the elbow's choice for
  /// this k; k is ignored otherwise), granularity, graph_build_threads and
  /// max_memory_bytes. Build failures (memory bound, the
  /// "osrs.coverage.alloc" failpoint) have no partial result and are
  /// returned as is.
  Result<std::shared_ptr<const SummaryGraph>> BuildGraph(const Item& item,
                                                         int k) const;

  /// Starts `graph`'s greedy run with zero rounds (SummaryGraph::
  /// SolveGreedy at k = 0): the heap init alone, so that later solves on
  /// the graph only slice or extend the run. OK
  /// with nothing run when the run has already started or the configured
  /// algorithm is not greedy. Fails as the init does (a budget trip,
  /// cancellation), which leaves the run slot empty.
  Status StartGreedyRun(const SummaryGraph& graph,
                        const ExecutionBudget& budget) const;

  const ReviewSummarizerOptions& options() const { return options_; }

 private:
  const Ontology* ontology_;
  ReviewSummarizerOptions options_;
};

}  // namespace osrs

#endif  // OSRS_API_REVIEW_SUMMARIZER_H_
