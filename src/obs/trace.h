#ifndef OSRS_OBS_TRACE_H_
#define OSRS_OBS_TRACE_H_

// The one trace model. A RequestTrace is the span tree of one unit of
// work plus the solver progress counters (heap pops, pivots, rounding
// trials, ...) recorded while it ran. Under SummaryServer the unit is a
// request, from Serve() down through admission, queue wait and the solve
// to the solver's own phases, so a slow read is explained by its trace
// alone (DESIGN.md, "Observability v2"). Outside the server it is one
// facade call or a bench session.
//
// Recording is cooperative and thread-local: Tracer::Scope installs a
// trace on the thread, and every TraceSpan / TraceStat below it on that
// thread records into it. With no trace installed a span costs one
// thread-local load and a branch; with one installed it costs two clock
// reads and a vector push. RAII spans keep the tree balanced on every
// exit path, including a solver's early return on a tripped budget and
// an exception unwinding through a solve.
//
// A trace is owned by one thread at a time. SummaryServer's submitting
// thread records the admission-side spans and hands the trace to the
// worker with the queued flight (the queue mutex is the synchronization
// point). The worker installs it for the solve and hands the finished
// trace back on the response. Coalesced followers copy the leader's
// completed trace, solver spans included, then stamp their own request id
// and append their wait span to the copy. The bounded TraceRing keeps the
// most recent completed traces for the `traces` REPL verb and post-hoc
// debugging.

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/sync.h"

namespace osrs::obs {

/// Identity of one request: a monotonic per-server request id plus the
/// trace id deterministically derived from it (DeriveTraceId), so tests
/// and log readers can reconstruct the pairing without coordination.
struct RequestContext {
  uint64_t request_id = 0;
  uint64_t trace_id = 0;
};

/// SplitMix64 finalizer over the request id: deterministic, bijective,
/// and well-spread, so trace ids look random in logs but are exactly
/// reproducible from the request sequence.
uint64_t DeriveTraceId(uint64_t request_id);

/// The span taxonomy (documented in README.md, "Observability"). The
/// solver phases come first: they are the kinds SolverStats reports.
enum class SpanKind : uint8_t {
  kBuildCoverageGraph = 0,  // §4.1 bipartite graph construction
  kHeapInit,                // greedy initial-gain scan + heap build
  kGreedyIterations,        // greedy selection rounds
  kLpRelaxation,            // simplex solve of the k-median LP
  kRoundingTrials,          // Algorithm 1 sampling (or LP-top-k rounding)
  kBranchAndBound,          // ILP branch-and-bound search
  kLocalSearchPasses,       // swap-polish passes (one span per pass)
  kExhaustiveEnumeration,   // oracle subset enumeration
  kReductionBuild,          // Theorem 1 Set-Cover reduction construction
  kSolveAttempt,            // one facade solver attempt (primary/fallback)
  kServe,                   // root of a served request: Serve() to response
  kCacheProbe,              // exact-epoch cache lookup
  kAdmission,               // coalesce-or-admit decision under the queue lock
  kQueueWait,               // enqueue to dequeue (recorded post hoc)
  kShedDecision,            // budget-vs-p50 shed evaluation at dequeue
  kSolve,                   // the worker's solve of the request
  kGraphBuild,     // building (or waiting on another solve's build of) the
                   // item version's coverage graph; absent on reuse
  kGreedy,         // starting or extending the graph's greedy run (or
                   // waiting on another solve doing so); absent on a slice
  kStaleFallback,  // stale-cache lookup after a shed/failed solve
  kCoalescedWait,  // a follower's wait on another request's flight
};
inline constexpr int kNumSolverPhases = 10;
// The solver phases must stay a prefix of SpanKind ending at kSolveAttempt.
static_assert(static_cast<int>(SpanKind::kSolveAttempt) + 1 ==
              kNumSolverPhases);

/// True for the kinds SolverStats aggregates (kBuildCoverageGraph ..
/// kSolveAttempt).
inline bool IsSolverPhase(SpanKind kind) {
  return static_cast<int>(kind) < kNumSolverPhases;
}

/// Stable lowercase snake_case name, e.g. "build_coverage_graph".
const char* SpanKindName(SpanKind kind);

/// Solver progress counters.
enum class Stat : uint8_t {
  kCandidatesConsidered = 0,  // candidates scanned for initial gains
  kHeapPops,                  // greedy heap extractions (incl. lazy rescans)
  kKeyUpdates,                // eager neighbor-of-neighbor key updates
  kGainRecomputes,            // lazy-heap gain recomputations
  kDistanceEvaluations,       // coverage-edge weight evaluations
  kSimplexPivots,             // simplex iterations across all LP solves
  kBnbNodes,                  // branch-and-bound nodes expanded
  kRoundingTrials,            // rounding draws completed
  kSwapsApplied,              // local-search swaps applied
  kSubsetsEvaluated,          // exhaustive subsets costed
  kGraphEdgesBuilt,           // coverage-graph edges assembled
  kGreedyRunStarts,           // SummaryGraph greedy runs started (heap
                              // inits that completed)
  kGreedyRunRounds,           // rounds SummaryGraph greedy runs ran
};
inline constexpr int kNumStats = 13;

/// Stable lowercase snake_case name, e.g. "distance_evaluations".
const char* StatName(Stat stat);

/// One recorded span. Spans are stored in start order with an explicit
/// depth instead of child pointers: enough to render the tree, cheap to
/// copy.
struct Span {
  SpanKind kind = SpanKind::kServe;
  /// Nesting level: 0 for a root, parent depth + 1 below it.
  int depth = 0;
  /// Offset from trace creation, nanoseconds.
  int64_t start_ns = 0;
  /// -1 while the span is open; >= 0 once closed.
  int64_t duration_ns = -1;

  friend bool operator==(const Span&, const Span&) = default;
};

/// The span tree and counters of one unit of work. Plain data, copyable;
/// not thread-safe (see the file comment for the ownership handoff).
/// ElapsedNanos() alone is safe to call concurrently with recording: it
/// reads only the creation-time clock base, which is immutable after
/// construction.
class RequestTrace {
 public:
  RequestContext context;

  /// Opens a span at the current nesting depth; returns its index for
  /// EndSpan. Spans must close in LIFO order (the tree is a stack shape).
  /// The span starts now, or at `start_ns` when given: a backdated start,
  /// no later than now and no earlier than the spans already recorded.
  size_t BeginSpan(SpanKind kind, int64_t start_ns = -1);

  /// Closes the span returned by BeginSpan.
  void EndSpan(size_t index);

  /// Appends an already-measured span (e.g. queue wait, whose start was
  /// only known to another thread). Placed under the currently open span;
  /// when the trace is already complete it becomes a child of the root.
  void AddSpan(SpanKind kind, int64_t start_ns, int64_t duration_ns);

  void AddStat(Stat stat, int64_t delta) {
    stats_[static_cast<size_t>(stat)] += delta;
  }
  int64_t stat(Stat stat) const { return stats_[static_cast<size_t>(stat)]; }

  /// What had been recorded at one point: SolverStats::FromTrace reports
  /// only what was recorded after it.
  struct Mark {
    size_t spans = 0;
    std::array<int64_t, kNumStats> stats{};
  };
  Mark mark() const { return Mark{spans_.size(), stats_}; }

  /// Nanoseconds since this trace was created: the time base every
  /// span's start_ns is relative to.
  int64_t ElapsedNanos() const { return watch_.ElapsedNanos(); }

  /// Preallocates room for `n` spans, so a short trace allocates once.
  void ReserveSpans(size_t n) { spans_.reserve(n); }

  const std::vector<Span>& spans() const { return spans_; }
  int open_spans() const { return open_depth_; }
  /// True when every opened span was closed: the invariant each completed
  /// ServeOutcome must satisfy (serve_test asserts it per outcome).
  bool balanced() const;

  bool HasSpan(SpanKind kind) const;
  /// Total closed duration over spans of `kind` (0 when absent).
  int64_t SpanDurationNs(SpanKind kind) const;

  /// {"trace_id":"<16 hex>","request_id":N,
  ///  "spans":[{"kind":"queue_wait","depth":1,"start_ns":..,
  ///            "duration_ns":..},...]}
  std::string ToJson() const;

 private:
  Stopwatch watch_;
  std::vector<Span> spans_;
  int open_depth_ = 0;
  std::array<int64_t, kNumStats> stats_{};
};

/// Thread-local installation point for the active trace.
class Tracer {
 public:
  /// The trace installed on this thread, or null (recording off).
  static RequestTrace* current() { return current_; }

  /// RAII installer: spans/stats on this thread record into `trace` until
  /// the scope dies; the previous trace (usually none) is restored after.
  class Scope {
   public:
    explicit Scope(RequestTrace* trace) : previous_(current_) {
      current_ = trace;
    }
    ~Scope() { current_ = previous_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RequestTrace* const previous_;
  };

 private:
  // Defined in-class with constinit so the compiler proves there is no
  // dynamic TLS initialization and accesses the slot directly instead of
  // through the thread_local init wrapper. The wrapper costs an extra call
  // on every instrumented hot-path stat, and GCC's UBSan misreports it as
  // a "load of null pointer" (false positive), failing the CI sanitizer
  // stage.
  static constinit inline thread_local RequestTrace* current_ = nullptr;
};

/// RAII span: open from construction to destruction on the thread's
/// installed trace, or on an explicit one. A null trace makes it a no-op.
class TraceSpan {
 public:
  explicit TraceSpan(SpanKind kind) : TraceSpan(Tracer::current(), kind) {}
  TraceSpan(RequestTrace* trace, SpanKind kind)
      : trace_(trace), index_(trace != nullptr ? trace->BeginSpan(kind) : 0) {}
  ~TraceSpan() {
    if (trace_ != nullptr) trace_->EndSpan(index_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  RequestTrace* const trace_;
  const size_t index_;
};

/// A span on the installed trace that is recorded only once Open() is
/// called, backdated to this object's construction: for a step worth a
/// span only when it turns out to do or wait on work (a graph build, a
/// greedy run), not when it reuses a result. Nothing may be recorded on
/// the trace between construction and Open(); Open() checks it.
class DeferredTraceSpan {
 public:
  explicit DeferredTraceSpan(SpanKind kind)
      : trace_(Tracer::current()),
        kind_(kind),
        start_ns_(trace_ != nullptr ? trace_->ElapsedNanos() : 0),
        spans_at_start_(trace_ != nullptr ? trace_->spans().size() : 0) {}
  ~DeferredTraceSpan() {
    if (open_) trace_->EndSpan(index_);
  }
  DeferredTraceSpan(const DeferredTraceSpan&) = delete;
  DeferredTraceSpan& operator=(const DeferredTraceSpan&) = delete;

  /// Records the span; later calls do nothing.
  void Open() {
    if (trace_ == nullptr || open_) return;
    // A span recorded since construction would precede the backdated one.
    OSRS_CHECK_EQ(trace_->spans().size(), spans_at_start_);
    index_ = trace_->BeginSpan(kind_, start_ns_);
    open_ = true;
  }

 private:
  RequestTrace* const trace_;
  const SpanKind kind_;
  const int64_t start_ns_;
  const size_t spans_at_start_;
  size_t index_ = 0;
  bool open_ = false;
};

/// Adds `delta` to `stat` on the installed trace, if any. Call once per
/// phase with a locally accumulated total, not from inner loops.
inline void TraceStat(Stat stat, int64_t delta) {
  RequestTrace* trace = Tracer::current();
  if (trace != nullptr) trace->AddStat(stat, delta);
}

/// Bounded ring of recently completed traces, oldest evicted first.
/// Thread-safe; capacity 0 disables retention entirely.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity) : capacity_(capacity) {}
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Push(RequestTrace trace) OSRS_EXCLUDES(mutex_);

  /// Copies the retained traces, oldest first.
  std::vector<RequestTrace> Snapshot() const OSRS_EXCLUDES(mutex_);

  size_t size() const OSRS_EXCLUDES(mutex_);
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mutex_;
  std::deque<RequestTrace> traces_ OSRS_GUARDED_BY(mutex_);
};

}  // namespace osrs::obs

#endif  // OSRS_OBS_TRACE_H_
