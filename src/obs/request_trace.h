#ifndef OSRS_OBS_REQUEST_TRACE_H_
#define OSRS_OBS_REQUEST_TRACE_H_

// Request-scoped tracing for the serving layer: where obs/trace.h times
// the phases *inside* one solve, RequestTrace follows one request across
// threads — admission, cache probe, queue wait, shed decision, solve,
// stale fallback — as a flattened span tree with a deterministic 64-bit
// trace id, so a p99 outlier or a shed decision is attributable to a
// phase after the fact (DESIGN.md, "Observability v2").
//
// A trace is owned by exactly one thread at a time: the submitting thread
// records admission-side spans, hands the trace to the worker with the
// queued flight (the queue mutex is the synchronization point), and the
// worker records queue-wait/shed/solve spans before handing the finished
// trace back on the response. Coalesced followers copy the leader's
// completed trace — sharing its solve span — then stamp their own
// request id and append their wait span to the copy.
//
// Recording a span is a clock read and a vector push, cheap enough for
// the serving path. The bounded TraceRing keeps the most recent completed
// traces in memory for the `traces` REPL verb and post-hoc debugging.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/sync.h"
#include "obs/solver_stats.h"

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

/// The serving-path phases a request can pass through. kServe is the root
/// span every trace opens with; the rest nest one level below it.
enum class RequestSpanKind {
  kServe,          // root: Serve() entry to response
  kCacheProbe,     // exact-epoch cache lookup
  kAdmission,      // coalesce-or-admit decision under the queue lock
  kQueueWait,      // enqueue to dequeue (recorded post-hoc by the worker)
  kShedDecision,   // budget-vs-p50 shed evaluation at dequeue
  kSolve,          // the solver invocation
  kStaleFallback,  // stale-cache lookup after a shed/failed solve
  kCoalescedWait,  // a follower's wait on another request's flight
};

const char* RequestSpanKindName(RequestSpanKind kind);

/// One recorded phase. Spans are stored in start order with an explicit
/// depth instead of child pointers — enough to render the tree, cheap to
/// copy.
struct RequestSpan {
  RequestSpanKind kind = RequestSpanKind::kServe;
  /// Nesting level: 0 for the root kServe span, 1 for its children.
  int depth = 0;
  /// Offset from trace creation, nanoseconds.
  int64_t start_ns = 0;
  /// -1 while the span is open; >= 0 once closed.
  int64_t duration_ns = -1;
};

/// The span tree of one request. Plain data, copyable; not thread-safe —
/// ownership passes between threads through an external synchronization
/// point (the serving queue's mutex). ElapsedNanos() alone is safe to
/// call concurrently with recording: it reads only the creation-time
/// clock base, which is immutable after construction.
class RequestTrace {
 public:
  RequestContext context;

  /// Opens a span at the current nesting depth; returns its index for
  /// EndSpan. Spans must close in LIFO order (the tree is a stack shape).
  size_t BeginSpan(RequestSpanKind kind);

  /// Closes the span returned by BeginSpan.
  void EndSpan(size_t index);

  /// Appends an already-measured span (e.g. queue wait, whose start was
  /// only known to another thread). Placed under the currently open span;
  /// when the trace is already complete it becomes a child of the root.
  void AddSpan(RequestSpanKind kind, int64_t start_ns, int64_t duration_ns);

  /// Attaches the per-phase solver breakdown of the solve this request
  /// triggered (empty stats are ignored).
  void AttachSolverStats(SolverStats stats);

  /// Nanoseconds since this trace was created — the time base every
  /// span's start_ns is relative to.
  int64_t ElapsedNanos() const { return watch_.ElapsedNanos(); }

  const std::vector<RequestSpan>& spans() const { return spans_; }
  int open_spans() const { return open_depth_; }
  /// True when every opened span was closed: the invariant each completed
  /// ServeOutcome must satisfy (serve_test asserts it per outcome).
  bool balanced() const;

  bool HasSpan(RequestSpanKind kind) const;
  /// Total closed duration over spans of `kind` (0 when absent).
  int64_t SpanDurationNs(RequestSpanKind kind) const;

  const SolverStats& solver_stats() const { return solver_stats_; }
  bool has_solver_stats() const { return has_solver_stats_; }

  /// {"trace_id":"<16 hex>","request_id":N,
  ///  "spans":[{"kind":"queue_wait","depth":1,"start_ns":..,
  ///            "duration_ns":..},...],
  ///  "solver":<SolverStats::ToJson()>}        (solver omitted when absent)
  std::string ToJson() const;

 private:
  Stopwatch watch_;
  std::vector<RequestSpan> spans_;
  int open_depth_ = 0;
  SolverStats solver_stats_;
  bool has_solver_stats_ = false;
};

/// RAII span for same-thread phases. Null trace = no-op.
class RequestSpanScope {
 public:
  RequestSpanScope(RequestTrace* trace, RequestSpanKind kind)
      : trace_(trace), index_(trace != nullptr ? trace->BeginSpan(kind) : 0) {}
  ~RequestSpanScope() {
    if (trace_ != nullptr) trace_->EndSpan(index_);
  }
  RequestSpanScope(const RequestSpanScope&) = delete;
  RequestSpanScope& operator=(const RequestSpanScope&) = delete;

 private:
  RequestTrace* trace_;
  size_t index_;
};

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

#endif  // OSRS_OBS_REQUEST_TRACE_H_
