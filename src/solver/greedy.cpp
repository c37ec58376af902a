#include "solver/greedy.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/indexed_heap.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace osrs {
namespace {

/// Marginal gain of adding candidate u when each target w is currently
/// covered at distance best[w]: Σ_w max(0, best[w] - d(u, w)), streamed
/// through the dispatched SIMD kernel over u's SoA row. Each edge scanned
/// is one coverage-distance evaluation, tallied in `evals` (a reference —
/// the former int64_t* out-param accepted null and crashed at the first
/// edge) and flushed to the trace once per phase.
double GainOf(const CoverageGraph& graph, const float* best, int u,
              EvalCounter& evals) {
  OSRS_DCHECK(std::addressof(evals) != nullptr);
  const CoverageGraph::EdgeLanes lanes = graph.ForwardLanesOf(u);
  evals.distance_evals += static_cast<int64_t>(lanes.size);
  return simd::GainReduce(lanes.endpoint, lanes.distance, lanes.size, best,
                          graph.target_weights_or_null());
}

obs::Counter* SolvesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.greedy.solves");
  return counter;
}

Status ValidateK(const CoverageGraph& graph, int k) {
  if (k < 0 || k > graph.num_candidates()) {
    return Status::InvalidArgument(
        StrFormat("k=%d outside [0, %d]", k, graph.num_candidates()));
  }
  return Status::OK();
}

/// Candidates between budget polls while scanning the initial gains.
constexpr int kInitCheckPeriod = 256;

/// Max-heap of (possibly stale gain, candidate) entries for the lazy
/// strategy, over arena storage. Entries carry a strict total order (gain
/// descending, id ascending — each live candidate has at most one entry),
/// so the pop sequence is uniquely determined and implementation-
/// independent; this matches the std::priority_queue it replaces exactly.
class LazyMaxHeap {
 public:
  struct Entry {
    double gain;
    int32_t id;
  };

  LazyMaxHeap(size_t capacity, Arena& arena)
      : entries_(arena.AllocateArray<Entry>(capacity)) {}

  bool empty() const { return size_ == 0; }
  const Entry& Top() const {
    OSRS_DCHECK(size_ > 0);
    return entries_[0];
  }
  void Push(Entry entry) {
    OSRS_DCHECK(size_ < entries_.size());
    size_t pos = size_++;
    entries_[pos] = entry;
    while (pos > 0) {
      size_t parent = (pos - 1) / 2;
      if (!Precedes(entries_[pos], entries_[parent])) break;
      std::swap(entries_[pos], entries_[parent]);
      pos = parent;
    }
  }
  Entry Pop() {
    OSRS_DCHECK(size_ > 0);
    Entry top = entries_[0];
    entries_[0] = entries_[--size_];
    size_t pos = 0;
    while (true) {
      size_t left = 2 * pos + 1;
      size_t right = left + 1;
      size_t best = pos;
      if (left < size_ && Precedes(entries_[left], entries_[best]))
        best = left;
      if (right < size_ && Precedes(entries_[right], entries_[best]))
        best = right;
      if (best == pos) break;
      std::swap(entries_[pos], entries_[best]);
      pos = best;
    }
    return top;
  }

  /// The heap order: larger gain first, smaller id on ties, like the
  /// eager heap.
  static bool Precedes(const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain > b.gain;
    return a.id < b.id;
  }

 private:
  std::span<Entry> entries_;
  size_t size_ = 0;
};

/// The initial-gain scan shared by both heaps: calls `emit(u, gain)` with
/// δ(u, {r}) for every candidate in id order, polling the budget every
/// kInitCheckPeriod candidates. The scan's evaluations go to the trace
/// whether or not the budget trips.
template <typename Emit>
Status ScanInitialGains(const CoverageGraph& graph, const float* best,
                        const ExecutionBudget& budget, Emit emit) {
  EvalCounter evals;
  Status status = Status::OK();
  {
    obs::TraceSpan init_span(obs::SpanKind::kHeapInit);
    for (int u = 0; u < graph.num_candidates(); ++u) {
      if (u % kInitCheckPeriod == 0) {
        status = budget.Check();
        if (!status.ok()) break;
      }
      emit(u, GainOf(graph, best, u, evals));
    }
  }
  obs::TraceStat(obs::Stat::kDistanceEvaluations, evals.distance_evals);
  if (status.ok()) {
    obs::TraceStat(obs::Stat::kCandidatesConsidered, graph.num_candidates());
  }
  return status;
}

size_t NumCandidates(const CoverageGraph& graph) {
  return static_cast<size_t>(graph.num_candidates());
}

/// The paper's Algorithm 2 heap: keys updated in place after every pick.
/// The paper-fidelity oracle (tests, the A1 and Fig. 4/5 benches); the
/// facade solves with the lazy heap.
class EagerRun final : public GreedyRun {
 public:
  explicit EagerRun(const CoverageGraph& graph)
      // Per candidate: its key, its heap and position slots, its pending
      // delta and its touched-list slot.
      : GreedyRun(graph, NumCandidates(graph) *
                             (sizeof(double) + 2 * sizeof(int32_t) +
                              sizeof(double) + sizeof(int32_t))),
        backward_(graph.Transpose()),
        keys_(arena_.AllocateArray<double>(NumCandidates(graph))),
        pending_delta_(arena_.AllocateArray<double>(NumCandidates(graph))),
        touched_(arena_.AllocateArray<int32_t>(NumCandidates(graph))) {
    std::fill(pending_delta_.begin(), pending_delta_.end(), 0.0);
  }

  bool exhausted() const override { return heap_->empty(); }

 protected:
  Status Init(const ExecutionBudget& budget) override {
    OSRS_RETURN_IF_ERROR(ScanInitialGains(
        graph_, best_.data(), budget, [this](int u, double gain) {
          keys_[static_cast<size_t>(u)] = gain;
        }));
    heap_.emplace(keys_, arena_);
    return Status::OK();
  }

  int RunRound(double& cost, int64_t& work, RoundTally& tally) override {
    IndexedMaxHeap& heap = *heap_;
    const double* target_weights = graph_.target_weights_or_null();
    const int chosen = heap.PopMax();
    ++tally.heap_pops;
    size_t num_touched = 0;

    // Apply the selection: improve best[] along chosen's edges, and record
    // how the improvement shrinks the gains of other coverers of those
    // targets (the neighbor-of-neighbor updates of Algorithm 2, lines
    // 7-9). This stays scalar — the backward walk needs the old best per
    // target anyway — while the gain scans vectorize.
    const CoverageGraph::EdgeLanes edges = graph_.ForwardLanesOf(chosen);
    tally.evals.distance_evals += static_cast<int64_t>(edges.size);
    for (size_t i = 0; i < edges.size; ++i) {
      const int32_t w = edges.endpoint[i];
      float& current = best_[static_cast<size_t>(w)];
      if (edges.distance[i] >= current) continue;
      const double old_best = static_cast<double>(current);
      const double new_best = static_cast<double>(edges.distance[i]);
      const double target_weight =
          target_weights == nullptr ? 1.0
                                    : target_weights[static_cast<size_t>(w)];
      current = edges.distance[i];
      cost -= (old_best - new_best) * target_weight;
      const CoverageGraph::EdgeLanes covering = backward_.LanesOf(w);
      for (size_t j = 0; j < covering.size; ++j) {
        const int32_t candidate = covering.endpoint[j];
        if (!heap.Contains(candidate)) continue;
        const double back_distance =
            static_cast<double>(covering.distance[j]);
        double before = std::max(0.0, old_best - back_distance);
        double after = std::max(0.0, new_best - back_distance);
        if (before != after) {
          double& slot = pending_delta_[static_cast<size_t>(candidate)];
          if (slot == 0.0) touched_[num_touched++] = candidate;
          slot += (before - after) * target_weight;
        }
      }
    }
    for (size_t t = 0; t < num_touched; ++t) {
      const int candidate = touched_[t];
      double& slot = pending_delta_[static_cast<size_t>(candidate)];
      heap.UpdateKey(candidate, heap.KeyOf(candidate) - slot);
      slot = 0.0;
      ++work;
    }
    return chosen;
  }

  obs::Stat work_stat() const override { return obs::Stat::kKeyUpdates; }

 private:
  /// The graph's backward rows (coverers of each target), which the
  /// neighbor-of-neighbor updates walk. The graph keeps only the forward
  /// CSR, so the run derives and owns them.
  const CoverageGraph::Transposed backward_;
  /// The heap's keys, mutated in place by UpdateKey.
  std::span<double> keys_;
  std::optional<IndexedMaxHeap> heap_;  // built by Init
  // Accumulates per-candidate key deltas across all targets improved by
  // one selection, so each affected candidate gets a single heap update.
  // Dense array + touched list instead of a hash map: deltas are strictly
  // positive, so pending_delta_[c] == 0.0 marks "not yet touched this
  // round" and the reset after applying is O(touched).
  std::span<double> pending_delta_;
  std::span<int32_t> touched_;
};

/// Lazy greedy: stale keys, recomputed only when popped.
class LazyRun final : public GreedyRun {
 public:
  explicit LazyRun(const CoverageGraph& graph)
      : GreedyRun(graph, NumCandidates(graph) * sizeof(LazyMaxHeap::Entry)),
        heap_(NumCandidates(graph), arena_) {}

  bool exhausted() const override { return heap_.empty(); }

 protected:
  Status Init(const ExecutionBudget& budget) override {
    return ScanInitialGains(
        graph_, best_.data(), budget,
        [this](int u, double gain) { heap_.Push({gain, u}); });
  }

  // Staleness is safe because the gain is monotone non-increasing as F
  // grows (submodularity): every stale key bounds its candidate's true
  // gain from above. A recomputed (gain, id) that precedes the top entry
  // in the heap order therefore precedes every candidate's true (gain,
  // id), so the pick is the eager heap's: the largest gain, the smallest
  // id among equal gains. Accepting a fresh gain that merely equals the
  // top's would pick u over a smaller-id candidate of the same true gain.
  // Each candidate has at most one live entry (a pop either picks or
  // re-pushes it), so capacity n suffices and a picked candidate never
  // resurfaces.
  int RunRound(double& cost, int64_t& work, RoundTally& tally) override {
    while (true) {
      const int u = heap_.Pop().id;
      ++tally.heap_pops;
      const LazyMaxHeap::Entry fresh{
          GainOf(graph_, best_.data(), u, tally.evals), u};
      ++work;
      if (heap_.empty() || LazyMaxHeap::Precedes(fresh, heap_.Top())) {
        // Apply the pick with the vectorized min-update: best[] improves
        // in place and the returned covered-cost decrease follows the
        // fixed accumulation-order contract, so it is bit-identical
        // between the scalar and AVX2 backends.
        const CoverageGraph::EdgeLanes edges = graph_.ForwardLanesOf(u);
        tally.evals.distance_evals += static_cast<int64_t>(edges.size);
        cost -= simd::ApplyPickMin(edges.endpoint, edges.distance, edges.size,
                                   best_.data(),
                                   graph_.target_weights_or_null());
        return u;
      }
      heap_.Push(fresh);
    }
  }

  obs::Stat work_stat() const override { return obs::Stat::kGainRecomputes; }

 private:
  LazyMaxHeap heap_;
};

}  // namespace

GreedyRun::GreedyRun(const CoverageGraph& graph, size_t candidate_bytes)
    : graph_(graph),
      // One block: best[], the candidate arrays, and a line of alignment
      // slack per array.
      arena_(sizeof(float) * static_cast<size_t>(graph.num_targets()) +
             candidate_bytes + 8 * Arena::kAlignment),
      best_(arena_.AllocateArray<float>(
          static_cast<size_t>(graph.num_targets()))),
      progress_{{graph.EmptySummaryCost(), 0}} {
  std::copy(graph.root_distances_f32(),
            graph.root_distances_f32() + graph.num_targets(), best_.begin());
}

Result<std::unique_ptr<GreedyRun>> GreedyRun::Start(
    const CoverageGraph& graph, GreedyOptions::Heap heap,
    const ExecutionBudget& budget) {
  std::unique_ptr<GreedyRun> run;
  if (heap == GreedyOptions::Heap::kEager) {
    run = std::make_unique<EagerRun>(graph);
  } else {
    run = std::make_unique<LazyRun>(graph);
  }
  OSRS_RETURN_IF_ERROR(run->Init(budget));
  return run;
}

Result<StatusCode> GreedyRun::ExtendTo(int k, const ExecutionBudget& budget) {
  RoundTally tally;
  const int64_t work_before = progress_.back().work;
  Status error = Status::OK();
  StatusCode stop = StatusCode::kOk;
  {
    obs::TraceSpan select_span(obs::SpanKind::kGreedyIterations);
    while (!Covers(k)) {
      // Injected failures abort the solve with the injected Status — the
      // facade's fallback chain then decides what (if anything) runs next.
      error = OSRS_FAILPOINT("osrs.solver.step");
      if (!error.ok()) break;
      Status budget_status = budget.Check(progress_.back().work);
      if (budget_status.code() == StatusCode::kCancelled) {
        error = std::move(budget_status);
        break;
      }
      if (!budget_status.ok()) {
        stop = budget_status.code();
        break;
      }
      Progress next = progress_.back();
      const int pick = RunRound(next.cost, next.work, tally);
      picks_.push_back(pick);
      progress_.push_back(next);
    }
  }
  obs::TraceStat(obs::Stat::kHeapPops, tally.heap_pops);
  obs::TraceStat(work_stat(), progress_.back().work - work_before);
  obs::TraceStat(obs::Stat::kDistanceEvaluations, tally.evals.distance_evals);
  if (!error.ok()) return error;
  return stop;
}

SummaryResult GreedyRun::Prefix(int rounds, StatusCode stop_reason) const {
  SummaryResult result;
  result.selected.assign(picks_.begin(), picks_.begin() + rounds);
  result.cost = progress_[static_cast<size_t>(rounds)].cost;
  result.work = progress_[static_cast<size_t>(rounds)].work;
  // A partial selection is a valid (smaller) summary: it is the incumbent
  // a cold solve returns when its budget trips before round `rounds`.
  result.approximate = stop_reason != StatusCode::kOk;
  result.stop_reason = stop_reason;
  return result;
}

Result<SummaryResult> GreedyRun::Slice(int k,
                                       const ExecutionBudget& budget) const {
  const int recorded = std::min(k, rounds());
  for (int round = 0; round < recorded; ++round) {
    Status budget_status =
        budget.Check(progress_[static_cast<size_t>(round)].work);
    if (budget_status.code() == StatusCode::kCancelled) return budget_status;
    if (!budget_status.ok()) return Prefix(round, budget_status.code());
  }
  return Prefix(recorded);
}

Result<SummaryResult> GreedyRun::Solve(int k, const ExecutionBudget& budget) {
  OSRS_DCHECK(k >= 0 && k <= graph_.num_candidates());
  // A cold solve checks the recorded rounds first, so a budget that trips
  // inside them stops the answer there and nothing is extended.
  Result<SummaryResult> result = Slice(k, budget);
  if (result.ok() && !result->approximate && !Covers(k)) {
    Result<StatusCode> stop = ExtendTo(k, budget);
    OSRS_RETURN_IF_ERROR(stop.status());
    result = Prefix(rounds(), *stop);  // ExtendTo never passes k
  }
  if (result.ok()) SolvesCounter()->Increment();
  return result;
}

GreedySummarizer::GreedySummarizer(GreedyOptions options)
    : options_(options) {}

std::string GreedySummarizer::name() const {
  return options_.heap == GreedyOptions::Heap::kEager ? "Greedy"
                                                      : "Greedy(lazy)";
}

Result<SummaryResult> GreedySummarizer::Summarize(
    const CoverageGraph& graph, int k, const ExecutionBudget& budget) {
  OSRS_RETURN_IF_ERROR(ValidateK(graph, k));
  Stopwatch watch;
  Result<std::unique_ptr<GreedyRun>> run =
      GreedyRun::Start(graph, options_.heap, budget);
  OSRS_RETURN_IF_ERROR(run.status());
  Result<SummaryResult> result = (*run)->Solve(k, budget);
  if (result.ok()) result->seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace osrs
