#ifndef OSRS_SOLVER_GREEDY_H_
#define OSRS_SOLVER_GREEDY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "obs/trace.h"
#include "solver/summarizer.h"

namespace osrs {

/// Tally of coverage-distance evaluations made while scoring candidates.
/// Passed by reference into the gain kernels (previously a raw int64_t*
/// out-param, which compiled fine when null and crashed at the first
/// edge); flushed to the kDistanceEvaluations trace stat once per phase.
struct EvalCounter {
  int64_t distance_evals = 0;
};

/// Options for the greedy summarizer.
struct GreedyOptions {
  /// Heap maintenance strategy. kEager is the paper's Algorithm 2: after a
  /// selection, the keys of every neighbor-of-neighbor are updated in place
  /// (O(d²) updates of O(log n) each). kLazy is the classical lazy-greedy
  /// optimization valid for submodular gains: keys go stale and are
  /// recomputed only when popped, accepted if still at least the next key.
  /// Both carry the same Theorem 4 guarantee and agree except on exact
  /// gain ties; kLazy often does less work (ablation A1 measures this).
  enum class Heap { kEager, kLazy };
  Heap heap = Heap::kEager;
};

/// One resumable run of Algorithm 2 on one graph with one heap strategy.
///
/// Greedy is prefix-monotone: the k-selection is the first k picks of any
/// longer run, and the cost after round r does not depend on the k that
/// was asked for. So one run answers every k. Start does the heap init;
/// ExtendTo runs whole rounds and records, per round, the pick, the cost
/// after it and the cumulative work; Slice answers k from the recorded
/// rounds. Solve puts the three together and returns exactly what a cold
/// GreedySummarizer::Summarize(graph, k, budget) returns, bit for bit.
///
/// Not thread-safe (SummaryGraph serializes access to the runs it keeps),
/// and the graph must outlive the run. The run owns its scratch, in an
/// arena of its own: 4 bytes per target (the best-distance array) and 28
/// bytes per candidate for the eager heap or 17 for the lazy one, plus 20
/// bytes per recorded round.
class GreedyRun {
 public:
  /// Scans every candidate's initial gain and builds the heap. Before any
  /// round there is no incumbent, so a budget that trips during the scan
  /// (polled every 256 candidates) is returned as an error.
  static Result<std::unique_ptr<GreedyRun>> Start(const CoverageGraph& graph,
                                                  GreedyOptions::Heap heap,
                                                  const ExecutionBudget& budget);

  virtual ~GreedyRun() = default;
  GreedyRun(const GreedyRun&) = delete;
  GreedyRun& operator=(const GreedyRun&) = delete;

  /// Whole rounds recorded so far.
  int rounds() const { return static_cast<int>(picks_.size()); }
  /// True when no candidate is left to pick, so no round can follow.
  virtual bool exhausted() const = 0;
  /// True when the recorded rounds answer k without extending.
  bool Covers(int k) const { return rounds() >= k || exhausted(); }

  /// Runs whole rounds until Covers(k). Each round first evaluates the
  /// "osrs.solver.step" failpoint, then budget.Check(work done so far),
  /// as a cold solve does. An injected error or a cancellation is
  /// returned as an error. A deadline or work trip is returned as the
  /// trip's code; the value is kOk once the run covers k. Either way the
  /// run stays at its last whole round.
  Result<StatusCode> ExtendTo(int k, const ExecutionBudget& budget);

  /// The first min(k, rounds()) picks and the cost after them. Replays
  /// budget.Check per round with the work recorded before that round, so
  /// a work budget trips at the same round as in a cold solve (the result
  /// is then that round's prefix, flagged approximate; cancellation is an
  /// error). `seconds` is left 0 for the caller to fill.
  Result<SummaryResult> Slice(int k, const ExecutionBudget& budget) const;

  /// What a cold Summarize(graph, k, budget) returns: the recorded rounds'
  /// budget checks replayed first, then the missing rounds run through
  /// ExtendTo, then the slice. k must be in [0, num_candidates].
  Result<SummaryResult> Solve(int k, const ExecutionBudget& budget);

 protected:
  /// Sizes the run's arena for `candidate_bytes` of per-candidate scratch
  /// on top of best[], and fills best[] with the root distances.
  GreedyRun(const CoverageGraph& graph, size_t candidate_bytes);

  /// The heap init: scans every candidate's initial gain under `budget`.
  virtual Status Init(const ExecutionBudget& budget) = 0;

  /// Counts of one ExtendTo call, flushed to the installed trace.
  struct RoundTally {
    int64_t heap_pops = 0;
    EvalCounter evals;
  };

  /// Runs one round: picks the best remaining candidate and applies it,
  /// lowering `cost` by the covered-cost decrease and adding the round's
  /// work (the budget's unit) to `work`. Returns the pick.
  virtual int RunRound(double& cost, int64_t& work, RoundTally& tally) = 0;
  /// The trace stat the work unit is reported under.
  virtual obs::Stat work_stat() const = 0;

  const CoverageGraph& graph_;
  /// Backs every scratch array of the run and lives as long as it: a run
  /// keeps its scratch between calls, so it cannot use the per-thread
  /// arena.
  Arena arena_;
  /// best[w]: the distance target w is covered at by the picks so far. It
  /// is float: coverage distances are integral hop counts, exact in float,
  /// and the float lane is what the gain kernel streams.
  std::span<float> best_;

 private:
  /// The cost and the cumulative work after some number of rounds.
  struct Progress {
    double cost;
    int64_t work;
  };

  /// The first `rounds` picks as a result, with no budget check; flagged
  /// approximate when `stop_reason` says a budget stopped it there.
  SummaryResult Prefix(int rounds,
                       StatusCode stop_reason = StatusCode::kOk) const;

  std::vector<int> picks_;
  /// progress_[r]: after r rounds, so progress_[r].work is also the work
  /// done before round r.
  std::vector<Progress> progress_;
};

/// Algorithm 2: start from F = {r}, repeatedly add the candidate with the
/// largest cost reduction δ(p, F) = C(F, P) − C(F ∪ {p}, P), k times.
///
/// By Wolsey's analysis (Theorem 4) the result costs at most opt_{k'}(P)
/// with k' = ⌊k / H(Δn)⌋; in practice it is within a few percent of the
/// true optimum (§5.2).
///
/// Each call is a one-shot GreedyRun: start, extend to k, slice.
class GreedySummarizer : public Summarizer {
 public:
  explicit GreedySummarizer(GreedyOptions options = {});

  using Summarizer::Summarize;
  Result<SummaryResult> Summarize(const CoverageGraph& graph, int k,
                                  const ExecutionBudget& budget) override;

  std::string name() const override;

 private:
  GreedyOptions options_;
};

}  // namespace osrs

#endif  // OSRS_SOLVER_GREEDY_H_
