#ifndef OSRS_OBS_SOLVER_STATS_H_
#define OSRS_OBS_SOLVER_STATS_H_

// The wire form of a solve's trace: named per-phase timings and counters,
// carried on ItemSummary and aggregated by BatchSummarizer. It is a view
// computed from a RequestTrace (the solver-phase spans summed by kind,
// plus the nonzero counters), plain data with stable string names, safe
// to copy, merge, and serialize.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace osrs::obs {

/// One instrumented phase: total time and how often it ran.
struct PhaseStat {
  std::string name;  // SpanKindName(), e.g. "greedy_iterations"
  double millis = 0.0;
  int64_t calls = 0;
};

/// One solver progress counter.
struct CounterStat {
  std::string name;  // StatName(), e.g. "distance_evaluations"
  int64_t value = 0;
};

/// Per-solve statistics in wire form. Only phases that ran and counters
/// that are nonzero appear, so an uninstrumented solve renders as the
/// empty object.
struct SolverStats {
  std::vector<PhaseStat> phases;
  std::vector<CounterStat> counters;

  bool empty() const { return phases.empty() && counters.empty(); }

  /// Value of the named counter, or 0 when absent.
  int64_t counter(std::string_view name) const;
  /// Total milliseconds recorded under the named phase, or 0 when absent.
  double phase_millis(std::string_view name) const;

  /// What `trace` recorded after `since`: each solver-phase kind (see
  /// IsSolverPhase) with its closed spans' summed time and count, in enum
  /// order, and each counter's nonzero growth.
  static SolverStats FromTrace(const RequestTrace& trace,
                               const RequestTrace::Mark& since = {});

  /// Accumulates `other` into this, matching phases/counters by name
  /// (unknown names are appended) — the batch aggregation primitive.
  void MergeFrom(const SolverStats& other);

  /// {"phases":{"name":{"ms":T,"calls":N},...},"counters":{"name":V,...}}
  std::string ToJson() const;

  /// Human-readable multi-line rendering ("  <name>  <ms> ms  (N calls)"),
  /// each line prefixed with `indent`.
  std::string ToText(const std::string& indent = "") const;
};

}  // namespace osrs::obs

#endif  // OSRS_OBS_SOLVER_STATS_H_
