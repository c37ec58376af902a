#include "obs/solver_stats.h"

#include "common/strings.h"

namespace osrs::obs {

int64_t SolverStats::counter(std::string_view name) const {
  for (const CounterStat& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double SolverStats::phase_millis(std::string_view name) const {
  for (const PhaseStat& p : phases) {
    if (p.name == name) return p.millis;
  }
  return 0.0;
}

SolverStats SolverStats::FromTrace(const RequestTrace& trace,
                                   const RequestTrace::Mark& since) {
  int64_t nanos[kNumSolverPhases] = {};
  int64_t calls[kNumSolverPhases] = {};
  const std::vector<Span>& spans = trace.spans();
  for (size_t i = since.spans; i < spans.size(); ++i) {
    if (!IsSolverPhase(spans[i].kind) || spans[i].duration_ns < 0) continue;
    const size_t p = static_cast<size_t>(spans[i].kind);
    nanos[p] += spans[i].duration_ns;
    calls[p] += 1;
  }
  SolverStats stats;
  for (int p = 0; p < kNumSolverPhases; ++p) {
    if (calls[p] == 0) continue;
    stats.phases.push_back({SpanKindName(static_cast<SpanKind>(p)),
                            static_cast<double>(nanos[p]) * 1e-6, calls[p]});
  }
  for (int s = 0; s < kNumStats; ++s) {
    const Stat stat = static_cast<Stat>(s);
    const int64_t value =
        trace.stat(stat) - since.stats[static_cast<size_t>(s)];
    if (value == 0) continue;
    stats.counters.push_back({StatName(stat), value});
  }
  return stats;
}

void SolverStats::MergeFrom(const SolverStats& other) {
  for (const PhaseStat& theirs : other.phases) {
    bool merged = false;
    for (PhaseStat& ours : phases) {
      if (ours.name == theirs.name) {
        ours.millis += theirs.millis;
        ours.calls += theirs.calls;
        merged = true;
        break;
      }
    }
    if (!merged) phases.push_back(theirs);
  }
  for (const CounterStat& theirs : other.counters) {
    bool merged = false;
    for (CounterStat& ours : counters) {
      if (ours.name == theirs.name) {
        ours.value += theirs.value;
        merged = true;
        break;
      }
    }
    if (!merged) counters.push_back(theirs);
  }
}

std::string SolverStats::ToJson() const {
  std::string out = "{\"phases\":{";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) out += ',';
    out += StrFormat("\"%s\":{\"ms\":%.6g,\"calls\":%lld}",
                     JsonEscape(phases[i].name).c_str(), phases[i].millis,
                     static_cast<long long>(phases[i].calls));
  }
  out += "},\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ',';
    out += StrFormat("\"%s\":%lld", JsonEscape(counters[i].name).c_str(),
                     static_cast<long long>(counters[i].value));
  }
  out += "}}";
  return out;
}

std::string SolverStats::ToText(const std::string& indent) const {
  std::string out;
  for (const PhaseStat& phase : phases) {
    out += StrFormat("%s%-24s %10.3f ms  (%lld call%s)\n", indent.c_str(),
                     phase.name.c_str(), phase.millis,
                     static_cast<long long>(phase.calls),
                     phase.calls == 1 ? "" : "s");
  }
  for (const CounterStat& counter : counters) {
    out += StrFormat("%s%-24s %10lld\n", indent.c_str(),
                     counter.name.c_str(),
                     static_cast<long long>(counter.value));
  }
  return out;
}

}  // namespace osrs::obs
