#ifndef OSRS_FAULT_FAILPOINT_H_
#define OSRS_FAULT_FAILPOINT_H_

// Deterministic fault injection: a process-wide registry of named
// failpoints compiled into the production code paths that can actually
// fail (I/O, closure builds, graph allocation, LP pivots, solver steps).
//
// A failpoint is a named hook. Disarmed — the default — it costs one
// relaxed atomic load at the site. Armed with a FailpointSpec it evaluates
// a trigger on every hit (always, once, first-N, every-Nth, seeded
// Bernoulli) and, when the trigger fires, performs an action: return a
// chosen error Status, throw std::bad_alloc, or inject latency. Triggers
// are deterministic under a fixed seed and a fixed hit order, which is
// what lets tests/chaos_test.cpp replay a randomized failure schedule and
// assert bit-identical outcomes.
//
// Arming is programmatic (FailpointRegistry::Arm) or environmental: the
// OSRS_FAILPOINTS environment variable holds a ';'-separated list of
// specs, parsed once on first registry use:
//
//   OSRS_FAILPOINTS="osrs.io.read=error(unavailable):every(3);
//                    osrs.lp.pivot=bad_alloc:prob(0.01,42)"
//
// Spec grammar (see README.md, "Failure semantics"):
//
//   spec    := name '=' action [':' trigger]
//   action  := 'error(' code ')' | 'bad_alloc' | 'delay(' ms ')'
//   trigger := 'always' | 'once' | 'times(' N ')' | 'every(' N ')'
//            | 'prob(' p [',' seed] ')'
//
// where `code` is a lower-snake-case StatusCode name ("unavailable",
// "internal", "resource_exhausted", ...). The default trigger is 'always'.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace osrs::fault {

/// Always true: failpoint sites have no compile-time off switch. Kept only
/// because the perfbench host fingerprint prints it.
inline constexpr bool kCompiledIn = true;

/// What an armed failpoint does when its trigger fires.
enum class FailAction {
  /// Evaluate() returns Status(code, message) — the site propagates it.
  kError,
  /// Evaluate() throws std::bad_alloc, simulating an allocation failure
  /// anywhere the site sits (exercises the BatchSummarizer exception
  /// boundary).
  kThrowBadAlloc,
  /// Evaluate() sleeps for delay_ms, then returns OK — simulates an I/O
  /// hiccup or allocation stall without failing the operation.
  kDelay,
};

/// When an armed failpoint's action runs.
enum class FailTrigger {
  kAlways,       // every hit
  kOnce,         // the first hit only
  kTimes,        // the first n hits
  kEveryNth,     // hits n, 2n, 3n, ... (1-based)
  kProbability,  // per-hit Bernoulli(p) from a seeded per-failpoint RNG
};

/// Full arming configuration of one failpoint.
struct FailpointSpec {
  FailAction action = FailAction::kError;
  /// For kError: the injected code. kUnavailable models transient I/O.
  StatusCode code = StatusCode::kUnavailable;
  /// For kError: injected message; empty = "injected by failpoint '<name>'".
  std::string message;
  /// For kDelay: milliseconds to sleep.
  double delay_ms = 0.0;
  FailTrigger trigger = FailTrigger::kAlways;
  /// For kTimes / kEveryNth: the N (must be >= 1).
  int64_t n = 1;
  /// For kProbability: fire probability in [0, 1].
  double probability = 1.0;
  /// For kProbability: RNG seed — fixed seed + fixed hit order =
  /// reproducible schedule.
  uint64_t seed = 1;
};

/// Parses one `name=action[:trigger]` spec. Returns the failpoint name and
/// the parsed spec, or InvalidArgument describing the malformed component.
Result<std::pair<std::string, FailpointSpec>> ParseFailpointSpec(
    std::string_view text);

/// One named failpoint. Thread-safe: any number of sites may Evaluate()
/// concurrently while another thread arms or disarms. Obtain instances
/// from FailpointRegistry::Get — handles are stable for the process
/// lifetime, so sites cache them in function-local statics.
class Failpoint {
 public:
  explicit Failpoint(std::string name) : name_(std::move(name)) {}
  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  const std::string& name() const { return name_; }

  /// One relaxed load — the fast path the OSRS_FAILPOINT macro checks
  /// before paying for Evaluate().
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Installs `spec` and resets the trigger state (hit and fire counts,
  /// RNG reseeded from spec.seed).
  void Arm(FailpointSpec spec) OSRS_EXCLUDES(mutex_);

  /// Disarms; Evaluate() returns OK until re-armed. Trigger state resets.
  void Disarm() OSRS_EXCLUDES(mutex_);

  /// Evaluates one hit: advances the trigger and, when it fires, performs
  /// the action — returns the injected Status for kError, throws
  /// std::bad_alloc for kThrowBadAlloc, sleeps then returns OK for kDelay.
  /// Returns OK when disarmed or the trigger does not fire.
  Status Evaluate() OSRS_EXCLUDES(mutex_);

  /// Total Evaluate() calls since the last Arm().
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }

  /// Times the trigger fired (and the action ran) since the last Arm().
  int64_t injections() const {
    return injections_.load(std::memory_order_relaxed);
  }

 private:
  const std::string name_;
  std::atomic<bool> armed_{false};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> injections_{0};

  /// Guards the trigger state; the armed_/hits_/injections_ atomics stay
  /// outside it so the disarmed fast path is one relaxed load.
  mutable Mutex mutex_;
  FailpointSpec spec_ OSRS_GUARDED_BY(mutex_);
  int64_t fired_ OSRS_GUARDED_BY(mutex_) = 0;
  std::mt19937_64 rng_ OSRS_GUARDED_BY(mutex_);  // kProbability draws
};

/// Global name-interned failpoint registry, mirroring obs::MetricsRegistry:
/// Get returns a stable handle per name (first call creates it). The first
/// Global() call parses the OSRS_FAILPOINTS environment variable, so any
/// binary can be driven into a failure schedule without code changes.
class FailpointRegistry {
 public:
  static FailpointRegistry& Global();

  /// Stable handle for `name`; creates the failpoint on first use.
  Failpoint* Get(std::string_view name) OSRS_EXCLUDES(mutex_);

  /// Parses and arms a ';'-separated list of specs (the OSRS_FAILPOINTS
  /// grammar). On a malformed spec nothing past it is armed and the error
  /// identifies the offending component.
  Status ArmFromSpec(std::string_view specs) OSRS_EXCLUDES(mutex_);

  /// Disarms every registered failpoint (handles stay valid). Tests call
  /// this between schedules.
  void DisarmAll() OSRS_EXCLUDES(mutex_);

  /// Names of currently armed failpoints, sorted.
  std::vector<std::string> ArmedNames() const OSRS_EXCLUDES(mutex_);

  /// (name, injections) for every registered failpoint with at least one
  /// injection since its last Arm(), sorted by name.
  std::vector<std::pair<std::string, int64_t>> InjectionCounts() const
      OSRS_EXCLUDES(mutex_);

 private:
  FailpointRegistry() = default;

  mutable Mutex mutex_;
  // Sorted iteration for rendering; unique_ptr keeps handles stable.
  std::map<std::string, std::unique_ptr<Failpoint>, std::less<>> points_
      OSRS_GUARDED_BY(mutex_);
};

}  // namespace osrs::fault

// The site macro: a Status-yielding expression, OK unless the named
// failpoint is armed and fires. Sites that can return Status wrap it in
// OSRS_RETURN_IF_ERROR; the bad_alloc action bypasses the return value by
// throwing.
#define OSRS_FAILPOINT(name)                                          \
  ([]() -> ::osrs::Status {                                           \
    static ::osrs::fault::Failpoint* osrs_failpoint =                 \
        ::osrs::fault::FailpointRegistry::Global().Get(name);         \
    if (!osrs_failpoint->armed()) return ::osrs::Status::OK();        \
    return osrs_failpoint->Evaluate();                                \
  }())

#endif  // OSRS_FAULT_FAILPOINT_H_
