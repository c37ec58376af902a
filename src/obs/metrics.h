#ifndef OSRS_OBS_METRICS_H_
#define OSRS_OBS_METRICS_H_

// Process-wide runtime metrics: thread-safe Counter / Gauge / Histogram
// primitives owned by a global MetricsRegistry with string-interned names
// (one handle per name, stable for the process lifetime).
//
// A runtime gate keeps the layer near-free in production:
// MetricsRegistry::SetEnabled(true) must be called before registered
// metrics record anything. Disabled recording is one relaxed atomic load
// plus a predictable branch.
//
// Naming convention: "osrs.<module>.<name>", e.g. "osrs.simplex.pivots"
// (documented in README.md, "Observability").

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"

namespace osrs::obs {

/// Always true: telemetry has no compile-time off switch. Kept only because
/// the perfbench host fingerprint prints it.
inline constexpr bool kCompiledIn = true;

namespace internal {
/// The runtime gate shared by every registered metric. A function-local
/// static sidesteps initialization-order issues for metrics touched during
/// static init.
inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{false};
  return enabled;
}
}  // namespace internal

/// True when telemetry is runtime-enabled.
inline bool Enabled() {
  return internal::EnabledFlag().load(std::memory_order_relaxed);
}

/// Monotonically increasing event count. Increments from any number of
/// threads sum exactly (relaxed atomic adds; no increment is ever lost).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t delta) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  const std::string name_;
  std::atomic<int64_t> value_{0};
};

/// A value that goes up and down (queue depths, in-flight work).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) {
    if (!Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  void Decrement() { Add(-1); }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  const std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Plain (non-thread-safe, copyable) histogram state. Bucket semantics —
/// shared with Histogram and relied upon by tests:
///
///   * `upper_bounds` is strictly ascending; bucket i covers the half-open
///     interval [upper_bounds[i-1], upper_bounds[i]) — inclusive lower
///     edge, exclusive upper edge. Bucket 0 covers (-inf, upper_bounds[0]).
///   * One extra overflow bucket covers [upper_bounds.back(), +inf), so
///     `counts.size() == upper_bounds.size() + 1`.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<int64_t> counts;
  int64_t total_count = 0;
  double sum = 0.0;

  HistogramSnapshot() = default;
  explicit HistogramSnapshot(std::vector<double> bounds);

  /// Single-threaded accumulation (batch aggregation, tests).
  void Observe(double value);

  /// {"count":N,"sum":S,"buckets":[{"le":bound,"count":n},...]} — the last
  /// bucket renders "le":"inf".
  std::string ToJson() const;

  /// Index of the bucket `value` falls in (see the class comment).
  size_t BucketOf(double value) const;

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside the
  /// bucket the quantile rank falls in — the Prometheus-style estimate the
  /// serving layer uses for its p50 shed threshold and bench_serve reports
  /// as p50/p99. The first bucket interpolates from a lower edge of 0 (the
  /// layer's histograms hold non-negative latencies); ranks landing in the
  /// overflow bucket return the last finite bound. Returns 0 when empty.
  double Quantile(double q) const;
};

/// Bucket upper bounds (milliseconds) shared by every latency histogram:
/// osrs.api.solve_ms, osrs.serve.{queue,solve,total}_ms, the serving
/// layer's solve-cost estimate and the batch roll-ups. 0.1 ms .. 5 s.
const std::vector<double>& LatencyBoundsMs();

/// Thread-safe fixed-bucket histogram (see HistogramSnapshot for the
/// bucket semantics). Observations are relaxed atomic adds per bucket.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly ascending.
  Histogram(std::string name, std::vector<double> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  /// Consistent-enough copy for rendering (individual bucket loads are
  /// relaxed; totals may trail concurrent observers by a few events).
  HistogramSnapshot Snapshot() const;

  void Reset();
  const std::string& name() const { return name_; }
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }

 private:
  const std::string name_;
  const std::vector<double> upper_bounds_;
  std::vector<std::atomic<int64_t>> counts_;  // upper_bounds_.size() + 1
  std::atomic<int64_t> total_count_{0};
  std::atomic<double> sum_{0.0};
};

/// Plain-data copy of every registered metric at one instant — the input
/// to the OpenMetrics renderer (obs/openmetrics.h) and to delta-based
/// periodic reporters (osrs_serve): two snapshots subtract without
/// touching live atomics. Samples are sorted by name (the registry's
/// iteration order).
struct RegistrySnapshot {
  struct CounterSample {
    std::string name;
    int64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramSample {
    std::string name;
    HistogramSnapshot histogram;
  };

  bool enabled = false;
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Global name-interned registry. Get* calls return a stable handle per
/// name: the first call creates the metric, later calls (any thread)
/// return the same pointer, so call sites may cache handles in
/// function-local statics. Handles live for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name) OSRS_EXCLUDES(mutex_);
  Gauge* GetGauge(std::string_view name) OSRS_EXCLUDES(mutex_);
  /// `upper_bounds` is consulted only on first registration; later calls
  /// with the same name return the existing histogram unchanged.
  Histogram* GetHistogram(std::string_view name,
                          std::vector<double> upper_bounds)
      OSRS_EXCLUDES(mutex_);

  /// Runtime gate for every registered metric (process-wide).
  void SetEnabled(bool enabled) {
    internal::EnabledFlag().store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return Enabled(); }

  /// Zeroes every registered metric (test/tool hook; handles stay valid).
  void ResetAll() OSRS_EXCLUDES(mutex_);

  /// Copies every registered metric into plain data (see RegistrySnapshot).
  RegistrySnapshot Snapshot() const OSRS_EXCLUDES(mutex_);

  /// "name value" lines, sorted by name; histograms render count/sum plus
  /// one "  le X: N" line per bucket.
  std::string ToText() const OSRS_EXCLUDES(mutex_);

  /// {"enabled":bool,"counters":{name:value,...},"gauges":{...},
  ///  "histograms":{name:<HistogramSnapshot::ToJson()>,...}}
  std::string ToJson() const OSRS_EXCLUDES(mutex_);

 private:
  MetricsRegistry() = default;

  /// Guards only the interning maps below; the metrics themselves are
  /// lock-free (relaxed atomics) and recorded through stable handles, so
  /// the mutex is touched on registration and rendering, never per event.
  mutable Mutex mutex_;
  // std::map keeps iteration sorted for rendering; unique_ptr keeps
  // handles stable across rehash-free inserts.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      OSRS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      OSRS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      OSRS_GUARDED_BY(mutex_);
};

}  // namespace osrs::obs

#endif  // OSRS_OBS_METRICS_H_
