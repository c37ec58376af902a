#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

// Measurement primitives shared by the workloads: raw-sample quantiles,
// the in-memory span log of the traced run, and the run report that
// becomes the result JSON line.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Every observation kept raw, so quantiles are exact order statistics and
/// never interpolated inside a histogram bucket.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Sum() const;
  /// Nearest-rank quantile (the smallest sample with at least q*n samples
  /// at or below it); 0 when empty.
  double Quantile(double q) const;
  /// True when at least `min_beyond` samples lie above the q-quantile —
  /// the rule for reporting that percentile at all.
  bool Supports(double q, size_t min_beyond = 10) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// One timed call into a layer. Spans of one request share `request`;
/// `parent` is the id of the enclosing span (0 for a root).
struct Span {
  const char* name = "";
  uint64_t request = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// Spans held in memory for the whole traced run and written out at its
/// end. Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Add(const Span& span);
  std::vector<Span> spans() const;
  /// Duration minus the part of it that the span's children cover, per
  /// span id (children may nest arbitrarily deep; only direct children
  /// are subtracted).
  std::vector<double> SelfTimesMs(const std::vector<Span>& spans) const;
  /// Writes one JSON object per span (ns offsets from the run origin).
  bool WriteJsonLines(const std::string& path) const;

 private:
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times one layer call into a SpanLog; a null log records nothing. The
/// span starts at `start` (a request's due time) or, by default, now.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request,
             uint64_t parent, Clock::time_point start = Clock::now());
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return span_.id; }
  double ElapsedMs() const { return MsBetween(span_.start, Clock::now()); }

 private:
  SpanLog* log_;
  Span span_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured and checked. `detail` collects JSON members
/// (already rendered as `"key":value`) for the line printed before the
/// result: sample counts, accounting, host fingerprint.
struct RunReport {
  bool correct = true;
  bool valid = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> detail;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Detail(const std::string& key, const std::string& json_value);
  void DetailNum(const std::string& key, double value);
  /// Records a failed output check or accounting identity.
  void Fail(const std::string& error);
  /// Reports the q-quantile of `samples` as `name` (ms), with its sample
  /// count in the detail. Too few samples beyond it marks the run invalid
  /// when `gate` is set and only flags the metric otherwise.
  void AddQuantile(const std::string& name, const Samples& samples, double q,
                   bool gate = true);
  /// obs.trace_overhead_frac.<metric>: how much worse the traced run read
  /// (`worse_ratio` is traced/untraced for a lower-is-better metric and
  /// untraced/traced for a higher-is-better one) minus 1.
  void AddTraceOverhead(const std::string& metric, double worse_ratio);
};

inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  int nproc = 1;
};

/// Writes the run's spans to <out_dir>/spans-<workload>-seed<n>.jsonl and
/// names the file in the detail line.
void WriteSpans(const RunConfig& config, const SpanLog& spans,
                RunReport* report);

/// nproc, CPU model, build type, compiler, SIMD backend and the
/// compile-time feature flags, as one JSON object.
std::string HostFingerprintJson(int nproc);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
