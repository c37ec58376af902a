#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>

#include "common/simd.h"
#include "common/strings.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double value : values_) sum += value;
  return sum;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

bool Samples::Supports(double q, size_t min_beyond) const {
  const double n = static_cast<double>(values_.size());
  const size_t at_or_below = static_cast<size_t>(std::ceil(q * n));
  return values_.size() >= at_or_below + min_beyond;
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> SpanLog::SelfTimesMs(const std::vector<Span>& spans) const {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans.size());
  for (const Span& span : spans) {
    auto it = index.find(span.parent);
    if (span.parent != 0 && it != index.end()) {
      children[it->second].push_back({span.start, span.end});
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    Clock::time_point cursor = span.start;
    for (auto [start, end] : intervals) {
      start = std::max(start, cursor);
      end = std::min(end, span.end);
      if (end > start) {
        covered += MsBetween(start, end);
        cursor = end;
      }
    }
    self[i] = MsBetween(span.start, span.end) - covered;
  }
  return self;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) return false;
  auto ns = [this](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count());
  };
  for (const Span& span : all) {
    out << osrs::StrFormat(
        "{\"name\":\"%s\",\"request\":%llu,\"id\":%llu,\"parent\":%llu,"
        "\"start_ns\":%lld,\"end_ns\":%lld}\n",
        span.name, static_cast<unsigned long long>(span.request),
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent), ns(span.start),
        ns(span.end));
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t request,
                       uint64_t parent, Clock::time_point start)
    : log_(log) {
  span_.name = name;
  span_.request = request;
  span_.parent = parent;
  if (log_ != nullptr) span_.id = log_->NewId();
  span_.start = start;
}

ScopedSpan::~ScopedSpan() {
  span_.end = Clock::now();
  if (log_ != nullptr) log_->Add(span_);
}

void RunReport::Detail(const std::string& key, const std::string& json_value) {
  detail.push_back(
      osrs::StrFormat("\"%s\":%s", osrs::JsonEscape(key).c_str(),
                      json_value.c_str()));
}

void RunReport::DetailNum(const std::string& key, double value) {
  Detail(key, osrs::StrFormat("%.17g", value));
}

void RunReport::Fail(const std::string& error) {
  correct = false;
  if (errors.size() < 20) errors.push_back(error);
}

void RunReport::AddQuantile(const std::string& name, const Samples& samples,
                            double q, bool gate) {
  Add(name, samples.Quantile(q), "ms");
  Detail(name + ".n", std::to_string(samples.size()));
  if (samples.Supports(q)) return;
  if (!gate) {
    Detail(name + ".unsupported", "true");
    return;
  }
  valid = false;
  errors.push_back(osrs::StrFormat(
      "%s: %zu samples leave fewer than 10 beyond the %.0fth percentile",
      name.c_str(), samples.size(), q * 100.0));
}

void RunReport::AddTraceOverhead(const std::string& metric,
                                 double worse_ratio) {
  Add("obs.trace_overhead_frac." + metric, worse_ratio - 1.0, "ratio");
}

void WriteSpans(const RunConfig& config, const SpanLog& spans,
                RunReport* report) {
  const std::string path = osrs::StrFormat(
      "%s/spans-%s-seed%llu.jsonl", config.out_dir.c_str(),
      config.workload.c_str(), static_cast<unsigned long long>(config.seed));
  if (spans.WriteJsonLines(path)) {
    report->Detail("spans",
                   osrs::StrFormat("\"%s\"", osrs::JsonEscape(path).c_str()));
  }
}

std::string HostFingerprintJson(int nproc) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  return osrs::StrFormat(
      "{\"nproc\":%d,\"cpu\":\"%s\",\"build_type\":\"%s\","
      "\"compiler\":\"%s\",\"simd_backend\":\"%s\","
      "\"failpoints_compiled\":%s,\"obs_compiled\":%s}",
      nproc, osrs::JsonEscape(cpu).c_str(), PERFBENCH_BUILD_TYPE,
      osrs::JsonEscape(__VERSION__).c_str(),
      osrs::simd::BackendName(osrs::simd::ActiveBackend()),
      osrs::fault::kCompiledIn ? "true" : "false",
      osrs::obs::kCompiledIn ? "true" : "false");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
