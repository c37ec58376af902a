#include "obs/metrics.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace osrs::obs {

const std::vector<double>& LatencyBoundsMs() {
  static const std::vector<double>* bounds = new std::vector<double>{
      0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
      5000};
  return *bounds;
}

HistogramSnapshot::HistogramSnapshot(std::vector<double> bounds)
    : upper_bounds(std::move(bounds)),
      counts(upper_bounds.size() + 1, 0) {}

size_t HistogramSnapshot::BucketOf(double value) const {
  // First bucket whose (exclusive) upper edge is above the value; values
  // at or past the last edge land in the trailing overflow bucket.
  return static_cast<size_t>(
      std::upper_bound(upper_bounds.begin(), upper_bounds.end(), value) -
      upper_bounds.begin());
}

void HistogramSnapshot::Observe(double value) {
  counts[BucketOf(value)] += 1;
  total_count += 1;
  sum += value;
}

double HistogramSnapshot::Quantile(double q) const {
  if (total_count <= 0 || upper_bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(total_count);
  int64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (static_cast<double>(seen + counts[i]) < rank) {
      seen += counts[i];
      continue;
    }
    if (i >= upper_bounds.size()) return upper_bounds.back();
    double lower = i == 0 ? 0.0 : upper_bounds[i - 1];
    double upper = upper_bounds[i];
    if (counts[i] <= 0) return lower;
    double within = (rank - static_cast<double>(seen)) /
                    static_cast<double>(counts[i]);
    return lower + (upper - lower) * std::clamp(within, 0.0, 1.0);
  }
  return upper_bounds.back();
}

std::string HistogramSnapshot::ToJson() const {
  std::string out = StrFormat("{\"count\":%lld,\"sum\":%.6g,\"buckets\":[",
                              static_cast<long long>(total_count), sum);
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out += ',';
    if (i < upper_bounds.size()) {
      out += StrFormat("{\"le\":%.6g,\"count\":%lld}", upper_bounds[i],
                       static_cast<long long>(counts[i]));
    } else {
      out += StrFormat("{\"le\":\"inf\",\"count\":%lld}",
                       static_cast<long long>(counts[i]));
    }
  }
  out += "]}";
  return out;
}

Histogram::Histogram(std::string name, std::vector<double> upper_bounds)
    : name_(std::move(name)),
      upper_bounds_(std::move(upper_bounds)),
      counts_(upper_bounds_.size() + 1) {
  OSRS_CHECK(!upper_bounds_.empty());
  for (size_t i = 1; i < upper_bounds_.size(); ++i) {
    OSRS_CHECK_MSG(upper_bounds_[i - 1] < upper_bounds_[i],
                   "histogram '" << name_
                                 << "': bounds not strictly ascending");
  }
}

void Histogram::Observe(double value) {
  if (!Enabled()) return;
  size_t bucket = static_cast<size_t>(
      std::upper_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  total_count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap(upper_bounds_);
  for (size_t i = 0; i < counts_.size(); ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snap.total_count = total_count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (auto& count : counts_) count.store(0, std::memory_order_relaxed);
  total_count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never freed
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name)))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> upper_bounds) {
  MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name),
                                                  std::move(upper_bounds)))
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snapshot;
  snapshot.enabled = Enabled();
  MutexLock lock(mutex_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back({name, histogram->Snapshot()});
  }
  return snapshot;
}

std::string MetricsRegistry::ToText() const {
  MutexLock lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += StrFormat("%s %lld\n", name.c_str(),
                     static_cast<long long>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out += StrFormat("%s %lld\n", name.c_str(),
                     static_cast<long long>(gauge->value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot snap = histogram->Snapshot();
    out += StrFormat("%s count=%lld sum=%.6g\n", name.c_str(),
                     static_cast<long long>(snap.total_count), snap.sum);
    for (size_t i = 0; i < snap.counts.size(); ++i) {
      if (snap.counts[i] == 0) continue;
      if (i < snap.upper_bounds.size()) {
        out += StrFormat("  le %.6g: %lld\n", snap.upper_bounds[i],
                         static_cast<long long>(snap.counts[i]));
      } else {
        out += StrFormat("  le inf: %lld\n",
                         static_cast<long long>(snap.counts[i]));
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mutex_);
  std::string out =
      StrFormat("{\"enabled\":%s,\"counters\":{", Enabled() ? "true" : "false");
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":%lld", JsonEscape(name).c_str(),
                     static_cast<long long>(counter->value()));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":%lld", JsonEscape(name).c_str(),
                     static_cast<long long>(gauge->value()));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":%s", JsonEscape(name).c_str(),
                     histogram->Snapshot().ToJson().c_str());
  }
  out += "}}";
  return out;
}

}  // namespace osrs::obs
