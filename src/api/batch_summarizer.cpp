#include "api/batch_summarizer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/slog.h"
#include "common/strings.h"
#include "common/thread_count.h"
#include "obs/metrics.h"
#include "validate/model_validator.h"

namespace osrs {
namespace {

obs::Gauge* InflightGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("osrs.batch.inflight");
  return gauge;
}

obs::Counter* RetriesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.batch.retries");
  return counter;
}

obs::Counter* ExceptionsIsolatedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "osrs.batch.exceptions_isolated");
  return counter;
}

/// The per-worker exception boundary: a solve that throws — bad_alloc from
/// an allocation spike, anything else from a bug or an injected failpoint —
/// becomes a kInternal Status confined to this item instead of a
/// std::terminate that takes the whole batch down. kInternal is retryable,
/// so a configured RetryPolicy re-attempts the item.
Result<ItemSummary> GuardedSummarize(const ReviewSummarizer& summarizer,
                                     const Item& item, int k,
                                     const ExecutionBudget& budget,
                                     bool* exception_isolated) {
  try {
    return summarizer.Summarize(item, k, budget);
  } catch (const std::bad_alloc&) {
    *exception_isolated = true;
    return Status::Internal("isolated std::bad_alloc from summarize worker");
  } catch (const std::exception& e) {
    *exception_isolated = true;
    return Status::Internal(StrFormat(
        "isolated exception from summarize worker: %s", e.what()));
  } catch (...) {
    *exception_isolated = true;
    return Status::Internal(
        "isolated non-standard exception from summarize worker");
  }
}

/// Backoff before retry `attempt` (1-based) of item `item_index`:
/// exponential, capped, with a deterministic jitter factor in
/// [1 - jitter, 1] so identical (policy, item, attempt) triples always
/// sleep the same duration.
double BackoffMs(const RetryPolicy& policy, size_t item_index, int attempt) {
  double base = policy.initial_backoff_ms *
                std::pow(policy.backoff_multiplier, attempt - 1);
  base = std::min(base, policy.max_backoff_ms);
  if (base <= 0.0) return 0.0;
  uint64_t h = Mix64(policy.jitter_seed ^
                     Mix64(static_cast<uint64_t>(item_index) *
                               kSplitMix64Gamma ^
                           static_cast<uint64_t>(attempt)));
  double unit = static_cast<double>(h >> 11) * 0x1p-53;  // [0, 1)
  double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  return base * (1.0 - jitter * unit);
}

/// Runs one item to completion under the retry policy, filling `entry`.
/// Only transient statuses (StatusCodeIsRetryable) are re-attempted, each
/// after a jittered backoff capped by the remaining batch deadline; the
/// batch budget is re-checked before every re-attempt so a drained batch
/// stops retrying immediately.
void RunItemWithRetries(const ReviewSummarizer& summarizer, const Item& item,
                        int k, const ExecutionBudget& batch_budget,
                        const RetryPolicy& policy, size_t item_index,
                        BatchEntry& entry) {
  for (int attempt = 0;; ++attempt) {
    bool exception_isolated = false;
    Result<ItemSummary> result = GuardedSummarize(summarizer, item, k,
                                                  batch_budget,
                                                  &exception_isolated);
    if (exception_isolated) {
      entry.isolated_exception = true;
      ExceptionsIsolatedCounter()->Increment();
    }
    if (result.ok()) {
      entry.summary = std::move(result).value();
      entry.summary.retries = entry.retries;
      entry.status = Status::OK();
      return;
    }
    Status failure = result.status();
    if (!StatusCodeIsRetryable(failure.code())) {
      entry.status = std::move(failure);
      return;
    }
    if (attempt >= policy.max_retries) {
      entry.exhausted_retries = policy.max_retries > 0;
      OSRS_LOG(::osrs::slog::Level::kWarn, "retry", "retries exhausted",
               {"item_index", item_index}, {"attempts", attempt + 1},
               {"code", StatusCodeToString(failure.code())});
      entry.status = std::move(failure);
      return;
    }
    // A tripped batch budget outranks the retry budget: report the real
    // failure, but spend no more time on this item.
    if (!batch_budget.Check().ok()) {
      entry.status = std::move(failure);
      return;
    }
    double backoff_ms = BackoffMs(policy, item_index, attempt + 1);
    double remaining_ms = batch_budget.RemainingMs();
    // A backoff the remaining batch budget cannot fund means the next
    // attempt would start with (near-)zero budget and fail as
    // kDeadlineExceeded at entry — masking the real transient failure and
    // burning a worker on a doomed solve. Skip the attempt instead: the
    // entry keeps its retryable status, flagged exhausted_retries because
    // time (not the retry count) is what ran out.
    if (std::isfinite(remaining_ms) && remaining_ms <= backoff_ms) {
      entry.exhausted_retries = true;
      OSRS_LOG(::osrs::slog::Level::kWarn, "retry",
               "retry skipped, batch budget cannot fund backoff",
               {"item_index", item_index}, {"backoff_ms", backoff_ms},
               {"remaining_ms", remaining_ms},
               {"code", StatusCodeToString(failure.code())});
      entry.status = std::move(failure);
      return;
    }
    ++entry.retries;
    RetriesCounter()->Increment();
    OSRS_LOG(::osrs::slog::Level::kInfo, "retry", "retrying item",
             {"item_index", item_index}, {"attempt", attempt + 1},
             {"backoff_ms", backoff_ms},
             {"code", StatusCodeToString(failure.code())});
    if (backoff_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
  }
}

}  // namespace

std::string BatchStats::ToJson() const {
  return StrFormat(
      "{\"total\":%lld,\"ok\":%lld,\"failed\":%lld,\"degraded\":%lld,"
      "\"retries\":%lld,\"exhausted_retries\":%lld,"
      "\"isolated_exceptions\":%lld,"
      "\"total_ms\":%s,\"solver_ms\":%s,\"stats\":%s}",
      static_cast<long long>(total), static_cast<long long>(ok),
      static_cast<long long>(failed), static_cast<long long>(degraded),
      static_cast<long long>(retries),
      static_cast<long long>(exhausted_retries),
      static_cast<long long>(isolated_exceptions),
      total_ms.ToJson().c_str(), solver_ms.ToJson().c_str(),
      stats.ToJson().c_str());
}

BatchStats AggregateBatchStats(const std::vector<BatchEntry>& entries) {
  BatchStats out;
  out.total_ms = obs::HistogramSnapshot(obs::LatencyBoundsMs());
  out.solver_ms = obs::HistogramSnapshot(obs::LatencyBoundsMs());
  for (const BatchEntry& entry : entries) {
    ++out.total;
    out.retries += entry.retries;
    if (entry.exhausted_retries) ++out.exhausted_retries;
    if (entry.isolated_exception) ++out.isolated_exceptions;
    if (!entry.status.ok()) {
      ++out.failed;
      continue;
    }
    ++out.ok;
    if (entry.summary.degraded) ++out.degraded;
    out.total_ms.Observe(entry.summary.budget_spent_ms);
    out.solver_ms.Observe(entry.summary.solver_seconds * 1000.0);
    out.stats.MergeFrom(entry.summary.stats);
  }
  return out;
}

BatchSummarizer::BatchSummarizer(const Ontology* ontology,
                                 BatchSummarizerOptions options)
    : ontology_(ontology), options_(options) {
  OSRS_CHECK(ontology != nullptr);
  OSRS_CHECK(ontology->finalized());
}

std::vector<BatchEntry> BatchSummarizer::SummarizeAll(
    const std::vector<Item>& items, int k) const {
  std::vector<BatchEntry> entries(items.size());
  if (items.empty()) return entries;

  if (options_.num_threads < 0) {
    Status status = Status::InvalidArgument(
        StrFormat("num_threads=%d negative", options_.num_threads));
    for (BatchEntry& entry : entries) entry.status = status;
    return entries;
  }

  // Strict mode checks the shared ontology once up front rather than per
  // item per worker; per-item strict checks still run inside
  // ReviewSummarizer::Summarize.
  if (options_.summarizer.strict_validation) {
    ModelValidator validator;
    ValidationReport report = validator.MakeReport();
    validator.CheckOntology(*ontology_, &report);
    if (!report.ok()) {
      Status status = Status::InvalidArgument(
          "strict validation failed for the shared ontology:\n" +
          report.ToString());
      for (BatchEntry& entry : entries) entry.status = status;
      return entries;
    }
  }

  // Whole-batch budget, shared by every worker. Per-item deadlines and
  // cancellation from the summarizer options compose with it inside
  // ReviewSummarizer::Summarize via TightenedBy.
  ExecutionBudget batch_budget;
  if (options_.batch_deadline_ms > 0.0) {
    batch_budget.SetDeadlineMs(options_.batch_deadline_ms);
  }
  batch_budget.AddCancellation(options_.cancellation);

  int num_threads = std::min<int>(ResolveThreadCount(options_.num_threads),
                                  static_cast<int>(items.size()));

  // Work stealing via a shared atomic cursor; each worker owns its own
  // ReviewSummarizer (they are stateless but this keeps options private).
  // Once the batch budget trips, remaining claimed items are stamped with
  // the budget's verdict instead of being solved, so the batch drains
  // quickly and still returns one entry per item.
  //
  // Deliberately lock-free, so nothing here carries common/sync.h
  // capability annotations: the fetch_add on `cursor` hands each index to
  // exactly one worker, `entries[index]` slots are therefore disjoint per
  // worker, and the join below publishes every slot before SummarizeAll
  // returns. TSan (ci.sh) is the checker for this protocol; the capability
  // analysis guards the mutex-based modules it cannot see.
  std::atomic<size_t> cursor{0};
  auto worker = [&]() {
    ReviewSummarizer summarizer(ontology_, options_.summarizer);
    while (true) {
      size_t index = cursor.fetch_add(1);
      if (index >= items.size()) break;
      Status batch_status = batch_budget.Check();
      if (!batch_status.ok()) {
        entries[index].status = std::move(batch_status);
        continue;
      }
      InflightGauge()->Increment();
      RunItemWithRetries(summarizer, items[index], k, batch_budget,
                         options_.retry_policy, index, entries[index]);
      InflightGauge()->Decrement();
    }
  };

  if (num_threads == 1) {
    worker();
    return entries;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();
  return entries;
}

}  // namespace osrs
