#include "serve/server.h"

#include <algorithm>
#include <exception>
#include <new>
#include <utility>

#include "common/slog.h"
#include "common/strings.h"
#include "common/thread_count.h"
#include "fault/failpoint.h"

namespace osrs::serve {
namespace {

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("osrs.serve.queue_depth");
  return gauge;
}

obs::Gauge* InflightGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("osrs.serve.inflight");
  return gauge;
}

obs::Counter* ServeCounter(const char* name) {
  // One interned handle per name; the registry returns stable pointers so
  // the static map here costs a lookup only on first use per call site.
  return obs::MetricsRegistry::Global().GetCounter(name);
}

obs::Histogram* QueueMsHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("osrs.serve.queue_ms",
                                                  obs::LatencyBoundsMs());
  return histogram;
}

obs::Histogram* SolveMsHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("osrs.serve.solve_ms",
                                                  obs::LatencyBoundsMs());
  return histogram;
}

obs::Histogram* TotalMsHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("osrs.serve.total_ms",
                                                  obs::LatencyBoundsMs());
  return histogram;
}

}  // namespace

const char* ServeOutcomeToString(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kRejected:
      return "rejected";
    case ServeOutcome::kCacheHit:
      return "cache_hit";
    case ServeOutcome::kCoalesced:
      return "coalesced";
    case ServeOutcome::kSolved:
      return "solved";
    case ServeOutcome::kDegraded:
      return "degraded";
    case ServeOutcome::kShed:
      return "shed";
    case ServeOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

std::string ServerCounters::ToJson() const {
  return StrFormat(
      "{\"submitted\":%lld,\"admitted\":%lld,\"rejected\":%lld,"
      "\"completed\":%lld,\"shed\":%lld,\"failed\":%lld,"
      "\"coalesced\":%lld,\"solves\":%lld,\"cache_hits\":%lld,"
      "\"degraded\":%lld,\"epoch_bumps\":%lld,\"watchdog_stalls\":%lld}",
      static_cast<long long>(submitted), static_cast<long long>(admitted),
      static_cast<long long>(rejected), static_cast<long long>(completed),
      static_cast<long long>(shed), static_cast<long long>(failed),
      static_cast<long long>(coalesced), static_cast<long long>(solves),
      static_cast<long long>(cache_hits), static_cast<long long>(degraded),
      static_cast<long long>(epoch_bumps),
      static_cast<long long>(watchdog_stalls));
}

/// One in-flight solve plus every request attached to it. The first
/// request for a given (item, epoch, options, k) creates the flight and
/// donates its budget; later requests attach under mutex_ and simply wait.
/// A flight is removed from the coalescing map before its waiters are
/// woken, so no request can attach to an already-completed flight.
struct SummaryServer::Flight {
  std::string coalesce_key;
  CacheKey cache_key;
  ExecutionBudget budget;
  Stopwatch queued;  // reset at enqueue; read at dequeue for queue_ms
  /// Guarded by the owning SummaryServer's mutex_ until map removal, then
  /// read by the completing worker only. The analysis cannot name an
  /// owner's capability from a nested struct, so this stays a comment-
  /// level invariant (see common/sync.h).
  int requests = 1;
  /// The leader's request trace, handed over at enqueue and owned by the
  /// processing worker until CompleteFlight moves it onto the response
  /// (same handoff discipline as `requests`). Followers only call the
  /// const, construction-immutable ElapsedNanos() on it.
  obs::RequestTrace trace;
  size_t root_span = 0;  // index of the still-open kServe root in `trace`

  Mutex mutex;
  CondVar cv;
  bool done OSRS_GUARDED_BY(mutex) = false;
  ServeResponse response OSRS_GUARDED_BY(mutex);
};

SummaryServer::SummaryServer(const Ontology* ontology, std::vector<Item> items,
                             ServeOptions options)
    : ontology_(ontology),
      options_(std::move(options)),
      options_fingerprint_(OptionsFingerprint(options_.summarizer)),
      num_workers_(ResolveThreadCount(options_.num_threads)),
      cache_(options_.cache_capacity),
      solve_cost_(obs::LatencyBoundsMs()),
      trace_ring_(options_.trace_ring_capacity) {
  // Recovery runs before any worker exists: the first admitted request
  // must already see the committed durable state.
  if (!options_.state_dir.empty()) RecoverState(&items);
  {
    MutexLock lock(items_mutex_);
    for (Item& item : items) {
      std::string id = item.id;
      items_[std::move(id)] = std::make_shared<const Item>(std::move(item));
    }
  }
  // First boot (or first boot with a fresh state dir): make the initial
  // corpus durable immediately so a crash before the first mutation still
  // recovers the served items, not an empty store.
  if (store_ != nullptr && !recovery_info_.found_snapshot) {
    Status status = store_->Compact(CaptureState());
    if (!status.ok()) {
      OSRS_LOG(slog::Level::kWarn, "serve",
               "initial state snapshot failed; will retry on next mutation",
               {"detail", status.ToString()});
    }
  }
  workers_.reserve(static_cast<size_t>(num_workers_));
  worker_states_.reserve(static_cast<size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    worker_states_.push_back(std::make_unique<WorkerState>());
  }
  for (int w = 0; w < num_workers_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  if (options_.watchdog_stall_threshold_ms > 0.0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

SummaryServer::~SummaryServer() { Stop(); }

void SummaryServer::RecoverState(std::vector<Item>* initial_items) {
  store::StateStoreOptions store_options;
  store_options.dir = options_.state_dir;
  store_options.fsync_policy = options_.fsync_policy;
  store_options.fsync_interval_ms = options_.fsync_interval_ms;
  store_options.compact_threshold_bytes =
      options_.journal_compact_threshold_bytes;
  auto store = std::make_unique<store::StateStore>(std::move(store_options));

  store::SnapshotData recovered;
  Result<store::RecoveryInfo> info = store->Recover(&recovered);
  if (!info.ok()) {
    // Surface, don't mask: a kDataLoss here means committed durable bytes
    // are corrupt, and silently serving without them (or atop them) would
    // be worse than refusing. The server still constructs — the caller
    // decides whether a non-OK recovery_status() is fatal (osrs_serve
    // exits) — but persistence stays off so nothing overwrites evidence.
    recovery_status_ = info.status();
    OSRS_LOG(slog::Level::kError, "serve", "state recovery failed",
             {"state_dir", options_.state_dir},
             {"detail", recovery_status_.ToString()});
    return;
  }
  recovery_info_ = *info;
  store_ = std::move(store);
  // Recovered state overlays the constructor-supplied corpus: the caller
  // passes the cold base corpus, the store holds every mutation that was
  // committed on top of it before the crash/restart.
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < initial_items->size(); ++i) {
    index[(*initial_items)[i].id] = i;
  }
  for (Item& item : recovered.items) {
    auto it = index.find(item.id);
    if (it != index.end()) {
      (*initial_items)[it->second] = std::move(item);
    } else {
      initial_items->push_back(std::move(item));
    }
  }
  epoch_.Restore(recovered.epoch);
  OSRS_LOG(slog::Level::kInfo, "serve", "state recovered",
           {"state_dir", options_.state_dir},
           {"generation", recovery_info_.generation},
           {"snapshot_items", recovery_info_.snapshot_items},
           {"journal_records", recovery_info_.journal_records_replayed},
           {"truncated_tail_bytes", recovery_info_.truncated_tail_bytes},
           {"epoch", recovery_info_.epoch});
}

store::SnapshotData SummaryServer::CaptureState() {
  store::SnapshotData state;
  {
    MutexLock lock(items_mutex_);
    state.items.reserve(items_.size());
    for (const auto& [id, item] : items_) state.items.push_back(*item);
  }
  state.epoch = epoch_.value();
  return state;
}

void SummaryServer::JournalMutation(const Item* item, uint64_t epoch_after) {
  if (store_ == nullptr) return;
  Status status = item != nullptr
                      ? store_->AppendUpdateItem(*item, epoch_after)
                      : store_->AppendBumpEpoch(epoch_after);
  if (!status.ok()) {
    OSRS_LOG(slog::Level::kWarn, "serve", "journal append failed",
             {"code", StatusCodeToString(status.code())},
             {"detail", status.message()});
    ServeCounter("osrs.serve.journal_errors")->Increment();
  }
  // Compaction both bounds replay time (size threshold) and self-heals a
  // poisoned journal: the fresh snapshot carries the full in-memory state,
  // so the mutation that failed to journal above is durable after all.
  if (store_->ShouldCompact()) {
    Status compacted = store_->Compact(CaptureState());
    if (!compacted.ok()) {
      OSRS_LOG(slog::Level::kWarn, "serve", "journal compaction failed",
               {"code", StatusCodeToString(compacted.code())},
               {"detail", compacted.message()});
      ServeCounter("osrs.serve.journal_errors")->Increment();
    } else {
      ServeCounter("osrs.serve.compactions")->Increment();
    }
  }
}

uint64_t SummaryServer::BumpEpoch() {
  MutexLock mutation_lock(mutation_mutex_);
  uint64_t next = epoch_.Bump();
  {
    MutexLock lock(counters_mutex_);
    ++counters_.epoch_bumps;
  }
  JournalMutation(nullptr, next);
  return next;
}

void SummaryServer::UpdateItem(Item item) {
  MutexLock mutation_lock(mutation_mutex_);
  auto snapshot = std::make_shared<const Item>(std::move(item));
  {
    MutexLock lock(items_mutex_);
    items_[snapshot->id] = snapshot;
  }
  uint64_t next = epoch_.Bump();
  {
    MutexLock lock(counters_mutex_);
    ++counters_.epoch_bumps;
  }
  JournalMutation(snapshot.get(), next);
}

Status SummaryServer::ForceSnapshot() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "persistence is disabled (no state_dir configured)");
  }
  MutexLock mutation_lock(mutation_mutex_);
  OSRS_RETURN_IF_ERROR(store_->Compact(CaptureState()));
  ServeCounter("osrs.serve.compactions")->Increment();
  return Status::OK();
}

ServeResponse SummaryServer::Serve(const ServeRequest& request) {
  Stopwatch total;
  ServeResponse response = ServeImpl(request);
  response.total_ms = total.ElapsedMillis();
  // The response-level degraded flag is authoritative; mirror it onto the
  // summary so callers that only look at ItemSummary see it too. The
  // request/trace ids mirror the same way for log correlation.
  if (response.degraded) response.summary.degraded = true;
  if (response.status.ok()) {
    response.summary.request_id = response.request_id;
    response.summary.trace_id = response.trace_id;
  }
  TotalMsHistogram()->Observe(response.total_ms);
  if (options_.slow_request_threshold_ms > 0.0 &&
      response.total_ms > options_.slow_request_threshold_ms) {
    OSRS_LOG_T(slog::Level::kWarn, "serve", response.trace_id,
               "slow request", {"request_id", response.request_id},
               {"outcome", ServeOutcomeToString(response.outcome)},
               {"total_ms", response.total_ms},
               {"queue_ms", response.queue_ms},
               {"spans", response.trace.ToJson()});
  }
  trace_ring_.Push(response.trace);
  return response;
}

ServeResponse SummaryServer::ServeImpl(const ServeRequest& request) {
  // Every request gets a deterministic identity before anything can fail:
  // ids start at 1, trace ids are the SplitMix64 image of the request id.
  obs::RequestTrace trace;
  trace.context.request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  trace.context.trace_id = obs::DeriveTraceId(trace.context.request_id);
  const size_t root_span = trace.BeginSpan(obs::RequestSpanKind::kServe);

  {
    MutexLock lock(counters_mutex_);
    ++counters_.submitted;
  }

  // Closes the root span and hands the finished trace to the response —
  // the single exit path for every outcome decided on this thread.
  auto finalize = [&trace, root_span](ServeResponse* response) {
    trace.EndSpan(root_span);
    response->request_id = trace.context.request_id;
    response->trace_id = trace.context.trace_id;
    response->trace = std::move(trace);
  };

  auto reject = [this, &trace, &finalize](Status status) {
    {
      MutexLock lock(counters_mutex_);
      ++counters_.rejected;
    }
    ServeCounter("osrs.serve.rejected")->Increment();
    OSRS_LOG_T(slog::Level::kInfo, "serve", trace.context.trace_id,
               "request rejected",
               {"request_id", trace.context.request_id},
               {"code", StatusCodeToString(status.code())},
               {"detail", status.message()});
    ServeResponse response;
    response.status = std::move(status);
    response.outcome = ServeOutcome::kRejected;
    finalize(&response);
    return response;
  };

  // A stopped or draining server rejects everything, cache hits included —
  // Stop() promises no request started after it observes server state, and
  // Drain() promises the admitted set stops growing the moment it begins.
  {
    MutexLock lock(mutex_);
    if (stopping_ || draining_) {
      return reject(Status::Unavailable(
          draining_ ? "server is draining" : "server is stopped"));
    }
  }

  // The admission failpoint models a failure of the serving front door
  // itself (listener overload, malformed transport frame): the request is
  // turned away before touching queue or cache.
  if (Status admit = OSRS_FAILPOINT("osrs.serve.admit"); !admit.ok()) {
    return reject(std::move(admit));
  }

  if (request.k < 0) {
    return reject(Status::InvalidArgument(
        StrFormat("k must be >= 0, got %d", request.k)));
  }

  std::shared_ptr<const Item> item;
  {
    MutexLock lock(items_mutex_);
    auto it = items_.find(request.item_id);
    if (it != items_.end()) item = it->second;
  }
  if (item == nullptr) {
    return reject(Status::NotFound(
        StrFormat("no item '%s' loaded", request.item_id.c_str())));
  }

  double deadline_ms = request.deadline_ms > 0.0
                           ? request.deadline_ms
                           : options_.default_deadline_ms;
  ExecutionBudget budget;
  if (deadline_ms > 0.0) budget.SetDeadlineMs(deadline_ms);

  uint64_t epoch_now = epoch_.value();
  CacheKey key{request.item_id, epoch_now, options_fingerprint_, request.k};

  // Exact cache read. A cache failpoint injection means the cache is
  // unavailable, never that the request fails: degrade to a miss.
  if (!request.bypass_cache) {
    size_t probe_span = trace.BeginSpan(obs::RequestSpanKind::kCacheProbe);
    Status cache_status = OSRS_FAILPOINT("osrs.serve.cache");
    ItemSummary cached;
    bool hit = cache_status.ok() && cache_.Lookup(key, &cached);
    trace.EndSpan(probe_span);
    if (hit) {
      {
        MutexLock lock(counters_mutex_);
        ++counters_.admitted;
        ++counters_.completed;
        ++counters_.cache_hits;
      }
      ServeCounter("osrs.serve.cache_hit")->Increment();
      ServeResponse response;
      response.status = Status::OK();
      response.summary = std::move(cached);
      response.outcome = ServeOutcome::kCacheHit;
      response.epoch = epoch_now;
      finalize(&response);
      return response;
    }
    ServeCounter("osrs.serve.cache_miss")->Increment();
  }

  std::shared_ptr<Flight> flight;
  bool attached = false;
  int64_t attach_ns = 0;  // offset into the leader's trace at attach time
  std::string coalesce_key =
      StrFormat("%s\x1f%llu\x1f%llx\x1f%d", request.item_id.c_str(),
                static_cast<unsigned long long>(epoch_now),
                static_cast<unsigned long long>(options_fingerprint_),
                request.k);
  size_t admission_span = trace.BeginSpan(obs::RequestSpanKind::kAdmission);
  {
    ReleasableMutexLock lock(mutex_);
    if (stopping_ || draining_) {
      lock.Release();
      trace.EndSpan(admission_span);
      return reject(Status::Unavailable("server is stopping"));
    }
    auto it = flights_.find(coalesce_key);
    if (it != flights_.end()) {
      // Single-flight coalescing: ride the existing solve. Waiters adopt
      // the leader's budget — their own deadline no longer matters because
      // they add zero marginal work.
      flight = it->second;
      ++flight->requests;
      attached = true;
      // Safe concurrent read: only the construction-immutable clock base
      // of the leader's trace (see RequestTrace::ElapsedNanos).
      attach_ns = flight->trace.ElapsedNanos();
      {
        MutexLock counters_lock(counters_mutex_);
        ++counters_.admitted;
        ++counters_.coalesced;
      }
      ServeCounter("osrs.serve.coalesced")->Increment();
    } else {
      // Admission control. Queue depth first (absolute backstop), then the
      // wait estimate once enough solve costs have been observed.
      if (queue_.size() >= options_.max_queue_depth) {
        lock.Release();
        trace.EndSpan(admission_span);
        return reject(Status::ResourceExhausted(
            StrFormat("queue full (%zu requests)", options_.max_queue_depth)));
      }
      double p50 = p50_solve_ms();
      if (p50 > 0.0) {
        double estimated_wait_ms = static_cast<double>(queue_.size() + 1) *
                                   p50 / static_cast<double>(num_workers_);
        if (options_.max_estimated_wait_ms > 0.0 &&
            estimated_wait_ms > options_.max_estimated_wait_ms) {
          lock.Release();
          trace.EndSpan(admission_span);
          return reject(Status::ResourceExhausted(
              StrFormat("estimated wait %.1f ms exceeds policy bound %.1f ms",
                        estimated_wait_ms, options_.max_estimated_wait_ms)));
        }
        if (budget.has_deadline() &&
            estimated_wait_ms > budget.RemainingMs()) {
          lock.Release();
          trace.EndSpan(admission_span);
          return reject(Status::ResourceExhausted(StrFormat(
              "estimated wait %.1f ms exceeds the request deadline",
              estimated_wait_ms)));
        }
      }
      flight = std::make_shared<Flight>();
      flight->coalesce_key = coalesce_key;
      flight->cache_key = std::move(key);
      flight->budget = budget;
      flight->queued.Reset();
      // Hand the trace to the worker with the flight (the root span stays
      // open; CompleteFlight closes it). After the move this thread only
      // waits — it records nothing further.
      trace.EndSpan(admission_span);
      flight->root_span = root_span;
      flight->trace = std::move(trace);
      flights_.emplace(coalesce_key, flight);
      queue_.push_back(flight);
      QueueDepthGauge()->Set(static_cast<int64_t>(queue_.size()));
      {
        MutexLock counters_lock(counters_mutex_);
        ++counters_.admitted;
      }
      ServeCounter("osrs.serve.admitted")->Increment();
      work_cv_.NotifyOne();
    }
  }
  if (attached) trace.EndSpan(admission_span);

  ServeResponse response;
  {
    MutexLock lock(flight->mutex);
    // Explicit wait loop (not the predicate overload): the analysis
    // checks this read of `done` against the held capability, which a
    // lambda body would escape (see common/sync.h).
    while (!flight->done) flight->cv.Wait(flight->mutex);
    response = flight->response;
  }
  if (attached) {
    if (response.outcome == ServeOutcome::kSolved) {
      response.outcome = ServeOutcome::kCoalesced;
    }
    // The follower shares the leader's span tree (solve span included)
    // but keeps its own identity: restamp the ids and append the wait on
    // the shared flight as one closed span. Offsets stay coherent — the
    // copied trace carries the leader's clock base.
    int64_t wake_ns = response.trace.ElapsedNanos();
    response.trace.context = trace.context;
    response.trace.AddSpan(obs::RequestSpanKind::kCoalescedWait, attach_ns,
                           wake_ns - attach_ns);
    response.request_id = trace.context.request_id;
    response.trace_id = trace.context.trace_id;
  }
  return response;
}

void SummaryServer::WorkerLoop(int worker_index) {
  for (;;) {
    std::shared_ptr<Flight> flight;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      flight = std::move(queue_.front());
      queue_.pop_front();
      QueueDepthGauge()->Set(static_cast<int64_t>(queue_.size()));
    }
    ProcessFlight(flight, worker_index);
  }
}

void SummaryServer::WatchdogLoop() {
  // Fires at most once per (worker, solve generation): a genuinely wedged
  // solve gets one cancellation and one log line, not one per poll.
  std::vector<uint64_t> last_fired(worker_states_.size(), 0);
  int64_t threshold_ns = static_cast<int64_t>(
      options_.watchdog_stall_threshold_ms * 1e6);
  for (;;) {
    {
      MutexLock lock(watchdog_mutex_);
      if (watchdog_stop_) return;
      watchdog_cv_.WaitForMs(watchdog_mutex_,
                             std::max(options_.watchdog_poll_ms, 1.0));
      if (watchdog_stop_) return;
    }
    int64_t now_ns = watchdog_clock_.ElapsedNanos();
    for (size_t w = 0; w < worker_states_.size(); ++w) {
      WorkerState& state = *worker_states_[w];
      // Read the generation BEFORE the start time: if the worker moves to
      // a new solve between the two reads, the stale generation makes the
      // dedup check fail harmlessly rather than cancelling the new solve.
      uint64_t generation = state.generation.load(std::memory_order_acquire);
      int64_t start_ns = state.solve_start_ns.load(std::memory_order_acquire);
      if (start_ns < 0 || generation == last_fired[w]) continue;
      if (now_ns - start_ns < threshold_ns) continue;
      last_fired[w] = generation;
      state.cancel.Cancel();
      {
        MutexLock lock(counters_mutex_);
        ++counters_.watchdog_stalls;
      }
      ServeCounter("osrs.serve.watchdog_stalls")->Increment();
      OSRS_LOG(slog::Level::kWarn, "serve", "watchdog cancelled stalled solve",
               {"worker", static_cast<uint64_t>(w)},
               {"stalled_ms", static_cast<double>(now_ns - start_ns) * 1e-6},
               {"threshold_ms", options_.watchdog_stall_threshold_ms});
    }
  }
}

void SummaryServer::ProcessFlight(const std::shared_ptr<Flight>& flight,
                                  int worker_index) {
  double queue_ms = flight->queued.ElapsedMillis();
  QueueMsHistogram()->Observe(queue_ms);
  // The queue wait is only measurable now, so it enters the trace as an
  // already-closed span backdated to the enqueue instant.
  int64_t queue_ns = static_cast<int64_t>(queue_ms * 1e6);
  int64_t dequeue_ns = flight->trace.ElapsedNanos();
  flight->trace.AddSpan(obs::RequestSpanKind::kQueueWait,
                        std::max<int64_t>(dequeue_ns - queue_ns, 0),
                        queue_ns);

  ServeResponse response;
  response.queue_ms = queue_ms;
  response.epoch = flight->cache_key.epoch;

  // Deadline-aware shedding: when what is left of the request's budget
  // cannot plausibly fund a solve (observed p50 x safety factor), starting
  // one only burns a worker that admitted requests behind it need. Prefer
  // a stale cached answer; shed outright otherwise.
  size_t shed_span =
      flight->trace.BeginSpan(obs::RequestSpanKind::kShedDecision);
  double remaining_ms = flight->budget.RemainingMs();
  double p50 = p50_solve_ms();
  bool over_budget =
      remaining_ms <= 0.0 ||
      (p50 > 0.0 && remaining_ms < p50 * options_.shed_safety_factor);
  flight->trace.EndSpan(shed_span);
  if (over_budget) {
    if (!TryServeStale(*flight, &response)) {
      OSRS_LOG_T(slog::Level::kWarn, "serve",
                 flight->trace.context.trace_id, "request shed",
                 {"item", flight->cache_key.item_id},
                 {"remaining_ms", std::max(remaining_ms, 0.0)},
                 {"p50_solve_ms", p50}, {"queue_ms", queue_ms});
      response.status = Status::ResourceExhausted(StrFormat(
          "shed: %.1f ms of budget left, p50 solve cost is %.1f ms",
          std::max(remaining_ms, 0.0), p50));
      response.outcome = ServeOutcome::kShed;
    }
    CompleteFlight(flight, std::move(response));
    return;
  }

  std::shared_ptr<const Item> item;
  {
    MutexLock lock(items_mutex_);
    auto it = items_.find(flight->cache_key.item_id);
    if (it != items_.end()) item = it->second;
  }
  if (item == nullptr) {
    // UpdateItem cannot remove items today, but keep the invariant local:
    // a flight must never dereference a null item.
    response.status = Status::NotFound(StrFormat(
        "item '%s' disappeared", flight->cache_key.item_id.c_str()));
    response.outcome = ServeOutcome::kFailed;
    CompleteFlight(flight, std::move(response));
    return;
  }

  InflightGauge()->Increment();
  // Publish progress for the watchdog: bump the generation, then the
  // start time (the watchdog reads them in the opposite order, so a torn
  // pair fails its dedup check instead of cancelling the wrong solve),
  // and thread this worker's CancellationFlag into the solve's budget.
  WorkerState& worker_state = *worker_states_[static_cast<size_t>(
      worker_index)];
  worker_state.cancel.Reset();
  ExecutionBudget budget = flight->budget;
  budget.AddCancellation(&worker_state.cancel);
  worker_state.generation.fetch_add(1, std::memory_order_acq_rel);
  worker_state.solve_start_ns.store(watchdog_clock_.ElapsedNanos(),
                                    std::memory_order_release);
  Stopwatch solve_watch;
  size_t solve_span = flight->trace.BeginSpan(obs::RequestSpanKind::kSolve);
  Result<ItemSummary> solved =
      GuardedSolve(*item, flight->cache_key.k, budget);
  flight->trace.EndSpan(solve_span);
  worker_state.solve_start_ns.store(-1, std::memory_order_release);
  double solve_ms = solve_watch.ElapsedMillis();
  InflightGauge()->Decrement();
  SolveMsHistogram()->Observe(solve_ms);
  {
    MutexLock lock(counters_mutex_);
    ++counters_.solves;
  }
  ServeCounter("osrs.serve.solves")->Increment();

  if (solved.ok()) {
    ObserveSolveCost(solve_ms);
    // The per-phase solver breakdown (collect_stats on) rides the request
    // trace, so a slow solve is attributable below the kSolve span.
    if (!solved->stats.empty()) {
      flight->trace.AttachSolverStats(solved->stats);
    }
    if (solved->degraded) {
      OSRS_LOG_T(slog::Level::kWarn, "serve",
                 flight->trace.context.trace_id, "solve degraded",
                 {"item", flight->cache_key.item_id},
                 {"stop_reason", StatusCodeToString(solved->stop_reason)},
                 {"solve_ms", solve_ms});
    }
    // Only full-budget answers enter the cache — the exact-hit
    // bit-identity contract depends on it. A cache failpoint injection
    // skips the insert (cache unavailable), nothing else.
    if (!solved->degraded) {
      if (OSRS_FAILPOINT("osrs.serve.cache").ok()) {
        cache_.Insert(flight->cache_key, *solved);
      }
    }
    response.status = Status::OK();
    response.degraded = solved->degraded;
    response.summary = std::move(solved).value();
    response.outcome = ServeOutcome::kSolved;
    CompleteFlight(flight, std::move(response));
    return;
  }

  // Solve failed. Permanent input errors and cancellation propagate as-is;
  // transient failures (injected faults, allocation pressure, budget trips
  // at entry) fall back to a stale cached answer when one exists.
  Status failure = solved.status();
  bool permanent = failure.code() == StatusCode::kInvalidArgument ||
                   failure.code() == StatusCode::kCancelled;
  if (!permanent && TryServeStale(*flight, &response)) {
    CompleteFlight(flight, std::move(response));
    return;
  }
  OSRS_LOG_T(slog::Level::kError, "serve", flight->trace.context.trace_id,
             "solve failed", {"item", flight->cache_key.item_id},
             {"code", StatusCodeToString(failure.code())},
             {"detail", failure.message()}, {"permanent", permanent});
  response.status = std::move(failure);
  response.outcome = ServeOutcome::kFailed;
  CompleteFlight(flight, std::move(response));
}

bool SummaryServer::TryServeStale(Flight& flight, ServeResponse* response) {
  if (!options_.serve_stale_when_over_budget) return false;
  obs::RequestSpanScope scope(&flight.trace,
                              obs::RequestSpanKind::kStaleFallback);
  ItemSummary stale;
  uint64_t stale_epoch = 0;
  if (!cache_.LookupLatest(flight.cache_key.item_id,
                           flight.cache_key.options_fingerprint,
                           flight.cache_key.k, &stale, &stale_epoch)) {
    return false;
  }
  OSRS_LOG_T(slog::Level::kWarn, "serve", flight.trace.context.trace_id,
             "serving stale summary", {"item", flight.cache_key.item_id},
             {"stale_epoch", stale_epoch},
             {"current_epoch", flight.cache_key.epoch});
  response->status = Status::OK();
  response->summary = std::move(stale);
  response->summary.degraded = true;
  response->degraded = true;
  response->epoch = stale_epoch;
  response->outcome = ServeOutcome::kDegraded;
  return true;
}

Result<ItemSummary> SummaryServer::GuardedSolve(const Item& item, int k,
                                                const ExecutionBudget& budget) {
  OSRS_RETURN_IF_ERROR(OSRS_FAILPOINT("osrs.serve.solve"));
  // Exception boundary: whatever escapes a solve — an injected bad_alloc,
  // a real allocation failure, a defect — is isolated to this flight. The
  // process must outlive any single request.
  try {
    ReviewSummarizer summarizer(ontology_, options_.summarizer);
    return summarizer.Summarize(item, k, budget);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("allocation failure during solve");
  } catch (const std::exception& e) {
    return Status::Internal(
        StrFormat("exception escaped solve: %s", e.what()));
  } catch (...) {
    return Status::Internal("unknown exception escaped solve");
  }
}

void SummaryServer::CompleteFlight(const std::shared_ptr<Flight>& flight,
                                   ServeResponse response) {
  int requests;
  bool drained_empty;
  {
    // Remove from the coalescing map first: after this no request can
    // attach, so the request count is final.
    MutexLock lock(mutex_);
    auto it = flights_.find(flight->coalesce_key);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
    requests = flight->requests;
    drained_empty = flights_.empty() && queue_.empty();
  }
  if (drained_empty) drain_cv_.NotifyAll();
  {
    MutexLock lock(counters_mutex_);
    switch (response.outcome) {
      case ServeOutcome::kShed:
        counters_.shed += requests;
        break;
      case ServeOutcome::kFailed:
        counters_.failed += requests;
        break;
      default:
        counters_.completed += requests;
        break;
    }
    if (response.degraded) counters_.degraded += requests;
  }
  switch (response.outcome) {
    case ServeOutcome::kShed:
      ServeCounter("osrs.serve.shed")->Add(requests);
      break;
    case ServeOutcome::kFailed:
      ServeCounter("osrs.serve.failed")->Add(requests);
      break;
    default:
      ServeCounter("osrs.serve.completed")->Add(requests);
      break;
  }
  if (response.degraded) ServeCounter("osrs.serve.degraded")->Add(requests);
  // Close the root span and move the finished trace onto the response:
  // the leader reads it back as its own; followers copy it and restamp.
  flight->trace.EndSpan(flight->root_span);
  response.request_id = flight->trace.context.request_id;
  response.trace_id = flight->trace.context.trace_id;
  response.trace = std::move(flight->trace);
  {
    MutexLock lock(flight->mutex);
    flight->response = std::move(response);
    flight->done = true;
  }
  flight->cv.NotifyAll();
}

void SummaryServer::ObserveSolveCost(double ms) {
  MutexLock lock(cost_mutex_);
  solve_cost_.Observe(ms);
  if (solve_cost_.total_count >= options_.min_cost_samples) {
    p50_solve_ms_cached_ = solve_cost_.Quantile(0.5);
  }
}

double SummaryServer::p50_solve_ms() const {
  MutexLock lock(cost_mutex_);
  return p50_solve_ms_cached_;
}

obs::HistogramSnapshot SummaryServer::solve_cost_snapshot() const {
  MutexLock lock(cost_mutex_);
  return solve_cost_;
}

void SummaryServer::Stop() {
  std::deque<std::shared_ptr<Flight>> drained;
  std::vector<std::thread> workers;
  {
    MutexLock lock(mutex_);
    if (stopping_ && queue_.empty() && workers_.empty()) return;
    stopping_ = true;
    drained.swap(queue_);
    // Claim the worker threads under the same lock that guards them: a
    // concurrent Stop() (or the destructor racing an explicit Stop) sees
    // an empty vector and returns instead of double-joining. The join
    // itself happens below, after the lock is dropped, so workers can
    // still acquire mutex_ to observe stopping_ and drain.
    workers.swap(workers_);
    QueueDepthGauge()->Set(0);
  }
  work_cv_.NotifyAll();
  for (const std::shared_ptr<Flight>& flight : drained) {
    ServeResponse response;
    response.status = Status::Unavailable("server stopped before the solve");
    response.outcome = ServeOutcome::kFailed;
    response.epoch = flight->cache_key.epoch;
    CompleteFlight(flight, std::move(response));
  }
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
  {
    MutexLock lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.NotifyAll();
  if (watchdog_.joinable()) watchdog_.join();
  // Final fsync of whatever the journal holds: Stop() is also the
  // destructor's path, and mutations journaled under kInterval may still
  // be inside the fsync window.
  if (store_ != nullptr) {
    Status status = store_->Close();
    if (!status.ok()) {
      OSRS_LOG(slog::Level::kWarn, "serve", "journal close failed",
               {"detail", status.ToString()});
    }
  }
}

bool SummaryServer::Drain(double deadline_ms) {
  if (deadline_ms <= 0.0) deadline_ms = options_.drain_deadline_ms;
  {
    MutexLock lock(mutex_);
    // Stop admitting; workers keep consuming the queue. Idempotent: a
    // second Drain just waits alongside the first.
    draining_ = true;
  }
  bool drained;
  {
    Stopwatch waited;
    MutexLock lock(mutex_);
    while (!(flights_.empty() && queue_.empty())) {
      double remaining_ms = deadline_ms - waited.ElapsedMillis();
      if (remaining_ms <= 0.0) break;
      drain_cv_.WaitForMs(mutex_, remaining_ms);
    }
    drained = flights_.empty() && queue_.empty();
  }
  if (!drained) {
    OSRS_LOG(slog::Level::kWarn, "serve",
             "drain deadline expired; shedding the remainder",
             {"deadline_ms", deadline_ms});
  }
  // Stop() sheds whatever the deadline cut off (kUnavailable), joins the
  // workers and the watchdog, and closes the journal. The final snapshot
  // comes after, so it captures a fully quiesced state.
  Stop();
  if (store_ != nullptr) {
    Status status = store_->Compact(CaptureState());
    if (!status.ok()) {
      OSRS_LOG(slog::Level::kWarn, "serve", "final drain snapshot failed",
               {"detail", status.ToString()});
    }
  }
  return drained;
}

ServerCounters SummaryServer::counters() const {
  MutexLock lock(counters_mutex_);
  return counters_;
}

}  // namespace osrs::serve
