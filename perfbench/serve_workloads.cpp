// serve_cold: open-loop reads and writes through SummaryServer.
//
// Each read is due at a fixed point of a schedule made from the seed and
// is timed from that point, not from when its connection got round to
// sending it, so a stall is charged to every request it delays. Rates and
// deadlines are the constants below; nothing is calibrated from the
// program's own speed, so a faster server is offered the same load.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/review_summarizer.h"
#include "common/rng.h"
#include "common/strings.h"
#include "datagen/cellphone_corpus.h"
#include "layers.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using osrs::Item;
using osrs::serve::ServeOutcome;
using osrs::serve::ServeOptions;
using osrs::serve::ServeRequest;
using osrs::serve::ServeResponse;
using osrs::serve::SummaryServer;

// serve_cold: every read bypasses the result cache, so each is a full
// solve of a uniformly drawn phone item; writes replace uniformly drawn
// items with their next version, journaled to disk. Both go out over a
// pool of nproc connections.
constexpr double kReadRate = 45.0;  // reads/s
constexpr double kDeadlineMs = 250.0;
constexpr double kWriteRate = 5.0;  // UpdateItem calls/s
constexpr uint64_t kFsyncIntervalMs = 1000;
constexpr int kPrepUpdates = 8;       // journal records boot replays
constexpr int kReviewsPerVersion = 3;  // reviews a next version adds

// Fewest operations a run may measure before its results count.
constexpr size_t kMinReads = 1000;
constexpr size_t kMinWrites = 100;

constexpr int kMinK = 3;
constexpr int kMaxK = 8;
constexpr int kSetupRepeats = 15;
constexpr double kScheduleLeadMs = 20.0;  // first due time after start

struct ReadOp {
  uint32_t item = 0;
  int k = 0;
  double due_ms = 0.0;
};

struct WriteOp {
  uint32_t item = 0;
  uint32_t version = 0;  // index into the item's version list
  double due_ms = 0.0;
};

struct Schedule {
  std::vector<ReadOp> reads;
  std::vector<WriteOp> writes;
};

/// What the benchmark keeps of one response.
struct ReadResult {
  double latency_ms = 0.0;  // due -> Serve returned
  double lag_ms = 0.0;      // due -> sent
  double done_ms = 0.0;     // Serve returned, from the phase start
  bool ok = false;
  bool degraded = false;
  bool summary_degraded = false;  // the solve itself tripped its budget
  ServeOutcome outcome = ServeOutcome::kFailed;
  double queue_ms = 0.0;
  double total_ms = 0.0;
  double solve_ms = 0.0;
  size_t num_edges = 0;
  std::vector<osrs::SummaryEntry> entries;
  double cost = 0.0;
  bool met = false;  // OK, fresh, correct and within the deadline
  int version = -1;  // item version the answer matched
};

struct PhaseResult {
  std::vector<ReadResult> reads;
  Samples write_latency_ms;
  osrs::serve::ServerCounters counters;
  osrs::serve::CacheStats cache;
  bool drained = false;
  int64_t coverage_builds = 0;  // registry delta (traced phase only)
  /// Journal growth summed over the writes that did not trigger a
  /// compaction (a compaction empties the journal), and their count.
  int64_t journal_bytes = 0;
  int64_t journaled_writes = 0;
  int64_t compactions = 0;
};

/// The served corpus: versions[i][0] is item i as generated; later
/// entries are the next versions the writes install, in order.
struct ServedCorpus {
  osrs::Ontology ontology;
  std::vector<std::vector<Item>> versions;
  /// refs[i][v][k - kMinK]: the cold solve of version v of item i.
  std::vector<std::vector<std::vector<SummaryRef>>> refs;
};

std::vector<Item> BaseItems(const ServedCorpus& corpus) {
  std::vector<Item> items;
  items.reserve(corpus.versions.size());
  for (const auto& versions : corpus.versions) items.push_back(versions[0]);
  return items;
}

/// The item after kReviewsPerVersion new reviews arrived, copied from
/// other items of the corpus (same ontology and vocabulary).
Item NextVersion(const Item& previous, const ServedCorpus& corpus,
                 osrs::Rng& rng) {
  Item next = previous;
  for (int r = 0; r < kReviewsPerVersion; ++r) {
    const Item& donor =
        corpus.versions[rng.NextUint64(corpus.versions.size())][0];
    next.reviews.push_back(
        donor.reviews[rng.NextUint64(donor.reviews.size())]);
  }
  return next;
}

/// Cold facade solves of every (item, version, k).
void ComputeRefs(ServedCorpus* corpus,
                 const osrs::ReviewSummarizerOptions& options, int threads) {
  struct Job {
    size_t item, version;
    int k;
  };
  std::vector<Job> jobs;
  corpus->refs.assign(corpus->versions.size(), {});
  for (size_t i = 0; i < corpus->versions.size(); ++i) {
    corpus->refs[i].assign(corpus->versions[i].size(),
                           std::vector<SummaryRef>(kMaxK - kMinK + 1));
    for (size_t v = 0; v < corpus->versions[i].size(); ++v) {
      for (int k = kMinK; k <= kMaxK; ++k) {
        jobs.push_back({i, v, k});
      }
    }
  }
  // Largest items first so one huge solve does not finish last alone.
  std::sort(jobs.begin(), jobs.end(), [&](const Job& a, const Job& b) {
    return corpus->versions[a.item][a.version].reviews.size() >
           corpus->versions[b.item][b.version].reviews.size();
  });
  osrs::ReviewSummarizer summarizer(&corpus->ontology, options);
  ParallelFor(jobs.size(), threads, [&](size_t j) {
    const Job& job = jobs[j];
    auto summary =
        summarizer.Summarize(corpus->versions[job.item][job.version], job.k);
    if (summary.ok()) {
      corpus->refs[job.item][job.version][job.k - kMinK] = MakeRef(*summary);
    }
  });
}

/// Bytes in the journal files of a state directory (0 without one).
int64_t JournalBytes(const std::string& dir) {
  int64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal-", 0) == 0) {
      bytes += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return bytes;
}

Clock::time_point DueAt(Clock::time_point start, double due_ms) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(due_ms));
}

/// Runs the schedule against `server` from a pool of `connections`
/// threads, then drains the server. Reads and writes share one timeline; a
/// free connection claims the next operation only once it is due, so an
/// operation waits for a connection only while every connection has one in
/// flight, and a connection thread descheduled at the due time does not
/// hold it back while another connection is free.
PhaseResult RunPhase(SummaryServer& server, const ServedCorpus& corpus,
                     const Schedule& schedule, int connections,
                     const std::string& state_dir, SpanLog* spans) {
  struct Op {
    double due_ms;
    bool write;
    size_t index;
  };
  std::vector<Op> ops;
  for (size_t i = 0; i < schedule.reads.size(); ++i) {
    ops.push_back({schedule.reads[i].due_ms, false, i});
  }
  // Writes install copies made now, so copying is not timed.
  std::vector<Item> next_versions;
  for (size_t w = 0; w < schedule.writes.size(); ++w) {
    const WriteOp& op = schedule.writes[w];
    ops.push_back({op.due_ms, true, w});
    next_versions.push_back(corpus.versions[op.item][op.version]);
  }
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return a.due_ms < b.due_ms;
  });

  PhaseResult phase;
  phase.reads.resize(schedule.reads.size());
  std::mutex write_mutex;  // one write at a time, as the server applies them
  osrs::obs::Counter* builds =
      osrs::obs::MetricsRegistry::Global().GetCounter("osrs.coverage.builds");
  const int64_t builds_before = builds->value();
  const Clock::time_point start = Clock::now();

  auto write = [&](size_t w, Clock::time_point due) {
    std::lock_guard<std::mutex> lock(write_mutex);
    const int64_t journal_before = JournalBytes(state_dir);
    server.UpdateItem(std::move(next_versions[w]));
    phase.write_latency_ms.Add(MsBetween(due, Clock::now()));
    const int64_t journal_after = JournalBytes(state_dir);
    if (journal_after >= journal_before) {
      phase.journal_bytes += journal_after - journal_before;
      ++phase.journaled_writes;
    } else {
      ++phase.compactions;
    }
  };
  auto read = [&](size_t i, Clock::time_point due) {
    const ReadOp& op = schedule.reads[i];
    ServeRequest request;
    request.item_id = corpus.versions[op.item][0].id;
    request.k = op.k;
    request.deadline_ms = kDeadlineMs;
    request.bypass_cache = true;
    ScopedSpan root(spans, "request", i + 1, 0, due);
    const Clock::time_point sent = Clock::now();
    ServeResponse response;
    {
      ScopedSpan serve_span(spans, "serve.Serve", i + 1, root.id());
      response = server.Serve(request);
    }
    const Clock::time_point done = Clock::now();
    ReadResult& r = phase.reads[i];
    r.latency_ms = MsBetween(due, done);
    r.lag_ms = MsBetween(due, sent);
    r.done_ms = MsBetween(start, done);
    r.ok = response.status.ok();
    r.degraded = response.degraded;
    r.summary_degraded = response.summary.degraded;
    r.outcome = response.outcome;
    r.queue_ms = response.queue_ms;
    r.total_ms = response.total_ms;
    r.solve_ms = response.summary.budget_spent_ms;
    r.num_edges = response.summary.num_edges;
    r.entries = std::move(response.summary.entries);
    r.cost = response.summary.cost;
  };

  std::atomic<size_t> next_op{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        size_t n = next_op.load();
        if (n >= ops.size()) break;
        const Clock::time_point due = DueAt(start, ops[n].due_ms);
        std::this_thread::sleep_until(due);
        if (!next_op.compare_exchange_strong(n, n + 1)) continue;
        if (ops[n].write) {
          write(ops[n].index, due);
        } else {
          read(ops[n].index, due);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  phase.coverage_builds = builds->value() - builds_before;
  phase.drained = server.Drain();
  phase.counters = server.counters();
  phase.cache = server.cache_stats();
  return phase;
}

/// Output checks and the accounting identities of one phase.
void CheckPhase(const ServedCorpus& corpus, const Schedule& schedule,
                PhaseResult* phase, RunReport* report) {
  for (size_t i = 0; i < phase->reads.size(); ++i) {
    ReadResult& r = phase->reads[i];
    if (!r.ok || r.degraded) continue;
    const ReadOp& op = schedule.reads[i];
    const auto& refs = corpus.refs[op.item];
    std::string mismatch = "no reference";
    for (size_t v = 0; v < refs.size() && r.version < 0; ++v) {
      const SummaryRef& ref = refs[v][op.k - kMinK];
      mismatch = CompareSummary(ref, r.entries, r.cost);
      if (mismatch.empty()) r.version = static_cast<int>(v);
    }
    if (r.version < 0) {
      report->Fail(osrs::StrFormat("read %zu (item %s, k %d): %s", i,
                                   corpus.versions[op.item][0].id.c_str(),
                                   op.k, mismatch.c_str()));
      continue;
    }
    r.met = r.latency_ms <= kDeadlineMs;
  }
  const auto& c = phase->counters;
  if (!phase->drained) report->Fail("server did not drain");
  if (c.submitted != c.admitted + c.rejected) {
    report->Fail(osrs::StrFormat(
        "submitted %lld != admitted %lld + rejected %lld",
        static_cast<long long>(c.submitted), static_cast<long long>(c.admitted),
        static_cast<long long>(c.rejected)));
  }
  if (c.admitted != c.completed + c.shed + c.failed) {
    report->Fail(osrs::StrFormat(
        "admitted %lld != completed %lld + shed %lld + failed %lld",
        static_cast<long long>(c.admitted),
        static_cast<long long>(c.completed), static_cast<long long>(c.shed),
        static_cast<long long>(c.failed)));
  }
  if (c.submitted != static_cast<int64_t>(phase->reads.size())) {
    report->Fail(osrs::StrFormat("server counted %lld reads, %zu were sent",
                                 static_cast<long long>(c.submitted),
                                 phase->reads.size()));
  }
}

struct PhaseSummary {
  Samples latency_ms;
  Samples lag_ms;
  double window_s = 0.0;  // first due time -> last read returned
  int64_t met = 0;
  int64_t ok = 0;
  int64_t failed = 0;
};

PhaseSummary Tally(const PhaseResult& phase) {
  PhaseSummary s;
  double last_done_ms = kScheduleLeadMs;
  for (const ReadResult& r : phase.reads) {
    last_done_ms = std::max(last_done_ms, r.done_ms);
    s.latency_ms.Add(r.latency_ms);
    s.lag_ms.Add(r.lag_ms);
    s.met += r.met ? 1 : 0;
    s.ok += r.ok ? 1 : 0;
    s.failed += r.ok ? 0 : 1;
  }
  s.window_s = (last_done_ms - kScheduleLeadMs) / 1000.0;
  return s;
}

/// Everything a serve workload needs before its first timed operation.
struct ServeSetup {
  ServedCorpus corpus;
  Schedule schedule;
  ServeOptions options;
  int connections = 1;
  /// Prepared state directory that each server boots from.
  std::string prepared_state_dir;
  std::string state_root;
};

/// State directory of boot `index`. Boots 0 and 1 serve the two phases and
/// get their own copy of the prepared directory; the later boots are only
/// timed and stopped, which writes nothing, so they share one copy.
std::string StateDir(const ServeSetup& setup, int index) {
  return setup.state_root + "/boot-" + std::to_string(std::min(index, 2));
}

std::unique_ptr<SummaryServer> BootServer(const ServeSetup& setup,
                                          int index, double* setup_s) {
  ServeOptions options = setup.options;
  options.state_dir = StateDir(setup, index);
  if (index <= 2) {
    fs::remove_all(options.state_dir);
    fs::copy(setup.prepared_state_dir, options.state_dir,
             fs::copy_options::recursive);
  }
  const Clock::time_point start = Clock::now();
  auto server = std::make_unique<SummaryServer>(
      &setup.corpus.ontology, BaseItems(setup.corpus), options);
  *setup_s = MsBetween(start, Clock::now()) / 1000.0;
  return server;
}

void ReportEndToEnd(const PhaseSummary& s,
                    double setup_s, RunReport* report) {
  report->Add("setup_s", setup_s, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
  report->AddQuantile("latency_p50_ms", s.latency_ms, 0.5);
  report->AddQuantile("latency_p99_ms", s.latency_ms, 0.99);
  report->Add("goodput_per_s", static_cast<double>(s.met) / s.window_s, "1/s");
}

RunReport RunServe(const RunConfig& config, ServeSetup& setup) {
  RunReport report;
  const Schedule& schedule = setup.schedule;
  if (schedule.reads.size() < kMinReads ||
      schedule.writes.size() < kMinWrites) {
    report.valid = false;
    report.errors.push_back(osrs::StrFormat(
        "%zu reads and %zu writes: a run needs at least %zu and %zu",
        schedule.reads.size(), schedule.writes.size(), kMinReads, kMinWrites));
  }

  Samples setup_samples;
  std::vector<std::unique_ptr<SummaryServer>> servers;
  for (int r = 0; r < kSetupRepeats; ++r) {
    double seconds = 0.0;
    auto server = BootServer(setup, r, &seconds);
    setup_samples.Add(seconds);
    if (!server->recovery_status().ok()) {
      report.Fail("state recovery failed: " +
                  server->recovery_status().ToString());
      return report;
    }
    // The first two boots serve the untraced and traced phases.
    if (r < 2) servers.push_back(std::move(server));
  }
  const double setup_s = setup_samples.Quantile(0.5);
  report.DetailNum("rss_after_setup_mb", PeakRssMb());
  const osrs::store::RecoveryInfo recovery = servers[0]->recovery_info();

  PhaseResult untraced =
      RunPhase(*servers[0], setup.corpus, schedule, setup.connections,
               StateDir(setup, 0), nullptr);
  CheckPhase(setup.corpus, schedule, &untraced, &report);
  servers[0].reset();
  const PhaseSummary plain = Tally(untraced);

  report.attempted = static_cast<int64_t>(schedule.reads.size() +
                                          schedule.writes.size());
  report.failed = plain.failed;
  report.Detail("reads_sent", std::to_string(schedule.reads.size()));
  report.Detail("reads_ok", std::to_string(plain.ok));
  report.Detail("reads_failed", std::to_string(plain.failed));
  report.Detail("reads_met_slo", std::to_string(plain.met));
  report.DetailNum("slo_miss_frac",
                   1.0 - static_cast<double>(plain.met) /
                             static_cast<double>(schedule.reads.size()));
  report.Detail("writes_sent", std::to_string(schedule.writes.size()));
  report.Detail("counters", untraced.counters.ToJson());
  const osrs::serve::CacheStats& cache = untraced.cache;
  report.Detail("cache", osrs::StrFormat(
      "{\"entries\":%lld,\"hits\":%lld,\"misses\":%lld,\"stale_hits\":%lld,"
      "\"evictions\":%lld,\"inserts\":%lld}",
      static_cast<long long>(cache.entries), static_cast<long long>(cache.hits),
      static_cast<long long>(cache.misses),
      static_cast<long long>(cache.stale_hits),
      static_cast<long long>(cache.evictions),
      static_cast<long long>(cache.inserts)));
  report.DetailNum("gen_lag_p99_ms", plain.lag_ms.Quantile(0.99));
  if (!schedule.writes.empty()) {
    report.DetailNum("update_p50_ms", untraced.write_latency_ms.Quantile(0.5));
    report.DetailNum("update_p90_ms", untraced.write_latency_ms.Quantile(0.9));
    report.Detail("update.n", std::to_string(untraced.write_latency_ms.size()));
    report.Detail("journal_compactions", std::to_string(untraced.compactions));
  }

  if (!config.trace) {
    ReportEndToEnd(plain, setup_s, &report);
    return report;
  }

  // Traced run: the same schedule against a second, identically booted
  // server with the registry on and a span per request.
  SpanLog spans(Clock::now());
  osrs::obs::MetricsRegistry::Global().SetEnabled(true);
  PhaseResult traced =
      RunPhase(*servers[1], setup.corpus, schedule, setup.connections,
               StateDir(setup, 1), &spans);
  osrs::obs::MetricsRegistry::Global().SetEnabled(false);
  CheckPhase(setup.corpus, schedule, &traced, &report);
  servers[1].reset();
  const PhaseSummary with_trace = Tally(traced);

  const double reads = static_cast<double>(traced.reads.size());
  Samples queue_ms, self_ms;
  int64_t solved = 0, solved_degraded = 0;
  double edges = 0.0;
  for (const ReadResult& r : traced.reads) {
    if (r.outcome != ServeOutcome::kCacheHit &&
        r.outcome != ServeOutcome::kRejected) {
      queue_ms.Add(r.queue_ms);
    }
    const bool solved_here = r.outcome == ServeOutcome::kSolved;
    self_ms.Add(r.total_ms - r.queue_ms - (solved_here ? r.solve_ms : 0.0));
    if (solved_here) {
      ++solved;
      solved_degraded += r.summary_degraded ? 1 : 0;
      edges += static_cast<double>(r.num_edges);
    }
  }
  const auto& c = traced.counters;
  report.AddQuantile("serve.queue_wait_p50_ms", queue_ms, 0.5, /*gate=*/false);
  report.AddQuantile("serve.queue_wait_p99_ms", queue_ms, 0.99, /*gate=*/false);
  report.AddQuantile("serve.self_p50_ms", self_ms, 0.5, /*gate=*/false);
  report.Add("serve.cache_hit_ratio", Ratio(c.cache_hits, reads), "ratio");
  report.Add("serve.coalesced_ratio", Ratio(c.coalesced, reads), "ratio");
  report.Add("serve.solves_per_read", Ratio(c.solves, reads), "ratio");
  report.Add("serve.turned_away_frac",
             Ratio(c.rejected + c.shed, c.submitted), "ratio");
  report.Add("serve.degraded_frac", Ratio(c.degraded, reads), "ratio");
  report.Add("serve.slo_miss_frac", 1.0 - Ratio(with_trace.met, reads),
             "ratio");
  report.Add("api.fallback_frac", Ratio(solved_degraded, solved), "ratio");
  report.Add("coverage.builds_per_read", Ratio(traced.coverage_builds, reads),
             "ratio");
  report.Add("coverage.edges_per_read", edges / reads, "count");
  report.AddQuantile("store.update_p50_ms", traced.write_latency_ms, 0.5,
                     /*gate=*/false);
  report.AddQuantile("store.update_p90_ms", traced.write_latency_ms, 0.9,
                     /*gate=*/false);
  report.Add("store.journal_bytes_per_update",
             Ratio(static_cast<double>(traced.journal_bytes),
                   static_cast<double>(traced.journaled_writes)),
             "B");
  report.Detail("store.journal_bytes_per_update.n",
                std::to_string(traced.journaled_writes));
  report.Add("store.replayed_records",
             static_cast<double>(recovery.journal_records_replayed), "count");

  // Layer replays of the same (item, version, k) the traced reads asked
  // for, spread over nproc threads as the server's workers are.
  std::vector<LayerSamples> per_read(traced.reads.size());
  ParallelFor(traced.reads.size(), config.nproc, [&](size_t i) {
    const ReadResult& r = traced.reads[i];
    const ReadOp& op = schedule.reads[i];
    const int version = std::max(r.version, 0);
    ReplayLayers(setup.corpus.ontology, setup.options.summarizer,
                 setup.corpus.versions[op.item][version], op.k, &spans, i + 1,
                 &per_read[i]);
  });
  LayerSamples layers;
  for (const LayerSamples& one : per_read) layers.Append(one);
  layers.Report(&report);

  // Self time of each request span is the generator's lag: the time
  // before its serve.Serve child started.
  const std::vector<Span> all = spans.spans();
  const std::vector<double> self = spans.SelfTimesMs(all);
  Samples lag_ms;
  for (size_t i = 0; i < all.size(); ++i) {
    if (std::string_view(all[i].name) == "request") lag_ms.Add(self[i]);
  }
  report.AddQuantile("gen.lag_p99_ms", lag_ms, 0.99, /*gate=*/false);

  report.AddTraceOverhead("latency_p50_ms",
                          Ratio(with_trace.latency_ms.Quantile(0.5),
                                plain.latency_ms.Quantile(0.5)));
  report.AddTraceOverhead("latency_p99_ms",
                          Ratio(with_trace.latency_ms.Quantile(0.99),
                                plain.latency_ms.Quantile(0.99)));
  report.AddTraceOverhead(
      "goodput_per_s", Ratio(static_cast<double>(plain.met) / plain.window_s,
                             static_cast<double>(with_trace.met) /
                                 with_trace.window_s));
  WriteSpans(config, spans, &report);
  return report;
}

/// Reads at a fixed rate with k uniform in [kMinK, kMaxK]. `item_of(i)`
/// picks the item of the i-th read.
template <typename ItemOf>
Schedule MakeReads(double rate, double seconds, osrs::Rng& rng,
                   ItemOf item_of) {
  Schedule schedule;
  const size_t n = static_cast<size_t>(rate * seconds);
  for (size_t i = 0; i < n; ++i) {
    ReadOp op;
    op.item = item_of(i);
    op.k = kMinK + static_cast<int>(rng.NextUint64(kMaxK - kMinK + 1));
    op.due_ms = kScheduleLeadMs + 1000.0 * static_cast<double>(i) / rate;
    schedule.reads.push_back(op);
  }
  return schedule;
}

}  // namespace

RunReport RunServeCold(const RunConfig& config) {
  ServeSetup setup;
  // The corpus is the fixed Table-1 stand-in; the seed drives the traffic
  // and the item versions the writes install.
  osrs::Corpus corpus = osrs::GenerateCellPhoneCorpus({});
  setup.corpus.ontology = std::move(corpus.ontology);
  for (Item& item : corpus.items) {
    setup.corpus.versions.push_back({std::move(item)});
  }
  const size_t num_items = setup.corpus.versions.size();

  // Every item once per block of num_items reads, each block in a fresh
  // random order: each run asks for every item equally often.
  osrs::Rng rng(config.seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<uint32_t> block(num_items);
  for (size_t i = 0; i < num_items; ++i) block[i] = static_cast<uint32_t>(i);
  setup.schedule = MakeReads(kReadRate, config.seconds, rng, [&](size_t i) {
    if (i % num_items == 0) rng.Shuffle(block);
    return block[i % num_items];
  });
  setup.connections = config.nproc;
  setup.options.num_threads = config.nproc;
  setup.options.summarizer.collect_stats = false;
  // Interval fsync, with the interval longer than the write spacing, so
  // most writes measure the program rather than the shared disk.
  setup.options.fsync_policy = osrs::store::FsyncPolicy::kInterval;
  setup.options.fsync_interval_ms = kFsyncIntervalMs;

  // Writes: uniformly chosen items, each replaced by its next version. The
  // first kPrepUpdates are journaled before the run and replayed at boot.
  auto next_write = [&](double due_ms) {
    WriteOp op;
    op.item = static_cast<uint32_t>(rng.NextUint64(num_items));
    auto& versions = setup.corpus.versions[op.item];
    versions.push_back(NextVersion(versions.back(), setup.corpus, rng));
    op.version = static_cast<uint32_t>(versions.size() - 1);
    op.due_ms = due_ms;
    return op;
  };
  std::vector<WriteOp> prep;
  for (int w = 0; w < kPrepUpdates; ++w) prep.push_back(next_write(0.0));
  const size_t num_writes = static_cast<size_t>(kWriteRate * config.seconds);
  for (size_t w = 0; w < num_writes; ++w) {
    setup.schedule.writes.push_back(
        next_write(kScheduleLeadMs + 1000.0 * (static_cast<double>(w) + 0.5) /
                                         kWriteRate));
  }

  ComputeRefs(&setup.corpus, setup.options.summarizer, config.nproc);

  // Prepare the state directory: boot on a fresh one (initial snapshot),
  // journal the prep updates, stop without the final snapshot.
  setup.state_root = osrs::StrFormat(
      "%s/state-%s-%d", config.out_dir.c_str(), config.workload.c_str(),
      static_cast<int>(::getpid()));
  fs::remove_all(setup.state_root);
  setup.prepared_state_dir = setup.state_root + "/prepared";
  fs::create_directories(setup.prepared_state_dir);
  {
    ServeOptions options = setup.options;
    options.state_dir = setup.prepared_state_dir;
    SummaryServer server(&setup.corpus.ontology, BaseItems(setup.corpus),
                         options);
    for (const WriteOp& op : prep) {
      server.UpdateItem(setup.corpus.versions[op.item][op.version]);
    }
    server.Stop();
  }

  RunReport report = RunServe(config, setup);
  fs::remove_all(setup.state_root);
  report.Detail("items", std::to_string(num_items));
  report.Detail("prep_updates", std::to_string(kPrepUpdates));
  return report;
}

}  // namespace perfbench
