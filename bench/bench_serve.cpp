// Serving-layer overload benchmark: how SummaryServer behaves when offered
// load crosses solve capacity. The harness first measures serial solve cost
// to estimate capacity (requests/s the worker pool can actually clear),
// then drives open-loop client threads at 1x, 2x, and 4x that rate and
// reports, per level: offered vs completed throughput, p50/p90/p99 total
// latency, and the shed / rejected / degraded shares. The acceptance story
// is that p99 stays bounded at 4x — admission control and deadline-aware
// shedding turn overload into fast kResourceExhausted answers instead of an
// unbounded queue.
//
// Every request carries a deadline of kDeadlineFactor x the measured mean
// solve cost and bypasses the exact-hit cache (a cache-hot benchmark would
// measure the cache, not the server), so at 4x the queue cannot hide
// behind memoization.
//
// --smoke shrinks the corpus and the measurement windows and is the chaos
// soak ci.sh runs under an OSRS_FAILPOINTS schedule (the registry parses
// the environment variable on first use): whatever is injected, the
// process must stay alive and the accounting identities must hold —
//   submitted == admitted + rejected
//   admitted  == completed + shed + failed       (after drain)
// A violation exits 1.
//
// Usage: bench_serve [--smoke] [--out=BENCH_serve.json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "datagen/cellphone_corpus.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/model.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "ontology/ontology.h"
#include "serve/server.h"

namespace osrs::bench {
namespace {

using serve::ServeOutcome;
using serve::ServeRequest;
using serve::ServeResponse;
using serve::ServerCounters;
using serve::SummaryServer;

/// Request deadline as a multiple of the measured mean solve cost: wide
/// enough that a healthy server never trips it, tight enough that a 4x
/// backlog does.
constexpr double kDeadlineFactor = 3.0;

/// What one load level did, merged across clients.
struct LevelResult {
  double multiplier = 0.0;
  double offered_rps = 0.0;
  double duration_s = 0.0;
  int64_t issued = 0;
  int64_t ok = 0;        // OK status (solved / coalesced / degraded / hit)
  int64_t degraded = 0;
  int64_t turned_away = 0;  // kRejected + kShed
  int64_t failed = 0;       // injected faults surfacing as errors
  obs::HistogramSnapshot latency_ms{
      {0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}};

  std::string ToJson() const {
    double completed_rps = duration_s > 0
                               ? static_cast<double>(ok) / duration_s
                               : 0.0;
    return StrFormat(
        "{\"multiplier\":%.3g,\"offered_rps\":%.4g,\"completed_rps\":%.4g,"
        "\"issued\":%lld,\"ok\":%lld,\"degraded\":%lld,"
        "\"turned_away\":%lld,\"failed\":%lld,"
        "\"latency_ms\":{\"p50\":%.4g,\"p90\":%.4g,\"p99\":%.4g}}",
        multiplier, offered_rps, completed_rps, static_cast<long long>(issued),
        static_cast<long long>(ok), static_cast<long long>(degraded),
        static_cast<long long>(turned_away), static_cast<long long>(failed),
        latency_ms.Quantile(0.5), latency_ms.Quantile(0.9),
        latency_ms.Quantile(0.99));
  }
};

/// Drives `offered_rps` at the server from `num_clients` open-loop threads
/// for `duration_s` seconds. Each client keeps its own arrival schedule;
/// when Serve() blocks past the next slot the client fires immediately —
/// lateness becomes queue pressure, which is the point of the benchmark.
LevelResult RunLevel(SummaryServer& server, const std::vector<Item>& items,
                     double multiplier, double offered_rps, double duration_s,
                     int num_clients, double deadline_ms) {
  LevelResult level;
  level.multiplier = multiplier;
  level.offered_rps = offered_rps;
  level.duration_s = duration_s;

  std::mutex merge_mutex;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(num_clients));
  const double interval_s =
      static_cast<double>(num_clients) / std::max(offered_rps, 1e-9);
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0x5e12feULL + static_cast<uint64_t>(c) * 977);
      LevelResult local;
      Stopwatch clock;
      double next_arrival_s = interval_s * static_cast<double>(c) /
                              static_cast<double>(num_clients);
      while (true) {
        double now_s = clock.ElapsedSeconds();
        if (now_s >= duration_s) break;
        if (now_s < next_arrival_s) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::min(next_arrival_s - now_s, duration_s - now_s)));
          continue;
        }
        next_arrival_s += interval_s;

        ServeRequest request;
        request.item_id =
            items[rng.NextUint64(items.size())].id;
        // Spread k so not every collision coalesces: the benchmark should
        // measure the queue under distinct work, not only the single-flight
        // fan-out (which counters still report).
        request.k = 3 + static_cast<int>(rng.NextUint64(6));
        request.deadline_ms = deadline_ms;
        request.bypass_cache = true;
        ServeResponse response = server.Serve(request);

        ++local.issued;
        local.latency_ms.Observe(response.total_ms);
        if (response.status.ok()) {
          ++local.ok;
          if (response.degraded) ++local.degraded;
        } else if (response.outcome == ServeOutcome::kRejected ||
                   response.outcome == ServeOutcome::kShed) {
          ++local.turned_away;
        } else {
          ++local.failed;
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      level.issued += local.issued;
      level.ok += local.ok;
      level.degraded += local.degraded;
      level.turned_away += local.turned_away;
      level.failed += local.failed;
      for (size_t i = 0; i < local.latency_ms.counts.size(); ++i) {
        level.latency_ms.counts[i] += local.latency_ms.counts[i];
      }
      level.latency_ms.total_count += local.latency_ms.total_count;
      level.latency_ms.sum += local.latency_ms.sum;
    });
  }
  for (std::thread& client : clients) client.join();
  return level;
}

bool CheckAccounting(const ServerCounters& c, std::string* error) {
  if (c.submitted != c.admitted + c.rejected) {
    *error = StrFormat("submitted %lld != admitted %lld + rejected %lld",
                       static_cast<long long>(c.submitted),
                       static_cast<long long>(c.admitted),
                       static_cast<long long>(c.rejected));
    return false;
  }
  if (c.admitted != c.completed + c.shed + c.failed) {
    *error = StrFormat(
        "admitted %lld != completed %lld + shed %lld + failed %lld",
        static_cast<long long>(c.admitted),
        static_cast<long long>(c.completed), static_cast<long long>(c.shed),
        static_cast<long long>(c.failed));
    return false;
  }
  return true;
}

}  // namespace
}  // namespace osrs::bench

int main(int argc, char** argv) {
  using namespace osrs;
  using namespace osrs::bench;

  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else {
      std::fprintf(stderr, "usage: bench_serve [--smoke] [--out=path]\n");
      return 2;
    }
  }

  obs::MetricsRegistry::Global().SetEnabled(true);
  // Touch the registry so an OSRS_FAILPOINTS schedule (the ci.sh chaos
  // soak) is armed before the warmup measures anything.
  fault::FailpointRegistry::Global();

  const double corpus_scale = smoke ? 0.05 : 0.2;
  const double level_duration_s = smoke ? 1.0 : 4.0;
  const int num_clients = smoke ? 8 : 16;

  // The Table 1 synthetic corpus at reduced scale: items heavy enough
  // (hundreds of pairs) that a solve costs real milliseconds, so the load
  // levels mean something.
  CellPhoneCorpusOptions corpus_options;
  corpus_options.scale = corpus_scale;
  Corpus corpus = GenerateCellPhoneCorpus(corpus_options);
  Ontology onto = std::move(corpus.ontology);
  std::vector<Item> items = std::move(corpus.items);
  const int num_items = static_cast<int>(items.size());

  serve::ServeOptions options;
  options.summarizer.collect_stats = false;
  options.max_queue_depth = 64;
  options.min_cost_samples = 8;
  SummaryServer server(&onto, items, options);

  // Capacity estimate: serial, cache-bypassing solves of every item.
  Stopwatch warmup;
  int warmup_requests = 0;
  for (int round = 0; round < (smoke ? 3 : 4); ++round) {
    for (const Item& item : items) {
      ServeRequest request;
      request.item_id = item.id;
      request.bypass_cache = true;
      ServeResponse response = server.Serve(request);
      ++warmup_requests;
      if (!response.status.ok() && response.outcome != ServeOutcome::kFailed) {
        std::fprintf(stderr, "bench_serve: warmup rejected: %s\n",
                     response.status.ToString().c_str());
        return 1;
      }
    }
  }
  const double mean_solve_ms =
      warmup.ElapsedMillis() / static_cast<double>(warmup_requests);
  const double capacity_rps =
      static_cast<double>(server.num_workers()) * 1000.0 /
      std::max(mean_solve_ms, 1e-3);
  const double deadline_ms = std::max(kDeadlineFactor * mean_solve_ms, 5.0);
  std::printf(
      "bench_serve: %d items, %d workers, mean solve %.3f ms, "
      "capacity ~%.0f req/s, per-request deadline %.1f ms\n",
      num_items, server.num_workers(), mean_solve_ms, capacity_rps,
      deadline_ms);

  std::vector<LevelResult> levels;
  for (double multiplier : {1.0, 2.0, 4.0}) {
    LevelResult level =
        RunLevel(server, items, multiplier, capacity_rps * multiplier,
                 level_duration_s, num_clients, deadline_ms);
    std::printf(
        "  %.0fx: offered %.0f req/s -> issued %lld, ok %lld "
        "(%lld degraded), turned away %lld, failed %lld, "
        "p50 %.2f ms, p99 %.2f ms\n",
        multiplier, level.offered_rps, static_cast<long long>(level.issued),
        static_cast<long long>(level.ok),
        static_cast<long long>(level.degraded),
        static_cast<long long>(level.turned_away),
        static_cast<long long>(level.failed),
        level.latency_ms.Quantile(0.5), level.latency_ms.Quantile(0.99));
    levels.push_back(std::move(level));
  }

  server.Stop();  // drain so the second identity is checkable
  ServerCounters counters = server.counters();
  std::string violation;
  bool accounting_ok = CheckAccounting(counters, &violation);

  BenchJsonWriter writer("serve");
  writer.Bool("smoke", smoke);
  writer.Int("workers", server.num_workers());
  writer.Int("items", num_items);
  writer.Raw("mean_solve_ms", StrFormat("%.4g", mean_solve_ms));
  writer.Raw("capacity_rps", StrFormat("%.4g", capacity_rps));
  writer.Raw("deadline_ms", StrFormat("%.4g", deadline_ms));
  std::string level_array = "[";
  for (size_t i = 0; i < levels.size(); ++i) {
    if (i > 0) level_array += ',';
    level_array += levels[i].ToJson();
  }
  level_array += ']';
  writer.Raw("levels", level_array);
  writer.Raw("counters", counters.ToJson());
  writer.Bool("accounting_ok", accounting_ok);
  if (!writer.WriteFile(out_path, "bench_serve")) return 2;

  if (!accounting_ok) {
    std::fprintf(stderr, "bench_serve: ACCOUNTING VIOLATION: %s\n",
                 violation.c_str());
    return 1;
  }
  std::printf("bench_serve: accounting identities hold (%lld requests)\n",
              static_cast<long long>(counters.submitted));
  return 0;
}
