// End-to-end benchmark of the summarization library.
//
//   osrs_perfbench --workload <serve_cold|batch_ingest>
//                  --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints one detail line (host fingerprint, sample counts, accounting) and
// then, as the last line, {"correct","attempted","failed","metrics"}: the
// end-to-end metrics, or with --trace 1 the per-layer ones. Exits 1 when an
// output check or accounting identity fails, 3 when a reported percentile
// lacks the samples to support it.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "common/strings.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: osrs_perfbench --workload <serve_cold|batch_ingest> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.seconds <= 0) return Usage();
  config.nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::filesystem::create_directories(config.out_dir);

  perfbench::RunReport report;
  if (config.workload == "serve_cold") {
    report = perfbench::RunServeCold(config);
  } else if (config.workload == "batch_ingest") {
    report = perfbench::RunBatchIngest(config);
  } else {
    return Usage();
  }

  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "osrs_perfbench: %s\n", error.c_str());
  }
  std::string detail = osrs::StrFormat(
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.17g,\"trace\":%d,"
      "\"valid\":%s,\"host\":%s",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, report.valid ? "true" : "false",
      perfbench::HostFingerprintJson(config.nproc).c_str());
  for (const std::string& member : report.detail) detail += "," + member;
  detail += "}";
  std::printf("%s\n", detail.c_str());

  std::string metrics;
  for (const perfbench::Metric& metric : report.metrics) {
    if (!metrics.empty()) metrics += ",";
    metrics += osrs::StrFormat("\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                               metric.name.c_str(), metric.value,
                               metric.unit.c_str());
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
      report.correct ? "true" : "false",
      static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  if (!report.correct) return 1;
  if (!report.valid) return 3;
  return 0;
}
