#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "ledger.h"

namespace perfbench {

// Each workload generates its inputs from config.seed, measures for
// config.seconds, checks every output it can, and fills a report. With
// config.trace set the report holds the per-layer metrics instead of the
// end-to-end ones.
RunReport RunServeCold(const RunConfig& config);
RunReport RunBatchIngest(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
