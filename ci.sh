#!/usr/bin/env bash
# CI driver: the tier-1 suite in the default configuration, a chaos stage
# (randomized failpoint schedules, env-spec arming end to end, retry
# overhead bench), a lint stage (tools/lint.sh conventions + osrs_lint
# over the shipped example data + clang-tidy when installed), a clang
# thread-safety stage (OSRS_THREAD_SAFETY=ON build of the concurrent core
# plus the negative-compile harness, skipped when clang++ is not
# installed), an observability stage (live `osrs_serve --drive` metrics
# export validated by tools/check_openmetrics.sh), a crash-recovery stage
# (store-site fault schedule, a kill -9 mid-journal, then a clean restart
# that must recover the committed prefix), an OSRS_SIMD=OFF build
# running the solver bit-identity diff plus the tier-1 solver tests on the
# scalar fallback, a build-only pass over the perfbench/ benchmark
# package, the full suite (chaos included) under ASan+UBSan, and a TSan
# pass over the multi-threaded BatchSummarizer, serving-layer,
# sync-primitive, and chaos tests.
# Usage: ./ci.sh [--skip-sanitizers] [--skip-lint] [--skip-clang]
set -euo pipefail

cd "$(dirname "$0")"
JOBS="$(nproc 2>/dev/null || echo 4)"

SKIP_SANITIZERS=0
SKIP_LINT=0
SKIP_CLANG=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizers) SKIP_SANITIZERS=1 ;;
    --skip-lint) SKIP_LINT=1 ;;
    --skip-clang) SKIP_CLANG=1 ;;
    *)
      echo "usage: ./ci.sh [--skip-sanitizers] [--skip-lint] [--skip-clang]" >&2
      exit 2
      ;;
  esac
done

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S . "$@" > /dev/null
  cmake --build "$build_dir" -j "$JOBS"
}

echo "== default build + full test suite =="
run_suite build
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== coverage-build bench smoke =="
# CI-sized sanity run of the §4.1 fast-path builder bench: checks that the
# fast and baseline builders agree on every dataset and that the JSON
# report is written (full-size numbers live in BENCH_coverage.json).
./build/bench/bench_coverage_build --smoke --out=build/BENCH_coverage_smoke.json

echo "== ablation bench smoke: eager vs lazy greedy, init linearity =="
# A1 exits non-zero if the eager and lazy heaps ever disagree on cost at
# any graph size (EXPERIMENTS.md claims identical cost); A2 checks that
# the init-linearity sweep runs end to end and writes its report.
./build/bench/bench_ablation_greedy --smoke --out=build/BENCH_ablation_greedy_smoke.json
./build/bench/bench_ablation_init --smoke --out=build/BENCH_ablation_init_smoke.json

echo "== chaos stage: failpoint schedules + env arming + retry overhead =="
# chaos_test (also part of the suite above) is the randomized campaign;
# here the two pieces the suite cannot cover run on top: the
# OSRS_FAILPOINTS environment grammar driving an unmodified binary into a
# failure, and the retry-overhead bench holding the <1% steady-state bar.
# The bar is gated at full batch scale (~0.6s): the smoke batch is too
# small to amortize the fixed per-item site evaluations, so its percentage
# is informational only (the bench exits 0 under --smoke regardless).
if OSRS_FAILPOINTS='osrs.io.read=error(unavailable)' \
   ./build/tools/osrs_stats --items 1 examples/data/sample_corpus.txt \
   > /dev/null 2>&1; then
  echo "ci.sh: OSRS_FAILPOINTS env spec did not inject" >&2
  exit 1
fi
./build/bench/bench_retry_overhead --out=build/BENCH_retry_ci.json

echo "== chaos soak: serving layer under an injected failure schedule =="
# bench_serve --smoke drives the SummaryServer at 1x/2x/4x estimated
# capacity while the environment schedule injects allocation failures into
# coverage-graph construction, LP pivot errors, and serve-layer faults at
# all three sites. The binary exits non-zero if the process crashes or the
# accounting identities (submitted == admitted + rejected; admitted ==
# completed + shed + failed) are violated — overload plus injected faults
# must never lose or double-count a request.
OSRS_FAILPOINTS='osrs.coverage.alloc=bad_alloc:prob(0.02,7);osrs.lp.pivot=error(internal):prob(0.05,11);osrs.serve.admit=error(resource_exhausted):prob(0.01,13);osrs.serve.solve=error(unavailable):prob(0.03,17);osrs.serve.cache=error(unavailable):prob(0.05,19)' \
    ./build/bench/bench_serve --smoke --out=build/BENCH_serve_soak.json
if ! grep -q '"accounting_ok":true' build/BENCH_serve_soak.json; then
  echo "ci.sh: chaos soak accounting violation" >&2
  exit 1
fi

if [[ "$SKIP_LINT" == "1" ]]; then
  echo "== lint stage skipped =="
else
  echo "== lint stage =="
  # Repo conventions plus, when clang-tidy is on PATH, the .clang-tidy
  # pass over src/ against the compile_commands.json of the build above.
  ./tools/lint.sh
  ./build/tools/osrs_lint examples/data/sample_reviews.tsv \
                          examples/data/sample_corpus.txt
fi

if [[ "$SKIP_CLANG" == "1" ]]; then
  echo "== clang thread-safety stage skipped =="
elif ! command -v clang++ > /dev/null; then
  echo "== clang thread-safety stage skipped: clang++ not on PATH =="
  echo "   (install clang to run the -Wthread-safety capability analysis"
  echo "    and tests/thread_safety_compile_test; annotations still compile"
  echo "    away to nothing under the default compiler)"
else
  echo "== clang -Werror=thread-safety build + negative-compile harness =="
  # Capability analysis over the annotated concurrent core (src/common/
  # sync.h users): the whole src/ tree must compile with zero
  # -Wthread-safety diagnostics, and every seeded violation in the
  # negative harness must be rejected with the expected diagnostic.
  cmake -B build-clang-ts -S . \
        -DCMAKE_CXX_COMPILER=clang++ -DOSRS_THREAD_SAFETY=ON > /dev/null
  cmake --build build-clang-ts -j "$JOBS" --target \
        osrs_common osrs_obs osrs_fault osrs_api osrs_serving \
        osrs_coverage osrs_solver osrs_lp
  ./tests/thread_safety_compile_test/run.sh
fi

echo "== observability stage: live metrics export + format validation =="
# A real --drive run must leave behind a structurally valid OpenMetrics
# snapshot: HELP/TYPE lines per family, counter _total suffixes, strictly
# ascending histogram buckets with monotone cumulative counts, +Inf ==
# _count, a _sum per histogram, and the # EOF terminator.
./build/tools/osrs_serve --drive 200 --clients 4 --scale 0.02 \
    --slow-ms 50 --metrics-file build/metrics_export.prom > /dev/null 2>&1
./tools/check_openmetrics.sh build/metrics_export.prom

echo "== crash-recovery stage: store faults, kill -9, clean restart =="
# Three acceptance checks for the durability layer on the real binary:
#  (a) a mutating --drive run under a probabilistic fault schedule over
#      every store site (write/fsync/rename/read/replay) must never die
#      on a signal — journal failures poison-and-compact, snapshot
#      failures roll back, recovery failures are surfaced as status.
#      A non-zero *exit code* is tolerated here (the in-process restart
#      self-test legitimately fails when a fault lands inside it);
#  (b) a journal-heavy interval-fsync run is SIGKILLed mid-write,
#      leaving whatever torn tail the timing produced on disk;
#  (c) a clean run over the same state dir must then recover the
#      committed prefix and pass its own drain + restart self-test —
#      no crash our own writers produced may ever surface as kDataLoss.
CRASH_STATE=build/crash_state
rm -rf "$CRASH_STATE" && mkdir -p "$CRASH_STATE"
set +e
OSRS_FAILPOINTS='osrs.store.write=error(unavailable):prob(0.05,23);osrs.store.fsync=error(unavailable):prob(0.05,29);osrs.store.rename=error(unavailable):prob(0.02,31);osrs.store.read=error(unavailable):prob(0.02,37);osrs.store.replay=error(unavailable):prob(0.02,41)' \
    ./build/tools/osrs_serve --drive 200 --clients 4 --scale 0.02 \
    --mutate-every 4 --state-dir "$CRASH_STATE" \
    > /dev/null 2> build/crash_faulted.log
FAULTED_EXIT=$?
set -e
if [[ "$FAULTED_EXIT" -ge 126 ]]; then
  echo "ci.sh: faulted durability run died on a signal" \
       "(exit $FAULTED_EXIT, log build/crash_faulted.log)" >&2
  exit 1
fi
./build/tools/osrs_serve --drive 1000000 --clients 4 --scale 0.02 \
    --mutate-every 2 --fsync-policy interval --fsync-interval-ms 50 \
    --state-dir "$CRASH_STATE" > /dev/null 2>&1 &
CRASH_PID=$!
sleep 1
kill -9 "$CRASH_PID" 2> /dev/null || true
wait "$CRASH_PID" 2> /dev/null || true
./build/tools/osrs_serve --drive 100 --clients 4 --scale 0.02 \
    --mutate-every 10 --state-dir "$CRASH_STATE" \
    > /dev/null 2> build/crash_recover.log
if ! grep -q 'osrs_serve: recovered {' build/crash_recover.log; then
  echo "ci.sh: post-crash run did not report recovery" \
       "(log build/crash_recover.log)" >&2
  exit 1
fi
if ! grep -q 'restart check passed' build/crash_recover.log; then
  echo "ci.sh: post-crash restart self-test failed" \
       "(log build/crash_recover.log)" >&2
  exit 1
fi

echo "== store bench smoke =="
# CI-sized sanity run of the durability bench: snapshot write/recover
# scaling, per-policy journal append latency, and the serve-overhead
# comparison all run end to end and the JSON report is written. The <2%
# overhead bar is gated on the full-size run only (BENCH_store.json);
# the smoke request count is too small for a stable p99.
./build/bench/bench_store --smoke --out=build/BENCH_store_smoke.json

echo "== OSRS_SIMD=OFF build + solver diff + tier-1 solver tests =="
# The scalar fallback must be a first-class configuration, not a degraded
# one: with the AVX2 backend compiled out entirely, every solver has to
# produce bit-identical summaries and costs (the diff test compares
# against the in-build backend, which degrades to scalar-vs-scalar here —
# proving the dispatch layer, while the default build above proves
# scalar-vs-AVX2) and the solver-facing suites must stay green.
run_suite build-nosimd -DOSRS_SIMD=OFF
(cd build-nosimd && \
 ctest --output-on-failure -j "$JOBS" \
       -R 'solver_simd_diff_test|solver_test|local_search_test|weighted_coverage_test|indexed_heap_test|property_test')

echo "== perfbench build (not run) =="
# perfbench/ is a standalone CMake package that compiles src/ in Release
# for the end-to-end benchmark (python3 perfbench/run.py). Building it here
# catches a library change that would break the benchmark; running it is
# left to the benchmark itself.
cmake -B build-perfbench -S perfbench -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build-perfbench -j "$JOBS"

if [[ "$SKIP_SANITIZERS" == "1" ]]; then
  echo "== sanitizer passes skipped =="
  exit 0
fi

echo "== ASan+UBSan build + full test suite (incl. SIMD diff test) =="
# The full suite includes solver_simd_diff_test, so the masked-lane and
# tail-padding logic of the AVX2 kernels runs under ASan+UBSan here.
run_suite build-asan -DOSRS_SANITIZE=address,undefined
(cd build-asan && \
 ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
 ctest --output-on-failure -j "$JOBS")

echo "== TSan build + batch/budget/sync/graph-build tests =="
run_suite build-tsan -DOSRS_SANITIZE=thread
(cd build-tsan && \
 TSAN_OPTIONS=halt_on_error=1 \
 ctest --output-on-failure -j "$JOBS" \
       -R 'budget_test|api_test|fuzz_robustness_test|integration_test|coverage_diff_test|chaos_test|sync_test|serve_test')

echo "== ci.sh: all passes green =="
