#!/usr/bin/env bash
# Full correctness matrix in one command (tier-1.5 verify):
#
#   Release + -Werror   functional tests, lint, DCHECKs compiled out
#   ASan + UBSan        Debug, so VECDB_DCHECK and the debug-path
#                       CheckInvariants() audits are active
#   TSan                RelWithDebInfo; concurrency_test/thread_pool_test
#                       run under the race detector
#   profiler readers    the Table III/V, Fig 8/9/18 benches at a tiny scale
#                       under ASan, and a profiled parallel bridged search
#                       under TSan
#   recovery            crash-recovery fault injection under ASan and the
#                       concurrent logging+checkpoint smoke under TSan
#   sessions            the multi-session front end: full session_test
#                       under ASan (epoch reclamation) and its stress
#                       suite under TSan (snapshot readers vs writers)
#   server              the networked front end: frame-decoder fuzz and
#                       the loopback e2e/cancellation suite under ASan,
#                       the connection-churn stress suite under TSan, and
#                       the wire-overhead bench artifact (BENCH_server.json)
#                       from the Release tree
#   kernel report       the kernel-speed artifact (BENCH_kernels.json)
#                       from the Release tree
#   kernels             the kernel/SQ8 dispatch suites re-run with
#                       VECDB_KERNEL_ISA=scalar (proving the override and
#                       the scalar tier), and again under ASan/UBSan per
#                       tier so the SIMD tails and masked loads are
#                       sanitizer-checked (AVX-512 skipped with a notice
#                       when the host lacks avx512f)
#   TSA                 clang, -DVECDB_TSA=ON: Clang Thread Safety Analysis
#                       as -Werror=thread-safety, with negative-compilation
#                       probes proving the gate is live (skipped with a
#                       notice when clang is unavailable)
#   tidy                clang-tidy (bugprone/concurrency/performance,
#                       .clang-tidy) off compile_commands.json (skipped
#                       with a notice when clang-tidy is unavailable)
#
# Usage: ci/run_checks.sh [extra ctest args...]
# Build trees land in build-release/, build-asan/, build-tsan/,
# build-tsa/ (gitignored).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local dir="$1"
  shift
  echo "=== ${dir}: configure ($*) ==="
  cmake -B "${dir}" -S . -DVECDB_WERROR=ON "$@"
  echo "=== ${dir}: build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== ${dir}: ctest ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" "${EXTRA_CTEST_ARGS[@]}"
}

EXTRA_CTEST_ARGS=("$@")

run_config build-release -DCMAKE_BUILD_TYPE=Release
run_config build-asan -DCMAKE_BUILD_TYPE=Debug \
  -DVECDB_SANITIZE="address;undefined"

# Batch-path smoke: exercise the SearchBatch kernels (SGEMM bucket
# selection + per-worker heap reuse) under ASan/UBSan, where the
# thread-pool and buffer-reuse bugs would actually trip.
echo "=== build-asan: batched-search smoke (micro_kernels) ==="
./build-asan/bench/micro_kernels \
  --benchmark_filter='BM_Search(PerQuery|Batched)'

# Filtered-search smoke: drive all three strategies (pre/in/post) across
# the selectivity sweep under ASan/UBSan — the pre-filter survivor scans
# and k-amplification retry loops are where an off-by-one would read past
# a bucket or result buffer.
echo "=== build-asan: filtered-search smoke (ext_filtered_search) ==="
./build-asan/bench/ext_filtered_search --scale=0.002 --max-queries=5

# Profiler-reader smoke: the benches that print the Profiler phase tables
# (Table III, Table V, Fig 8) and the ParallelAccounting makespans (Fig 9,
# Fig 18) at a tiny scale under ASan/UBSan, so a label or accounting path
# they read is executed in CI and not only compiled.
for reader in tab03_hnsw_build_breakdown tab05_ivfflat_search_breakdown \
    fig08_searchnbtoadd_breakdown fig09_parallel_build fig18_parallel_search; do
  echo "=== build-asan: profiler-reader smoke (${reader}) ==="
  ./build-asan/bench/"${reader}" --scale=0.001 --max-queries=5
done

# Recovery stage, part 1: the full fault-injection harness under
# ASan/UBSan. Every sampled crash offset exercises torn-write handling,
# WAL replay, and catalog/orphan GC — recovery code paths touch freed
# and partially-initialized state more than any other subsystem, which
# is exactly where the sanitizers earn their keep.
echo "=== build-asan: crash-recovery fault-injection (recovery_test) ==="
./build-asan/tests/recovery_test

# Session front-end smoke: admission queueing, snapshot-bounded readers,
# and the mixed eight-session workload under ASan/UBSan — the epoch
# retire/reclaim path frees snapshots whose readers just left, exactly the
# use-after-free shape ASan exists to catch.
echo "=== build-asan: session front-end (session_test) ==="
./build-asan/tests/session_test

# Networked front end, part 1: the frame-decoder fuzz/property suite under
# ASan/UBSan — torn frames, bit flips, and hostile length fields must fail
# as clean Corruption errors with zero out-of-bounds reads. Then the full
# loopback e2e suite (concurrent clients, CANCEL SQL, out-of-band cancel
# frames, statement timeouts, protocol-error handling): the server's
# buffer handoffs between scheduler and workers run with poisoned
# redzones around every frame.
echo "=== build-asan: wire-protocol fuzz (net_frame_test) ==="
./build-asan/tests/net_frame_test
echo "=== build-asan: server loopback e2e (net_server_test) ==="
./build-asan/tests/net_server_test

# Kernel-dispatch stage, part 1: force the scalar tier and re-run the
# dispatch/SQ8/IVF_SQ8 suites in the already-built Release tree, plus the
# suites that drive every filter strategy, SearchBatch and cancellation
# through the engines' shared scan loops (and so through the dispatched
# L2 and SQ8 kernels), and the PQ and persistence suites that drive the
# codebook kernel through encode, the ADC table and a reload, and the
# insert suite, whose IVF_PQ and IVF_SQ8 inserts encode through the
# codebook and SQ8 kernels, and the visibility suite, which runs every
# engine/method pair's filtered and unfiltered scans, over deleted rows
# too, against a brute-force model, and the faisslike suite, whose gated
# scan test drives the position buffer and IVF_PQ's four-code ADC tail
# through every faisslike IVF engine, and the SGEMM and k-means suites,
# whose assignment runs on the dispatched SGEMM and argmin kernels. The
# kernel_dispatch_test
# ActiveTableMatchesResolutionRule case asserts the override actually
# resolved to scalar, so this stage fails loudly if the
# env plumbing regresses rather than silently re-testing the SIMD tier.
echo "=== build-release: kernel suites under VECDB_KERNEL_ISA=scalar ==="
VECDB_KERNEL_ISA=scalar ctest --test-dir build-release \
  --output-on-failure \
  -R '^(kernel_dispatch_test|sq8_test|ivf_sq8_test|filter_test|batch_search_test|cancel_test|query_context_test|pq_test|persistence_test|insert_test|visibility_test|faisslike_test|sgemm_test|kmeans_test)$'

# Kernel-dispatch stage, part 2: the same suites under ASan/UBSan once per
# ISA tier the host can run. The masked tails and 64-bit partial loads in
# the AVX2/AVX-512 kernels are exactly where an out-of-bounds read would
# hide from functional tests; each forced tier pins the kernels the
# sanitizers actually execute.
KERNEL_TIERS=(scalar avx2)
if grep -q avx512f /proc/cpuinfo 2>/dev/null; then
  KERNEL_TIERS+=(avx512)
else
  echo "NOTICE: host lacks avx512f; SKIPPING the AVX-512 sanitizer pass"
  echo "NOTICE: (the avx512 tier self-skips in tests but cannot execute here)."
fi
for tier in "${KERNEL_TIERS[@]}"; do
  echo "=== build-asan: kernel suites under VECDB_KERNEL_ISA=${tier} ==="
  VECDB_KERNEL_ISA="${tier}" ctest --test-dir build-asan \
    --output-on-failure \
    -R '^(kernel_dispatch_test|sq8_test|ivf_sq8_test|filter_test|batch_search_test|cancel_test|query_context_test|pq_test|persistence_test|insert_test|visibility_test|faisslike_test|sgemm_test|kmeans_test)$'
done

run_config build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVECDB_SANITIZE=thread

# Metrics-registry smoke: batched searches flush worker-local counters into
# one shared MetricsRegistry; run it under TSan so a racy shard or histogram
# bucket shows up as a hard failure, not a lost update.
echo "=== build-tsan: concurrent metrics-registry smoke (micro_kernels) ==="
./build-tsan/bench/micro_kernels \
  --benchmark_filter='BM_SearchBatchedMetricsOn'

# In-filter bitmap smoke: concurrent FilteredSearch calls share one
# read-only SelectionVector and flush filter.* counters into the shared
# registry; TSan turns a racy bitmap word or counter shard into a failure.
echo "=== build-tsan: concurrent in-filter bitmap smoke (filter_test) ==="
./build-tsan/tests/filter_test \
  --gtest_filter='FilteredSearchTest.ConcurrentInFilterSharedBitmap'

# Recovery stage, part 2: heap writers appending WAL records while a
# checkpointer loops flush/sync/checkpoint/rotate. The WAL's internal
# mutex, the buffer pool's dirty flags, and rotation's swap of the
# underlying file are all shared state; TSan makes any
# unlocked access a hard failure instead of a one-in-a-thousand torn log.
echo "=== build-tsan: concurrent logging+checkpoint smoke (recovery_test) ==="
./build-tsan/tests/recovery_test \
  --gtest_filter='FaultInjectionTest.ConcurrentLoggingAndCheckpoint'

# Visibility under the race detector: seq scans (lock-free, on the
# published snapshot) and index scans (snapshot and plan under the table
# lock, engine scan without it) beside a writer that deletes and
# re-inserts ids, where the dead-position bitmap each DELETE publishes is
# the shared state; then every engine/method pair's index scans beside
# multi-row INSERTs, where the engines' bucket and index latches, the
# IVF_PQ refine sidecar and the access method's id map are.
echo "=== build-tsan: scans beside concurrent writers smoke (visibility_test) ==="
./build-tsan/tests/visibility_test \
  --gtest_filter='VisibilityStressTest.ScansBesideDeleteAndReinsert:VisibilityStressTest.IndexScansBesideMultiRowInserts'

# Faisslike IVF builds fan PQ encoding out over build workers (SQL's
# CREATE INDEX uses every hardware thread): the same index at 1, 2 and 4
# workers, and one-row inserts beside the batch build, under the race
# detector, where the workers' shared inputs and per-row code slots are.
echo "=== build-tsan: faisslike build-thread invariance (faisslike_test) ==="
./build-tsan/tests/faisslike_test --gtest_filter='IvfBuildThreadsTest.*'

# A Profiler is single-threaded: a parallel bridged IVF_FLAT search with a
# profiler and ParallelAccounting attached must record from its workers
# only into the accounting. Sized so a profiler shared with the workers
# shows up here as a race.
echo "=== build-tsan: profiled parallel bridged search (bridge_test) ==="
./build-tsan/tests/bridge_test \
  --gtest_filter='BridgeTest.ProfiledParallelSearchMatchesSerial'

# Session stress under the race detector: lock-free snapshot readers
# overlap RCU-style snapshot publication and epoch reclamation, plus the
# admission controller's cv/queue handoff — every shared word here must be
# an atomic or under a mutex, and TSan proves it on the real workload.
echo "=== build-tsan: multi-session stress (session_test) ==="
./build-tsan/tests/session_test --gtest_filter='SessionStressTest.*'

# Networked front end, part 2: connection churn + concurrent statements +
# Stop() landing mid-statement, under the race detector. The per-Conn
# outbound buffer, the pending-statement queue, and the submit-vs-shutdown
# mutex are the shared state; TSan turns any unlocked touch into a hard
# failure instead of a corrupted frame once a week.
echo "=== build-tsan: server connection-churn stress (net_server_test) ==="
./build-tsan/tests/net_server_test --gtest_filter='ServerStressTest.*'

# Static lock discipline: compile everything under clang with Thread
# Safety Analysis promoted to errors. The tsa_probe ctest entries (and the
# configure-time try_compile probes) prove the gate actually rejects
# unguarded accesses, so a flag regression cannot silently disable it.
if command -v clang++ >/dev/null 2>&1; then
  echo "=== build-tsa: configure (clang, VECDB_TSA=ON) ==="
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_BUILD_TYPE=Release -DVECDB_TSA=ON
  echo "=== build-tsa: build (-Werror=thread-safety) ==="
  cmake --build build-tsa -j "${JOBS}"
  echo "=== build-tsa: TSA gate-liveness probes ==="
  ctest --test-dir build-tsa --output-on-failure -R '^tsa_probe_'
else
  echo "NOTICE: clang++ not found; SKIPPING the VECDB_TSA static"
  echo "NOTICE: lock-discipline stage (install clang to enforce it)."
fi

# clang-tidy gate off the compile_commands.json build-release exported.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== tidy: clang-tidy over src/ (build-release database) ==="
  bash tools/run_clang_tidy.sh build-release src
else
  echo "NOTICE: clang-tidy not found; SKIPPING the tidy stage"
  echo "NOTICE: (install clang-tidy to enforce it)."
fi

# Networked front end, part 3: the wire-overhead/throughput artifact from
# the optimized tree — BENCH_server.json records loopback-vs-inproc
# statement latency and multi-client scaling for CI trend lines.
echo "=== build-release: server overhead bench (ext_server) ==="
./build-release/bench/ext_server BENCH_server.json

# The kernel-speed artifact from the same tree: per-tier float/SQ8/PQ
# kernel times, ingest and WAL rows (docs/KERNELS.md "Benchmarks").
echo "=== build-release: kernel report (kernels_report) ==="
./build-release/bench/kernels_report BENCH_kernels.json

echo "=== lint (standalone) ==="
python3 tools/lint.py .

echo "All checks passed."
