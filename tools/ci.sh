#!/usr/bin/env bash
# ci.sh — the one-shot correctness gate: build -> check.ast -> tier-1 ctest
# -> checkpoint/resume drill -> bench smoke -> bench gate (parent build vs
# this build) -> serve drill. Exits nonzero on the first failing stage. Also
# exposed as the `ci` CMake target (`cmake --build build --target ci`).
#
# Environment:
#   IMAP_CI_BUILD_DIR  build directory (default: build)
#   IMAP_CI_WERROR     ON/OFF, build with -Werror hardening (default: ON)
#   IMAP_CI_JOBS       parallel build/test jobs (default: nproc)
set -u

cd "$(dirname "$0")/.."
BUILD_DIR="${IMAP_CI_BUILD_DIR:-build}"
WERROR="${IMAP_CI_WERROR:-ON}"
JOBS="${IMAP_CI_JOBS:-$(nproc)}"

stage() { echo; echo "=== ci: $* ==="; }

stage "configure (${BUILD_DIR}, IMAP_WERROR=${WERROR})"
cmake -B "${BUILD_DIR}" -S . -DIMAP_WERROR="${WERROR}" || exit 1

stage "build"
cmake --build "${BUILD_DIR}" -j "${JOBS}" || exit 1

stage "check.ast (static analyzer over src/ bench/ tests/ + build-flag contract)"
# Hard-fails (exit 2) when compile_commands.json is missing or stale — the
# kernel-flags contract is checked against what the build actually does.
python3 tools/check/imap_check.py --root . \
  --compdb "${BUILD_DIR}/compile_commands.json" || exit 1
python3 tools/check/test_imap_check.py || exit 1

stage "tier-1 ctest"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" || exit 1

stage "checkpoint/resume (cross-process halt -> inspect -> resume)"
# End-to-end drill of the Archive snapshot layer through real process
# boundaries: process 1 halts every attack cell after one PPO iteration
# (leaving resumable .snap files), ckpt_inspect must verify every artifact,
# process 2 resumes the snapshots to completion and caches results.
CKPT_ZOO="$(pwd)/${BUILD_DIR}/ci_ckpt_zoo"
rm -rf "${CKPT_ZOO}"
( cd "${BUILD_DIR}" &&
  IMAP_ZOO_DIR="${CKPT_ZOO}" IMAP_BENCH_SCALE=0.01 IMAP_SNAPSHOT_EVERY=1 \
  IMAP_HALT_AFTER_ITERS=1 ./bench/bench_fig6 > /dev/null ) || exit 1
ls "${CKPT_ZOO}"/snapshots/*.snap > /dev/null 2>&1 \
  || { echo "ci: halted run left no snapshots"; exit 1; }
"${BUILD_DIR}/tools/ckpt_inspect" "${CKPT_ZOO}"/snapshots/*.snap \
  "${CKPT_ZOO}"/*.pol || exit 1
( cd "${BUILD_DIR}" &&
  IMAP_ZOO_DIR="${CKPT_ZOO}" IMAP_BENCH_SCALE=0.01 IMAP_SNAPSHOT_EVERY=1 \
  ./bench/bench_fig6 > /dev/null ) || exit 1
ls "${CKPT_ZOO}"/snapshots/*.snap > /dev/null 2>&1 \
  && { echo "ci: completed run left stale snapshots"; exit 1; }
ls "${CKPT_ZOO}"/results/*.res > /dev/null 2>&1 \
  || { echo "ci: completed run cached no results"; exit 1; }
rm -rf "${CKPT_ZOO}"

stage "bench-smoke (google-benchmark suites at min_time=0.01s, fabric and serve drills)"
# Exercises the benchmark suites end to end; timing here is smoke only, the
# bench-gate stage below judges throughput. min_time is a plain double: the
# bundled google-benchmark predates the "0.01s" suffix syntax.
"${BUILD_DIR}/bench/bench_micro_ppo" \
  --benchmark_min_time=0.01 \
  --benchmark_filter='BM_TanhRows|BM_MlpForwardBatch|BM_PpoUpdate|BM_RolloutCollect' \
  || exit 1
"${BUILD_DIR}/bench/bench_micro_infer" \
  --benchmark_min_time=0.01 \
  --benchmark_filter='BM_VictimQueryBatch' || exit 1
"${BUILD_DIR}/bench/bench_micro_knn" \
  --benchmark_min_time=0.01 \
  --benchmark_filter='BM_KnnQuery|BM_PcBonusPass|BM_PcRegularizerCompute' \
  || exit 1
# Grid-executor probe at smoke scale: runs a Table-1 Hopper row serially
# and on 4 threads and exits nonzero unless the outcomes are identical.
# From the build dir, where its BENCH_parallel.json entry lands.
( cd "${BUILD_DIR}" && IMAP_BENCH_SCALE=0.001 ./bench/bench_fabric ) || exit 1
# Scenario-string validation: a randomized scenario (channel pipeline +
# seeded DR) must parse, canonicalize and expand.
CI_SCENARIO='hopper+obs_perturb:0.075+obs_delay:1+dr[mass:0.9..1.1]@7'
"${BUILD_DIR}/tools/scenario_ls" "${CI_SCENARIO}" \
  || { echo "ci: scenario string failed validation"; exit 1; }
# Serving-coalescer probe at smoke scale: every cell still runs (including
# the bit-identity comparison against direct PolicyHandle queries — the
# probe exits nonzero on any mismatch), just with tiny iteration counts.
( cd "${BUILD_DIR}" &&
  IMAP_BENCH_SERVE_ITERS=2 IMAP_BENCH_SERVE_REPS=1 ./bench/bench_serve \
  > /dev/null ) || exit 1

stage "bench-gate (gated micro-benchmarks, parent build vs this build)"
# The parent is HEAD~1 on main, where each change lands as its own commits;
# on any other branch it is the merge-base with origin/main (HEAD~1 when
# that is HEAD). Its source is exported with git archive into the build
# dir, where only the two gated bench targets are built, with this build's
# CMAKE_BUILD_TYPE; a rebuild is skipped while the parent stays the same.
# tools/bench_gate.py then alternates parent and change processes from a
# scratch cwd (a bench binary may write reports there) and fails any gated
# case whose median items/s falls more than 10% below the parent's.
BASE_REV="$(git rev-parse --verify HEAD~1)" \
  || { echo "ci: no parent commit to gate against"; exit 1; }
if [ "$(git symbolic-ref --short -q HEAD)" != "main" ]; then
  MERGE_BASE="$(git merge-base HEAD origin/main 2>/dev/null)"
  [ -n "${MERGE_BASE}" ] && [ "${MERGE_BASE}" != "$(git rev-parse HEAD)" ] \
    && BASE_REV="${MERGE_BASE}"
fi
BUILD_ABS="$(cd "${BUILD_DIR}" && pwd)"
BASE_DIR="${BUILD_ABS}/bench_gate_base"
if [ "$(cat "${BASE_DIR}/rev" 2>/dev/null)" != "${BASE_REV}" ]; then
  rm -rf "${BASE_DIR}" && mkdir -p "${BASE_DIR}/src" || exit 1
  git archive "${BASE_REV}" | tar -x -C "${BASE_DIR}/src" || exit 1
  echo "${BASE_REV}" > "${BASE_DIR}/rev"
fi
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
  "${BUILD_ABS}/CMakeCache.txt")"
{ cmake -S "${BASE_DIR}/src" -B "${BASE_DIR}/build" \
    -DCMAKE_BUILD_TYPE="${BUILD_TYPE}" &&
  cmake --build "${BASE_DIR}/build" -j "${JOBS}" \
    --target bench_micro_ppo bench_micro_infer; } > "${BASE_DIR}/build.log" 2>&1 \
  || { tail -n 40 "${BASE_DIR}/build.log"; echo "ci: parent build failed"; exit 1; }
GATE_CWD="$(mktemp -d)"
GATE="$(pwd)/tools/bench_gate.py"
( cd "${GATE_CWD}" && python3 "${GATE}" "${BASE_DIR}/build" "${BUILD_ABS}" )
GATE_RC=$?
rm -rf "${GATE_CWD}"
[ "${GATE_RC}" -eq 0 ] || exit 1

stage "serve (daemon lifecycle: start, concurrent smoke, clean shutdown)"
# End-to-end drill of the imap_serve daemon as a real process: ephemeral
# port, resident victim trained at smoke scale on the warm-up /infer, a lone
# /infer that must not wait out the 2 s coalescing deadline, concurrent curl
# clients, Prometheus scrape, then SIGTERM and a clean exit.
SERVE_ZOO="$(pwd)/${BUILD_DIR}/ci_serve_zoo"
SERVE_LOG="$(pwd)/${BUILD_DIR}/ci_serve_port"
rm -rf "${SERVE_ZOO}" "${SERVE_LOG}"
IMAP_ZOO_DIR="${SERVE_ZOO}" IMAP_BENCH_SCALE=0.01 IMAP_SERVE_PORT=0 \
  IMAP_SERVE_MAX_WAIT_US=2000000 \
  "${BUILD_DIR}/tools/imap_serve" --print-port > "${SERVE_LOG}" &
SERVE_PID=$!
for _ in $(seq 1 50); do
  [ -s "${SERVE_LOG}" ] && break
  sleep 0.1
done
SERVE_PORT="$(head -n1 "${SERVE_LOG}")"
[ -n "${SERVE_PORT}" ] || { echo "ci: imap_serve printed no port"; exit 1; }
curl -fsS "http://127.0.0.1:${SERVE_PORT}/health" | grep -q '"status":"ok"' \
  || { echo "ci: /health failed"; kill "${SERVE_PID}"; exit 1; }
SERVE_OBS="$(python3 -c 'print(" ".join(["0.01"] * 11))')"
# Warm-up /infer trains the victim; then a lone /infer has nobody to wait
# for, so it must answer well inside the 2 s deadline.
curl -fsS -o /dev/null -d "${SERVE_OBS}" \
  "http://127.0.0.1:${SERVE_PORT}/infer?env=Hopper" \
  || { echo "ci: warm-up /infer failed"; kill "${SERVE_PID}"; exit 1; }
SERVE_LONE_S="$(curl -fsS -o /dev/null -w '%{time_total}' -d "${SERVE_OBS}" \
  "http://127.0.0.1:${SERVE_PORT}/infer?env=Hopper")" \
  || { echo "ci: lone /infer failed"; kill "${SERVE_PID}"; exit 1; }
python3 -c "import sys; sys.exit(0 if float('${SERVE_LONE_S}') < 1.0 else 1)" \
  || { echo "ci: lone /infer took ${SERVE_LONE_S}s (waited out the deadline)"
       kill "${SERVE_PID}"; exit 1; }
# Concurrent inference smoke: identical observations must produce identical
# action rows whether or not they shared a coalesced batch.
for i in 1 2 3 4; do
  curl -fsS -d "${SERVE_OBS}" \
    "http://127.0.0.1:${SERVE_PORT}/infer?env=Hopper" \
    > "${SERVE_LOG}.${i}" &
done
wait $(jobs -p | grep -v "^${SERVE_PID}$") 2>/dev/null
for i in 2 3 4; do
  cmp -s "${SERVE_LOG}.1" "${SERVE_LOG}.${i}" \
    || { echo "ci: concurrent /infer rows diverged"; kill "${SERVE_PID}"; exit 1; }
done
[ -s "${SERVE_LOG}.1" ] || { echo "ci: /infer empty"; kill "${SERVE_PID}"; exit 1; }
SERVE_METRICS="$(curl -fsS "http://127.0.0.1:${SERVE_PORT}/metrics")"
grep -q '^imap_serve_infer_requests_total 6$' <<< "${SERVE_METRICS}" \
  || { echo "ci: /metrics did not count 6 infers"; kill "${SERVE_PID}"; exit 1; }
grep -q '^imap_serve_coalesce_wait_us_count ' <<< "${SERVE_METRICS}" \
  || { echo "ci: /metrics has no coalesce_wait_us"; kill "${SERVE_PID}"; exit 1; }
kill -TERM "${SERVE_PID}"
wait "${SERVE_PID}"
SERVE_RC=$?
[ "${SERVE_RC}" -eq 0 ] || { echo "ci: imap_serve exit ${SERVE_RC}"; exit 1; }
rm -rf "${SERVE_ZOO}" "${SERVE_LOG}" "${SERVE_LOG}".[1-4]

stage "OK — build, check.ast, tier-1 tests, drills, bench smoke, bench gate and serve drill all clean"
