#!/usr/bin/env bash
# run_sanitizers.sh — drive the sanitizer tiers over tier-1 ctest via the
# CMakePresets (asan, ubsan, tsan). Each tier configures + builds its own
# binary dir and runs with the matching per-sanitizer suppression file from
# tools/sanitizers/.
#
#   ASan  : full tier-1 suite (heap/stack corruption, leaks).
#   UBSan : full tier-1 suite (signed overflow, bad shifts, misaligned loads).
#   TSan  : thread-pool, parallel-determinism, PPO chain-schedule,
#           golden-trace, coalescer, server and serve-fuzz suites — the
#           concurrent paths (the PpoChain suites and GoldenTrace's 4-thread
#           pool run the PPO update's per-network chains, intrinsic critic
#           and regularizer hook included; the server
#           suites hand model builds and large forwards between the poll loop
#           and the pool); the full suite under TSan is ~20x and adds nothing.
#           The idle-pool wake-up probe then runs 20 more times on its own.
#
# Usage: tools/run_sanitizers.sh [asan|ubsan|tsan ...]   (default: all three)
set -u

cd "$(dirname "$0")/.."
REPO_ROOT="$(pwd)"
SUPP_DIR="${REPO_ROOT}/tools/sanitizers"
JOBS="${IMAP_SAN_JOBS:-$(nproc)}"

tiers=("$@")
[ ${#tiers[@]} -eq 0 ] && tiers=(asan ubsan tsan)

failures=0

run_tier() {
  local tier="$1"
  local env_assignments=()
  case "$tier" in
    asan)
      env_assignments=(
        "ASAN_OPTIONS=detect_leaks=1:abort_on_error=1:suppressions=${SUPP_DIR}/asan.supp"
        "LSAN_OPTIONS=suppressions=${SUPP_DIR}/lsan.supp"
      ) ;;
    ubsan)
      env_assignments=(
        "UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1:suppressions=${SUPP_DIR}/ubsan.supp"
      ) ;;
    tsan)
      env_assignments=(
        "TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1:suppressions=${SUPP_DIR}/tsan.supp"
      ) ;;
    *)
      echo "run_sanitizers: unknown tier '$tier' (want asan|ubsan|tsan)" >&2
      return 2 ;;
  esac

  echo "=== [$tier] configure ==="
  cmake --preset "$tier" || return 1
  echo "=== [$tier] build ==="
  cmake --build --preset "$tier" -j "$JOBS" || return 1
  echo "=== [$tier] ctest ==="
  env "${env_assignments[@]}" ctest --preset "$tier" -j "$JOBS" || return 1
  if [ "$tier" = tsan ]; then
    # A lost wake-up is a rare interleaving: give the idle-pool probe 20 runs.
    echo "=== [tsan] idle-pool wake-up probe x20 ==="
    env "${env_assignments[@]}" ctest --preset tsan \
      -R '^ThreadPool\.IdlePoolStartsEverySingleSubmitWithoutHelp$' \
      --repeat until-fail:20 || return 1
  fi
}

for tier in "${tiers[@]}"; do
  if run_tier "$tier"; then
    echo "=== [$tier] OK ==="
  else
    echo "=== [$tier] FAILED ===" >&2
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "run_sanitizers: ${failures} tier(s) failed" >&2
  exit 1
fi
echo "run_sanitizers: all tiers clean"
