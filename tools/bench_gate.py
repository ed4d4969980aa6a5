#!/usr/bin/env python3
"""bench_gate.py — the micro-benchmark gate: a change against its parent.

    python3 tools/bench_gate.py BASE_BUILD CHANGE_BUILD

Both arguments are CMake build directories holding bench/bench_micro_ppo and
bench/bench_micro_infer. The gate alternates base and change processes for
PAIRS pairs in one window (the side that goes first swaps every pair). Each
process runs its binary's GATED google-benchmark cases REPS times with
--benchmark_format=json at IMAP_THREADS=1. For every gated case, the
change's median items_per_second over all its processes and repetitions
may fall at most BAND below the base's; stats.agreement from
e2ebench/stats.py judges that, one-sided, so one statistics module gates
both the micro and the end-to-end numbers.

A paired gate needs no recorded floor: both sides are measured on the same
host in the same window. Run it from a scratch directory, since a binary
may write report files into its working directory.

Exit status: 0 when every gated case is within the band; 1 when one is
slower beyond it, is missing from either side, reports error_occurred, or a
process fails; 2 (refused, never skipped) when the sides differ in
google-benchmark's host context or in CMAKE_BUILD_TYPE (read from each
build's CMakeCache.txt), or on a usage error.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "e2ebench"))
import stats  # noqa: E402

PAIRS = 9
# Repetitions per process, randomly interleaved across the gated cases, so
# a burst of load from outside lands on a few samples rather than on one
# process's only sample of a case; the median takes every repetition.
REPS = 3
BAND = 0.10
METRIC = "items_per_second"
# A plain double: the bundled google-benchmark predates the "0.1s" syntax.
MIN_TIME = "0.1"
# Binary -> its gated cases, named as google-benchmark reports them.
GATED = {
    "bench_micro_ppo": ["BM_PpoUpdate", "BM_RolloutCollect/1",
                        "BM_RolloutCollect/16"],
    "bench_micro_infer": ["BM_VictimQueryBatch/16/0",
                          "BM_VictimQueryBatch/16/1",
                          "BM_VictimQueryBatch/64/0",
                          "BM_VictimQueryBatch/64/1"],
}
# google-benchmark's host context without the fields that change per run
# (date, executable, load_avg).
HOST_KEYS = ("host_name", "num_cpus", "mhz_per_cpu", "cpu_scaling_enabled",
             "caches", "library_build_type")


def build_type(build_dir):
    """CMAKE_BUILD_TYPE from the build's CMakeCache.txt, None if absent."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def run_binary(build_dir, binary):
    """One process of `binary`'s gated cases; its JSON report as a dict."""
    names = "|".join(GATED[binary])
    cmd = [os.path.join(build_dir, "bench", binary),
           f"--benchmark_filter=^({names})$",
           "--benchmark_format=json", f"--benchmark_min_time={MIN_TIME}",
           f"--benchmark_repetitions={REPS}",
           "--benchmark_enable_random_interleaving=true"]
    env = dict(os.environ, IMAP_THREADS="1")
    p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}")
    try:
        return json.loads(p.stdout)
    except ValueError as e:
        raise RuntimeError(f"{cmd[0]}: no JSON report ({e})") from e


def refusal(base_docs, change_docs, base_type, change_type):
    """Why the two sides cannot be compared, or None when they can."""
    if base_type is None or change_type is None:
        return "a build directory has no CMakeCache.txt to read"
    if base_type != change_type:
        return (f"CMAKE_BUILD_TYPE differs: base '{base_type}', "
                f"change '{change_type}'")
    contexts = [{k: d["context"].get(k) for k in HOST_KEYS}
                for d in base_docs + change_docs]
    if not stats.same_context(contexts):
        seen = sorted({json.dumps(c, sort_keys=True) for c in contexts})
        return "the runs differ in host context:\n  " + "\n  ".join(seen)
    return None


def values_of(docs):
    """(case, METRIC) -> values over processes, and the error entries."""
    values, errors = {}, []
    for d in docs:
        for b in d["benchmarks"]:
            if b.get("run_type", "iteration") != "iteration":
                continue
            if b.get("error_occurred"):
                errors.append(f"{b['name']}: {b.get('error_message', '')}")
            elif METRIC in b:
                values.setdefault((b["name"], METRIC), []).append(b[METRIC])
    return values, errors


def spread(values):
    return stats.spread(values) if len(values) > 1 else float("nan")


def judge(base_docs, change_docs, base_type, change_type):
    """(exit status, report lines) for two sides' JSON reports."""
    why = refusal(base_docs, change_docs, base_type, change_type)
    if why:
        return 2, ["bench_gate: refused: " + why]
    base, base_err = values_of(base_docs)
    change, change_err = values_of(change_docs)
    gated = {(n, METRIC) for names in GATED.values() for n in names}
    lines = [f"{'benchmark':<28}{'base':>14}{'change':>14}{'worse':>8}"
             f"{'spread b':>10}{'spread c':>10}"]
    failed = []
    for side, vals, errs in (("base", base, base_err),
                             ("change", change, change_err)):
        failed += [f"FAIL {side} {e}" for e in errs]
        failed += [f"FAIL {k[0]}: missing from the {side} runs"
                   for k in sorted(gated - set(vals))]
    rows = stats.agreement({k: base[k] for k in gated if k in base},
                           {k: change[k] for k in gated if k in change},
                           {METRIC: (BAND, "higher")}, two_sided=False)
    for name, _, mb, mc, worse, ok in rows:
        sb, sc = (spread(v[(name, METRIC)]) for v in (base, change))
        lines.append(f"{name:<28}{mb:>14.6g}{mc:>14.6g}{worse:>8.3f}"
                     f"{sb:>10.3f}{sc:>10.3f}{'' if ok else '  FAIL'}")
        if not ok:
            failed.append(f"FAIL {name}: median {METRIC} {worse:.1%} "
                          f"below the base (band {BAND:.0%})")
    for key in sorted(set(change) - gated):
        lines.append(f"{key[0]:<28}{'':>14}{stats.median(change[key]):>14.6g}"
                     "  (not gated)")
    lines += failed
    lines.append(f"bench_gate: {'FAIL' if failed else 'ok'}: {len(rows)} "
                 f"gated case(s) compared, band {BAND:.0%}")
    return (1 if failed else 0), lines


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    dirs = argv[1:]
    types = [build_type(d) for d in dirs]
    why = refusal([], [], *types)
    if why:
        print("bench_gate: refused: " + why, file=sys.stderr)
        return 2
    docs = ([], [])
    try:
        for pair in range(PAIRS):
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                for binary in GATED:
                    docs[side].append(run_binary(dirs[side], binary))
    except RuntimeError as e:
        print(f"bench_gate: FAIL: {e}", file=sys.stderr)
        return 1
    code, lines = judge(docs[0], docs[1], *types)
    print(f"bench_gate: medians over {PAIRS} alternated pairs")
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
