#!/usr/bin/env python3
"""End-to-end benchmark of the IMAP stack.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the library, the real
imap_serve daemon and e2ebench's measuring binary into .bench_build/ (about a
minute on 4 cores); later runs reuse the build. Every run works in a fresh
temporary zoo under .bench_build/work/ and removes it afterwards.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from a separate traced run; spans are kept in
.bench_build/traces/). The last stdout line is the result object; the line
before it is the machine context the numbers were taken in. Every result is
also appended to .bench_build/results.jsonl, which agree.py compares.

Workloads, metrics and measured spreads are described in e2ebench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)
import stats  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
BENCH_BIN = os.path.join(BUILD, "e2e_bench")
SERVE_BIN = os.path.join(BUILD, "imap_serve")
WORK = os.path.join(BUILD, "work")
TRACES = os.path.join(BUILD, "traces")
RESULTS = os.path.join(BUILD, "results.jsonl")
DIGESTS = os.path.join(BUILD, "digests.json")

# Serving traffic. Both rates sit below the 4-connection capacity (8-14k rps
# when the machine is calm, 4-6k in noisy minutes): at the low rate a
# request is almost always alone, at the high rate the coalescer forms
# batches.
LOW_RPS = 400
HIGH_RPS = 2500
SERVE_SETUPS = 15
SERVE_ROUNDS = 12
# Requests per closed-loop saturation round; serve wall_s is the time the
# daemon takes to answer them (median over rounds), about 0.3-0.5 s.
SAT_REQUESTS = 4000
# Cell repetitions are sized from a measured repetition time (4-core Xeon,
# IMAP_THREADS=2): process start, victim, attack and eval.
CELL_REP_S = {"cell-hopper-pc": 6.0, "cell-ysnp-r": 3.2}
MIN_CELL_REPS = 3
SERVE_MIXES = {
    # victims, share of multi-row eval bodies, reload period (s).
    # Victims are drawn uniformly. The 25% multi-row share and the 0.5 s
    # reload period are assumptions, not a measured mix: nothing in the
    # repository sends multi-row /infer bodies or re-saves a served victim
    # on a schedule (attack jobs write results, not victims).
    "serve-mixed": ([("Hopper", "PPO"), ("Hopper", "ATLA"), ("Hopper", "SA")],
                    0.25, 0.5),
}
# Rows of a multi-row body: the eval harness's batch width for Hopper at the
# cells' scale. evaluate_attack steps all live episodes with one batched
# victim forward, and ExperimentRunner::default_eval_episodes("Hopper") at
# scale 0.06 is max(10, 100 * 0.12) = 12 episodes.
MULTI_ROWS = 12
# Per-layer metrics of the serving stack and of the training stack; a
# workload that does not run a layer reports it as 0.
SERVING_LAYERS = (
    "nn.quant_query_us.b1", "nn.quant_query_us.b32", "serve.parse_us",
    "serve.coalescer_infer_us", "serve.leader_wait_us", "serve.model_build_ms",
    "serve.lat_p50_us.low", "serve.lat_p50_us.high", "serve.max_rps",
    "serve.cpu_us_per_req", "serve.health_rtt_us", "serve.rows_per_forward.low",
    "serve.rows_per_forward.high", "serve.cache_reloads",
    "serve.lat_p99_us.low", "serve.lat_p99_us.high", "serve.gen_late_ms",
    "serve.backlogged_slices")
TRAINING_LAYERS = (
    "defense.victim_train_s", "rl.collect_s", "rl.update_s", "core.intrinsic_s",
    "attack.eval_s", "core.intrinsic_share_pct", "rl.env_steps",
    "core.knn_pairs", "env.step_us", "rl.victim_query_us_per_row")
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "tools", "imap_serve.cpp"))):
        raise BenchError("no imap sources (src/, tools/) next to e2ebench/: "
                         "run from the root of a repository checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(os.path.join(BUILD, "build.log"), "w") as out:
            steps = []
            if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
            steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                          "e2e_bench", "imap_serve"])
            for cmd in steps:
                if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                    with open(os.path.join(BUILD, "build.log")) as f:
                        sys.stderr.write(f.read()[-4000:])
                    raise BenchError("build failed: " + " ".join(cmd))


def child_env():
    """The measured processes see no IMAP_* knob but the pinned thread count,
    so a stray setting in the caller's shell cannot change what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("IMAP_")}
    env["IMAP_THREADS"] = "2"
    return env


class Runner:
    def __init__(self, deadline):
        self.deadline = deadline
        self.env = child_env()

    def call(self, *args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        try:
            p = subprocess.run([BENCH_BIN, *map(str, args)], env=self.env,
                               capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {args[0]}")
        sys.stderr.write(p.stderr)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            raise BenchError(f"e2e_bench {args[0]} exited {p.returncode}")
        return json.loads(lines[-1])


def fresh_dir(parent):
    return tempfile.mkdtemp(prefix="zoo-", dir=parent)


# ---------------------------------------------------------------- plans --

def write_plan(path, victims, phases):
    with open(path, "w") as f:
        for env, defense in victims:
            f.write(f"victim {env} {defense}\n")
        for ph in phases:
            if ph["kind"] == "open":
                f.write(f"phase {ph['name']} open\n")
                for due, victim, rows in ph["items"]:
                    f.write(f"item {due!r} {victim} {rows}\n")
            else:
                f.write(f"phase {ph['name']} closed {ph['requests']}\n")
                for victim, rows in ph["mix"]:
                    f.write(f"mix {victim} {rows}\n")


def traffic_phases(seed, label, victims, multi_share, reload_every, rounds,
                   low_n, high_n):
    """`rounds` interleaved rounds of a low-rate and a high-rate open-loop
    slice (sizes per round) plus a closed-loop saturation slice of
    SAT_REQUESTS requests. Interleaving spreads every metric over the whole
    run, and the median over rounds drops a round that a passing neighbour
    disturbed. Reloads (rows = 0) re-save a non-first victim every
    `reload_every` seconds of a slice's schedule time."""
    mix = [(i % len(victims), MULTI_ROWS if multi_share and i % 4 == 3 else 1)
           for i in range(20)]
    phases = []
    for r in range(rounds):
        for name, rate, n in (("low", LOW_RPS, low_n), ("high", HIGH_RPS, high_n)):
            items = stats.poisson_schedule(seed, f"{label}/{name}/{r}", rate, n,
                                           victims=len(victims),
                                           multi_share=multi_share,
                                           multi_rows=MULTI_ROWS)
            if reload_every > 0 and len(victims) > 1:
                end = items[-1][0]
                t, k = reload_every, 0
                while t < end:
                    items.append((t, 1 + k % (len(victims) - 1), 0))
                    t += reload_every
                    k += 1
                items.sort()
            phases.append({"name": f"{name}.{r}", "kind": "open", "items": items})
        phases.append({"name": f"sat.{r}", "kind": "closed",
                       "requests": SAT_REQUESTS, "mix": mix})
    return phases


# ------------------------------------------------------------- analysis --

def tail(values):
    """p99 when the sample supports it, else the highest supported one."""
    q = stats.highest_supported(len(values), (0.99, 0.9, 0.5))
    if q is None:
        raise BenchError(f"{len(values)} samples support no percentile")
    if q != 0.99:
        log(f"only {len(values)} samples: reporting p{q * 100:g} as the tail")
    return stats.percentile(values, q)


def analyse_phases(phases):
    """Check every slice, then combine the slices of each phase: medians over
    rounds for p50s and saturation times, pooled samples for tails and
    counters. A slice whose backlog grew did not run at its nominal rate: it
    is logged and counted in serve.backlogged_slices, and the median over
    rounds keeps it out of the p50 unless most rounds backed up."""
    groups, failed = {}, 0
    for ph in phases:
        g = groups.setdefault(ph["name"].split(".")[0], {
            "p50": [], "lat": [], "late": [], "wall_s": [], "rows": 0.0,
            "batches": 0.0, "cache_misses": 0.0, "backlogged": 0})
        lat, late = ph["lat_us"], ph["late_us"]
        g["p50"].append(stats.percentile(lat, 0.5))
        g["lat"] += lat
        g["late"] += late
        # Multi-row bodies bypass the coalescer; count only coalesced forwards.
        g["rows"] += ph["rows"] - ph["multi_rows"]
        g["batches"] += ph["batches"] - ph["multi_requests"]
        g["cache_misses"] += ph["cache_misses"]
        g["wall_s"].append(ph["wall_s"])
        failed += ph["failed"]
        if late and stats.backlog_grew(late):
            log(f"slice {ph['name']}: backlog grew (max {ph['max_backlog']} "
                f"due-but-unsent); it did not run at its nominal rate")
            g["backlogged"] += 1
    out = {}
    for name, g in groups.items():
        out[name] = {
            "lat_p50_us": stats.median(g["p50"]),
            "lat_p99_us": tail(g["lat"]),
            "late_p99_us": tail(g["late"]) if g["late"] else 0.0,
            "wall_s": stats.median(g["wall_s"]),
            "rows_per_forward": g["rows"] / g["batches"] if g["batches"] else 0.0,
            "cache_misses": g["cache_misses"],
            "backlogged": g["backlogged"],
        }
    return out, failed


def cpu_us_per_req(session):
    """Server CPU time (all threads, user + system) per answered request over
    the traffic session."""
    return 1e6 * session["server_cpu_s"] / session["attempted"]


def serving_layers(ph, probes):
    late = max(ph["low"]["late_p99_us"], ph["high"]["late_p99_us"])
    return {
        "serve.lat_p50_us.low": ph["low"]["lat_p50_us"],
        "serve.lat_p50_us.high": ph["high"]["lat_p50_us"],
        "serve.max_rps": SAT_REQUESTS / ph["sat"]["wall_s"],
        "serve.health_rtt_us": probes["serve.health_rtt_us"],
        "serve.rows_per_forward.low": ph["low"]["rows_per_forward"],
        "serve.rows_per_forward.high": ph["high"]["rows_per_forward"],
        "serve.cache_reloads": sum(p["cache_misses"] for p in ph.values()),
        "serve.lat_p99_us.low": ph["low"]["lat_p99_us"],
        "serve.lat_p99_us.high": ph["high"]["lat_p99_us"],
        "serve.gen_late_ms": late / 1000.0,
        "serve.backlogged_slices": sum(p["backlogged"] for p in ph.values()),
    }


def probe_layers(probes):
    out = {k: probes[k] for k in (
        "nn.quant_query_us.b1", "nn.quant_query_us.b32", "serve.parse_us",
        "serve.coalescer_infer_us", "serve.model_build_ms")}
    out["serve.leader_wait_us"] = (probes["serve.coalescer_infer_us"] -
                                   probes["nn.quant_query_us.b1"])
    return out


STRUCTURAL_SPANS = ("cell", "cell.setup", "cell.attack", "rl.iterate",
                    "defense.victim_train")


def cell_layers(cell, spans):
    selfs = stats.self_time_by_name(spans)
    root = next(s for s in spans if s["name"] == "cell")
    total = root["end"] - root["start"]
    attack = next(s for s in spans if s["name"] == "cell.attack")
    layer_self = sum(t for n, t in selfs.items() if n not in STRUCTURAL_SPANS)
    victim_train = sum(s["end"] - s["start"] for s in spans
                       if s["name"] == "defense.victim_train")
    return {
        "defense.victim_train_s": victim_train,
        "common.ckpt_io_s": selfs.get("common.ckpt_io", 0.0),
        "rl.collect_s": selfs.get("rl.collect", 0.0),
        "rl.update_s": selfs.get("rl.update", 0.0),
        "core.intrinsic_s": selfs.get("core.intrinsic", 0.0),
        "attack.eval_s": selfs.get("attack.eval", 0.0),
        "rl.env_steps": cell["rl.env_steps"],
        "core.knn_pairs": cell["core.knn_pairs"],
        "core.intrinsic_share_pct":
            100.0 * selfs.get("core.intrinsic", 0.0) / (attack["end"] - attack["start"]),
        "trace.accounted_pct": 100.0 * layer_self / total,
    }


# ------------------------------------------------------------ workloads --

def build_id():
    """Identity of the measuring binary (the library is linked into it), so
    two builds run in one checkout never compare digests with each other:
    a change may legitimately alter a cell's numerics."""
    h = hashlib.sha256()
    with open(BENCH_BIN, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def check_digest(build, workload, seed, digest):
    """The outcome of a cell is a function of its seed: every run of the
    same seed with the same build must reproduce the first one's digest."""
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        known = {}
        if os.path.isfile(DIGESTS):
            with open(DIGESTS) as f:
                known = json.load(f)
        key = f"{build}/{workload}/{seed}"
        first = known.setdefault(key, digest)
        with open(DIGESTS, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
    if first != digest:
        log(f"{key}: digest {digest} differs from earlier run's {first}")
    return first == digest


def run_cell(run, workload, seed, seconds, trace, work):
    """Repetitions run distinct cells, seeds seed*100 + r: how much PPO work
    a cell does depends on its seed (KL early stopping, episode lengths), so
    the median over several seeds is what makes runs comparable."""
    reps = 1 if trace else max(MIN_CELL_REPS,
                               int(seconds / CELL_REP_S[workload]))
    cells, failed = [], 0
    last_dir, last_seed = None, None

    build = build_id()

    def cell(sub_seed, *extra):
        nonlocal failed, last_dir, last_seed
        if last_dir:
            shutil.rmtree(last_dir, ignore_errors=True)
        last_dir, last_seed = fresh_dir(work), sub_seed
        c = run.call("cell", "--workload", workload, "--seed", sub_seed,
                     "--dir", last_dir, *extra)
        if not c["finite"]:
            failed += 1
            log(f"{workload}/{sub_seed}: non-finite eval stats")
        if not check_digest(build, workload, sub_seed, c["digest"]):
            failed += 1
        return c

    for r in range(reps):
        cells.append(cell(seed * 100 + r))
    if not trace:
        metrics = {
            "setup_s": stats.median([c["setup_s"] for c in cells]),
            "wall_s": stats.median([c["wall_s"] for c in cells]),
            "peak_rss_mb": stats.median([c["peak_rss_mb"] for c in cells]),
        }
        return metrics, len(cells), failed

    os.makedirs(TRACES, exist_ok=True)
    tfile = os.path.join(TRACES, f"{workload}-{seed}.json")
    # Same sub-seed as the untraced repetition: the digests must match.
    traced = cell(seed * 100, "--trace", tfile)
    probes = run.call("probes", "--workload", workload, "--seed", last_seed,
                      "--dir", last_dir)
    with open(tfile) as f:
        spans = json.load(f)
    untraced = cells[0]["setup_s"] + cells[0]["wall_s"]
    metrics = {name: 0.0 for name in SERVING_LAYERS}
    metrics.update({
        **cell_layers(traced, spans),
        **probes,
        "trace.overhead_pct":
            100.0 * (traced["setup_s"] + traced["wall_s"] - untraced) / untraced,
    })
    return metrics, len(cells) + 1, failed


def run_serve(run, workload, seed, seconds, trace, work):
    victims, multi, reload_every = SERVE_MIXES[workload]
    # 30% of the run at the low rate, 15% at the high rate; the saturation
    # rounds take what SAT_REQUESTS take.
    phases = traffic_phases(seed, workload, victims, multi, reload_every,
                            rounds=SERVE_ROUNDS,
                            low_n=int(LOW_RPS * 0.3 * seconds / SERVE_ROUNDS),
                            high_n=int(HIGH_RPS * 0.15 * seconds / SERVE_ROUNDS))
    plan = os.path.join(work, "plan.txt")
    write_plan(plan, victims, phases)

    def session(trace_file):
        d = fresh_dir(work)
        args = ["serve", "--serve-bin", SERVE_BIN, "--seed", seed, "--dir", d,
                "--plan", plan, "--setups", SERVE_SETUPS]
        if trace_file:
            args += ["--trace", trace_file]
        out = run.call(*args)
        shutil.rmtree(d, ignore_errors=True)
        return out

    out = session(None)
    ph, failed = analyse_phases(out["phases"])
    attempted = out["attempted"]
    if not trace:
        metrics = {
            "setup_s": stats.median(out["setup_s"]),
            "wall_s": ph["sat"]["wall_s"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        return metrics, attempted, failed

    os.makedirs(TRACES, exist_ok=True)
    tfile = os.path.join(TRACES, f"{workload}-{seed}.json")
    traced = session(tfile)
    tph, tfailed = analyse_phases(traced["phases"])
    with open(tfile) as f:
        spans = json.load(f)
    phase_spans = [s for s in spans if s["name"].startswith("serve.phase.")]
    covered = sum(s["end"] - s["start"] for s in phase_spans) - sum(
        t for s, t in zip(spans, stats.self_times(spans))
        if s["name"].startswith("serve.phase."))
    metrics = {name: 0.0 for name in TRAINING_LAYERS}
    metrics.update({
        "common.ckpt_io_s": traced["ckpt_io_s"],
        **probe_layers(traced["probes"]),
        **serving_layers(ph, traced["probes"]),
        "serve.cpu_us_per_req": cpu_us_per_req(out),
        "trace.accounted_pct": 100.0 * covered / sum(
            s["end"] - s["start"] for s in phase_spans),
        "trace.overhead_pct": 100.0 * (tph["low"]["lat_p50_us"] -
                                       ph["low"]["lat_p50_us"]) / ph["low"]["lat_p50_us"],
    })
    return metrics, attempted + traced["attempted"], failed + tfailed


# ----------------------------------------------------------------- main --

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        raise BenchError(f"unknown workload {a.workload}; one of {names}")
    if a.seconds <= 0:
        raise BenchError("--seconds must be positive")
    build()

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    run = Runner(deadline)
    context = run.call("context")
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        fn = run_cell if a.workload.startswith("cell-") else run_serve
        metrics, attempted, failed = fn(run, a.workload, a.seed, a.seconds,
                                        a.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    with open(RESULTS, "a") as f:
        f.write(json.dumps({"workload": a.workload, "seed": a.seed,
                            "seconds": a.seconds, "trace": a.trace,
                            "context": context, **result}) + "\n")
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(str(e))
        sys.exit(2)
