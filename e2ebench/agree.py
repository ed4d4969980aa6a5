#!/usr/bin/env python3
"""Check that two sets of benchmark runs agree within BENCHMARK.json's bounds.

    python3 e2ebench/agree.py FIRST.jsonl SECOND.jsonl
    python3 e2ebench/agree.py --parent PARENT.jsonl CHANGE.jsonl

Each file holds result records as run.py appends them to
.bench_build/results.jsonl (copy or split that file per set). Only
end-to-end (--trace 0) records are compared. For every (workload, metric)
pair the script prints both medians, how much worse the second is, and each
set's spread (inter-quartile range over median). Two sets of the same code
agree when the medians are within the bound of each other in either
direction; with --parent the second set only has to be no worse than the
first by more than the bound. It refuses to compare
records taken in different machine contexts (nproc, SIMD backend,
IMAP_THREADS, build type), and exits 1 when a pair disagrees or a record is
incorrect.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)
import stats  # noqa: E402


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_pair(records):
    out = {}
    for r in records:
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def main(argv):
    two_sided = "--parent" not in argv
    argv = [a for a in argv if a != "--parent"]
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    sets = [[r for r in load(p) if r["trace"] == 0] for p in argv[1:]]
    contexts = [r["context"] for s in sets for r in s]
    if not stats.same_context(contexts):
        print("refused: the records were taken in different machine contexts:",
              file=sys.stderr)
        for c in sorted({json.dumps(c, sort_keys=True) for c in contexts}):
            print("  " + c, file=sys.stderr)
        return 2
    bad = [r for s in sets for r in s if not r["correct"]]
    a, b = by_pair(sets[0]), by_pair(sets[1])
    rows = stats.agreement(a, b, bounds, two_sided)
    print(f"{'workload':<16}{'metric':<18}{'median 1':>14}{'median 2':>14}"
          f"{'worse':>8}{'bound':>7}{'spread 1':>10}{'spread 2':>10}")
    for workload, metric, ma, mb, worse, ok in rows:
        key = (workload, metric)
        sa = stats.spread(a[key]) if len(a[key]) > 1 else float("nan")
        sb = stats.spread(b[key]) if len(b[key]) > 1 else float("nan")
        print(f"{workload:<16}{metric:<18}{ma:>14.6g}{mb:>14.6g}{worse:>8.3f}"
              f"{bounds[metric][0]:>7.2f}{sa:>10.3f}{sb:>10.3f}"
              f"{'' if ok else '  DISAGREE'}")
    if bad:
        print(f"{len(bad)} incorrect record(s)", file=sys.stderr)
    return 0 if all(ok for *_, ok in rows) and not bad else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
