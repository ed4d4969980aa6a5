"""Pure helpers of the end-to-end benchmark: percentiles with a sample-count
rule, seeded arrival schedules, self time from nested spans, and the
set-versus-set agreement check. No I/O here; test_stats.py covers them."""

import math
import random
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; below that it is one or two unlucky samples, not a tail.
MIN_TAIL_SAMPLES = 10


def supports(n, q):
    """True when n samples support percentile q (0 < q < 1)."""
    return n * (1.0 - q) >= MIN_TAIL_SAMPLES


def percentile(values, q):
    """Nearest-rank percentile q of values. Raises ValueError when the sample
    is too small for q under the sample-count rule; the median (q = 0.5) needs
    MIN_TAIL_SAMPLES samples on each side like any other percentile."""
    n = len(values)
    if not supports(n, q):
        raise ValueError(f"{n} samples do not support p{q * 100:g}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


def highest_supported(n, candidates=(0.999, 0.99, 0.9, 0.5)):
    """The highest of `candidates` that n samples support, or None."""
    for q in candidates:
        if supports(n, q):
            return q
    return None


def median(values):
    return statistics.median(values)


def spread(values):
    """Inter-quartile range as a share of the median, the way the benchmark's
    acceptance check computes it (statistics.quantiles, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def poisson_schedule(seed, label, rate, count, victims=1, multi_share=0.0,
                     multi_rows=1):
    """Open-loop arrivals: `count` exponential inter-arrival gaps at `rate`
    per second, drawn from a stream keyed by (seed, label) alone. Each item is
    (due_s, victim, rows): victims are drawn uniformly, and a `multi_share` of
    items carry `multi_rows` rows."""
    rng = random.Random(f"{seed}/{label}")
    t = 0.0
    items = []
    for _ in range(count):
        t += rng.expovariate(rate)
        victim = rng.randrange(victims) if victims > 1 else 0
        rows = multi_rows if rng.random() < multi_share else 1
        items.append((t, victim, rows))
    return items


def lateness_trend(items_late_us, quarters=4):
    """Median send lateness (us) of each quarter of a phase, in due order."""
    n = len(items_late_us)
    out = []
    for k in range(quarters):
        part = items_late_us[k * n // quarters:(k + 1) * n // quarters]
        out.append(statistics.median(part) if part else 0.0)
    return out


def backlog_grew(late_us, limit_us=2000.0):
    """A phase's queue grew when its last quarter ran later than `limit_us`
    and later than its first quarter: the generator (or the server) fell
    behind the schedule and never caught up."""
    trend = lateness_trend(late_us)
    return trend[-1] > limit_us and trend[-1] > trend[0]


def _union_length(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span self time: its duration minus the part of its interval that
    its children cover (children may overlap each other). `spans` is a list of
    dicts with name/start/end/parent (parent = index or -1). Returns a list
    parallel to `spans`."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length(
            [(spans[c]["start"], spans[c]["end"]) for c in children[i]],
            s["start"], s["end"])
        out.append((s["end"] - s["start"]) - covered)
    return out


def self_time_by_name(spans):
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + t
    return totals


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0 if second == first else math.inf
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta


def agreement(set_a, set_b, bounds, two_sided=True):
    """Compare two sets of runs. set_x maps (workload, metric) -> list of
    values; bounds maps metric -> (bound, better). Returns a list of
    (workload, metric, median_a, median_b, worse_share, ok) for every pair
    present in both sets. Two sets of the same code agree when their medians
    are within the bound of each other in either direction (two_sided); a
    change measured against its parent only has to be no worse than the
    bound (two_sided=False)."""
    rows = []
    for key in sorted(set(set_a) & set(set_b)):
        workload, metric = key
        bound, better = bounds[metric]
        ma, mb = median(set_a[key]), median(set_b[key])
        w = worse_by(ma, mb, better)
        ok = abs(w) <= bound if two_sided else w <= bound
        rows.append((workload, metric, ma, mb, w, ok))
    return rows


def same_context(contexts):
    """True when every recorded machine context is identical."""
    contexts = list(contexts)
    return all(c == contexts[0] for c in contexts)
