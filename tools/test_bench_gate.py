#!/usr/bin/env python3
"""Self-test of tools/bench_gate.py on synthetic google-benchmark reports:
every verdict the gate can reach, plus its exit codes through real
processes against stub build directories."""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import bench_gate  # noqa: E402

CONTEXT = {"host_name": "h", "num_cpus": 4, "mhz_per_cpu": 2100,
           "cpu_scaling_enabled": False, "caches": [],
           "library_build_type": "release", "date": "d", "load_avg": [0.5]}


def report(binary, rate=1000.0, scale=None, extra=(), error=None,
           context=CONTEXT):
    """One process's JSON report: every gated case of `binary` at `rate`
    items/s (an ITER_RATE case at `rate` iterations/s, as its real_time in
    ms), `scale` maps a case to a factor on its rate, `extra` adds ungated
    cases and `error` marks one case as error_occurred."""
    scale = scale or {}
    benches = []
    for name in list(bench_gate.GATED[binary]) + list(extra):
        r = rate * scale.get(name, 1.0)
        b = {"name": name, "run_type": "iteration", "items_per_second": r}
        if name in bench_gate.ITER_RATE:
            b = {"name": name, "run_type": "iteration",
                 "real_time": 1e3 / r, "time_unit": "ms"}
        if name == error:
            b = {"name": name, "run_type": "iteration",
                 "error_occurred": True, "error_message": "boom"}
        benches.append(b)
    return {"context": dict(context), "benchmarks": benches}


def side(pairs=5, **kw):
    """A side's reports over `pairs` processes of each gated binary, with a
    little run-to-run jitter."""
    return [report(binary, rate=1000.0 + 3 * i, **kw)
            for i in range(pairs) for binary in bench_gate.GATED]


class Judge(unittest.TestCase):
    def test_equal_sides_pass(self):
        code, lines = bench_gate.judge(side(), side(), "Release", "Release")
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertIn("bench_gate: ok: 8 gated case(s)", lines[-1])

    def test_twelve_percent_drop_on_one_case_fails(self):
        slow = side(scale={"BM_RolloutCollect/16": 0.88})
        code, lines = bench_gate.judge(side(), slow, "", "")
        self.assertEqual(code, 1)
        fails = [ln for ln in lines if ln.startswith("FAIL")]
        self.assertEqual(len(fails), 1)
        self.assertIn("BM_RolloutCollect/16", fails[0])

    def test_iteration_rate_case_is_gated_on_wall_time(self):
        slow = side(scale={"BM_PcRegularizerCompute": 0.88})
        code, lines = bench_gate.judge(side(), slow, "", "")
        self.assertEqual(code, 1)
        self.assertIn("FAIL BM_PcRegularizerCompute: median "
                      "iterations_per_second 12.0% below the base (band 10%)",
                      lines)
        fast = side(scale={"BM_PcRegularizerCompute": 1.2})
        self.assertEqual(bench_gate.judge(side(), fast, "", "")[0], 0)

    def test_iteration_rate_case_without_real_time_is_missing(self):
        change = side()
        for d in change:
            for b in d["benchmarks"]:
                if b["name"] == "BM_PcRegularizerCompute":
                    del b["real_time"]
                    b["items_per_second"] = 1000.0
        code, lines = bench_gate.judge(side(), change, "", "")
        self.assertEqual(code, 1)
        self.assertIn("FAIL BM_PcRegularizerCompute: missing from the "
                      "change runs", lines)

    def test_drop_within_band_and_gain_pass(self):
        for factor in (0.95, 1.3):
            change = side(scale={"BM_PpoUpdate/real_time": factor})
            self.assertEqual(bench_gate.judge(side(), change, "", "")[0], 0)

    def test_build_type_mismatch_is_refused(self):
        code, lines = bench_gate.judge(side(), side(), "Release",
                                       "RelWithDebInfo")
        self.assertEqual(code, 2)
        self.assertIn("CMAKE_BUILD_TYPE", lines[0])

    def test_host_context_mismatch_is_refused(self):
        other = dict(CONTEXT, num_cpus=8)
        change = side() + [report("bench_micro_ppo", context=other)]
        code, lines = bench_gate.judge(side(), change, "", "")
        self.assertEqual(code, 2)
        self.assertIn("host context", lines[0])

    def test_per_run_context_fields_are_ignored(self):
        moved = dict(CONTEXT, date="later", load_avg=[3.0])
        change = [report(b, context=moved) for b in bench_gate.GATED] * 5
        self.assertEqual(bench_gate.judge(side(), change, "", "")[0], 0)

    def test_gated_case_missing_on_change_side_fails(self):
        change = side()
        for d in change:
            d["benchmarks"] = [b for b in d["benchmarks"]
                               if b["name"] != "BM_VictimQueryBatch/64/1"]
        code, lines = bench_gate.judge(side(), change, "", "")
        self.assertEqual(code, 1)
        self.assertIn("FAIL BM_VictimQueryBatch/64/1: missing from the "
                      "change runs", lines)

    def test_change_only_case_is_reported_not_gated(self):
        change = side(extra=["BM_PpoUpdateNew"])
        for d in change:
            for b in d["benchmarks"]:
                if b["name"] == "BM_PpoUpdateNew":
                    b["items_per_second"] = 1.0  # far below any base
        code, lines = bench_gate.judge(side(), change, "", "")
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertTrue(any(ln.startswith("BM_PpoUpdateNew") and
                            "(not gated)" in ln for ln in lines))

    def test_base_built_before_a_rename_is_compared_under_the_new_name(self):
        base = side()
        for d in base:
            for b in d["benchmarks"]:
                if b["name"] == "BM_PpoUpdate/real_time":
                    b["name"] = "BM_PpoUpdate"
        code, lines = bench_gate.judge(base, side(), "", "")
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertIn("bench_gate: ok: 8 gated case(s)", lines[-1])
        slow = side(scale={"BM_PpoUpdate/real_time": 0.8})
        self.assertEqual(bench_gate.judge(base, slow, "", "")[0], 1)

    def test_error_occurred_entry_fails(self):
        change = side(error="BM_VictimQueryBatch/16/0")
        code, lines = bench_gate.judge(side(), change, "", "")
        self.assertEqual(code, 1)
        self.assertIn("FAIL change BM_VictimQueryBatch/16/0: boom", lines)


def stub_build(root, build_type, rate):
    """A build directory whose bench binaries print a fixed JSON report."""
    os.makedirs(os.path.join(root, "bench"))
    with open(os.path.join(root, "CMakeCache.txt"), "w") as f:
        f.write(f"CMAKE_BUILD_TYPE:STRING={build_type}\n")
    for binary in bench_gate.GATED:
        doc = os.path.join(root, binary + ".json")
        with open(doc, "w") as f:
            json.dump(report(binary, rate=rate), f)
        exe = os.path.join(root, "bench", binary)
        with open(exe, "w") as f:
            f.write(f"#!/bin/sh\ncat '{doc}'\n")
        os.chmod(exe, os.stat(exe).st_mode | stat.S_IXUSR)


class Cli(unittest.TestCase):
    def run_gate(self, base, change):
        with tempfile.TemporaryDirectory() as tmp:
            stub_build(os.path.join(tmp, "a"), *base)
            stub_build(os.path.join(tmp, "b"), *change)
            return subprocess.run(
                [sys.executable, os.path.join(HERE, "bench_gate.py"),
                 os.path.join(tmp, "a"), os.path.join(tmp, "b")],
                cwd=tmp, capture_output=True, text=True)

    def test_exit_codes(self):
        self.assertEqual(self.run_gate(("", 1000.0), ("", 1000.0)).returncode,
                         0)
        self.assertEqual(self.run_gate(("", 1000.0), ("", 800.0)).returncode,
                         1)
        p = self.run_gate(("Release", 1000.0), ("Debug", 1000.0))
        self.assertEqual(p.returncode, 2)
        self.assertIn("CMAKE_BUILD_TYPE", p.stderr)

    def test_usage_error(self):
        p = subprocess.run([sys.executable,
                            os.path.join(HERE, "bench_gate.py")],
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 2)


if __name__ == "__main__":
    unittest.main()
