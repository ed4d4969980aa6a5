#!/usr/bin/env python3
"""Self-test matrix for imap_check (tools/check).

Every check is pinned by a good/bad fixture pair under tools/check/fixtures/,
suppression and allowlist semantics are exercised end-to-end, and the CLI
exit-code contract (0 clean / 1 findings / 2 usage-or-database error) and
tree-scan coverage are verified through subprocess runs.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
KERNEL_TREE = os.path.join(FIXTURES, "kernel_tree")

sys.path.insert(0, HERE)

import checks      # noqa: E402
import imap_check  # noqa: E402


def check_fixture(filename, relpath, frontend="builtin"):
    """Analyze one fixture as if it lived at `relpath` in a scratch tree."""
    with tempfile.TemporaryDirectory() as tmp:
        dst = os.path.join(tmp, relpath)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy(os.path.join(FIXTURES, filename), dst)
        findings, used = imap_check.analyze_file(
            tmp, relpath, frontend, None, None)
    return findings


def check_snippet(code, relpath, extra=None):
    """Analyze an inline snippet at `relpath` in a scratch tree; `extra`
    maps further relpaths (e.g. headers it includes) to their contents."""
    files = dict(extra or {})
    files[relpath] = code
    with tempfile.TemporaryDirectory() as tmp:
        for rel, text in files.items():
            dst = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            with open(dst, "w", encoding="utf-8") as fh:
                fh.write(text)
        findings, _ = imap_check.analyze_file(tmp, relpath, "builtin",
                                              None, None)
    return findings


def rules_of(findings):
    return sorted({f.rule for f in findings})


def lines_of(findings, rule=None):
    return sorted(f.line for f in findings if rule is None or f.rule == rule)


class TestRngParallel(unittest.TestCase):
    def test_bad_fixture_flags_every_annotated_site(self):
        fs = check_fixture("rng_parallel_bad.cpp",
                           "src/rl/rng_parallel_bad.cpp")
        self.assertEqual(rules_of(fs), ["rng-parallel"])
        # direct draw, transitive helper, engine-keyed split (draw + key),
        # unkeyed stream, chunked entry point
        self.assertEqual(lines_of(fs), [16, 22, 30, 30, 31, 38])

    def test_good_fixture_is_clean(self):
        fs = check_fixture("rng_parallel_good.cpp",
                           "src/rl/rng_parallel_good.cpp")
        self.assertEqual(fs, [])


class TestHotLoopAlloc(unittest.TestCase):
    def test_bad_fixture_resolves_sugar(self):
        fs = check_fixture("hot_alloc_sugar_bad.cpp",
                           "src/nn/hot_alloc_sugar_bad.cpp")
        self.assertEqual(rules_of(fs), ["hot-loop-alloc"])
        # alias, typedef, auto-construction, auto-via-return, std::string
        self.assertEqual(lines_of(fs), [17, 18, 19, 20, 21])

    def test_good_fixture_is_clean(self):
        fs = check_fixture("hot_alloc_sugar_good.cpp",
                           "src/nn/hot_alloc_sugar_good.cpp")
        self.assertEqual(fs, [])

    def test_cold_path_is_exempt(self):
        fs = check_fixture("hot_alloc_sugar_bad.cpp",
                           "src/common/hot_alloc_sugar_bad.cpp")
        self.assertEqual(lines_of(fs, "hot-loop-alloc"), [])

    def test_serving_layer_is_a_hot_path(self):
        # Per-request action row / response text / scatter buffer inside the
        # dispatch loops — src/serve/ answers requests at rate and is held to
        # the same allocation-free steady state as the kernels.
        fs = check_fixture("hot_alloc_serve_bad.cpp",
                           "src/serve/hot_alloc_serve_bad.cpp")
        self.assertEqual(rules_of(fs), ["hot-loop-alloc"])
        self.assertEqual(lines_of(fs), [13, 14, 23])

    def test_serving_layer_good_fixture_is_clean(self):
        fs = check_fixture("hot_alloc_serve_good.cpp",
                           "src/serve/hot_alloc_serve_good.cpp")
        self.assertEqual(fs, [])

    def test_scenario_layer_is_a_hot_path(self):
        # Per-tick delay-ring / noise / perturbed-action scratch inside the
        # channel-pipeline loops — src/scenario/ corrupts observations on
        # every environment step of every rollout slot and is held to the
        # same allocation-free steady state as the engine it feeds.
        fs = check_fixture("hot_alloc_scenario_bad.cpp",
                           "src/scenario/hot_alloc_scenario_bad.cpp")
        self.assertEqual(rules_of(fs), ["hot-loop-alloc"])
        self.assertEqual(lines_of(fs), [13, 14, 22])

    def test_scenario_layer_good_fixture_is_clean(self):
        fs = check_fixture("hot_alloc_scenario_good.cpp",
                           "src/scenario/hot_alloc_scenario_good.cpp")
        self.assertEqual(fs, [])


class TestFloatEq(unittest.TestCase):
    def test_bad_fixture_types_computed_expressions(self):
        fs = check_fixture("float_eq_bad.cpp", "src/common/float_eq_bad.cpp")
        self.assertEqual(rules_of(fs), ["float-eq"])
        # computed/computed, alias, call results, loop header
        self.assertEqual(lines_of(fs), [13, 17, 21, 23])

    def test_good_fixture_is_clean(self):
        fs = check_fixture("float_eq_good.cpp",
                           "src/common/float_eq_good.cpp")
        self.assertEqual(fs, [])


class TestSerializeSymmetry(unittest.TestCase):
    def test_bad_fixture_one_finding_per_class(self):
        fs = check_fixture("serialize_order_bad.cpp",
                           "src/common/serialize_order_bad.cpp")
        self.assertEqual(rules_of(fs), ["serialize-symmetry"])
        # SwappedOrder (order skew), KindSkew (u64 vs f64), TrailingWrite
        self.assertEqual(lines_of(fs), [18, 35, 48])
        msgs = " | ".join(f.message for f in fs)
        self.assertIn("mean_", msgs)
        self.assertIn("m2_", msgs)

    def test_good_fixture_is_clean(self):
        fs = check_fixture("serialize_order_good.cpp",
                           "src/common/serialize_order_good.cpp")
        self.assertEqual(fs, [])


class TestNondetSource(unittest.TestCase):
    def test_bad_fixture_flags_every_source(self):
        fs = check_fixture("nondet_source_bad.cpp",
                           "src/common/nondet_source_bad.cpp")
        self.assertEqual(rules_of(fs), ["nondet-source"])
        # chrono now, time, srand, std::rand, random_device, mt19937_64
        self.assertEqual(lines_of(fs), [11, 13, 17, 18, 22, 23])

    def test_rng_home_is_exempt(self):
        fs = check_fixture("nondet_source_bad.cpp", "src/common/rng.cpp")
        self.assertEqual(lines_of(fs, "nondet-source"), [])

    def test_wall_clock_is_src_only_randomness_is_everywhere(self):
        # bench/ and tests/ time things; raw randomness is banned there too
        for rel in ("bench/nondet_source_bad.cpp",
                    "tests/nondet_source_bad.cpp"):
            fs = check_fixture("nondet_source_bad.cpp", rel)
            self.assertEqual(lines_of(fs, "nondet-source"),
                             [17, 18, 22, 23], rel)


class TestRawThread(unittest.TestCase):
    def test_bad_fixture_flags_every_primitive(self):
        fs = check_fixture("raw_thread_bad.cpp", "src/core/raw_thread_bad.cpp")
        self.assertEqual(rules_of(fs), ["raw-thread"])
        # thread, .detach(), async, jthread, heap thread, ->detach()
        self.assertEqual(lines_of(fs), [11, 12, 13, 18, 20, 21])

    def test_good_fixture_is_clean(self):
        fs = check_fixture("raw_thread_good.cpp",
                           "src/core/raw_thread_good.cpp")
        self.assertEqual(fs, [])

    def test_applies_to_bench_and_tests(self):
        for rel in ("bench/raw_thread_bad.cpp", "tests/raw_thread_bad.cpp"):
            fs = check_fixture("raw_thread_bad.cpp", rel)
            self.assertEqual(len(lines_of(fs, "raw-thread")), 6, rel)

    def test_thread_pool_home_is_exempt(self):
        for rel in ("src/common/thread_pool.cpp", "src/common/thread_pool.h"):
            fs = check_fixture("raw_thread_bad.cpp", rel)
            self.assertEqual(lines_of(fs, "raw-thread"), [], rel)


class TestUnorderedIter(unittest.TestCase):
    def test_bad_fixture_flags_every_loop(self):
        fs = check_fixture("unordered_iter_bad.cpp",
                           "src/core/unordered_iter_bad.cpp")
        self.assertEqual(rules_of(fs), ["unordered-iter"])
        # range-for, begin() iterator, range-for through an alias,
        # cbegin() over a class member
        self.assertEqual(lines_of(fs), [23, 24, 31, 37])

    def test_good_fixture_is_clean(self):
        fs = check_fixture("unordered_iter_good.cpp",
                           "src/core/unordered_iter_good.cpp")
        self.assertEqual(fs, [])

    def test_numeric_layers_only(self):
        for rel in ("src/common/unordered_iter_bad.cpp",
                    "bench/unordered_iter_bad.cpp",
                    "tests/unordered_iter_bad.cpp"):
            fs = check_fixture("unordered_iter_bad.cpp", rel)
            self.assertEqual(lines_of(fs, "unordered-iter"), [], rel)

    def test_member_typed_through_its_header(self):
        header = ("#pragma once\n"
                  "#include <string>\n"
                  "#include <unordered_map>\n"
                  "namespace imap {\n"
                  "class Memo {\n"
                  " public:\n"
                  "  double sum() const;\n"
                  " private:\n"
                  "  std::unordered_map<std::string, double> memo_;\n"
                  "};\n"
                  "}  // namespace imap\n")
        code = ('#include "rl/memo.h"\n'
                "namespace imap {\n"
                "double Memo::sum() const {\n"
                "  double s = 0.0;\n"
                "  for (const auto& kv : memo_) s += kv.second;\n"
                "  return s;\n"
                "}\n"
                "}  // namespace imap\n")
        fs = check_snippet(code, "src/rl/memo.cpp",
                           extra={"src/rl/memo.h": header})
        self.assertEqual(rules_of(fs), ["unordered-iter"])
        self.assertEqual(lines_of(fs), [5])


class TestHeaderHygiene(unittest.TestCase):
    def test_bad_header_fires_three_ways(self):
        fs = check_fixture("header_hygiene_bad.h",
                           "src/core/header_hygiene_bad.h")
        self.assertEqual(
            [(f.line, f.rule) for f in fs],
            [(1, "pragma-once"), (3, "parent-include"),
             (5, "using-ns-header")])

    def test_good_header_is_clean(self):
        for rel in ("src/core/header_hygiene_good.h",
                    "bench/header_hygiene_good.h",
                    "tests/header_hygiene_good.h"):
            self.assertEqual(check_fixture("header_hygiene_good.h", rel), [],
                             rel)

    def test_source_files_only_get_parent_include(self):
        # pragma-once and using-ns-header are header rules; a parent-relative
        # include is wrong anywhere
        fs = check_fixture("header_hygiene_bad.h",
                           "bench/header_hygiene_bad.cpp")
        self.assertEqual([(f.line, f.rule) for f in fs],
                         [(3, "parent-include")])


class TestIncludeDirection(unittest.TestCase):
    def test_scenario_layer_may_not_include_attack(self):
        fs = check_fixture("include_direction_bad.h",
                           "src/scenario/include_direction_bad.h")
        self.assertEqual([(f.line, f.rule) for f in fs],
                         [(6, "include-direction")])

    def test_other_layers_may_include_attack(self):
        for rel in ("src/core/include_direction_bad.h",
                    "src/attack/include_direction_bad.h",
                    "tests/include_direction_bad.h"):
            self.assertEqual(check_fixture("include_direction_bad.h", rel),
                             [], rel)


class TestFmaIntrinsic(unittest.TestCase):
    def test_bad_fixture_flags_fused_forms_only(self):
        fs = check_fixture("fma_intrinsic_bad.cpp",
                           "src/nn/fma_intrinsic_bad.cpp")
        self.assertEqual(rules_of(fs), ["fma-intrinsic"])
        # fmadd, fnmsub, masked avx512 form, NEON vfma, libm fma;
        # integer madd and non-fused vmla stay quiet
        self.assertEqual(lines_of(fs), [14, 15, 23, 31, 38])

    def test_outside_src_is_exempt(self):
        fs = check_fixture("fma_intrinsic_bad.cpp",
                           "tests/fma_intrinsic_bad.cpp")
        self.assertEqual(lines_of(fs, "fma-intrinsic"), [])


class TestIpcFraming(unittest.TestCase):
    def test_bad_fixture_flags_every_raw_shape(self):
        fs = check_fixture("ipc_framing_bad.cpp",
                           "src/common/ipc_framing_bad.cpp")
        self.assertEqual(rules_of(fs), ["ipc-framing"])
        # ::write &h+sizeof, write reinterpret_cast(&h), ::read &h+sizeof,
        # fwrite &h, fread sizeof-sized
        self.assertEqual(lines_of(fs), [14, 15, 19, 25, 29])

    def test_good_fixture_is_clean(self):
        fs = check_fixture("ipc_framing_good.cpp",
                           "src/common/ipc_framing_good.cpp")
        self.assertEqual(lines_of(fs, "ipc-framing"), [])

    def test_proc_is_covered(self):
        # src/common/proc.* moves no messages, so it has no exemption.
        fs = check_fixture("ipc_framing_bad.cpp", "src/common/proc.cpp")
        self.assertEqual(lines_of(fs, "ipc-framing"), [14, 15, 19, 25, 29])

    def test_serving_layer_is_covered(self):
        # The serving daemon moves raw bytes on sockets all day; struct-shaped
        # I/O there is exactly the torn-message risk the rule exists for.
        fs = check_fixture("ipc_framing_bad.cpp",
                           "src/serve/ipc_framing_bad.cpp")
        self.assertEqual(rules_of(fs), ["ipc-framing"])
        self.assertEqual(lines_of(fs), [14, 15, 19, 25, 29])

    def test_outside_src_is_exempt(self):
        fs = check_fixture("ipc_framing_bad.cpp",
                           "tools/ipc_framing_bad.cpp")
        self.assertEqual(lines_of(fs, "ipc-framing"), [])

    def test_inline_suppression(self):
        code = (
            "#include <unistd.h>\n"
            "struct H { int a; };\n"
            "void f(int fd, const H& h) {\n"
            "  ::write(fd, &h, sizeof h);"
            "  // imap-check: allow(ipc-framing)\n"
            "}\n")
        fs = check_snippet(code, "src/common/raw_io.cpp")
        self.assertEqual(lines_of(fs, "ipc-framing"), [])


def kernel_compdb(template, root):
    with open(os.path.join(KERNEL_TREE, template), encoding="utf-8") as fh:
        return json.loads(fh.read().replace("@ROOT@", root))


class TestKernelFlags(unittest.TestCase):
    def test_good_database_satisfies_x86_contract(self):
        db = kernel_compdb("compile_commands.good.json.in", "/kt")
        self.assertEqual(checks.check_kernel_flags(db, "/kt", "x86_64"), [])

    def test_bad_database_violations(self):
        db = kernel_compdb("compile_commands.bad.json.in", "/kt")
        fs = checks.check_kernel_flags(db, "/kt", "x86_64")
        self.assertEqual(rules_of(fs), ["kernel-flags"])
        msgs = {f.path: f.message for f in fs}
        self.assertIn("missing required flag `-mno-fma`",
                      msgs["src/nn/kernel_scalar.cpp"])
        self.assertIn("undeclared ISA flag `-mavx512f`",
                      msgs["src/nn/kernel_avx2.cpp"])
        self.assertIn("contraction explicitly enabled",
                      msgs["src/nn/kernel_avx512.cpp"])

    def test_missing_kernel_entry_is_a_violation(self):
        db = kernel_compdb("compile_commands.good.json.in", "/kt")
        db = [e for e in db if "quant" not in e["file"]]
        fs = checks.check_kernel_flags(db, "/kt", "x86_64")
        self.assertTrue(any("no compile_commands.json entry" in f.message
                            for f in fs))

    def test_arm_contract_does_not_require_mno_fma(self):
        db = [{
            "directory": "/kt",
            "command": "g++ -std=c++17 -O2 -ffp-contract=off "
                       "-c src/nn/kernel_scalar.cpp -o k.o",
            "file": "src/nn/kernel_scalar.cpp",
        }, {
            "directory": "/kt",
            "command": "g++ -std=c++17 -O2 -ffp-contract=off "
                       "-c src/nn/kernel_neon.cpp -o n.o",
            "file": "src/nn/kernel_neon.cpp",
        }, {
            "directory": "/kt",
            "command": "g++ -std=c++17 -O2 -ffp-contract=off "
                       "-c src/nn/quant.cpp -o q.o",
            "file": "src/nn/quant.cpp",
        }]
        self.assertEqual(checks.check_kernel_flags(db, "/kt", "aarch64"), [])


class TestSuppression(unittest.TestCase):
    LOOP_ALLOC = (
        "#include <vector>\n"
        "void f() {\n"
        "  for (int i = 0; i < 3; ++i) {\n"
        "    std::vector<int> v(3);  {}\n"
        "    v[0] = i;\n"
        "  }\n"
        "}\n")

    def test_imap_check_allow(self):
        code = self.LOOP_ALLOC.replace("{}", "// imap-check: "
                                             "allow(hot-loop-alloc)")
        self.assertEqual(check_snippet(code, "src/nn/x.cpp"), [])

    def test_header_rule_allow(self):
        code = ('#pragma once\n'
                '#include "../x.h"  // imap-check: allow(parent-include)\n')
        self.assertEqual(check_snippet(code, "src/nn/x.h"), [])

    def test_unsuppressed_site_still_fires(self):
        fs = check_snippet(self.LOOP_ALLOC.replace("{}", ""), "src/nn/x.cpp")
        self.assertEqual(rules_of(fs), ["hot-loop-alloc"])


class TestAllowlist(unittest.TestCase):
    def test_entries_filter_by_rule_and_glob(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "allow.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("# comment\n"
                         "hot-loop-alloc  src/nn/legacy_*.cpp\n")
            entries = imap_check.load_allowlist(path)
        self.assertTrue(imap_check.allowed(
            entries, "hot-loop-alloc", "src/nn/legacy_gemm.cpp"))
        self.assertFalse(imap_check.allowed(
            entries, "hot-loop-alloc", "src/nn/mlp.cpp"))
        self.assertFalse(imap_check.allowed(
            entries, "float-eq", "src/nn/legacy_gemm.cpp"))

    def test_malformed_entry_is_fatal(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "allow.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("not-a-real-rule src/nn/x.cpp\n")
            with open(os.devnull, "w") as devnull:
                stderr, sys.stderr = sys.stderr, devnull
                try:
                    with self.assertRaises(SystemExit) as cm:
                        imap_check.load_allowlist(path)
                finally:
                    sys.stderr = stderr
        self.assertEqual(cm.exception.code, 2)


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "imap_check.py")] + args,
        capture_output=True, text=True, cwd=cwd)


class TestCli(unittest.TestCase):
    def scratch_tree(self, tmp):
        dst = os.path.join(tmp, "src", "nn")
        os.makedirs(dst, exist_ok=True)
        shutil.copy(os.path.join(FIXTURES, "hot_alloc_sugar_bad.cpp"), dst)
        shutil.copy(os.path.join(FIXTURES, "hot_alloc_sugar_good.cpp"), dst)

    def test_exit_1_on_findings(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.scratch_tree(tmp)
            r = run_cli(["--root", tmp, "--compdb", "none",
                         "--frontend", "builtin",
                         "src/nn/hot_alloc_sugar_bad.cpp"])
        self.assertEqual(r.returncode, 1)
        self.assertIn("[hot-loop-alloc]", r.stdout)
        self.assertIn("fix-it:", r.stdout)

    def test_exit_0_on_clean(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.scratch_tree(tmp)
            r = run_cli(["--root", tmp, "--compdb", "none",
                         "--frontend", "builtin",
                         "src/nn/hot_alloc_sugar_good.cpp"])
        self.assertEqual(r.returncode, 0)
        self.assertIn("0 finding(s)", r.stdout)

    def test_compdb_none_requires_paths(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.scratch_tree(tmp)
            r = run_cli(["--root", tmp, "--compdb", "none"])
        self.assertEqual(r.returncode, 2)

    def test_missing_database_is_fatal_with_recipe(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.scratch_tree(tmp)
            r = run_cli(["--root", tmp])
        self.assertEqual(r.returncode, 2)
        self.assertIn("compilation database not found", r.stderr)
        self.assertIn("cmake -B build", r.stderr)

    def test_stale_database_unlisted_tu_is_fatal(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.scratch_tree(tmp)
            os.makedirs(os.path.join(tmp, "build"), exist_ok=True)
            with open(os.path.join(tmp, "build", "compile_commands.json"),
                      "w", encoding="utf-8") as fh:
                json.dump([], fh)
            r = run_cli(["--root", tmp])
        self.assertEqual(r.returncode, 2)
        self.assertIn("stale compilation database", r.stderr)
        self.assertIn("hot_alloc_sugar_bad.cpp", r.stderr)

    def test_stale_database_vanished_file_is_fatal(self):
        with tempfile.TemporaryDirectory() as tmp:
            db = [{"directory": tmp, "file": "src/nn/gone.cpp",
                   "command": "g++ -c src/nn/gone.cpp"}]
            os.makedirs(os.path.join(tmp, "build"), exist_ok=True)
            os.makedirs(os.path.join(tmp, "src"), exist_ok=True)
            with open(os.path.join(tmp, "build", "compile_commands.json"),
                      "w", encoding="utf-8") as fh:
                json.dump(db, fh)
            r = run_cli(["--root", tmp])
        self.assertEqual(r.returncode, 2)
        self.assertIn("no longer exists", r.stderr)

    def test_tree_scan_covers_src_bench_tests(self):
        # one raw thread per directory; tools/ is outside the scan, and a
        # header in each scanned directory is picked up without a database
        # entry
        code = "#include <thread>\nvoid f() { std::thread t([] {}); }\n"
        with tempfile.TemporaryDirectory() as tmp:
            db = []
            for rel in ("src/core/a.cpp", "bench/b.cpp", "tests/c.cpp",
                        "tools/d.cpp", "tests/e.h"):
                dst = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                with open(dst, "w", encoding="utf-8") as fh:
                    fh.write(("#pragma once\n" if rel.endswith(".h")
                              else "") + code)
                if rel.endswith(".cpp"):
                    db.append({"directory": tmp, "file": rel,
                               "command": f"g++ -c {rel}"})
            os.makedirs(os.path.join(tmp, "build"), exist_ok=True)
            with open(os.path.join(tmp, "build", "compile_commands.json"),
                      "w", encoding="utf-8") as fh:
                json.dump(db, fh)
            r = run_cli(["--root", tmp, "--frontend", "builtin"])
        self.assertEqual(r.returncode, 1)
        hits = sorted(line.split(":")[0] for line in r.stdout.splitlines()
                      if "[raw-thread]" in line)
        self.assertEqual(hits, ["bench/b.cpp", "src/core/a.cpp",
                                "tests/c.cpp", "tests/e.h"])

    @unittest.skipUnless(imap_check.machine_family() == "x86",
                         "kernel tree fixture carries the x86 contract")
    def test_kernel_tree_end_to_end(self):
        for template, want in (("compile_commands.good.json.in", 0),
                               ("compile_commands.bad.json.in", 1)):
            with tempfile.TemporaryDirectory() as tmp:
                shutil.copytree(os.path.join(KERNEL_TREE, "src"),
                                os.path.join(tmp, "src"))
                os.makedirs(os.path.join(tmp, "build"), exist_ok=True)
                db = kernel_compdb(template, tmp)
                with open(os.path.join(tmp, "build",
                                       "compile_commands.json"),
                          "w", encoding="utf-8") as fh:
                    json.dump(db, fh)
                r = run_cli(["--root", tmp, "--frontend", "builtin"])
            self.assertEqual(r.returncode, want,
                             f"{template}: {r.stdout}\n{r.stderr}")
            if want:
                self.assertIn("[kernel-flags]", r.stdout)


@unittest.skipUnless(imap_check.find_clang(), "no clang++ on this machine")
class TestClangFrontend(unittest.TestCase):
    def test_clang_overlay_matches_builtin_verdicts(self):
        with tempfile.TemporaryDirectory() as tmp:
            rel = "src/common/float_eq_bad.cpp"
            dst = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy(os.path.join(FIXTURES, "float_eq_bad.cpp"), dst)
            entry = {"directory": tmp,
                     "command": f"g++ -std=c++17 -c {rel} -o x.o",
                     "file": rel}
            fs, used = imap_check.analyze_file(
                tmp, rel, "clang", entry, imap_check.find_clang())
        self.assertEqual(used, "clang")
        self.assertEqual(rules_of(fs), ["float-eq"])
        self.assertEqual(lines_of(fs), [13, 17, 21, 23])


if __name__ == "__main__":
    unittest.main()
