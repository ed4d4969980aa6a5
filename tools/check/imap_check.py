#!/usr/bin/env python3
"""imap_check — AST-grade determinism analyzer for the imap codebase.

The repo's one static analyzer. It analyzes real program structure — scope
nesting, lambda-to-call attachment, alias-resolved declaration types, typed
comparisons, serialize op sequences — over src/, bench/ and tests/, and
enforces the build-flag contract recorded in compile_commands.json.

Checks (see checks.py for the full semantics):

  rng-parallel        Rng draws reachable from a parallel_for / submit lambda
                      must go through a slot-keyed Rng::split.
  nondet-source       rand/random_device/mt19937 banned everywhere, wall-clock
                      reads banned in src/.
  unordered-iter      loops over unordered containers in numeric src/ layers.
  raw-thread          std::thread/jthread/async/.detach() outside the pool.
  pragma-once         headers carry #pragma once.
  using-ns-header     no `using namespace` in headers.
  parent-include      no parent-relative #include "../...".
  include-direction   no #include "attack/..." in src/scenario/.
  hot-loop-alloc      allocating declarations inside loops in hot-path layers,
                      resolved through typedefs, `auto`, and std::string.
  float-eq            ==/!= on floating expressions, typed via the AST.
  serialize-symmetry  save_state/load_state field sequences must mirror,
                      member by member, grouped per archive section.
  kernel-flags        every kernel TU carries -ffp-contract=off (+-mno-fma on
                      x86) and exactly its declared ISA flags in
                      compile_commands.json.
  fma-intrinsic       FMA intrinsics / std::fma banned outside allowlisted
                      sites.
  ipc-framing         raw `write(fd, &struct, sizeof ...)`-style descriptor
                      I/O banned in src/; bytes that cross a process
                      boundary are Archive sections (BinaryWriter /
                      ArchiveWriter), framed and CRC-checked.

Frontend:

  The hermetic tokenizer/parser in cpp_ast.py: no compiler dependency, with
  cross-TU facts merged in from each file's project headers.

Compilation database:

  The tree scan REQUIRES compile_commands.json (default:
  <root>/build/compile_commands.json, see --compdb). A missing or stale
  database is a hard error with a re-run recipe — the kernel-flags contract
  can only be checked against what the build actually does.

Suppression:

  * inline:     // imap-check: allow(rule-name)
  * allowlist:  tools/check/check_allowlist.txt — `rule-name  path-glob`
                lines, fnmatch against the repo-relative posix path.

Exit codes: 0 clean, 1 findings, 2 usage/database/internal error.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import platform
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks     # noqa: E402
import cpp_ast    # noqa: E402

SUPPRESS_RE = re.compile(
    r"imap-check:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")

CXX_EXTENSIONS = {".h", ".hpp", ".cpp", ".cc", ".cxx"}

SCAN_DIRS = ("src/", "bench/", "tests/")

# Sanctioned homes exempt from the corresponding rule (they implement it).
RULE_HOME = {
    "nondet-source": ("src/common/rng.h", "src/common/rng.cpp"),
    "raw-thread": ("src/common/thread_pool.h", "src/common/thread_pool.cpp"),
}

# Kernel TUs that are architecture-gated: absent from the database on the
# other architecture by design, not staleness.
ARCH_ONLY = {
    "src/nn/kernel_avx2.cpp": "x86",
    "src/nn/kernel_avx512.cpp": "x86",
    "src/nn/kernel_neon.cpp": "arm",
}


def machine_family() -> str:
    m = platform.machine().lower()
    return "arm" if ("aarch64" in m or "arm" in m) else "x86"


# ---------------------------------------------------------------------------
# compile_commands.json
# ---------------------------------------------------------------------------

def load_compdb(path: str, root: str):
    """Load and validate the compilation database. Exits(2) with a recipe on
    a missing or stale database."""
    if not os.path.exists(path):
        print(
            f"imap_check: compilation database not found: {path}\n"
            "  The kernel-flags contract is checked against what the build "
            "actually does,\n"
            "  so imap_check needs compile_commands.json. Generate it with:\n"
            "      cmake -B build -S .\n"
            "  (CMAKE_EXPORT_COMPILE_COMMANDS is ON by default in this "
            "tree), then re-run.",
            file=sys.stderr)
        sys.exit(2)
    try:
        with open(path, encoding="utf-8") as fh:
            db = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"imap_check: cannot parse {path}: {e}", file=sys.stderr)
        sys.exit(2)

    # Staleness: every src/ TU on disk must have an entry (modulo arch-gated
    # kernels), and every entry's file must still exist.
    fam = machine_family()
    db_files = set()
    for entry in db:
        f = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        rel = os.path.relpath(f, root).replace(os.sep, "/")
        db_files.add(rel)
        if not os.path.exists(f) and rel.startswith("src/"):
            print(
                f"imap_check: stale compilation database: {rel} is listed "
                "but no longer exists.\n  Re-run cmake to regenerate "
                "compile_commands.json.", file=sys.stderr)
            sys.exit(2)
    missing = []
    src_root = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for fn in sorted(filenames):
            if os.path.splitext(fn)[1] != ".cpp":
                continue
            rel = os.path.relpath(os.path.join(dirpath, fn),
                                  root).replace(os.sep, "/")
            if rel in db_files:
                continue
            if ARCH_ONLY.get(rel) not in (None, fam):
                continue  # other-arch kernel TU: absent by design
            missing.append(rel)
    if missing:
        print(
            "imap_check: stale compilation database — these src/ TUs have "
            "no entry:\n    " + "\n    ".join(missing) +
            "\n  Re-run cmake to regenerate compile_commands.json.",
            file=sys.stderr)
        sys.exit(2)
    return db


# ---------------------------------------------------------------------------
# frontends
# ---------------------------------------------------------------------------

# relpath -> (parsed header model, its own project includes)
_header_cache: dict[str, tuple] = {}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def _project_includes(root: str, text: str):
    for inc in INCLUDE_RE.findall(text):
        hdr = os.path.join(root, "src", inc)
        if os.path.isfile(hdr):
            yield os.path.relpath(hdr, root).replace(os.sep, "/")


def parse_with_headers(root: str, relpath: str) -> "cpp_ast.TuModel":
    """Builtin-frontend parse of one file, with cross-TU facts (class member
    types, aliases, return types) merged in from its project headers,
    followed transitively — the micro-frontend's stand-in for real header
    inclusion."""
    ap = os.path.join(root, relpath)
    with open(ap, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    # gather header facts first, then parse the TU with them seeded so
    # auto-inference sees header-declared return types during the parse
    seed = cpp_ast.TuModel("<headers>")
    seen = {relpath}
    queue = list(_project_includes(root, text))
    while queue:
        hrel = queue.pop(0)
        if hrel in seen:
            continue
        seen.add(hrel)
        if hrel not in _header_cache:
            try:
                with open(os.path.join(root, hrel), encoding="utf-8",
                          errors="replace") as fh:
                    htext = fh.read()
                _header_cache[hrel] = (cpp_ast.parse_file(hrel, htext),
                                       list(_project_includes(root, htext)))
            except (OSError, RecursionError):
                continue
        hmodel, hincs = _header_cache[hrel]
        cpp_ast.merge_model(seed, hmodel)
        queue.extend(hincs)
    return cpp_ast.parse_file(relpath, text, seed=seed)


# ---------------------------------------------------------------------------
# suppression / allowlist
# ---------------------------------------------------------------------------

def load_allowlist(path: str):
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or parts[0] not in checks.FIXITS:
                print(f"{path}:{lineno}: malformed allowlist entry: "
                      f"{raw.rstrip()}", file=sys.stderr)
                sys.exit(2)
            entries.append((parts[0], parts[1]))
    return entries


def allowed(entries, rule: str, relpath: str) -> bool:
    return any(r == rule and fnmatch.fnmatch(relpath, glob)
               for r, glob in entries)


def suppressed_lines(text: str):
    """Map line-number -> set of suppressed rules from inline annotations."""
    out: dict[int, set] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        m = SUPPRESS_RE.search(raw)
        if m:
            out[lineno] = {r.strip() for r in m.group(1).split(",")}
    return out


# ---------------------------------------------------------------------------
# per-file analysis
# ---------------------------------------------------------------------------

def analyze_file(root: str, relpath: str):
    model = parse_with_headers(root, relpath)
    findings = []
    findings += checks.check_rng_parallel(model)
    findings += checks.check_nondet_source(
        model, relpath, home_exempt=RULE_HOME["nondet-source"])
    findings += checks.check_hot_loop_alloc(model, relpath)
    findings += checks.check_float_eq(model)
    findings += checks.check_serialize_symmetry(model, relpath)
    findings += checks.check_fma_intrinsics(model, relpath)
    findings += checks.check_ipc_framing(model, relpath)
    findings += checks.check_raw_thread(
        model, relpath, home_exempt=RULE_HOME["raw-thread"])
    findings += checks.check_unordered_iter(model, relpath)

    with open(os.path.join(root, relpath), encoding="utf-8",
              errors="replace") as fh:
        text = fh.read()
    findings += checks.check_header_hygiene(
        relpath, cpp_ast.strip_comments(text))

    sup = suppressed_lines(text)
    return [f for f in findings if f.rule not in sup.get(f.line, set())]


def collect_sources(root: str, compdb) -> list[str]:
    """Repo-relative paths of everything the tree scan analyzes: all TUs in
    the database under SCAN_DIRS plus all headers under SCAN_DIRS."""
    rels = set(rel for rel in compdb_by_rel(root, compdb)
               if rel.startswith(SCAN_DIRS))
    for d in SCAN_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, d)):
            for fn in sorted(filenames):
                if os.path.splitext(fn)[1] in (".h", ".hpp"):
                    rels.add(os.path.relpath(os.path.join(dirpath, fn),
                                             root).replace(os.sep, "/"))
    return sorted(rels)


def compdb_by_rel(root: str, compdb) -> dict:
    out = {}
    for entry in compdb:
        f = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        out[os.path.relpath(f, root).replace(os.sep, "/")] = entry
    return out


def main(argv) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".",
                    help="repo root (paths are relative to it)")
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json (default "
                         "<root>/build/compile_commands.json; 'none' to "
                         "skip the database-driven checks — only valid with "
                         "explicit paths)")
    ap.add_argument("--allowlist", default=None,
                    help="allowlist file (default "
                         "<root>/tools/check/check_allowlist.txt)")
    ap.add_argument("paths", nargs="*",
                    help="files to analyze (default: all src/, bench/ and "
                         "tests/ TUs in the compilation database + all "
                         "headers there)")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    allowlist_path = args.allowlist or os.path.join(
        root, "tools/check/check_allowlist.txt")
    entries = load_allowlist(allowlist_path)

    compdb = None
    compdb_path = args.compdb or os.path.join(root, "build",
                                              "compile_commands.json")
    if args.compdb == "none":
        if not args.paths:
            print("imap_check: --compdb none requires explicit paths "
                  "(the tree scan needs the database)", file=sys.stderr)
            return 2
    else:
        compdb = load_compdb(compdb_path, root)

    if args.paths:
        files = []
        for p in args.paths:
            ap_ = p if os.path.isabs(p) else os.path.join(root, p)
            if os.path.isdir(ap_):
                for dirpath, _d, fns in os.walk(ap_):
                    for fn in sorted(fns):
                        if os.path.splitext(fn)[1] in CXX_EXTENSIONS:
                            files.append(os.path.relpath(
                                os.path.join(dirpath, fn),
                                root).replace(os.sep, "/"))
            else:
                files.append(os.path.relpath(ap_, root).replace(os.sep, "/"))
    else:
        files = collect_sources(root, compdb)

    all_findings = []
    for rel in files:
        for f in analyze_file(root, rel):
            if not allowed(entries, f.rule, f.path):
                all_findings.append(f)

    # database-driven checks (kernel flag contract)
    if compdb is not None:
        for f in checks.check_kernel_flags(compdb, root,
                                           platform.machine().lower()):
            if not allowed(entries, f.rule, f.path):
                all_findings.append(f)

    all_findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in all_findings:
        print(f)
    n = len(all_findings)
    print(f"imap_check: {len(files)} files checked, {n} finding(s)")
    return 1 if n else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
