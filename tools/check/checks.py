#!/usr/bin/env python3
"""checks — the imap_check semantic rule suite.

Each check consumes a TuModel (built by cpp_ast.py) and yields Finding
objects. The compile-database contract check (kernel-flags) consumes
compile_commands.json directly.

Rules:

  rng-parallel        Engine-advancing Rng draws reachable from a
                      parallel_for / parallel_for_chunked / ThreadPool::submit
                      lambda must go through a slot-keyed Rng::split (split is
                      pure: it derives the child from the seed, never the
                      engine, so `shared.split(slot)` is deterministic while
                      `shared.uniform()` depends on thread schedule).
                      Reachability is transitive over the TU-local call graph.
  nondet-source       rand/srand/std::random_device/raw mt19937 anywhere, and
                      wall-clock reads (chrono ::now, time(), clock(),
                      gettimeofday) in src/ — any of these silently breaks
                      seed determinism. Timing belongs to the bench layer.
  unordered-iter      A range-for or begin() iterator loop over a
                      std::unordered_{map,set,multimap,multiset} in a numeric
                      src/ layer: hash-layout iteration order is not part of
                      the seed, so results drift run to run. The container is
                      typed through local, member and header declarations.
  raw-thread          std::thread / std::jthread / std::async / .detach()
                      outside src/common/thread_pool.*: raw threads bypass
                      IMAP_THREADS, ScopedSerial and parallel_for's
                      determinism. std::thread::hardware_concurrency() is a
                      query, not thread creation, and is allowed.
  pragma-once         Every header has #pragma once.
  using-ns-header     No `using namespace` in headers.
  parent-include      No parent-relative #include "../..." (project headers
                      are included relative to src/). The header trio is
                      matched on comment-stripped source lines, because the
                      tokenizer drops preprocessor directives.
  include-direction   No #include "attack/..." in src/scenario/: the
                      single-agent threat model lives in scenario/ and
                      attack/ builds on it, so the dependency runs one way.
  hot-loop-alloc      Allocating declarations (std::vector<numeric>, nested
                      vectors, std::string) inside loop bodies in hot-path
                      layers, *after* resolving using/typedef aliases and
                      `auto` initializers — sugar a line pattern cannot see.
  float-eq            ==/!= where both operands are floating-point and at
                      least one is a computed (non-literal) expression, typed
                      through declarations, members, casts and known return
                      types. Literal comparisons are also flagged.
  serialize-symmetry  save_state/load_state bodies must perform the same
                      field operations in the same order, member by member
                      (grouped per archive section; sections are random
                      access, fields within one are not). A header declaring
                      only one side of the pair is flagged too.
  kernel-flags        Every kernel TU in compile_commands.json must carry its
                      declared contraction + ISA flags, and nothing more.
  fma-intrinsic       FMA intrinsics / std::fma fuse mul+add into a single
                      rounding and are banned outside allowlisted sites.
  ipc-framing         Raw descriptor I/O of in-memory objects
                      (`write(fd, &hdr, sizeof hdr)` and friends) is banned
                      in src/: struct layout is ABI- and padding-dependent
                      and a torn write has no integrity check. Bytes that
                      cross a process boundary go through the Archive
                      section API (BinaryWriter / ArchiveWriter), which
                      frames, versions and CRC-checks them.
"""

from __future__ import annotations

import os
import re
import shlex

import cpp_ast
from cpp_ast import FLOAT_TYPES, is_allocating_type, is_float_literal

HOT_DIRS = ("src/nn/", "src/rl/", "src/attack/", "src/serve/",
            "src/scenario/")

# Layers whose results feed the paper's numbers: hash-order iteration there
# makes a seeded run irreproducible.
NUMERIC_DIRS = ("src/nn/", "src/rl/", "src/core/", "src/phys/",
                "src/attack/", "src/defense/", "src/env/", "src/serve/",
                "src/scenario/")

PARALLEL_ENTRY = {"parallel_for", "parallel_for_chunked", "submit"}

# Rng methods that advance the engine (order-sensitive under concurrency).
RNG_DRAWS = {"uniform", "normal", "uniform_int", "bernoulli",
             "uniform_vec", "normal_vec", "next_u64"}
# Draw names specific enough to flag even when the receiver type is unknown.
RNG_DRAWS_STRONG = {"uniform_int", "bernoulli", "uniform_vec", "normal_vec",
                    "next_u64"}

FIXITS = {
    "rng-parallel": (
        "draw from a per-slot stream: pre-split Rng streams outside the "
        "parallel region, or derive one inside with rng.split(<slot index>) "
        "— Rng::split is seed-pure, engine draws are schedule-ordered"
    ),
    "nondet-source": (
        "all randomness flows through imap::Rng and all timing through the "
        "bench layer; raw or libc randomness anywhere, or a wall-clock read "
        "in src/, breaks seed-reproducibility"
    ),
    "unordered-iter": (
        "iteration order of unordered containers is nondeterministic; use "
        "std::map/std::set, or copy+sort the keys before iterating"
    ),
    "raw-thread": (
        "use imap::ThreadPool / parallel_for (src/common/thread_pool.h); raw "
        "threads bypass IMAP_THREADS and the determinism controls"
    ),
    "pragma-once": "add #pragma once as the first directive of the header",
    "using-ns-header": (
        "remove `using namespace` from the header; qualify names instead "
        "(headers leak it into every includer)"
    ),
    "parent-include": (
        'include project headers relative to src/ (e.g. "common/rng.h"), not '
        "via parent-relative paths"
    ),
    "include-direction": (
        "src/scenario/ must not depend on src/attack/; move what scenario/ "
        "needs into scenario/ (attack/ includes scenario/, never the "
        "reverse)"
    ),
    "hot-loop-alloc": (
        "hoist the allocating declaration out of the loop and reuse it "
        "(resize/assign on a caller-owned buffer, Batch, or Mlp::Workspace); "
        "the src/nn, src/rl, src/attack and src/serve hot paths must be "
        "allocation-free in steady state"
    ),
    "float-eq": (
        "exact floating-point comparison is brittle; compare with a "
        "tolerance (std::abs(a-b) <= eps) or annotate a deliberate exact "
        "sentinel with // imap-check: allow(float-eq)"
    ),
    "serialize-symmetry": (
        "make load_state read exactly what save_state wrote, field by field "
        "in the same order — a skew silently corrupts every later field in "
        "the section"
    ),
    "kernel-flags": (
        "fix the kernel TU's COMPILE_OPTIONS in src/CMakeLists.txt: every "
        "kernel TU needs -ffp-contract=off (plus -mno-fma on x86) and "
        "exactly its declared ISA flags, or FMA contraction silently changes "
        "rounding and breaks cross-backend bit-identity"
    ),
    "fma-intrinsic": (
        "fused multiply-add performs one rounding where the scalar reference "
        "performs two; use separate mul/add intrinsics (see nn/kernel_*.cpp) "
        "or allowlist a deliberately-fused site"
    ),
    "ipc-framing": (
        "serialize the object into an Archive section (BinaryWriter / "
        "ArchiveWriter) and move the archive's bytes — framed, versioned "
        "and CRC-checked; raw `write(fd, &obj, sizeof obj)` ships padding "
        "bytes and can tear mid-frame"
    ),
}


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}: [{self.rule}] {self.message}\n"
            f"    fix-it: {FIXITS[self.rule]}"
        )


# ---------------------------------------------------------------------------
# rng-parallel + nondet-source
# ---------------------------------------------------------------------------

def _is_rng_typed(model, scope, recv: str) -> bool | None:
    """True/False if the receiver's type is provably (not) Rng; None unknown.

    Falls back to a naming heuristic when the declaring class lives in a
    header that was not merged: an identifier containing `rng` is treated as
    an Rng (the codebase's universal convention: rng_, reset_rng_, slot.rng).
    """
    base = re.split(r"[.\[]|->", recv)[0].strip() if recv else ""
    if not base:
        return None
    d = scope.lookup(base) if scope else None
    if d is None:
        fn = (scope.enclosing("function") or scope.enclosing("lambda")) \
            if scope else None
        if fn is not None and getattr(fn, "class_name", ""):
            d = model.class_member(fn.class_name, base)
    if d is not None and d.type:
        t = model.resolve_alias(d.type)
        return t.split("<")[0].endswith("Rng")
    tail = re.split(r"\.|->", recv)[-1].strip()
    if "rng" in base.lower() or "rng" in tail.lower():
        return True
    return None


def _receiver_ok(model, lam, call) -> tuple[bool, str]:
    """Classify an Rng draw's receiver inside a parallel lambda.

    Returns (ok, why-not). OK when the stream is provably per-slot:
      * the receiver is indexed per-slot state (`slots_[i].rng`, `streams[w]`),
      * or a local declared inside the lambda whose initializer derives it
        via .split(...) keyed by a lambda parameter / lambda-local.
    """
    recv = call.recv
    if "[" in recv:
        return True, ""
    base = re.split(r"[.\[]|->", recv)[0].strip() if recv else ""
    if base:
        # declared inside the lambda (or a nested scope of it)?
        sc = call.scope
        d = None
        while sc is not None:
            if base in sc.decls:
                d = sc.decls[base]
                break
            if sc is lam:
                break
            sc = sc.parent
        if d is not None:
            init = d.init or ""
            if "split" in init:
                if any(re.search(r"\b%s\b" % re.escape(p), init)
                       for p in lam.params):
                    return True, ""
                return False, (f"`{base}` is split from a shared Rng but the "
                               "stream key does not mention a lambda "
                               "parameter — every worker draws the same "
                               "stream")
            if d.in_loop_header or not init:
                # loop variable / parameter — treat as per-slot state
                return True, ""
            return True, ""  # lambda-local by construction
    return False, (f"shared Rng `{recv or '<unknown>'}` drawn inside a "
                   "parallel region — draw order depends on thread schedule")


def check_rng_parallel(model):
    findings = []
    # 1. Per-function summary: engine draws on non-local receivers.
    #    (calls whose receiver is not a parameter/local of that function)
    def shared_draws(fn_scope):
        out = []
        for c in model.calls:
            if c.callee not in RNG_DRAWS:
                continue
            if fn_scope not in c.scope.chain():
                continue
            # skip draws inside nested lambdas; they are analyzed at their
            # own parallel entry if any
            if c.scope.enclosing("lambda") is not None and \
                    fn_scope.kind != "lambda":
                continue
            typed = _is_rng_typed(model, c.scope, c.recv)
            if typed is False:
                continue
            if typed is None and c.callee not in RNG_DRAWS_STRONG:
                continue
            base = re.split(r"[.\[]|->", c.recv)[0].strip() if c.recv else ""
            local = base and any(
                base in s.decls for s in c.scope.chain()
                if s is fn_scope or s.within("function") or
                s.within("lambda"))
            if "[" in c.recv:
                continue
            if not local:
                out.append(c)
        return out

    fn_summary = {}
    for qname, sc in model.functions.items():
        draws = shared_draws(sc)
        if draws:
            fn_summary[qname.split("::")[-1]] = draws

    # transitive closure over the TU-local call graph
    changed = True
    while changed:
        changed = False
        for qname, sc in model.functions.items():
            short = qname.split("::")[-1]
            if short in fn_summary:
                continue
            for c in model.calls:
                if sc in c.scope.chain() and c.callee in fn_summary and \
                        c.callee != short:
                    fn_summary[short] = fn_summary[c.callee]
                    changed = True
                    break

    # 2. Walk parallel entry points.
    for entry in model.calls:
        if entry.callee not in PARALLEL_ENTRY or not entry.lambda_args:
            continue
        for lam in entry.lambda_args:
            for c in model.calls:
                if lam not in c.scope.chain():
                    continue
                if c.callee in RNG_DRAWS:
                    typed = _is_rng_typed(model, c.scope, c.recv)
                    if typed is False:
                        continue
                    if typed is None and c.callee not in RNG_DRAWS_STRONG:
                        continue
                    ok, why = _receiver_ok(model, lam, c)
                    if not ok:
                        findings.append(Finding(
                            model.path, c.line, "rng-parallel",
                            f"Rng::{c.callee} in a parallel worker lambda: "
                            + why))
                elif c.callee == "split":
                    typed = _is_rng_typed(model, c.scope, c.recv)
                    if typed is False:
                        continue
                    if typed is None and "rng" not in c.recv.lower():
                        continue
                    # split itself is pure; require a slot-keyed stream id
                    arg = " ".join(c.args)
                    keyed = any(re.search(r"\b%s\b" % re.escape(p), arg)
                                for p in lam.params)
                    draws_in_key = any(d in arg for d in RNG_DRAWS)
                    if draws_in_key:
                        findings.append(Finding(
                            model.path, c.line, "rng-parallel",
                            "Rng::split keyed by an engine draw "
                            f"(`{arg.strip()}`) inside a parallel lambda — "
                            "the key value depends on thread schedule"))
                    elif not keyed and "[" not in c.recv:
                        findings.append(Finding(
                            model.path, c.line, "rng-parallel",
                            "Rng::split inside a parallel lambda is not "
                            "keyed by the worker index — every worker "
                            "derives the same stream"))
                elif c.callee in fn_summary:
                    tgt = fn_summary[c.callee][0]
                    findings.append(Finding(
                        model.path, c.line, "rng-parallel",
                        f"call to `{c.callee}` which draws from a shared Rng "
                        f"(`{tgt.recv}{tgt.callee}` at line {tgt.line}) — "
                        "reachable from a parallel worker lambda"))
    return findings


NONDET_RANDOM_CALLEES = {"rand", "srand", "getrandom"}
WALL_CLOCK_CALLEES = {"time", "clock", "gettimeofday", "timespec_get"}
NONDET_TYPES = {"random_device", "mt19937", "mt19937_64", "minstd_rand",
                "minstd_rand0", "ranlux24", "ranlux48", "knuth_b",
                "default_random_engine"}


def check_nondet_source(model, relpath: str, home_exempt=()):
    """Raw RNG and libc randomness anywhere; wall-clock reads in src/ only
    (bench/ and tests/ time things — that is their job)."""
    findings = []
    if relpath in home_exempt:
        return findings
    in_src = relpath.startswith("src/")
    seen_lines = set()
    for t in model.tokens:
        if t.kind != "ident":
            continue
        if t.text in NONDET_TYPES:
            if t.line in seen_lines:
                continue
            seen_lines.add(t.line)
            findings.append(Finding(
                model.path, t.line, "nondet-source",
                f"raw standard-library RNG `{t.text}` outside "
                "src/common/rng.*"))
    for c in model.calls:
        # bare or std::-qualified only — obj.time() is somebody's member
        free = c.recv in ("", "std::", "::")
        if free and (c.callee in NONDET_RANDOM_CALLEES or
                     (in_src and c.callee in WALL_CLOCK_CALLEES)):
            if c.line in seen_lines:
                continue
            seen_lines.add(c.line)
            findings.append(Finding(
                model.path, c.line, "nondet-source",
                f"nondeterminism source `{c.recv}{c.callee}()`"))
        elif in_src and c.callee == "now" and \
                ("clock" in c.recv or "chrono" in c.recv):
            findings.append(Finding(
                model.path, c.line, "nondet-source",
                f"wall-clock read `{c.recv}now()`"))
    return findings


# ---------------------------------------------------------------------------
# raw-thread
# ---------------------------------------------------------------------------

def check_raw_thread(model, relpath: str, home_exempt=()):
    """std::thread / std::jthread construction, std::async and .detach().

    `std::thread::hardware_concurrency()` (the type followed by `::`) is a
    static query and stays quiet."""
    findings = []
    if relpath in home_exempt:
        return findings
    toks = model.tokens
    seen = set()
    for k, t in enumerate(toks):
        if t.kind != "ident" or t.line in seen:
            continue
        nxt = toks[k + 1].text if k + 1 < len(toks) else ""
        prev = toks[k - 1].text if k > 0 else ""
        std_q = (prev == "::" and k > 1 and toks[k - 2].text == "std")
        if t.text in ("thread", "jthread") and std_q and nxt != "::":
            what = f"std::{t.text}"
        elif t.text == "async" and std_q:
            what = "std::async"
        elif t.text == "detach" and prev in (".", "->") and nxt == "(":
            what = f"{prev}detach()"
        else:
            continue
        seen.add(t.line)
        findings.append(Finding(
            model.path, t.line, "raw-thread",
            f"raw threading primitive `{what}` outside "
            "src/common/thread_pool.*"))
    return findings


# ---------------------------------------------------------------------------
# unordered-iter
# ---------------------------------------------------------------------------

_UNORDERED_RE = re.compile(
    r"^(?:std::)?unordered_(?:map|set|multimap|multiset)<")
_ELEMENT_OF_RE = re.compile(r"^element_of\((.*)\)$")
_BEGIN_INIT_RE = re.compile(
    r"^=\s*(.+?)\s*(?:\.|->)\s*c?begin\s*\(\s*\)$"
    r"|^=\s*std::c?begin\s*\(\s*(.+?)\s*\)$")


def _container_decl(model, loop, expr: str):
    """Declaration of the container a loop header iterates, or None."""
    expr = re.sub(r"^(?:this\s*->|\*)\s*", "", expr.strip())
    if not re.fullmatch(r"\w+", expr):
        return None
    d = loop.parent.lookup(expr) if loop.parent else None
    if d is None:
        fn = loop.enclosing("function")
        if fn is not None and fn.class_name:
            d = model.class_member(fn.class_name, expr)
    return d


def check_unordered_iter(model, relpath: str):
    """Range-for or begin()-iterator loops over unordered containers in the
    numeric layers, typed through the declaration the container resolves
    to (local, enclosing scope, or class member from a merged header)."""
    findings = []
    if not relpath.startswith(NUMERIC_DIRS):
        return findings
    for loop in model.scopes:
        if loop.kind != "loop":
            continue
        for d in loop.decls.values():
            if not d.in_loop_header:
                continue
            m = _ELEMENT_OF_RE.match(d.type or "")
            if m:
                expr = m.group(1)
            else:
                m = _BEGIN_INIT_RE.match(d.init or "")
                if not m:
                    continue
                expr = m.group(1) or m.group(2)
            cd = _container_decl(model, loop, expr)
            if cd is None or not cd.type:
                continue
            if _UNORDERED_RE.match(model.resolve_alias(cd.type)):
                findings.append(Finding(
                    model.path, d.line, "unordered-iter",
                    f"iteration over unordered container `{cd.name}` in a "
                    "numeric code path"))
                break
    return findings


# ---------------------------------------------------------------------------
# header hygiene: pragma-once, using-ns-header, parent-include,
# include-direction
# ---------------------------------------------------------------------------

_PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
_USING_NS_RE = re.compile(r"^\s*using\s+namespace\s+\w")
_PARENT_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(?:\.\./|[^"]*/\.\./)')
_ATTACK_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"attack/')


def check_header_hygiene(relpath: str, lines):
    """The header trio plus the scenario/ -> attack/ include ban, matched on
    comment-stripped source lines (the tokenizer drops preprocessor
    directives, and include paths live in string literals)."""
    findings = []
    is_header = relpath.endswith((".h", ".hpp"))
    in_scenario = relpath.startswith("src/scenario/")
    if is_header and not any(_PRAGMA_ONCE_RE.match(l) for l in lines):
        findings.append(Finding(relpath, 1, "pragma-once",
                                "header is missing #pragma once"))
    for idx, line in enumerate(lines, 1):
        if is_header and _USING_NS_RE.match(line):
            findings.append(Finding(relpath, idx, "using-ns-header",
                                    "`using namespace` in a header"))
        if _PARENT_INCLUDE_RE.match(line):
            findings.append(Finding(relpath, idx, "parent-include",
                                    "parent-relative #include"))
        if in_scenario and _ATTACK_INCLUDE_RE.match(line):
            findings.append(Finding(relpath, idx, "include-direction",
                                    "src/scenario/ includes attack/"))
    return findings


# ---------------------------------------------------------------------------
# ipc-framing
# ---------------------------------------------------------------------------

# Descriptor-style I/O: (fd, buf, n[, flags]) — buffer is argument 1.
IPC_FD_WRITERS = {"write", "pwrite", "send", "writev"}
IPC_FD_READERS = {"read", "pread", "recv", "readv"}
# FILE*-style I/O: (buf, size, nmemb, stream) — buffer is argument 0.
IPC_FILE_CALLEES = {"fwrite", "fread"}

_ADDR_OF_RE = re.compile(
    r"^\s*(?:\(\s*(?:const\s+)?void\s*\*\s*\)\s*)?&")


def _is_raw_object_buffer(arg: str) -> bool:
    """True when the buffer argument is the address of an in-memory object
    (possibly cast): `&hdr`, `(void*)&hdr`, `reinterpret_cast<...>(&hdr)`."""
    if _ADDR_OF_RE.match(arg):
        return True
    return "reinterpret_cast" in arg and "&" in arg


def check_ipc_framing(model, relpath: str):
    """Raw descriptor I/O of in-memory objects in src/.

    Flags free / ::-qualified write/read/send/recv/pwrite/pread/fwrite/fread
    (and the vectored forms) whose buffer argument takes an object's address
    or whose size is computed with sizeof — the `write(fd, &msg, sizeof msg)`
    shape. Byte-pointer plumbing (`write(fd, p + off, n)`) is not flagged;
    that is how an archive's bytes move.
    """
    findings = []
    if not relpath.startswith("src/"):
        return findings
    for c in model.calls:
        # Bare or ::-qualified only (the receiver text may carry a leading
        # statement keyword, e.g. `return ::read(...)` → "return::");
        # obj.read()/obj.send() is somebody's member API.
        if c.recv.endswith("::"):
            if c.recv[:-2].strip() not in ("", "return"):
                continue
        elif c.recv != "":
            continue
        fd_style = c.callee in IPC_FD_WRITERS or c.callee in IPC_FD_READERS
        file_style = c.callee in IPC_FILE_CALLEES
        if not (fd_style or file_style):
            continue
        if len(c.args) < 2:
            continue
        buf = c.args[0] if file_style else c.args[1]
        raw_buf = _is_raw_object_buffer(buf)
        sized = any("sizeof" in a for a in c.args)
        if not (raw_buf or sized):
            continue
        writer = c.callee in IPC_FD_WRITERS or c.callee == "fwrite"
        what = ("address-of buffer" if raw_buf else "sizeof-sized buffer")
        findings.append(Finding(
            model.path, c.line, "ipc-framing",
            f"raw struct {'write' if writer else 'read'} "
            f"`{c.recv}{c.callee}(...)` with {what} — cross-process "
            "messages must be Archive sections, framed and CRC-checked"))
    return findings


# ---------------------------------------------------------------------------
# hot-loop-alloc (semantic)
# ---------------------------------------------------------------------------

def check_hot_loop_alloc(model, relpath: str):
    findings = []
    if not relpath.startswith(HOT_DIRS):
        return findings
    for d in model.decls:
        if d.is_ref or d.in_loop_header:
            continue
        if not d.scope.within("loop"):
            continue
        if not (d.scope.within("function") or d.scope.within("lambda")):
            continue
        if "thread_local" in d.init or "static" in d.init:
            continue
        canon = model.resolve_alias(d.type)
        if is_allocating_type(canon):
            findings.append(Finding(
                model.path, d.line, "hot-loop-alloc",
                f"`{d.name}` ({canon}) allocates on every iteration of an "
                "enclosing loop in a hot-path file"))
    return findings


# ---------------------------------------------------------------------------
# float-eq (semantic)
# ---------------------------------------------------------------------------

def _operand_type(model, parser_scope, toks):
    """(type, is_literal) for a comparison operand."""
    if len(toks) == 1 and toks[0].kind == "num":
        return ("double" if is_float_literal(toks[0].text) else "int"), True
    p = cpp_ast.Parser.__new__(cpp_ast.Parser)
    p.model = model
    t = p.infer_expr_type(toks, parser_scope)
    return t, False


def check_float_eq(model):
    findings = []
    for c in model.cmps:
        lt, l_lit = _operand_type(model, c.scope, c.lhs)
        rt, r_lit = _operand_type(model, c.scope, c.rhs)
        l_float = lt in FLOAT_TYPES
        r_float = rt in FLOAT_TYPES
        if l_lit and l_float and not r_lit:
            # literal float vs expression: flag unless the expression is
            # provably non-float (e.g. comparing an int to 2.0 is still
            # suspicious only if the other side is float-typed or unknown)
            if rt and not r_float:
                continue
            findings.append(Finding(
                model.path, c.line, "float-eq",
                f"exact {c.op} against floating-point literal "
                f"`{cpp_ast.join_tokens(c.lhs)}`"))
        elif r_lit and r_float and not l_lit:
            if lt and not l_float:
                continue
            findings.append(Finding(
                model.path, c.line, "float-eq",
                f"exact {c.op} against floating-point literal "
                f"`{cpp_ast.join_tokens(c.rhs)}`"))
        elif l_float and r_float and not (l_lit or r_lit):
            findings.append(Finding(
                model.path, c.line, "float-eq",
                f"exact {c.op} between computed floating-point expressions "
                f"`{cpp_ast.join_tokens(c.lhs)}` and "
                f"`{cpp_ast.join_tokens(c.rhs)}`"))
    return findings


# ---------------------------------------------------------------------------
# serialize-symmetry (semantic, member-by-member)
# ---------------------------------------------------------------------------

_WRITE_RE = re.compile(r"^write_(\w+)$")
_READ_RE = re.compile(r"^read_(\w+)$")


class _Op:
    __slots__ = ("kind", "name", "section", "line", "depth")

    def __init__(self, kind, name, section, line, depth):
        self.kind = kind        # u64/f64/vec/... or 'nested'
        self.name = name        # member-ish base identifier or ''
        self.section = section  # section name or '' (plain BinaryWriter)
        self.line = line
        self.depth = depth      # loop nesting depth relative to the function

    def describe(self):
        k = f"save/load_state({self.name})" if self.kind == "nested" \
            else f"{self.kind}({self.name or '?'})"
        return f"{k}@{self.line}"


def _base_ident(expr: str) -> str:
    """Base identifier of a save argument / load target for name matching.

    `static_cast<std::uint64_t>(foo_)` -> foo_ ; `s.ep_len` -> ep_len ;
    `v[i]` -> v ; `obs_.size()` -> '' (method result, not a member slot).
    """
    expr = expr.strip()
    m = re.match(r"(?:static_cast|reinterpret_cast)<[^>]*>\((.*)\)$", expr)
    if m:
        expr = m.group(1).strip()
    if re.search(r"\.\s*\w+\s*\(", expr) or expr.endswith(")"):
        return ""
    expr = expr.split("[")[0]
    parts = re.split(r"\.|->", expr)
    last = parts[-1].strip()
    return last if re.fullmatch(r"\w+", last) else ""


def _loop_depth(scope, fn_scope):
    d = 0
    s = scope
    while s is not None and s is not fn_scope:
        if s.kind == "loop":
            d += 1
        s = s.parent
    return d


_SECTION_NAME_RE = re.compile(r'section\s*\(\s*"([^"]*)"')


def _section_of(model, fn_scope, expr: str) -> str:
    """Resolve a writer/reader expression to its archive section name.

    Handles both the inline form (`a.section("ppo/rng")`) and the local-var
    form (`auto& meta = a.section("ppo/meta"); meta.write_u64(...)`).
    """
    expr = expr.strip()
    m = _SECTION_NAME_RE.search(expr)
    if m:
        return m.group(1)
    base = re.split(r"[.\[]|->", expr)[0].strip()
    if not base:
        return ""
    # search the function subtree for the decl (section vars are locals)
    stack = [fn_scope]
    while stack:
        s = stack.pop()
        if base in s.decls:
            d = s.decls[base]
            mm = _SECTION_NAME_RE.search(d.init or "")
            return mm.group(1) if mm else ""
        stack.extend(s.children)
    return ""


def _extract_ops(model, fn_scope, mode: str):
    """Ordered serialize ops in a save_state/load_state body.

    mode: 'save' or 'load'. Returns (ops, resolved) where resolved maps temp
    names to member names (load side).
    """
    ops = []
    assigns = {}  # temp -> member (from later `member = ...temp...`)
    calls = [c for c in model.calls if fn_scope in c.scope.chain()]
    calls.sort(key=lambda c: c.order)
    for c in calls:
        depth = _loop_depth(c.scope, fn_scope)
        if mode == "save":
            m = _WRITE_RE.match(c.callee)
            if m:
                name = _base_ident(c.args[0] if c.args else "")
                ops.append(_Op(m.group(1), name,
                               _section_of(model, fn_scope, c.recv),
                               c.line, depth))
                continue
            if c.callee == "save_state" and c.recv:
                ops.append(_Op("nested", _base_ident(c.recv) or c.recv,
                               _section_of(model, fn_scope,
                                           c.args[0] if c.args else ""),
                               c.line, depth))
        else:
            m = _READ_RE.match(c.callee)
            if m:
                target = ""
                stmt = c.stmt or ""
                am = re.match(r"^\s*(?:auto\s*&?\s*|const\s+auto\s*&?\s*)?"
                              r"([\w.\[\]>-]+?)\s*=[^=]", stmt)
                if am and f"read_{m.group(1)}" in stmt.split("=", 1)[1]:
                    target = _base_ident(am.group(1))
                ops.append(_Op(m.group(1), target,
                               _section_of(model, fn_scope, c.recv),
                               c.line, depth))
                continue
            if c.callee == "load_state" and c.recv:
                ops.append(_Op("nested", _base_ident(c.recv) or c.recv,
                               _section_of(model, fn_scope,
                                           c.args[0] if c.args else ""),
                               c.line, depth))
    if mode == "load":
        # resolve temp -> member via later move/copy assignments
        # (scan the statements that contain calls — assignments like
        # `mean_ = std::move(mean)` always involve at least one call)
        texts = set(c.stmt for c in calls if c.stmt)
        for op in ops:
            if op.name and not op.name.endswith("_"):
                pat = re.compile(r"(\w+_)\s*=\s*(?:std::move\()?\s*\b"
                                 + re.escape(op.name) + r"\b")
                for txt in texts:
                    mm = pat.search(txt)
                    if mm:
                        assigns[op.name] = mm.group(1)
                        op.name = mm.group(1)
                        break
    return ops


def check_serialize_symmetry(model, relpath: str = ""):
    findings = []

    # Header-declaration asymmetry: a header declaring one side of the pair
    # can never round-trip.
    if relpath.endswith((".h", ".hpp")):
        saves = [t for t in model.tokens
                 if t.kind == "ident" and t.text == "save_state"]
        loads = [t for t in model.tokens
                 if t.kind == "ident" and t.text == "load_state"]
        if saves and not loads:
            findings.append(Finding(
                model.path, saves[0].line, "serialize-symmetry",
                "header declares save_state but no load_state"))
        elif loads and not saves:
            findings.append(Finding(
                model.path, loads[0].line, "serialize-symmetry",
                "header declares load_state but no save_state"))

    saves_fn = {}
    loads_fn = {}
    for qname, sc in model.functions.items():
        short = qname.split("::")[-1]
        cls = sc.class_name or ""
        if short == "save_state":
            saves_fn[cls] = sc
        elif short == "load_state":
            loads_fn[cls] = sc
    for cls, save_sc in sorted(saves_fn.items()):
        load_sc = loads_fn.get(cls)
        if load_sc is None:
            continue  # other side in another TU — the header rule covers it
        s_ops = _extract_ops(model, save_sc, "save")
        l_ops = _extract_ops(model, load_sc, "load")

        # Group by archive section: sections are random-access by name, so
        # cross-section order is free; fields *within* a section are a byte
        # stream and must match operation-by-operation.
        def group(ops):
            g = {}
            for op in ops:
                g.setdefault(op.section, []).append(op)
            return g

        sg, lg = group(s_ops), group(l_ops)
        for sec in list(sg.keys()) + [k for k in lg if k not in sg]:
            so = sg.get(sec, [])
            lo = lg.get(sec, [])
            label = f"section \"{sec}\"" if sec else "payload"
            if so and not lo:
                findings.append(Finding(
                    model.path, so[0].line, "serialize-symmetry",
                    f"{cls}::save_state writes {label} but load_state never "
                    "reads it"))
                continue
            if lo and not so:
                findings.append(Finding(
                    model.path, lo[0].line, "serialize-symmetry",
                    f"{cls}::load_state reads {label} but save_state never "
                    "writes it"))
                continue
            for k in range(max(len(so), len(lo))):
                a = so[k] if k < len(so) else None
                b = lo[k] if k < len(lo) else None
                if a is None:
                    findings.append(Finding(
                        model.path, b.line, "serialize-symmetry",
                        f"{cls}::load_state reads {b.describe()} from "
                        f"{label} with no matching write in save_state"))
                    break
                if b is None:
                    findings.append(Finding(
                        model.path, a.line, "serialize-symmetry",
                        f"{cls}::save_state writes {a.describe()} to "
                        f"{label} that load_state never reads"))
                    break
                if a.kind != b.kind or a.depth != b.depth:
                    findings.append(Finding(
                        model.path, b.line, "serialize-symmetry",
                        f"{cls}: field {k + 1} of {label} diverges — save "
                        f"writes {a.describe()} but load reads "
                        f"{b.describe()}"))
                    break
                if a.name and b.name and a.name != b.name and \
                        a.name.endswith("_") and b.name.endswith("_"):
                    findings.append(Finding(
                        model.path, b.line, "serialize-symmetry",
                        f"{cls}: member order skew in {label} — save writes "
                        f"`{a.name}` where load reads into `{b.name}`"))
                    break
    return findings


# ---------------------------------------------------------------------------
# kernel-flags (compile_commands contract) + fma-intrinsic
# ---------------------------------------------------------------------------

# Per-TU flag contract. Keys are path suffixes; values: (required flags,
# allowed ISA flags). Any -m<isa> flag outside `isa` is a violation; all of
# `required` must be present. The contract is arch-specific: -mno-fma is an
# x86 flag (FMA contraction cannot be *disabled* per-TU on aarch64, where
# -ffp-contract=off alone carries the contract).
X86_CONTRACTS = {
    "src/nn/kernel_scalar.cpp": ({"-ffp-contract=off", "-mno-fma"}, set()),
    "src/nn/kernel_avx2.cpp": ({"-ffp-contract=off", "-mno-fma", "-mavx2"},
                               {"-mavx2"}),
    "src/nn/kernel_avx512.cpp": ({"-ffp-contract=off", "-mno-fma",
                                  "-mavx512f", "-mavx512bw"},
                                 {"-mavx512f", "-mavx512bw"}),
    "src/nn/quant.cpp": ({"-ffp-contract=off", "-mno-fma"}, set()),
}
ARM_CONTRACTS = {
    "src/nn/kernel_scalar.cpp": ({"-ffp-contract=off"}, set()),
    "src/nn/kernel_neon.cpp": ({"-ffp-contract=off"}, set()),
    "src/nn/quant.cpp": ({"-ffp-contract=off"}, set()),
}

ISA_FLAG_RE = re.compile(r"^-m(?!no-)(?:avx|sse|fma|f16c|bmi|aes|sha|neon|"
                         r"sve|arch=|tune=|cpu=)")


def _entry_args(entry) -> list[str]:
    if "arguments" in entry:
        return list(entry["arguments"])
    return shlex.split(entry.get("command", ""))


def check_kernel_flags(compdb: list, root: str, machine: str):
    findings = []
    contracts = ARM_CONTRACTS if ("aarch64" in machine or "arm" in machine) \
        else X86_CONTRACTS
    by_suffix = {}
    for entry in compdb:
        f = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        rel = os.path.relpath(f, root).replace(os.sep, "/")
        by_suffix[rel] = entry
    for suffix, (required, isa_allowed) in sorted(contracts.items()):
        entry = None
        for rel, e in by_suffix.items():
            if rel.endswith(suffix):
                entry = e
                rel_path = rel
                break
        if entry is None:
            findings.append(Finding(
                suffix, 1, "kernel-flags",
                f"kernel TU `{suffix}` has no compile_commands.json entry — "
                "the TU is not being built (or the database is stale; "
                "re-run cmake)"))
            continue
        args = _entry_args(entry)
        present = set(args)
        for flag in sorted(required):
            if flag not in present:
                findings.append(Finding(
                    rel_path, 1, "kernel-flags",
                    f"missing required flag `{flag}` (declared contract: "
                    f"{' '.join(sorted(required))})"))
        for a in args:
            if ISA_FLAG_RE.match(a) and a not in isa_allowed \
                    and not a.startswith(("-march=x86-64", "-mtune=generic")):
                findings.append(Finding(
                    rel_path, 1, "kernel-flags",
                    f"undeclared ISA flag `{a}` — the TU may emit "
                    "instructions outside its declared backend"))
        if "-ffp-contract=fast" in present or "-ffp-contract=on" in present:
            findings.append(Finding(
                rel_path, 1, "kernel-flags",
                "FP contraction explicitly enabled on a kernel TU"))
    return findings


# Floating fused multiply-add only: x86 fmadd/fmsub/fnmadd/fnmsub (the `f`
# is mandatory — integer _mm*_madd_epi16 is exact and fine), NEON vfma/vfms
# (fused; vmla/vmls lower to separate mul+add), and the libm fma family.
FMA_TOKEN_RE = re.compile(
    r"^_mm\d*_(?:mask_|mask3_|maskz_)?fn?m(?:add|sub)(?:_|$)"
    r"|^vfmaq?_|^vfmsq?_|^fmaf?l?$")


def check_fma_intrinsics(model, relpath: str):
    findings = []
    if not relpath.startswith("src/"):
        return findings
    seen = set()
    for t in model.tokens:
        if t.kind == "ident" and FMA_TOKEN_RE.match(t.text):
            if t.line in seen:
                continue
            seen.add(t.line)
            findings.append(Finding(
                model.path, t.line, "fma-intrinsic",
                f"fused multiply-add `{t.text}` — single-rounding FMA breaks "
                "the two-rounding scalar reference chain"))
    return findings
