#!/usr/bin/env python3
"""cpp_ast — the built-in C++ frontend for imap_check.

Produces a TuModel (scope tree + declarations + calls + comparisons + type
oracle) from a single C++ source file, with no compiler dependency.

What this frontend models (enough for the five imap_check rules, far beyond
what a line regex can see):

  * a real tokenizer: comments, string/char/raw-string literals and
    preprocessor lines can never produce tokens, so no string false positives;
  * a scope tree: namespace / class / function / lambda / loop / conditional /
    block nesting, with lambda arguments attached to the call that receives
    them (`parallel_for(n, [&](std::size_t i){ ... })`);
  * declarations with resolved types: `using`/`typedef` aliases are expanded,
    `auto` is resolved through initializer construction and a return-type
    oracle (TU-local function definitions + the imap API table), so
    sugar-hidden `std::vector<double>` declarations are visible;
  * member calls with receiver expressions (`slots_[i].rng.split(g)`),
    kept in token order;
  * `==`/`!=` comparisons with both operand ranges, typed by the oracle.

Preprocessor handling: directives never produce tokens; `#if/#ifdef` chains
keep their first branch and blank `#else`/`#elif` branches (each branch is
internally brace-balanced in this tree), except a literal `#if 0`, whose else
branch is kept instead.
"""

from __future__ import annotations

import re

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

TOK_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<num>0[xX][0-9a-fA-F']+[uUlL]*|(?:\d[\d']*\.[\d']*|\.\d[\d']*|\d[\d']*)(?:[eE][-+]?\d+)?[fFlLuU]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>::|->\*?|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|\.\.\.|[{}()\[\];,<>=+\-*/%!&|^~?:.#@\\])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line", "index")

    def __init__(self, kind: str, text: str, line: int, index: int = -1):
        self.kind = kind    # 'num' | 'ident' | 'punct' | 'str' | 'char'
        self.text = text
        self.line = line
        self.index = index  # position in the token stream (filled by lex)

    def __repr__(self):  # pragma: no cover - debug aid
        return f"Token({self.text!r}@{self.line})"


def strip_comments(text: str) -> list[str]:
    """Blank comments and raw-string contents; ordinary string/char literals
    are left intact (the lexer tokenizes them, preserving e.g. archive
    section names for the serialize-symmetry check)."""
    lines = text.splitlines()
    out: list[list[str]] = [list(l) for l in lines]
    i, n = 0, len(text)
    line, col = 0, 0

    def blank(l, c):
        if out[l][c] not in "\n":
            out[l][c] = " "

    def advance(k=1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 0
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                blank(line, col)
                advance()
            continue
        if c == "/" and nxt == "*":
            blank(line, col); advance()
            blank(line, col); advance()
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    blank(line, col)
                advance()
            if i < n:
                blank(line, col); advance()
                blank(line, col); advance()
            continue
        if c == "R" and nxt == '"':
            # Raw string literal R"delim( ... )delim" — blank to a plain ""
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if m:
                delim = m.group(1)
                end = text.find(")" + delim + '"', i + m.end())
                end = (end + len(delim) + 2) if end != -1 else n
                first = True
                while i < end:
                    if text[i] != "\n":
                        if first:
                            out[line][col] = '"'
                            first = False
                        else:
                            blank(line, col)
                    advance()
                if line < len(out) and col > 0:
                    out[line][col - 1] = '"'
                continue
        if c == '"' or c == "'":
            quote = c
            advance()
            while i < n and text[i] != quote and text[i] != "\n":
                if text[i] == "\\":
                    advance(2)
                    continue
                advance()
            if i < n:
                advance()
            continue
        advance()
    return ["".join(l) for l in out]


def _preprocess(lines: list[str]) -> list[str]:
    """Blank preprocessor lines; keep the first live branch of #if chains."""
    out: list[str] = []
    # stack of dicts: {'keeping': bool, 'taken': bool}
    stack: list[dict] = []
    cont = False  # previous line ended with backslash (directive continuation)
    for raw in lines:
        stripped = raw.lstrip()
        is_directive = cont or stripped.startswith("#")
        cont = is_directive and raw.rstrip().endswith("\\")
        if is_directive and stripped.startswith("#"):
            d = stripped[1:].lstrip()
            if d.startswith(("if", "ifdef", "ifndef")):
                cond = d.split(None, 1)[1].strip() if " " in d else ""
                if d.startswith("if ") and cond == "0":
                    stack.append({"keeping": False, "taken": False})
                else:
                    keep = all(s["keeping"] for s in stack)
                    stack.append({"keeping": keep, "taken": keep})
            elif d.startswith("elif"):
                if stack:
                    top = stack[-1]
                    if top["taken"]:
                        top["keeping"] = False
                    else:
                        top["keeping"] = all(s["keeping"] for s in stack[:-1])
                        top["taken"] = top["keeping"]
            elif d.startswith("else"):
                if stack:
                    top = stack[-1]
                    if top["taken"]:
                        top["keeping"] = False
                    else:
                        top["keeping"] = all(s["keeping"] for s in stack[:-1])
                        top["taken"] = top["keeping"]
            elif d.startswith("endif"):
                if stack:
                    stack.pop()
            out.append("")
            continue
        if is_directive:  # continuation line of a directive
            out.append("")
            continue
        if all(s["keeping"] for s in stack):
            out.append(raw)
        else:
            out.append("")
    return out


def _scan_literal(line: str, pos: int, quote: str) -> int:
    """End index (past the closing quote) of a literal starting at pos."""
    i = pos + 1
    n = len(line)
    while i < n:
        if line[i] == "\\":
            i += 2
            continue
        if line[i] == quote:
            return i + 1
        i += 1
    return n


def lex(text: str) -> list[Token]:
    lines = strip_comments(text)
    lines = _preprocess(lines)
    toks: list[Token] = []
    for lineno, line in enumerate(lines, 1):
        pos = 0
        n = len(line)
        while pos < n:
            ch = line[pos]
            if ch == '"':
                end = _scan_literal(line, pos, '"')
                toks.append(Token("str", line[pos:end], lineno))
                pos = end
                continue
            if ch == "'":
                end = _scan_literal(line, pos, "'")
                toks.append(Token("char", line[pos:end], lineno))
                pos = end
                continue
            m = TOK_RE.match(line, pos)
            if not m:
                pos += 1
                continue
            pos = m.end()
            if m.lastgroup == "ws":
                continue
            toks.append(Token(m.lastgroup, m.group(), lineno))
    for idx, t in enumerate(toks):
        t.index = idx
    return toks


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class Scope:
    __slots__ = ("id", "kind", "name", "parent", "params", "line",
                 "class_name", "decls", "children")

    def __init__(self, sid, kind, name, parent, line, params=None):
        self.id = sid
        self.kind = kind      # file|namespace|class|function|lambda|loop|cond|block|init|enum
        self.name = name
        self.parent = parent
        self.params = params or []
        self.line = line
        self.class_name = ""  # for function scopes: Cls of Cls::method
        self.decls: dict[str, "Decl"] = {}
        self.children: list[Scope] = []
        if parent is not None:
            parent.children.append(self)

    def chain(self):
        s = self
        while s is not None:
            yield s
            s = s.parent

    def within(self, kind: str):
        return any(s.kind == kind for s in self.chain())

    def enclosing(self, kind: str):
        for s in self.chain():
            if s.kind == kind:
                return s
        return None

    def lookup(self, name: str):
        for s in self.chain():
            if name in s.decls:
                return s.decls[name]
        return None

    def __repr__(self):  # pragma: no cover - debug aid
        return f"Scope({self.kind}:{self.name}@{self.line})"


class Decl:
    __slots__ = ("name", "type", "line", "scope", "init", "is_ref",
                 "in_loop_header")

    def __init__(self, name, type_, line, scope, init="", is_ref=False,
                 in_loop_header=False):
        self.name = name
        self.type = type_          # resolved canonical type string
        self.line = line
        self.scope = scope
        self.init = init           # initializer text (token join), '' if none
        self.is_ref = is_ref
        self.in_loop_header = in_loop_header


class Call:
    __slots__ = ("callee", "recv", "args", "line", "scope", "lambda_args",
                 "order", "stmt")

    def __init__(self, callee, recv, args, line, scope, order):
        self.callee = callee       # unqualified last name
        self.recv = recv           # receiver expression text ('' for free calls)
        self.args = args           # list of top-level argument texts
        self.line = line
        self.scope = scope
        self.lambda_args = []      # Scope objects of lambdas passed as args
        self.order = order         # token index (source order)
        self.stmt = ""             # enclosing statement text (filled later)


class Cmp:
    __slots__ = ("op", "line", "scope", "lhs", "rhs")

    def __init__(self, op, line, scope, lhs, rhs):
        self.op = op               # '==' or '!='
        self.line = line
        self.scope = scope
        self.lhs = lhs             # list[Token]
        self.rhs = rhs             # list[Token]


class TuModel:
    def __init__(self, path: str):
        self.path = path
        self.file_scope = Scope(0, "file", path, None, 1)
        self.scopes: list[Scope] = [self.file_scope]
        self.decls: list[Decl] = []
        self.calls: list[Call] = []
        self.cmps: list[Cmp] = []
        self.aliases: dict[str, str] = {}
        self.functions: dict[str, Scope] = {}   # qualified name -> scope
        self.func_returns: dict[str, str] = {}  # last-name -> return type
        self.classes: dict[str, Scope] = {}     # class name -> scope
        self.tokens: list[Token] = []

    # -- type oracle -------------------------------------------------------

    def resolve_alias(self, type_str: str) -> str:
        seen = set()
        t = type_str.strip()
        while t in self.aliases and t not in seen:
            seen.add(t)
            t = self.aliases[t]
        return t

    def class_member(self, cls: str, name: str):
        sc = self.classes.get(cls)
        return sc.decls.get(name) if sc else None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

CTRL_KW = {"for", "while", "if", "switch", "catch"}
TYPE_KW = {"const", "static", "constexpr", "thread_local", "volatile",
           "mutable", "inline", "unsigned", "signed", "register", "extern"}
NOT_DECL_START = {"return", "if", "for", "while", "do", "switch", "case",
                  "break", "continue", "goto", "else", "delete", "new",
                  "throw", "using", "typedef", "public", "private",
                  "protected", "template", "typename", "friend", "operator",
                  "default", "sizeof", "static_assert", "namespace", "class",
                  "struct", "enum", "union", "co_return", "co_await"}

# Known return types of the imap API surface + std calls the checks care
# about. Keyed by method/function name; values are canonical type strings.
API_RETURNS = {
    "uniform": "double", "normal": "double", "uniform_int": "int",
    "bernoulli": "bool", "uniform_vec": "std::vector<double>",
    "normal_vec": "std::vector<double>", "next_u64": "std::uint64_t",
    "split": "imap::Rng",
    "read_u64": "std::uint64_t", "read_i64": "std::int64_t",
    "read_f64": "double", "read_bool": "bool",
    "read_string": "std::string", "read_vec": "std::vector<double>",
    "knn_distance": "double", "knn_distance_sq": "double",
    "size": "std::size_t", "abs": "double", "fabs": "double",
    "sqrt": "double", "exp": "double", "log": "double", "log1p": "double",
    "pow": "double", "tanh": "double", "min": "", "max": "",
    "to_string": "std::string", "str": "std::string",
}

FLOAT_TYPES = {"double", "float", "long double"}
INT_TYPES = {"int", "long", "short", "char", "bool", "std::size_t", "size_t",
             "std::uint64_t", "std::int64_t", "std::uint32_t", "std::int32_t",
             "std::uint16_t", "std::int16_t", "std::uint8_t", "std::int8_t",
             "uint64_t", "int64_t", "uint32_t", "int32_t", "unsigned",
             "std::ptrdiff_t", "long long", "unsigned long", "unsigned int"}


def join_tokens(toks) -> str:
    out = []
    for t in toks:
        if out and (t.kind in ("ident", "num")) and out[-1][-1:].isalnum():
            out.append(" ")
        out.append(t.text)
    return "".join(out)


def _match_forward(toks, i, open_c, close_c):
    """Index of the token matching toks[i] (an open_c); len(toks) if none."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_c:
            depth += 1
        elif t == close_c:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n


def split_top_commas(toks):
    """Split a token list on top-level commas (tracking () [] {} <> lightly)."""
    parts, cur = [], []
    depth = 0
    angle = 0
    for k, t in enumerate(toks):
        x = t.text
        if x in "([{":
            depth += 1
        elif x in ")]}":
            depth -= 1
        elif x == "<" and k > 0 and toks[k - 1].kind == "ident":
            angle += 1
        elif x == ">" and angle > 0:
            angle -= 1
        elif x == "," and depth == 0 and angle == 0:
            parts.append(cur)
            cur = []
            continue
        cur.append(t)
    if cur or parts:
        parts.append(cur)
    return parts


def _param_names(toks):
    """Best-effort parameter names from a parameter list token range."""
    names = []
    for part in split_top_commas(toks):
        # strip default argument
        for k, t in enumerate(part):
            if t.text == "=":
                part = part[:k]
                break
        idents = [t for t in part if t.kind == "ident" and
                  t.text not in TYPE_KW and t.text != "void"]
        if idents:
            names.append(idents[-1].text)
    return names


def _parse_type_prefix(toks):
    """Parse a leading type from a statement's tokens.

    Returns (type_str, next_index, is_ref) or (None, 0, False).
    Accepts: [cv/storage]* ident(::ident)* [<...>] [&|*|&&]*
    """
    i = 0
    n = len(toks)
    while i < n and toks[i].kind == "ident" and toks[i].text in TYPE_KW:
        i += 1
    if i >= n or toks[i].kind != "ident":
        return None, 0, False
    if toks[i].text in NOT_DECL_START:
        return None, 0, False
    parts = [toks[i].text]
    i += 1
    while i + 1 < n and toks[i].text == "::" and toks[i + 1].kind == "ident":
        parts.append("::")
        parts.append(toks[i + 1].text)
        i += 2
    # template arguments
    if i < n and toks[i].text == "<":
        j = i
        depth = 0
        while j < n:
            if toks[j].text == "<":
                depth += 1
            elif toks[j].text == ">":
                depth -= 1
                if depth == 0:
                    break
            elif toks[j].text == ">>":
                depth -= 2
                if depth <= 0:
                    break
            elif toks[j].text in (";", "{"):
                return None, 0, False
            j += 1
        if j >= n:
            return None, 0, False
        parts.append(join_tokens(toks[i:j + 1]))
        i = j + 1
    is_ref = False
    while i < n and toks[i].text in ("&", "*", "&&"):
        is_ref = True
        i += 1
    # multi-keyword builtin types: `long long`, `unsigned long` handled above
    type_str = "".join(parts)
    return type_str, i, is_ref


def canonical_type(t: str) -> str:
    """Normalize a type string: drop cv/ref, collapse spaces, strip imap::."""
    t = re.sub(r"\b(const|volatile|typename|struct|class)\b", " ", t)
    t = t.replace("&", " ").replace("*", " ")
    t = re.sub(r"\s+", "", t)
    t = t.replace(">>", "> >").replace(" ", "")
    t = re.sub(r"\bimap::", "", t)
    t = re.sub(r"\brl::|\bnn::|\battack::|\bcore::|\bdefense::|\benv::", "", t)
    return t


NUMERIC_ELEMS = {"double", "float", "int8_t", "int16_t", "int32_t", "int64_t",
                 "uint8_t", "uint16_t", "uint32_t", "uint64_t",
                 "std::int8_t", "std::int16_t", "std::int32_t",
                 "std::int64_t", "std::uint8_t", "std::uint16_t",
                 "std::uint32_t", "std::uint64_t", "int", "std::size_t",
                 "size_t"}


def is_allocating_type(canon: str) -> bool:
    """Heap-allocating container/string types the hot-loop rule cares about."""
    m = re.fullmatch(r"(?:std::)?vector<(.+)>", canon)
    if m:
        inner = m.group(1).strip()
        if inner in NUMERIC_ELEMS:
            return True
        return is_allocating_type(inner)  # nested vectors allocate too
    if canon in ("std::string", "string"):
        return True
    if re.fullmatch(r"(?:std::)?basic_string<.*>", canon):
        return True
    return False


class Parser:
    def __init__(self, path: str, text: str):
        self.model = TuModel(path)
        self.toks = lex(text)
        self.model.tokens = self.toks
        self.next_scope_id = 1

    def new_scope(self, kind, name, parent, line, params=None):
        s = Scope(self.next_scope_id, kind, name, parent, line, params)
        self.next_scope_id += 1
        self.model.scopes.append(s)
        return s

    # -- main loop ---------------------------------------------------------

    def parse(self) -> TuModel:
        toks = self.toks
        n = len(toks)
        scope = self.model.file_scope
        scope_stack = [scope]
        # call_stack depth at each scope's entry: inside a lambda passed as a
        # call argument the enclosing call frame is still open, yet we are in
        # statement context — ';' terminates a statement iff the call depth
        # is back to what it was when the current scope began.
        stmt_base = [0]
        # pending scope description awaiting its '{'
        pending = None      # dict(kind=..., name=..., params=..., line=...)
        pend_oneline = []   # virtual scopes to pop at next ';' (braceless ctrl)
        ctrl = None         # dict(kind, paren_depth) while inside ctrl header
        stmt_start = 0      # token index where the current statement begins
        call_stack = []     # frames: dict(callee, recv, open_index, scope)
        i = 0

        def current():
            return scope_stack[-1]

        def finish_statement(end_i):
            nonlocal stmt_start
            stmt = toks[stmt_start:end_i]
            if stmt:
                self.handle_statement(stmt, current())
            stmt_start = end_i + 1

        while i < n:
            t = toks[i]
            x = t.text

            # -------- control headers ------------------------------------
            if ctrl is not None:
                if x == "(":
                    ctrl["depth"] += 1
                elif x == ")":
                    ctrl["depth"] -= 1
                    if ctrl["depth"] == 0:
                        hdr = toks[ctrl["open"] + 1:i]
                        kind = "loop" if ctrl["kw"] in ("for", "while") else "cond"
                        pending = {"kind": kind, "name": ctrl["kw"],
                                   "line": t.line, "header": hdr}
                        # header tokens never reach handle_statement — scan
                        # them here so `if (x == y)` comparisons and calls in
                        # conditions are part of the model
                        self._scan_cmps(hdr, current())
                        self._scan_header_calls(hdr, current())
                        ctrl = None
                        stmt_start = i + 1
                        i += 1
                        continue
                elif x == ";" and ctrl["depth"] > 0:
                    pass  # for(;;) separators
                i += 1
                continue

            if t.kind == "ident" and x in CTRL_KW:
                # `while` directly after do-loop close is a header too; fine.
                ctrl = {"kw": x, "depth": 0, "open": -1}
                # find the '('
                j = i + 1
                if j < n and toks[j].text == "(":
                    ctrl["open"] = j
                    ctrl["depth"] = 1
                    finish_statement(i)
                    i = j + 1
                    continue
                ctrl = None  # `do ... while` handled via 'do'; stray kw
                i += 1
                continue

            if t.kind == "ident" and x == "do":
                pending = {"kind": "loop", "name": "do", "line": t.line,
                           "header": []}
                finish_statement(i)
                i += 1
                continue

            if t.kind == "ident" and x == "else":
                finish_statement(i)
                pending = {"kind": "cond", "name": "else", "line": t.line,
                           "header": []}
                i += 1
                continue

            if t.kind == "ident" and x == "namespace":
                name = ""
                j = i + 1
                while j < n and toks[j].kind == "ident":
                    name += ("::" if name else "") + toks[j].text
                    j += 1
                if j < n and toks[j].text == "{":
                    pending = {"kind": "namespace", "name": name,
                               "line": t.line}
                    i = j
                    stmt_start = j
                    continue
                i += 1
                continue

            if t.kind == "ident" and x in ("class", "struct", "union", "enum"):
                # scan to the first of ; { ( =  — '{' means a definition
                j = i + 1
                name = ""
                if j < n and toks[j].text == "class":  # enum class
                    j += 1
                while j < n:
                    xt = toks[j].text
                    if xt == "{":
                        pending = {
                            "kind": "enum" if x == "enum" else "class",
                            "name": name, "line": t.line}
                        break
                    if xt in (";", "(", "=", ")"):
                        break
                    if toks[j].kind == "ident" and not name and \
                            toks[j].text not in ("final", "public", "private",
                                                 "protected", "virtual"):
                        name = toks[j].text
                    if xt == ":":
                        name = name or ""
                        # base clause: skip to '{'
                        k = j
                        while k < n and toks[k].text not in ("{", ";"):
                            k += 1
                        if k < n and toks[k].text == "{":
                            pending = {"kind": "class", "name": name,
                                       "line": t.line}
                        j = k
                        break
                    j += 1
                if pending:
                    i = j
                    stmt_start = j
                    continue
                i += 1
                continue

            # -------- lambda detection -----------------------------------
            if x == "[":
                prev = toks[i - 1] if i > 0 else None
                if i + 1 < n and toks[i + 1].text == "[":
                    # [[attribute]]
                    j = _match_forward(toks, i, "[", "]")
                    i = j + 1
                    continue
                is_subscript = prev is not None and (
                    prev.kind in ("ident", "num") or
                    prev.text in (")", "]"))
                if not is_subscript:
                    close = _match_forward(toks, i, "[", "]")
                    j = close + 1
                    params = []
                    if j < n and toks[j].text == "(":
                        pclose = _match_forward(toks, j, "(", ")")
                        params = _param_names(toks[j + 1:pclose])
                        j = pclose + 1
                    # skip specifiers: mutable noexcept -> type
                    while j < n and toks[j].text not in ("{", ";", ")", ","):
                        j += 1
                    if j < n and toks[j].text == "{":
                        lam = self.new_scope("lambda", "<lambda>", current(),
                                             t.line, params)
                        for p in params:
                            lam.decls[p] = Decl(p, "", t.line, lam)
                        if call_stack:
                            call_stack[-1]["lambdas"].append(lam)
                        scope_stack.append(lam)
                        stmt_base.append(len(call_stack))
                        stmt_start = j + 1
                        i = j + 1
                        continue
                # plain subscript or non-brace lambda: continue
                i += 1
                continue

            # -------- call tracking --------------------------------------
            if x == "(":
                callee, recv, cstart = self._callee_before(i)
                call_stack.append({
                    "callee": callee, "recv": recv, "open": i,
                    "line": t.line, "scope": current(), "lambdas": [],
                    "depth_scopes": len(scope_stack),
                })
                i += 1
                continue

            if x == ")":
                if call_stack:
                    fr = call_stack.pop()
                    if fr["callee"]:
                        args_toks = toks[fr["open"] + 1:i]
                        c = Call(fr["callee"], fr["recv"],
                                 [join_tokens(p) for p in
                                  split_top_commas(args_toks)],
                                 toks[fr["open"]].line, fr["scope"],
                                 fr["open"])
                        c.lambda_args = fr["lambdas"]
                        self.model.calls.append(c)
                    elif call_stack and fr["lambdas"]:
                        # parenthesized group: propagate lambdas outward
                        call_stack[-1]["lambdas"].extend(fr["lambdas"])
                i += 1
                continue

            # -------- braces / statements --------------------------------
            if x == "{":
                finish_statement(i)
                if pending is not None:
                    sc = self.new_scope(pending["kind"], pending["name"],
                                        current(), pending["line"])
                    if pending["kind"] == "class" and pending["name"]:
                        self.model.classes[pending["name"]] = sc
                    if pending["kind"] == "loop":
                        self._header_decls(pending.get("header") or [], sc)
                    pending = None
                else:
                    sc = self._classify_brace(i, current())
                scope_stack.append(sc)
                stmt_base.append(len(call_stack))
                stmt_start = i + 1
                i += 1
                continue

            if x == "}":
                finish_statement(i)
                # braceless-ctrl virtual scopes still open at the closing
                # brace belong to the scope being closed: unwind them first
                while pend_oneline and pend_oneline[-1] is scope_stack[-1]:
                    pend_oneline.pop()
                    scope_stack.pop()
                    stmt_base.pop()
                if len(scope_stack) > 1:
                    scope_stack.pop()
                    stmt_base.pop()
                # close any call frames opened inside the scope we just left
                while call_stack and call_stack[-1]["depth_scopes"] > len(scope_stack):
                    call_stack.pop()
                stmt_start = i + 1
                i += 1
                continue

            if x == ";" and len(call_stack) == stmt_base[-1]:
                finish_statement(i)
                while pend_oneline and pend_oneline[-1] is scope_stack[-1]:
                    pend_oneline.pop()
                    scope_stack.pop()
                    stmt_base.pop()
                i += 1
                continue

            # statement content continues
            if pending is not None and x not in ("{",):
                # braceless ctrl body: push a virtual scope for one statement
                sc = self.new_scope(pending["kind"], pending["name"],
                                    current(), pending["line"])
                if pending["kind"] == "loop":
                    self._header_decls(pending.get("header") or [], sc)
                pending = None
                scope_stack.append(sc)
                stmt_base.append(len(call_stack))
                pend_oneline.append(sc)
                stmt_start = i
                continue

            i += 1

        return self.model

    # -- helpers -----------------------------------------------------------

    def _callee_before(self, open_idx: int):
        """Extract (callee, receiver_text, start) for a '(' at open_idx."""
        toks = self.toks
        j = open_idx - 1
        if j < 0 or toks[j].kind != "ident":
            return "", "", open_idx
        callee = toks[j].text
        if callee in CTRL_KW or callee in ("return", "sizeof", "switch",
                                           "catch", "new", "delete",
                                           "static_assert", "alignof",
                                           "defined", "do", "else"):
            return "", "", open_idx
        # walk back over a qualified/receiver chain
        k = j - 1
        recv_end = k
        recv_start = None
        while k >= 0:
            xt = toks[k].text
            if xt in (".", "->", "::"):
                k -= 1
                # the thing before . / -> / :: : ident, ']' chain or ')'
                if k >= 0 and toks[k].text == "]":
                    # balanced backward over [ ]
                    depth = 0
                    while k >= 0:
                        if toks[k].text == "]":
                            depth += 1
                        elif toks[k].text == "[":
                            depth -= 1
                            if depth == 0:
                                break
                        k -= 1
                    k -= 1
                    # also the ident before the subscript
                    if k >= 0 and toks[k].kind == "ident":
                        recv_start = k
                        k -= 1
                    continue
                if k >= 0 and toks[k].kind == "ident":
                    recv_start = k
                    k -= 1
                    continue
                if k >= 0 and toks[k].text == ")":
                    # call-chain receiver: balance backwards over the
                    # argument list and keep walking so
                    # `w.section("x").write_f64(...)` yields the full chain
                    depth = 0
                    while k >= 0:
                        if toks[k].text == ")":
                            depth += 1
                        elif toks[k].text == "(":
                            depth -= 1
                            if depth == 0:
                                break
                        k -= 1
                    recv_start = k
                    k -= 1
                    if k >= 0 and toks[k].kind == "ident":
                        recv_start = k
                        k -= 1
                        continue
                    break
                break
            break
        recv = ""
        if recv_start is not None:
            recv = join_tokens(toks[recv_start:recv_end + 1])
        return callee, recv, open_idx

    def _classify_brace(self, brace_idx: int, parent: Scope) -> Scope:
        """Classify a '{' with no pending construct."""
        toks = self.toks
        # collect statement tokens backwards to last ; { } at this level
        j = brace_idx - 1
        depth = 0
        stmt = []
        while j >= 0:
            xt = toks[j].text
            if xt in (")", "]", ">"):
                depth += 1
            elif xt in ("(", "[", "<"):
                depth -= 1
            if depth == 0 and xt in (";", "{", "}"):
                break
            stmt.append(toks[j])
            j -= 1
        stmt.reverse()
        line = toks[brace_idx].line
        if not stmt:
            return self.new_scope("block", "", parent, line)
        last = stmt[-1].text
        if last in ("=", ",", "(", "[", "return") or last == "{":
            return self.new_scope("init", "", parent, line)
        # function definition? must contain a top-level (...) param list
        # find first top-level '('
        depth = 0
        first_open = -1
        for k, t in enumerate(stmt):
            if t.text == "(":
                if depth == 0 and first_open == -1:
                    first_open = k
                depth += 1
            elif t.text == ")":
                depth -= 1
        if first_open > 0 and depth == 0:
            # name = qualified ident chain right before first '(' — walk
            # ident(::ident)* backwards so the return type (`void Cls::f`)
            # is not glued onto the name
            k = first_open - 1
            name_parts = []
            if k >= 0 and stmt[k].kind == "punct" and k >= 1 and \
                    stmt[k - 1].text == "operator":
                name_parts.append(stmt[k].text)   # operator== / operator< ...
                k -= 1
            while k >= 0:
                t = stmt[k]
                if t.kind != "ident":
                    break
                name_parts.append(t.text)
                k -= 1
                if k >= 0 and stmt[k].text == "~":
                    name_parts.append("~")
                    k -= 1
                if k >= 0 and stmt[k].text == "::":
                    name_parts.append("::")
                    k -= 1
                    continue
                break
            name_parts.reverse()
            name = "".join(name_parts)
            if name and name not in ("if", "for", "while", "switch"):
                pclose = _match_forward(stmt, first_open, "(", ")")
                params = _param_names(stmt[first_open + 1:pclose])
                fn = self.new_scope("function", name, parent, line, params)
                if "::" in name:
                    fn.class_name = name.rsplit("::", 2)[0].split("<")[0] \
                        if name.count("::") == 1 else \
                        name.rsplit("::", 1)[0]
                elif parent.kind == "class":
                    fn.class_name = parent.name
                # qualify in-class definitions so same-named methods of
                # sibling classes in one TU don't overwrite each other
                qname = name if "::" in name or not fn.class_name \
                    else f"{fn.class_name}::{name}"
                self.model.functions[qname] = fn
                # record return type for the oracle (tokens before the name)
                ret_toks = stmt[:k + 1]
                rt, _, _ = _parse_type_prefix(ret_toks)
                if rt:
                    self.model.func_returns.setdefault(
                        name.split("::")[-1], canonical_type(rt))
                # parameter decls with types
                for part in split_top_commas(stmt[first_open + 1:pclose]):
                    ptype, pi, pref = _parse_type_prefix(part)
                    idents = [t for t in part if t.kind == "ident" and
                              t.text not in TYPE_KW]
                    if ptype and idents:
                        pname = idents[-1].text
                        fn.decls[pname] = Decl(pname, canonical_type(ptype),
                                               line, fn, is_ref=pref)
                return fn
        return self.new_scope("block", "", parent, line)

    def _header_decls(self, hdr, loop_scope: Scope):
        """Declarations in a for-header (incl. range-for) — marked as header
        decls so the hot-loop rule skips them (for-init runs once)."""
        if not hdr:
            return
        # range-for: `type name : container`
        depth = 0
        colon = -1
        for k, t in enumerate(hdr):
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
            elif t.text == ":" and depth == 0:
                # skip `::`
                colon = k
                break
        if colon > 0:
            decl_part = hdr[:colon]
            idents = [t for t in decl_part if t.kind == "ident" and
                      t.text not in TYPE_KW and t.text != "auto"]
            if idents:
                name = idents[-1].text
                container = join_tokens(hdr[colon + 1:])
                loop_scope.decls[name] = Decl(
                    name, f"element_of({container})", hdr[0].line, loop_scope,
                    in_loop_header=True)
            return
        # classic for-init: first ;-separated chunk
        init = []
        for t in hdr:
            if t.text == ";":
                break
            init.append(t)
        ty, idx, is_ref = _parse_type_prefix(init)
        if ty and idx < len(init) and init[idx].kind == "ident":
            name = init[idx].text
            loop_scope.decls[name] = Decl(
                name, canonical_type(ty), init[0].line, loop_scope,
                init=join_tokens(init[idx + 1:]), is_ref=is_ref,
                in_loop_header=True)

    def _scan_header_calls(self, hdr, scope: Scope):
        """Record calls appearing inside a control header (the main loop's
        call tracking never sees those tokens). Nested calls are found by
        visiting every '(' in the header."""
        for k, t in enumerate(hdr):
            if t.text != "(":
                continue
            prev = hdr[k - 1] if k > 0 else None
            if prev is None or prev.kind != "ident" or prev.text in CTRL_KW:
                continue
            callee, recv, _start = self._callee_before(t.index)
            if not callee:
                continue
            depth = 0
            close = None
            for j in range(k, len(hdr)):
                if hdr[j].text == "(":
                    depth += 1
                elif hdr[j].text == ")":
                    depth -= 1
                    if depth == 0:
                        close = j
                        break
            if close is None:
                continue
            c = Call(callee, recv,
                     [join_tokens(p) for p in
                      split_top_commas(hdr[k + 1:close])],
                     t.line, scope, t.index)
            c.stmt = join_tokens(hdr)
            self.model.calls.append(c)

    # -- statement-level analysis ------------------------------------------

    def handle_statement(self, stmt, scope: Scope):
        # `private: T x_;` — the access label shares the statement with the
        # member that follows it
        while len(stmt) >= 2 and stmt[1].text == ":" and \
                stmt[0].text in ("public", "private", "protected"):
            stmt = stmt[2:]
        if not stmt:
            return
        first = stmt[0]
        # alias directives
        if first.text == "using" and len(stmt) >= 3:
            if stmt[1].text == "namespace":
                return
            if any(t.text == "=" for t in stmt):
                eq = next(k for k, t in enumerate(stmt) if t.text == "=")
                name = stmt[eq - 1].text
                target, _, _ = _parse_type_prefix(stmt[eq + 1:])
                if target:
                    self.model.aliases[name] = canonical_type(target)
            return
        if first.text == "typedef":
            ty, idx, _ = _parse_type_prefix(stmt[1:])
            rest = stmt[1 + idx:]
            if ty and rest and rest[-1].kind == "ident":
                self.model.aliases[rest[-1].text] = canonical_type(ty)
            return

        in_code = scope.within("function") or scope.within("lambda")
        in_class = scope.kind == "class"
        if (in_class or scope.kind in ("file", "namespace")) and \
                self._scan_prototype(stmt):
            return
        if in_code or in_class:
            self._scan_decl(stmt, scope)
        if in_code:
            self._scan_cmps(stmt, scope)
            # attach the statement text to calls that start inside it
            lo, hi = stmt[0].index, stmt[-1].index
            text = join_tokens(stmt)
            for c in self.model.calls:
                if lo <= c.order <= hi and not c.stmt:
                    c.stmt = text

    def _scan_prototype(self, stmt) -> bool:
        """`Type name(params...) [const...];` at class/namespace/file scope is
        a function prototype: record its return type so sugar call sites
        (`auto a = policy.act(...)`) resolve through the oracle. Returns True
        when the statement was consumed as a prototype. (In-class members
        cannot use paren-init, so `Type name(` at class scope is always a
        declaration of a function, never of a variable.)"""
        ty, idx, _ = _parse_type_prefix(stmt)
        if not ty or idx >= len(stmt):
            return False
        t = stmt[idx]
        if t.kind != "ident" or t.text in NOT_DECL_START:
            return False
        if idx + 1 >= len(stmt) or stmt[idx + 1].text != "(":
            return False
        close = _match_forward(stmt, idx + 1, "(", ")")
        # after the param list: only cv/ref/noexcept/override/= 0/attributes
        for k in range(close + 1, len(stmt)):
            x = stmt[k].text
            if x == "{" or x == "=" and k + 1 < len(stmt) and \
                    stmt[k + 1].text not in ("0", "default", "delete"):
                return False
        canon = canonical_type(self.model.resolve_alias(canonical_type(ty)))
        if canon and canon != "auto":
            self.model.func_returns.setdefault(t.text, canon)
        return True

    def _scan_decl(self, stmt, scope: Scope):
        ty, idx, is_ref = _parse_type_prefix(stmt)
        if not ty or idx >= len(stmt):
            return
        t = stmt[idx]
        if t.kind != "ident" or t.text in NOT_DECL_START:
            return
        nxt = stmt[idx + 1].text if idx + 1 < len(stmt) else ";"
        if nxt not in ("=", ";", "(", "{", ",", "["):
            return
        # looks like `Type name ...` — could still be an expression like
        # `a * b;` but _parse_type_prefix already rejected operators.
        name = t.text
        init = join_tokens(stmt[idx + 1:]) if idx + 1 < len(stmt) else ""
        # storage-class qualifiers are stripped from the type by
        # _parse_type_prefix; carry them on the init string so checks can
        # see e.g. a `static` in-loop declaration (allocates only once).
        for q in ("thread_local", "static"):
            if any(tok.text == q for tok in stmt[:idx]):
                init = f"{q} {init}"
        canon = canonical_type(self.model.resolve_alias(canonical_type(ty)))
        if canon == "auto":
            inferred = self.infer_expr_type(stmt[idx + 2:], scope) \
                if nxt == "=" else ""
            canon = inferred or "auto"
        d = Decl(name, canon, t.line, scope, init=init, is_ref=is_ref)
        scope.decls[name] = d
        self.model.decls.append(d)
        # additional declarators: `double a = 1, b = 2;` / `T x_, y_;`
        depth = 0
        k = idx + 1
        while k < len(stmt):
            x = stmt[k].text
            if x in "([{":
                depth += 1
            elif x in ")]}":
                depth -= 1
            elif x == "," and depth == 0:
                ref2 = False
                k += 1
                while k < len(stmt) and stmt[k].text in ("&", "*", "&&"):
                    ref2 = True
                    k += 1
                if k < len(stmt) and stmt[k].kind == "ident":
                    d2 = Decl(stmt[k].text, canon, stmt[k].line, scope,
                              is_ref=is_ref or ref2)
                    scope.decls[d2.name] = d2
                    self.model.decls.append(d2)
                continue
            k += 1

    def _scan_cmps(self, stmt, scope: Scope):
        depth = 0
        for k, t in enumerate(stmt):
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
            elif t.text in ("==", "!="):
                lhs = self._operand(stmt, k, -1)
                rhs = self._operand(stmt, k, +1)
                if lhs and rhs:
                    self.model.cmps.append(
                        Cmp(t.text, t.line, scope, lhs, rhs))

    @staticmethod
    def _operand(stmt, op_idx, direction):
        """Token range of the comparison operand next to stmt[op_idx]."""
        stop_ops = {",", ";", "&&", "||", "?", ":", "==", "!=", "=", "<=",
                    ">=", "return"}
        out = []
        depth = 0
        k = op_idx + direction
        while 0 <= k < len(stmt):
            x = stmt[k].text
            if direction < 0:
                if x in ")]":
                    depth += 1
                elif x in "([":
                    if depth == 0:
                        break
                    depth -= 1
            else:
                if x in "([":
                    depth += 1
                elif x in ")]":
                    if depth == 0:
                        break
                    depth -= 1
            if depth == 0 and x in stop_ops:
                break
            out.append(stmt[k])
            k += direction
        if direction < 0:
            out.reverse()
        return out

    # -- expression typing --------------------------------------------------

    def infer_expr_type(self, toks, scope: Scope) -> str:
        """Best-effort type of an expression token range. '' = unknown."""
        # peel fully-enclosing parens only — inner parens are structure
        # (constructor / call argument lists) the patterns below rely on
        while len(toks) >= 2 and toks[0].text == "(":
            depth = 0
            enclosing = False
            for k, t in enumerate(toks):
                if t.text == "(":
                    depth += 1
                elif t.text == ")":
                    depth -= 1
                    if depth == 0:
                        enclosing = k == len(toks) - 1
                        break
            if not enclosing:
                break
            toks = toks[1:-1]
        if not toks:
            return ""
        m = self.model
        # literal?
        if len(toks) == 1:
            t = toks[0]
            if t.kind == "num":
                return "double" if is_float_literal(t.text) else "int"
            if t.kind == "ident":
                d = scope.lookup(t.text)
                if d is None:
                    fn = scope.enclosing("function")
                    if fn is not None and fn.class_name:
                        d = m.class_member(fn.class_name, t.text)
                if d is not None and d.type:
                    return m.resolve_alias(d.type)
                return ""
            return ""
        # cast
        if toks[0].text in ("static_cast", "reinterpret_cast", "const_cast"):
            for k, t in enumerate(toks):
                if t.text == "<":
                    ty, _, _ = _parse_type_prefix(toks[k + 1:])
                    return canonical_type(ty) if ty else ""
            return ""
        # explicit construction  Type{...} / Type(...)
        ty, idx, _ = _parse_type_prefix(toks)
        if ty and idx < len(toks) and toks[idx].text in ("(", "{"):
            # `name(...)` is ambiguous between construction and a plain
            # call; a non-template name that is a known function (and not
            # a known class or alias) is a call — use its return type
            # (covers `make_row(n)` and qualified `std::sqrt(x)`).
            tail = ty.rsplit("::", 1)[-1]
            if ("<" not in ty and ty not in m.classes
                    and ty not in m.aliases and tail not in m.classes):
                rt = m.func_returns.get(ty) or m.func_returns.get(tail) \
                    or API_RETURNS.get(tail, "")
                if rt:
                    return canonical_type(m.resolve_alias(rt))
            return canonical_type(m.resolve_alias(canonical_type(ty)))
        # trailing call:  recv.method(...) or fn(...)
        # find last ident followed by '('
        for k in range(len(toks) - 1):
            if toks[k].kind == "ident" and toks[k + 1].text == "(":
                name = toks[k].text
                rt = m.func_returns.get(name) or API_RETURNS.get(name, "")
                if rt:
                    return canonical_type(m.resolve_alias(rt))
                # element accessors: the result type is the container's
                # template argument (`v.front()` on vector<double> → double)
                if name in ("front", "back", "at") and k >= 2 and \
                        toks[k - 1].text in (".", "->"):
                    base_t = self.infer_expr_type(toks[:k - 1], scope)
                    em = re.match(r"(?:std::)?(?:vector|array|deque|span)"
                                  r"\s*<\s*([^,>]+)", base_t or "")
                    if em:
                        return canonical_type(em.group(1).strip())
                break
        # member access  x.y
        if (len(toks) >= 3 and toks[-2].text in (".", "->") and
                toks[-1].kind == "ident"):
            base_t = self.infer_expr_type(toks[:-2], scope)
            if base_t:
                d = m.class_member(base_t.split("<")[0], toks[-1].text)
                if d and d.type:
                    return m.resolve_alias(d.type)
            return ""
        # arithmetic: float if any float operand and only arith operators
        ops = {"+", "-", "*", "/", "%"}
        has_float = False
        all_known = True
        for t in toks:
            if t.kind == "num":
                if is_float_literal(t.text):
                    has_float = True
            elif t.kind == "ident":
                sub = self.infer_expr_type([t], scope)
                if sub in FLOAT_TYPES:
                    has_float = True
                elif not sub:
                    all_known = False
            elif t.text not in ops and t.text not in ("(", ")", "[", "]",
                                                      ".", "::", "->"):
                all_known = False
        if has_float:
            return "double"
        if all_known:
            return "int"
        return ""


def is_float_literal(text: str) -> bool:
    if text.startswith(("0x", "0X")):
        return False
    t = text.rstrip("fFlL")
    return "." in t or "e" in t or "E" in t


def merge_model(dst: TuModel, src: TuModel) -> None:
    """Merge the cross-TU facts of `src` (a header) into `dst`: class member
    tables, type aliases and function return types — the information a .cpp
    needs to type expressions over classes declared in its headers."""
    for name, sc in src.classes.items():
        dst.classes.setdefault(name, sc)
    for name, target in src.aliases.items():
        dst.aliases.setdefault(name, target)
    for name, ret in src.func_returns.items():
        dst.func_returns.setdefault(name, ret)


def parse_file(path: str, text: str | None = None,
               seed: TuModel | None = None) -> TuModel:
    """Parse one file. `seed` pre-loads cross-TU facts (header classes,
    aliases, return types) into the parser so auto-inference and member
    typing can use them *during* the parse, not just after a merge."""
    if text is None:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    p = Parser(path, text)
    if seed is not None:
        merge_model(p.model, seed)
    return p.parse()
