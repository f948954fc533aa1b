"""Portable (pure-Python) fact-extraction frontend.

Parses one C++ file into the facts schema of facts.py without a compiler:
a line-preserving comment/string stripper, a brace-matching structural scan
(namespaces, classes, enums, function definitions), and a per-body event
scan (lock acquisitions, calls, callback invocations, clock/random uses).

This is not a C++ parser; it is tuned to this repository's idiom, which the
repo lint (tools/lint.py) and clang-format keep uniform:

  * locks are the annotated primitives from common/sync.h, acquired via the
    RAII guards (`MutexLock lock(mu_);`) or, rarely, manual `mu.Lock()`;
  * every Mutex/SharedMutex is declared with a kLockRank* constant;
  * callbacks are `std::function` parameters (or a `using` alias of one);
  * one class per qualified name, CamelCase methods, snake_case members.

It is the analyzer's only frontend; see DESIGN.md "Static analysis" for what
its name resolution approximates.
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from lint import strip_comments_and_strings  # noqa: E402  (tools/lint.py)

import facts  # noqa: E402

EXTRACTOR_NAME = "python"
# v3: `->` no longer closes an angle bracket in arg splits
# v4: `struct Outer::Inner {` defines Outer::Inner, not Outer
EXTRACTOR_VERSION = 4

# Keywords that can precede a '(' without being a call.
NON_CALL_KEYWORDS = frozenset("""
    if for while switch return sizeof alignof decltype noexcept catch
    static_cast dynamic_cast reinterpret_cast const_cast typeid new delete
    throw case co_await co_return co_yield assert defined alignas
""".split())

# Keywords that may legitimately precede a call expression, so the
# "identifier whitespace identifier(" declaration heuristic must not fire.
PRE_CALL_KEYWORDS = frozenset(
    "return else do case throw co_return co_yield".split())

# Statement-ish keywords that disqualify a block header from being a
# class/struct/function definition.
CONTROL_KEYWORDS = frozenset(
    "if else for while switch do try catch".split())

RAII_GUARDS = {"MutexLock": "MutexLock",
               "ReaderLock": "ReaderLock",
               "WriterLock": "WriterLock"}

WALL_CLOCK_RE = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bclock\s*\(\s*\)"
    r"|(?<![\w:])time\s*\(|\blocaltime\s*\(|\bgmtime\s*\(|\bStopwatch\b")

RANDOM_RE = re.compile(
    r"\brandom_device\b|(?<![\w:.])s?rand\s*\("
    r"|\b(mt19937(?:_64)?|default_random_engine|minstd_rand0?)\s+\w+\s*[;{]")

ALLOW_MARKER_RE = re.compile(r"analyze:allow-([\w-]+)")
ROOT_MARKER_RE = re.compile(r"analyze:root\b")
ATOMIC_MARKER_RE = re.compile(r"analyze:atomic\b")

MUTEX_DECL_RE = re.compile(
    r"\b(Mutex|SharedMutex)\s+(\w+)\s*(?:\{\s*(kLockRank\w+)[^}]*\})?\s*;")

RAII_ACQUIRE_RE = re.compile(
    r"\b(MutexLock|ReaderLock|WriterLock)\s+\w+\s*[({]\s*([^;)}]+?)\s*[)}]")

CALL_RE = re.compile(r"((?:[A-Za-z_]\w*\s*::\s*)*)([A-Za-z_]\w*)\s*\(")

ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=\s*std\s*::\s*function\s*<")

ENUM_CONST_RE = re.compile(r"\b(kLockRank\w+)\s*=\s*(\d+)")

GUARD_ATTR_RE = re.compile(r"RSTORE_[A-Z_]+\s*\([^()]*\)")

GUARDED_BY_RE = re.compile(r"RSTORE_(?:PT_)?GUARDED_BY\s*\(\s*([^()]*?)\s*\)")

REQUIRES_RE = re.compile(r"RSTORE_REQUIRES(?:_SHARED)?\s*\(\s*([^()]*?)\s*\)")

# Method names on a member chain that mutate the object they are called on.
# Used by the field-access scan to classify `x_.push_back(..)` as a write.
MUTATING_METHODS = frozenset("""
    push_back emplace_back pop_back push_front pop_front clear erase insert
    emplace emplace_front resize reserve assign swap store fetch_add fetch_sub
    fetch_and fetch_or fetch_xor exchange compare_exchange_weak
    compare_exchange_strong reset release merge extract
""".split())


def _blank_preprocessor(text):
    """Blanks out preprocessor directives (incl. line continuations),
    preserving line breaks so offsets stay stable."""
    lines = text.split("\n")
    in_directive = False
    for i, line in enumerate(lines):
        stripped = line.lstrip()
        if in_directive or stripped.startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            lines[i] = " " * len(line)
        else:
            in_directive = False
    return "\n".join(lines)


def _line_markers(text):
    """Per-line analyze: markers, read from the original (uncommented) text."""
    allow = {}
    roots = set()
    atomics = set()
    for idx, line in enumerate(text.splitlines()):
        checks = ALLOW_MARKER_RE.findall(line)
        if checks:
            allow[idx + 1] = checks
        if ROOT_MARKER_RE.search(line):
            roots.add(idx + 1)
        if ATOMIC_MARKER_RE.search(line):
            atomics.add(idx + 1)
    return allow, roots, atomics


def _depth_and_lines(text):
    """Per-offset {}-depth (depth AFTER processing the char) and line number
    arrays for the stripped text."""
    depth = [0] * len(text)
    line = [1] * len(text)
    d = 0
    ln = 1
    for i, c in enumerate(text):
        if c == "{":
            d += 1
        elif c == "}":
            d = max(0, d - 1)
        elif c == "\n":
            ln += 1
        depth[i] = d
        line[i] = ln
    return depth, line


def _matching_paren(text, open_pos):
    """Offset of the ')' matching the '(' at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _matching_bracket(text, open_pos):
    """Offset of the ']' matching the '[' at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _split_top_commas(text):
    out = []
    depth = 0
    start = 0
    for i, c in enumerate(text):
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            if c == ">" and i > 0 and text[i - 1] == "-":
                continue  # `->` is a member arrow, not a closing angle
            depth = max(0, depth - 1)
        elif c == "," and depth == 0:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return [p.strip() for p in out if p.strip()]


FUNC_NAME_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*(?:operator\s*[^\s\w(]+|~?[A-Za-z_]\w*))\s*$")


def _strip_ns(qual):
    """Drops the project namespace prefix: names are unique without it."""
    for ns in ("rstore::", "std::"):
        if qual.startswith(ns):
            qual = qual[len(ns):]
    return qual


class _Scope:
    __slots__ = ("kind", "name", "header_start", "body_start")

    def __init__(self, kind, name, header_start, body_start):
        self.kind = kind          # ns | class | enum | function | block
        self.name = name
        self.header_start = header_start
        self.body_start = body_start


def extract_file(abs_path, rel_path):
    """Extracts facts from one C++ file. Never raises on weird code; the
    worst case is missing events (documented approximation, see DESIGN.md)."""
    with open(abs_path, "r", encoding="utf-8", errors="replace") as f:
        original = f.read()

    allow_by_line, root_lines, atomic_lines = _line_markers(original)
    text = _blank_preprocessor(strip_comments_and_strings(original))
    depth, line_of = _depth_and_lines(text)

    out = {
        "schema": facts.SCHEMA_VERSION,
        "tu": rel_path,
        "extractor": EXTRACTOR_NAME,
        "ranks": {},
        "aliases": ALIAS_RE.findall(text),
        "classes": {},
        "mutexes": [],
        "functions": [],
    }

    file_tag = os.path.basename(rel_path)
    scope_stack = []          # _Scope entries for every open '{'
    stmt_start = 0            # start offset of the current statement

    def class_context():
        names = [s.name for s in scope_stack if s.kind == "class"]
        return "::".join(names)

    def in_function():
        return any(s.kind == "function" for s in scope_stack)

    def classify_header(header, open_pos):
        """What does the '{' at open_pos open, given its header text?"""
        header = header.strip()
        first_word = re.match(r"[A-Za-z_]\w*", header)
        if first_word and first_word.group(0) in CONTROL_KEYWORDS:
            return ("block", None)
        if re.match(r"namespace\b", header):
            m = re.match(r"namespace\s+(\w+)", header)
            return ("ns", m.group(1) if m else "<anon>")
        m = re.search(r"\benum\s+(?:class\s+|struct\s+)?(\w+)", header)
        if m and "(" not in header:
            return ("enum", m.group(1))
        # The name may be qualified: `struct Outer::Inner {` defines the
        # nested class out of line, with the same "Outer::Inner" name an
        # inline definition gets.
        m = re.search(
            r"\b(?:class|struct)\s+(?:RSTORE_\w+\s*(?:\([^)]*\))?\s*)*"
            r"(\w+(?:::\w+)*)\s*(?:final\s*)?(?::(?!:)|$)", header)
        if m and not header.rstrip().endswith(")"):
            bases = re.findall(
                r"(?:public|protected|private)\s+([\w:]+)",
                header[m.end(1):])
            return ("class", (m.group(1), [_strip_ns(b) for b in bases]))
        # Function definition: a top-level '(' whose matching ')' is followed
        # (modulo qualifiers/init-list) by this '{'.
        paren = header.find("(")
        if paren == -1:
            return ("block", None)
        m = FUNC_NAME_RE.search(header[:paren].rstrip())
        if not m:
            return ("block", None)
        name = re.sub(r"\s+", "", m.group(1))
        if name in NON_CALL_KEYWORDS or name in CONTROL_KEYWORDS:
            return ("block", None)
        close = _matching_paren(header, paren)
        params = header[paren + 1:close] if close != -1 else ""
        return ("function", (name, params))

    # ---- structural scan ---------------------------------------------------

    pending_functions = []    # (scope, qual, cls, params, body_start)

    for i, c in enumerate(text):
        if c == "{":
            header = text[stmt_start:i]
            if in_function():
                scope_stack.append(_Scope("block", None, stmt_start, i + 1))
            else:
                kind, payload = classify_header(header, i)
                if kind == "class":
                    name, bases = payload
                    qual = (class_context() + "::" + name
                            if class_context() else name)
                    out["classes"].setdefault(qual, _new_class())
                    out["classes"][qual]["bases"] = bases
                    scope_stack.append(_Scope("class", name, stmt_start, i + 1))
                elif kind == "function":
                    name, params = payload
                    name = _strip_ns(name)
                    cls = class_context()
                    if "::" in name:
                        # Out-of-class definition: Class::Method.
                        cls_part, _, base = name.rpartition("::")
                        cls = cls_part if not cls else cls + "::" + cls_part
                        qual = cls + "::" + base
                    elif cls:
                        qual = cls + "::" + name
                    else:
                        # Free/static helper: qualify by file so same-named
                        # helpers in different TUs stay distinct.
                        qual = file_tag + "::" + name
                    sc = _Scope("function", qual, stmt_start, i + 1)
                    scope_stack.append(sc)
                    pending_functions.append((sc, qual, cls, params, i + 1))
                elif kind == "block":
                    # Outside any function, a bare '{' is a brace initializer
                    # (`Mutex mu_{kLockRank..., "..."};`, constexpr arrays).
                    # Keep the statement open so the terminating ';' hands the
                    # whole declaration to _class_statement.
                    scope_stack.append(_Scope("init", None, stmt_start, i + 1))
                    continue
                else:
                    scope_stack.append(
                        _Scope(kind, payload if isinstance(payload, str)
                               else None, stmt_start, i + 1))
            stmt_start = i + 1
        elif c == "}":
            if scope_stack:
                sc = scope_stack.pop()
                if sc.kind == "init":
                    continue  # initializer: statement continues to its ';'
                if sc.kind == "function":
                    _emit_function(out, text, original, sc, i,
                                   pending_functions, depth, line_of,
                                   allow_by_line, root_lines)
                elif sc.kind == "enum":
                    for name, value in ENUM_CONST_RE.findall(
                            text[sc.body_start:i]):
                        out["ranks"][name] = int(value)
            stmt_start = i + 1
        elif c == ";":
            if not in_function():
                s = stmt_start
                while s < i and text[s].isspace():
                    s += 1
                _class_statement(out, text[stmt_start:i + 1],
                                 class_context(), line_of[s], line_of[i],
                                 allow_by_line, atomic_lines)
            stmt_start = i + 1

    return out


def _new_class():
    return {"bases": [], "members": {}, "requires": {}}


def _add_requires(out, cls, method, req_args):
    """Records RSTORE_REQUIRES[_SHARED] lock expressions for cls::method."""
    entry = out["classes"].setdefault(cls, _new_class())
    locks = entry["requires"].setdefault(method, [])
    for arg in req_args:
        for lock in _split_top_commas(arg):
            if lock not in locks:
                locks.append(lock)


def _class_statement(out, stmt, cls, first_line, last_line,
                     allow_by_line, atomic_lines):
    """Member declarations at class scope: mutexes, typed members (with
    their GUARDED_BY guard / atomic / const facts), and the REQUIRES map
    of annotated method declarations."""
    if not cls:
        return
    raw = stmt.strip()
    # Access-specifier labels glue onto the following declaration.
    raw = re.sub(r"^(?:\s*(?:public|private|protected)\s*:)+\s*", "", raw)
    if not raw or raw.startswith(("using", "friend", "typedef", "template")):
        return
    guard_m = GUARDED_BY_RE.search(raw)
    guard = guard_m.group(1).strip() if guard_m else ""
    req_args = REQUIRES_RE.findall(raw)
    stmt = GUARD_ATTR_RE.sub(" ", raw).strip()
    if not stmt:
        return
    m = MUTEX_DECL_RE.search(stmt)
    if m and "(" not in stmt[:m.start()]:
        kind, name, rank_const = m.group(1), m.group(2), m.group(3)
        out["mutexes"].append({
            "member": name, "cls": cls, "kind": kind,
            "rank_const": rank_const or "kLockRankLeaf", "line": first_line,
        })
        return
    if "(" in stmt:
        # Method declaration: keep its REQUIRES clause for the must-hold
        # seed, keyed by base name.
        if req_args:
            nm = re.search(r"([A-Za-z_]\w*)\s*$", stmt[:stmt.find("(")])
            if nm and nm.group(1) not in NON_CALL_KEYWORDS:
                _add_requires(out, cls, nm.group(1), req_args)
        return
    dm = re.match(r"((?:mutable\s+|static\s+|constexpr\s+|inline\s+"
                  r"|const\s+)*)"
                  r"(.+?)\s+(\w+)\s*(?:\[[^\]]*\]\s*)*"
                  r"(?:\{[^;]*\})?\s*(?:=[^;]*)?;$", stmt)
    if not dm:
        return
    prefix, type_text, name = dm.group(1), dm.group(2).strip(), dm.group(3)
    decl_lines = range(first_line - 1, last_line + 1)
    allow = sorted({c for ln in decl_lines
                    for c in allow_by_line.get(ln, [])})
    out["classes"].setdefault(cls, _new_class())
    out["classes"][cls]["members"][name] = {
        "type": type_text,
        "guard": guard,
        "atomic": bool(re.search(r"\batomic\b", type_text)),
        "atomic_marker": any(ln in atomic_lines for ln in decl_lines),
        "konst": bool(re.search(r"\b(?:const|constexpr|static)\b", prefix)),
        "is_mutable": bool(re.search(r"\bmutable\b", prefix)),
        "file": out["tu"],
        "line": first_line,
        "allow": allow,
    }


def _callback_params(params_text, aliases):
    """Names of parameters whose type is std::function (or an alias)."""
    names = []
    for param in _split_top_commas(params_text):
        param = param.split("=", 1)[0].strip()
        is_cb = "std::function" in param.replace(" ", "").replace(
            "std ::", "std::") or "function<" in param
        if not is_cb:
            head = param.split("<", 1)[0]
            is_cb = any(re.search(r"\b%s\b" % re.escape(a), head)
                        for a in aliases)
        if not is_cb:
            continue
        pm = re.search(r"(\w+)\s*$", param)
        if pm and pm.group(1) not in ("function",):
            names.append(pm.group(1))
    return names


def _receiver_before(body, pos):
    """The receiver expression for a call at `pos`, e.g. "nodes_[node]" for
    `nodes_[node]->Put(`; empty string for a free call."""
    j = pos - 1
    while j >= 0 and body[j].isspace():
        j -= 1
    if j < 0:
        return ""
    if body[j] == "." :
        end = j - 1
    elif j >= 1 and body[j - 1:j + 1] == "->":
        end = j - 2
    else:
        return ""
    # Walk back over an identifier chain with balanced [...] / (...) groups
    # and '->' / '::' / '.' connectors.
    group_depth = 0
    start = end
    while start >= 0:
        ch = body[start]
        if ch in ")]":
            group_depth += 1
        elif ch in "([":
            if group_depth == 0:
                break
            group_depth -= 1
        elif group_depth == 0 and not (ch.isalnum() or ch in "_."):
            if ch == ">" and start >= 1 and body[start - 1] == "-":
                start -= 1
            elif ch == ":" and start >= 1 and body[start - 1] == ":":
                start -= 1
            else:
                break
        start -= 1
    return body[start + 1:end + 1].strip()


def _base_identifier(expr):
    m = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)", expr)
    return m.group(1) if m else ""


FIELD_TOKEN_RE = re.compile(r"[A-Za-z_]\w*")

LOCAL_DECL_RE = re.compile(
    r"\b(?:const\s+)?([A-Z]\w*(?:::[A-Z]\w*)*)\s*[&*]*\s+(\w+)\s*[=;({]")


def _local_types(params, body):
    """Best-effort map of parameter/local names to their project-class type
    (CamelCase type names only); used to resolve receiver-qualified field
    accesses like `shard.hits` through `Shard& shard = ...`."""
    types = {}
    for param in _split_top_commas(params):
        m = re.match(r"\s*(?:const\s+)?([A-Z]\w*(?:::[A-Z]\w*)*)"
                     r"\s*[&*]*\s+(\w+)\s*$", param.split("=", 1)[0].strip())
        if m and m.group(1) not in RAII_GUARDS:
            types[m.group(2)] = m.group(1)
    for m in LOCAL_DECL_RE.finditer(body):
        if m.group(1) not in RAII_GUARDS and m.group(2) not in types:
            types[m.group(2)] = m.group(1)
    return types


def _scan_field_accesses(body):
    """Field read/write events for one function body.

    A token is a candidate member access when it either carries a receiver
    (`x.y`, `p->y`, `this->y`) or follows the bare trailing-underscore member
    idiom (`stats_`). Calls, qualified names (`Foo::bar`), and keywords are
    skipped. Write detection expands the postfix chain (indexing, member
    hops) and looks for assignment/increment operators or a mutating method
    (`push_back`, `store`, `fetch_add`, ...). Everything else is a read —
    passing a field by non-const reference therefore reads as a read, a
    documented approximation. Resolution to (class, member) happens in the
    analysis stage, which has the merged type tables; unresolvable events
    are dropped there.
    """
    events = []
    n = len(body)
    for m in FIELD_TOKEN_RE.finditer(body):
        tok = m.group(0)
        p, e = m.start(), m.end()
        if tok in NON_CALL_KEYWORDS or tok in CONTROL_KEYWORDS:
            continue
        # Qualified-name halves: `Foo::bar` is a static/enum access.
        q = p - 1
        while q >= 0 and body[q] in " \t\n":
            q -= 1
        if q >= 1 and body[q] == ":" and body[q - 1] == ":":
            continue
        j = e
        while j < n and body[j] in " \t\n":
            j += 1
        if body[j:j + 2] == "::":
            continue
        if j < n and body[j] == "(":
            continue  # call expression (the CALL_RE pass owns it)
        recv = _receiver_before(body, p)
        if recv and not re.match(r"[A-Za-z_(*&]", recv):
            continue  # numeric literal artefact like `1.f`
        if not recv and not tok.endswith("_"):
            continue  # bare locals: members use the trailing underscore
        write = classify_postfix_write(body, e)
        if not write and not recv:
            # Prefix increment on a bare member: `++count_`.
            if q >= 1 and body[q - 1:q + 1] in ("++", "--"):
                write = True
        events.append({"kind": "field", "member": tok, "recv": recv,
                       "cls": "", "write": write, "pos": p})
    return events


def classify_postfix_write(body, start):
    """True when the postfix chain starting at `start` (the offset just past
    a member token or member-ref extent) ends in a mutating operation:
    an assignment/compound-assignment, ++/--, or a mutating method call.
    Expands balanced `[...]` indexing and `.x`/`->x` member hops first."""
    n = len(body)
    write = False
    k = start
    while k < n:
        while k < n and body[k] in " \t\n":
            k += 1
        if k < n and body[k] == "[":
            close = _matching_bracket(body, k)
            if close == -1:
                break
            k = close + 1
            continue
        conn = 0
        if k < n and body[k] == ".":
            conn = 1
        elif body[k:k + 2] == "->":
            conn = 2
        if not conn:
            break
        k2 = k + conn
        while k2 < n and body[k2] in " \t\n":
            k2 += 1
        nm = FIELD_TOKEN_RE.match(body, k2)
        if not nm:
            break
        k3 = nm.end()
        while k3 < n and body[k3] in " \t\n":
            k3 += 1
        if k3 < n and body[k3] == "(":
            if nm.group(0) in MUTATING_METHODS:
                write = True
            return write  # a method call ends the postfix chain
        k = nm.end()
    while k < n and body[k] in " \t\n":
        k += 1
    two = body[k:k + 2]
    if two in ("++", "--"):
        write = True
    elif body[k:k + 1] == "=" and body[k + 1:k + 2] != "=":
        write = True
    elif len(two) == 2 and two[1] == "=" and two[0] in "+-*/%&|^":
        write = True
    elif body[k:k + 3] in ("<<=", ">>="):
        write = True
    return write


def _emit_function(out, text, original, scope, close_pos, pending,
                   depth, line_of, allow_by_line, root_lines):
    """Builds the function record (with body events) for a just-closed
    function scope."""
    rec = None
    for entry in reversed(pending):
        if entry[0] is scope:
            rec = entry
            break
    if rec is None:
        return
    pending.remove(rec)
    _, qual, cls, params, body_start = rec
    body = text[body_start:close_pos]
    base_depth = depth[body_start - 1]  # depth inside the body
    header_line = line_of[scope.header_start]
    body_first_line = line_of[body_start - 1]

    # RSTORE_REQUIRES on an out-of-class definition header counts toward
    # the class's requires map, same as the in-class declaration.
    if cls:
        header_req = REQUIRES_RE.findall(
            text[scope.header_start:body_start - 1])
        if header_req:
            _add_requires(out, cls, qual.rpartition("::")[2], header_req)

    func = {
        "qual": qual,
        "cls": cls,
        "file": out["tu"],
        "line": header_line,
        # // analyze:root goes on the line above the signature, on the
        # signature line itself, or on the body's first line.
        "root": any(header_line - 1 <= ln <= body_first_line + 1
                    for ln in root_lines),
        "callback_params": _callback_params(params, out["aliases"]),
        "local_mutexes": {},
        "local_types": _local_types(params, body),
        "events": [],
    }

    def ev_line(off):
        return line_of[body_start + off]

    def ev_depth(off):
        return depth[body_start + off]

    def allow_at(off):
        return allow_by_line.get(ev_line(off), [])

    # Local mutex declarations (e.g. ParallelFor's error_mu).
    for m in MUTEX_DECL_RE.finditer(body):
        func["local_mutexes"][m.group(2)] = m.group(3) or "kLockRankLeaf"

    # -- acquisitions: RAII guards, with their release offsets -------------
    acquires = []  # (start_off, release_off, lock_expr, how)
    for m in RAII_ACQUIRE_RE.finditer(body):
        d = ev_depth(m.start())
        release = len(body)
        for j in range(m.end(), len(body)):
            if depth[body_start + j] < d:
                release = j
                break
        acquires.append((m.start(), release, m.group(2).strip(), m.group(1)))

    # Manual mu.Lock()/mu.LockShared() ... mu.Unlock() pairs (rare).
    for m in re.finditer(r"([\w.\[\]>-]+)\s*[.>-]\s*(Lock|LockShared)\s*\(\s*\)",
                         body):
        recv = m.group(1).rstrip(".->")
        release = len(body)
        um = re.search(re.escape(recv) + r"\s*[.>-]+\s*Unlock(?:Shared)?\s*\(",
                       body[m.end():])
        if um:
            release = m.end() + um.start()
        acquires.append((m.start(), release, recv, m.group(2)))

    acquires.sort()

    def held_at(off):
        return [expr for (a, r, expr, _how) in acquires if a < off < r]

    for (a, _r, expr, how) in acquires:
        func["events"].append({
            "kind": "acquire", "lock": expr, "how": how,
            "line": ev_line(a), "held": held_at(a), "allow": allow_at(a),
        })

    # -- calls, callback invocations, condvar waits ------------------------
    for m in CALL_RE.finditer(body):
        quals = re.sub(r"\s+", "", m.group(1) or "")
        callee = m.group(2)
        pos = m.start(1) if m.group(1) else m.start(2)
        if callee in NON_CALL_KEYWORDS or callee in CONTROL_KEYWORDS:
            continue
        if callee in RAII_GUARDS or callee in ("Lock", "LockShared",
                                               "Unlock", "UnlockShared"):
            continue  # handled as acquisitions above
        recv = _receiver_before(body, pos)

        # Declaration heuristic: `Type name(args)` — emit the TYPE as a
        # constructor call instead of the variable name.
        is_decl_ctor = False
        j = pos - 1
        while j >= 0 and body[j].isspace():
            j -= 1
        if j >= 0 and (body[j].isalnum() or body[j] == "_") and not recv:
            pm = re.search(r"([A-Za-z_]\w*)\s*$", body[:j + 1])
            prev_tok = pm.group(1) if pm else ""
            if prev_tok and prev_tok not in PRE_CALL_KEYWORDS:
                if prev_tok in NON_CALL_KEYWORDS:
                    continue
                # Declaration: the call-like token is the variable name; the
                # preceding type may be a project class whose constructor
                # runs here. RAII guards were already emitted as acquires.
                if prev_tok in RAII_GUARDS:
                    continue
                if prev_tok[0].isupper():
                    callee, quals, is_decl_ctor = prev_tok, "", True
                else:
                    continue

        if quals.startswith("std::") or quals.startswith("::"):
            continue

        args_open = m.end() - 1
        args_close = _matching_paren(body, args_open)
        args = body[args_open + 1:args_close] if args_close != -1 else ""

        if callee == "Wait" and recv:
            arg_list = _split_top_commas(args)
            func["events"].append({
                "kind": "condvar_wait", "cv": recv,
                "mutex": arg_list[0] if arg_list else "",
                "line": ev_line(pos), "held": held_at(pos),
                "allow": allow_at(pos),
            })
            continue

        if not recv and callee in func["callback_params"]:
            func["events"].append({
                "kind": "callback", "callee": callee,
                "line": ev_line(pos), "held": held_at(pos),
                "allow": allow_at(pos),
            })
            continue

        # Drop receiver-qualified lower-case calls with unknown receivers at
        # resolution time, not here; the analysis stage has the type tables.
        func["events"].append({
            "kind": "call", "callee": callee, "quals": quals, "recv": recv,
            "is_decl_ctor": is_decl_ctor,
            "line": ev_line(pos), "held": held_at(pos),
            "allow": allow_at(pos),
        })

    # -- member-field accesses ---------------------------------------------
    for ev in _scan_field_accesses(body):
        pos = ev.pop("pos")
        ev.update({"line": ev_line(pos), "held": held_at(pos),
                   "allow": allow_at(pos)})
        func["events"].append(ev)

    # -- wall clock / randomness -------------------------------------------
    for m in WALL_CLOCK_RE.finditer(body):
        pos = m.start()
        func["events"].append({
            "kind": "wall_clock", "what": m.group(0).strip().rstrip("("),
            "line": ev_line(pos), "held": held_at(pos),
            "allow": allow_at(pos),
        })
    for m in RANDOM_RE.finditer(body):
        pos = m.start()
        func["events"].append({
            "kind": "random", "what": m.group(0).strip().rstrip("("),
            "line": ev_line(pos), "held": held_at(pos),
            "allow": allow_at(pos),
        })

    func["events"].sort(key=lambda e: e["line"])
    out["functions"].append(func)
