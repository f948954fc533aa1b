"""Merged whole-program model built from per-TU facts.

Takes the facts dicts of every scanned TU (from any frontend) and builds:

  * a function index with resolved call edges (including virtual dispatch
    over the KVStore hierarchy and receiver-typed member calls),
  * resolved lock acquisitions (lock expression -> declared mutex + rank),
  * the bottom-up *may-acquire* fixpoint (which ranks can a call into f end
    up taking, with a witness edge per rank for chain reconstruction),
  * the *blocking* closure (can a call into f reach a user callback, a
    KVStore backend data call, or a CondVar wait), likewise with witnesses.

Resolution policy (the portable frontend emits names, not symbols):

  1. an explicitly qualified call (Class::Fn) resolves by qualified name;
  2. an unqualified call resolves to the caller's own class hierarchy first
     (self-calls, including overrides up and down the hierarchy);
  3. a receiver-qualified call resolves through the receiver's declared
     member type when the extractor captured it (e.g. `nodes_[i]->Put` via
     `std::vector<std::unique_ptr<MemoryStore>> nodes_`), widened to
     subclasses for virtual dispatch;
  4. otherwise a CamelCase callee resolves to every project function with
     that base name (a may-analysis: over-approximate rather than miss), a
     same-file static helper being preferred;
  5. lower_snake calls with an unresolvable receiver are dropped — they are
     std:: container noise (find/size/push_back/...), and linking them to
     project functions by accident would flood every check.

The laundry list of what this misses (function pointers stored in members,
callbacks stashed and invoked later, locks passed by reference) is in
DESIGN.md "Static analysis"; the fixture corpus pins what it must catch.
"""

import os
import re

# Data-plane KVStore interface: calling any of these is "a backend call"
# for the blocking-under-lock check (see kvstore/kv_store.h).
BACKEND_METHODS = frozenset([
    "CreateTable", "Put", "Get", "MultiGet", "MultiGetPartial", "Delete",
    "Scan", "TableSize",
])

BACKEND_ROOT_CLASS = "KVStore"

# Files whose functions are modelled as intrinsics rather than analyzed:
# the sync primitives themselves (their internals use the raw std:: types
# the rest of the codebase is forbidden to touch).
INTRINSIC_FILES = ("src/common/sync.h", "src/common/sync.cc")


class Function:
    __slots__ = ("qual", "cls", "file", "line", "root", "callback_params",
                 "local_mutexes", "local_types", "events", "extractor",
                 "callees", "acquires", "may_acquire", "blocking",
                 "field_accesses", "requires_quals", "must_hold")

    def __init__(self, rec, extractor):
        self.qual = rec["qual"]
        self.cls = rec.get("cls", "")
        self.file = rec["file"]
        self.line = rec["line"]
        self.root = rec.get("root", False)
        self.callback_params = rec.get("callback_params", [])
        self.local_mutexes = rec.get("local_mutexes", {})
        self.local_types = rec.get("local_types", {})
        self.events = rec.get("events", [])
        self.extractor = extractor
        self.callees = []       # (event, [Function]) resolved call edges
        self.acquires = []      # (event, LockRef) resolved acquisitions
        self.may_acquire = {}   # rank -> (LockRef, witness)
        self.blocking = None    # (kind, witness) or None
        self.field_accesses = []  # (event, cls, member_record)
        self.requires_quals = frozenset()  # resolved RSTORE_REQUIRES locks
        self.must_hold = frozenset()  # lock quals held on EVERY entry path

    def __repr__(self):
        return "<fn %s>" % self.qual


class LockRef:
    """A resolved mutex: declaration site + rank."""
    __slots__ = ("qual", "rank_const", "rank", "kind", "file", "line")

    def __init__(self, qual, rank_const, rank, kind, file, line):
        self.qual = qual
        self.rank_const = rank_const
        self.rank = rank
        self.kind = kind
        self.file = file
        self.line = line

    def __repr__(self):
        return "%s (%s=%d)" % (self.qual, self.rank_const, self.rank)


class Program:
    def __init__(self):
        self.ranks = {}
        self.aliases = set()
        self.classes = {}          # qual -> {bases, members, requires}
        self.mutex_decls = []      # LockRef list (member name in qual)
        self.functions = []        # Function list
        self.by_qual = {}          # qual -> [Function] (overloads share)
        self.by_base = {}          # base name -> [Function]
        self.tracked = set()       # classes owning a mutex or an atomic
        self.field_index = {}      # (cls, member) -> [(Function, event)]
        self.in_edges = {}         # Function -> [(caller, event, held set)]
        self.warnings = []

    # -- construction ------------------------------------------------------

    def add_tu(self, tu_facts):
        extractor = tu_facts.get("extractor", "?")
        self.ranks.update(tu_facts.get("ranks", {}))
        self.aliases.update(tu_facts.get("aliases", []))
        for cls, info in tu_facts.get("classes", {}).items():
            entry = self.classes.setdefault(
                cls, {"bases": [], "members": {}, "requires": {}})
            for b in info.get("bases", []):
                if b not in entry["bases"]:
                    entry["bases"].append(b)
            entry["members"].update(info.get("members", {}))
            for method, locks in info.get("requires", {}).items():
                have = entry["requires"].setdefault(method, [])
                for lock in locks:
                    if lock not in have:
                        have.append(lock)
        for m in tu_facts.get("mutexes", []):
            qual = "%s::%s" % (m["cls"], m["member"])
            if any(d.qual == qual for d in self.mutex_decls):
                continue
            self.mutex_decls.append(LockRef(
                qual, m["rank_const"], -1, m.get("kind", "Mutex"),
                tu_facts["tu"], m.get("line", 0)))
        for rec in tu_facts.get("functions", []):
            if rec["file"] in INTRINSIC_FILES:
                continue
            self.functions.append(Function(rec, extractor))

    def link(self):
        """Resolves ranks, call edges, and acquisitions; runs the fixpoints."""
        for d in self.mutex_decls:
            d.rank = self.ranks.get(d.rank_const, -1)
            if d.rank < 0:
                self.warnings.append(
                    "unknown rank constant %s for %s" % (d.rank_const, d.qual))
        # Header TUs are scanned standalone AND their inline functions can be
        # re-extracted identically; dedupe by (qual, file, line).
        seen = set()
        unique = []
        for f in self.functions:
            key = (f.qual, f.file, f.line)
            if key in seen:
                continue
            seen.add(key)
            unique.append(f)
        self.functions = unique
        for f in self.functions:
            self.by_qual.setdefault(f.qual, []).append(f)
            base = f.qual.rsplit("::", 1)[-1]
            self.by_base.setdefault(base, []).append(f)
        self._subclasses = self._build_subclasses()
        self._compute_tracked()
        for f in self.functions:
            self._resolve_function(f)
        self._fix_may_acquire()
        self._fix_blocking()
        self._resolve_fields()
        self._fix_must_hold()

    def _compute_tracked(self):
        """Classes owning shared state: a declared Mutex/SharedMutex or an
        atomic member. Field-level checks only look at these."""
        for d in self.mutex_decls:
            self.tracked.add(d.qual.rsplit("::", 1)[0])
        for cls, info in self.classes.items():
            for rec in info["members"].values():
                if isinstance(rec, dict) and rec.get("atomic"):
                    self.tracked.add(cls)
                    break

    # -- class hierarchy ---------------------------------------------------

    def _build_subclasses(self):
        subs = {}
        for cls, info in self.classes.items():
            for base in info["bases"]:
                subs.setdefault(base, set()).add(cls)
        # Transitive closure.
        changed = True
        while changed:
            changed = False
            for base, ds in subs.items():
                for d in list(ds):
                    for dd in subs.get(d, ()):
                        if dd not in ds:
                            ds.add(dd)
                            changed = True
        return subs

    def hierarchy_of(self, cls):
        """cls plus its ancestors and descendants (virtual dispatch set)."""
        out = {cls}
        # Ancestors.
        frontier = [cls]
        while frontier:
            c = frontier.pop()
            for b in self.classes.get(c, {}).get("bases", []):
                if b not in out:
                    out.add(b)
                    frontier.append(b)
        out |= self._subclasses.get(cls, set())
        return out

    def is_backend_class(self, cls):
        if not cls:
            return False
        return (cls == BACKEND_ROOT_CLASS
                or cls in self._subclasses.get(BACKEND_ROOT_CLASS, ()))

    # -- lock resolution ---------------------------------------------------

    def resolve_lock(self, func, expr):
        """LockRef for a lock expression inside `func`, or None."""
        base = _base_identifier(expr)
        if not base:
            return None
        if base in func.local_mutexes:
            rank_const = func.local_mutexes[base]
            return LockRef("%s::%s" % (func.qual, base), rank_const,
                           self.ranks.get(rank_const, -1), "Mutex",
                           func.file, func.line)
        # Last path component is the member name ("shard.mu" -> "mu").
        member = re.split(r"\.|->", expr)[-1].strip()
        member = _base_identifier(member) or base
        candidates = [d for d in self.mutex_decls
                      if d.qual.rsplit("::", 1)[-1] == member]
        if not candidates:
            return None
        if len(candidates) > 1 and func.cls:
            own = [d for d in candidates
                   if d.qual.rsplit("::", 1)[0] in self.hierarchy_of(func.cls)
                   or d.qual.startswith(func.cls + "::")]
            if own:
                candidates = own
        if len(candidates) > 1:
            self.warnings.append(
                "%s: ambiguous lock '%s' (candidates: %s); using %s"
                % (func.qual, expr, ", ".join(d.qual for d in candidates),
                   candidates[0].qual))
        return candidates[0]

    # -- call resolution ---------------------------------------------------

    def _methods_named(self, classes, name):
        out = []
        for f in self.by_base.get(name, ()):
            if f.cls and f.cls in classes:
                out.append(f)
        return out

    def _classes_named(self, name):
        """Class table keys matching a (possibly unqualified) class name:
        `Shard` finds `ChunkCache::Shard` as well as a top-level `Shard`."""
        if name in self.classes:
            return {name}
        suffix = "::" + name
        return {c for c in self.classes if c.endswith(suffix)}

    def _type_classes(self, type_text):
        """Project classes mentioned in a declared type string."""
        found = set()
        for name in re.findall(r"[A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*",
                                type_text):
            found |= self._classes_named(re.sub(r"\s+", "", name))
        return found

    def _member_type_classes(self, cls, member):
        """Project classes mentioned in the declared type of cls::member,
        searched through the class hierarchy of `cls`."""
        for c in self.hierarchy_of(cls) if cls else ():
            members = self.classes.get(c, {}).get("members", {})
            if member in members:
                rec = members[member]
                type_text = rec["type"] if isinstance(rec, dict) else rec
                return self._type_classes(type_text)
        return set()

    def _resolve_call(self, func, event):
        callee = event["callee"]
        quals = event.get("quals", "")
        recv = event.get("recv", "")

        if quals:
            qual = quals.rstrip(":") + "::" + callee
            qual = qual.replace("rstore::", "")
            if qual in self.by_qual:
                return self.by_qual[qual]
            # Class-qualified call where the class has subclasses.
            cls = qual.rsplit("::", 1)[0]
            targets = self._methods_named(self.hierarchy_of(cls), callee)
            return targets

        if not recv:
            if func.cls:
                own = self._methods_named(self.hierarchy_of(func.cls), callee)
                if own:
                    return own
            # Free function: same-file static helper wins.
            file_qual = os.path.basename(func.file) + "::" + callee
            if file_qual in self.by_qual:
                return self.by_qual[file_qual]
            return self._global_by_name(func, callee)

        # Receiver-typed member call.
        recv_base = _base_identifier(recv)
        classes = set()
        if recv_base:
            classes = self._member_type_classes(func.cls, recv_base)
            if not classes and recv_base in self.classes:
                classes = {recv_base}  # static-ish or value of known class
        if classes:
            dispatch = set()
            for c in classes:
                dispatch |= self.hierarchy_of(c)
            targets = self._methods_named(dispatch, callee)
            if targets:
                return targets
            # Known-backend receiver calling a pure-virtual data method that
            # has no body anywhere (defensive; today all have overrides).
            return []
        # Unknown receiver: CamelCase may-resolution, snake_case drop. The
        # caller itself is excluded — `x->ResetForTest()` inside
        # Foo::ResetForTest is some other object's method, and keeping the
        # self-edge manufactures a recursive re-acquisition finding.
        if callee[0].isupper():
            return [g for g in self._global_by_name(func, callee)
                    if g is not func]
        return []

    def _global_by_name(self, func, callee):
        if not callee[0].isupper():
            # Unreceivered snake_case free call: tolerate unique project
            # matches (helpers like ev_line); drop ambiguous ones.
            matches = self.by_base.get(callee, [])
            return matches if len(matches) == 1 else []
        return list(self.by_base.get(callee, []))

    def _resolve_function(self, func):
        for event in func.events:
            kind = event["kind"]
            if kind == "acquire":
                ref = self.resolve_lock(func, event["lock"])
                if ref is None:
                    self.warnings.append(
                        "%s:%d: unresolved lock '%s' in %s"
                        % (func.file, event["line"], event["lock"], func.qual))
                else:
                    func.acquires.append((event, ref))
            elif kind == "call":
                targets = self._resolve_call(func, event)
                if targets:
                    func.callees.append((event, targets))

    def resolve_held(self, func, event):
        """LockRefs for the lock expressions held at `event`."""
        out = []
        for expr in event.get("held", []):
            ref = self.resolve_lock(func, expr)
            if ref is not None:
                out.append((expr, ref))
        return out

    def held_quals(self, func, event):
        """Resolved lock quals held locally at `event`."""
        return frozenset(ref.qual for _e, ref in self.resolve_held(func,
                                                                   event))

    # -- field resolution --------------------------------------------------

    SYNC_MEMBER_TYPES_RE = re.compile(r"\b(Mutex|SharedMutex|CondVar)\b")

    def _find_member(self, cls, member):
        """(owner class, member record) for `member` looked up through the
        hierarchy of `cls`, or None. Skips pre-v2 plain-string records."""
        for c in self.hierarchy_of(cls) if cls else ():
            rec = self.classes.get(c, {}).get("members", {}).get(member)
            if isinstance(rec, dict):
                return (c, rec)
        return None

    def resolve_field(self, func, event):
        """(owner class, member record) for a field event, or None.

        Bare and `this->` accesses resolve only inside the enclosing class
        hierarchy. Receiver accesses resolve through the receiver's declared
        type (a member of the enclosing class, a class-typed local/param, or
        the class name itself), falling back to a program-wide unique owner.
        Accesses that resolve to an untracked class, to a sync primitive
        member, or not at all are dropped."""
        member = event["member"]
        recv = event.get("recv", "")
        if recv in ("", "this"):
            hit = self._find_member(func.cls, member)
        else:
            recv_base = _base_identifier(recv)
            classes = set()
            if recv_base in func.local_types:
                classes = self._type_classes(func.local_types[recv_base])
            if not classes:
                classes = self._member_type_classes(func.cls, recv_base)
            if not classes:
                classes |= self._classes_named(recv_base)
            hit = None
            for c in classes:
                hit = self._find_member(c, member)
                if hit:
                    break
            if hit is None:
                # Program-wide unique owner (tracked or not: an ambiguous
                # name must drop, or copies of stat structs would
                # masquerade as the guarded originals).
                owners = [c for c, info in self.classes.items()
                          if isinstance(info["members"].get(member), dict)]
                if len(owners) == 1:
                    hit = self._find_member(owners[0], member)
        if hit is None:
            return None
        owner, rec = hit
        if owner not in self.tracked:
            return None
        if self.SYNC_MEMBER_TYPES_RE.search(rec["type"]):
            return None
        return (owner, rec)

    def _resolve_fields(self):
        for f in self.functions:
            for event in f.events:
                if event["kind"] != "field":
                    continue
                hit = self.resolve_field(f, event)
                if hit is None:
                    continue
                owner, rec = hit
                f.field_accesses.append((event, owner, rec))
                self.field_index.setdefault((owner, event["member"]),
                                            []).append((f, event))

    # -- must-hold fixpoint ------------------------------------------------

    def _requires_quals(self, f):
        """Resolved lock quals from RSTORE_REQUIRES on f's declaration."""
        if not f.cls:
            return frozenset()
        base = f.qual.rsplit("::", 1)[-1]
        exprs = self.classes.get(f.cls, {}).get("requires", {}).get(base, [])
        out = set()
        for expr in exprs:
            ref = self.resolve_lock(f, expr)
            if ref is not None:
                out.add(ref.qual)
        return frozenset(out)

    def _fix_must_hold(self):
        """Greatest fixpoint: must_hold(f) = REQUIRES(f) ∪ the intersection
        over every call site of (must_hold(caller) ∪ locks held at the
        site). Functions with no in-edges are entry points and contribute
        only their REQUIRES clause. None stands for ⊤ (unreached cycles),
        which resolves to "everything" and is vacuously safe.

        This is the dual of may-acquire: may says "some path takes this
        lock", must says "every path into this function already holds it".
        The guarded-field check needs must — a guard held on just one of
        two entry paths is exactly the race."""
        for f in self.functions:
            f.requires_quals = self._requires_quals(f)
        self.in_edges = {}
        for f in self.functions:
            for event, targets in f.callees:
                held = self.held_quals(f, event)
                for g in targets:
                    self.in_edges.setdefault(g, []).append((f, event, held))
        state = {}
        for f in self.functions:
            state[f] = None if f in self.in_edges else f.requires_quals
        changed = True
        while changed:
            changed = False
            for f in self.functions:
                edges = self.in_edges.get(f)
                if not edges:
                    continue
                inter = None
                for (c, _e, held) in edges:
                    xc = state[c]
                    if xc is None:
                        continue  # ⊤ caller: identity for the intersection
                    s = xc | held
                    inter = s if inter is None else (inter & s)
                new = None if inter is None else (f.requires_quals | inter)
                if new != state[f]:
                    state[f] = new
                    changed = True
        universe = frozenset(d.qual for d in self.mutex_decls)
        for f in self.functions:
            f.must_hold = universe if state[f] is None else state[f]

    def unguarded_path(self, func, guard_qual):
        """Call chain (root -> ... -> func) along which `guard_qual` is
        never acquired, explaining why it is not must-held at func."""
        frames = []
        f = func
        visited = {f}
        guard = 0
        while guard < 64:
            guard += 1
            edges = self.in_edges.get(f, [])
            step = None
            for (c, event, held) in edges:
                if c in visited or guard_qual in held:
                    continue
                if guard_qual in c.must_hold:
                    continue
                step = (c, event)
                break
            if step is None:
                break
            c, event = step
            frames.append(_frame(c, event["line"], "calls %s" % f.qual))
            visited.add(c)
            f = c
        frames.reverse()
        return frames

    # -- fixpoints ---------------------------------------------------------

    def _fix_may_acquire(self):
        """may_acquire[rank] = (LockRef, witness). witness is None for a
        direct acquisition or (call_event, callee Function) for a call that
        reaches one — enough to rebuild a full chain."""
        for f in self.functions:
            for event, ref in f.acquires:
                f.may_acquire.setdefault(ref.rank, (ref, None))
        changed = True
        while changed:
            changed = False
            for f in self.functions:
                for event, targets in f.callees:
                    for g in targets:
                        for rank, (ref, _w) in g.may_acquire.items():
                            if rank not in f.may_acquire:
                                f.may_acquire[rank] = (ref, (event, g))
                                changed = True

    def _fix_blocking(self):
        """blocking = (kind, witness): the function may run user callbacks,
        issue KVStore backend calls, or wait on a condvar — directly or via
        a callee. kind in {callback, backend, condvar, call}; witness is the
        event (and callee, for propagated edges)."""
        for f in self.functions:
            base = f.qual.rsplit("::", 1)[-1]
            if (f.cls and self.is_backend_class(f.cls)
                    and base in BACKEND_METHODS):
                f.blocking = ("backend", None)
                continue
            for event in f.events:
                # A leaf-level allow blesses the operation for callers too
                # (see checks.py suppression policy).
                if "blocking-under-lock" in event.get("allow", ()):
                    continue
                if event["kind"] == "callback":
                    f.blocking = ("callback", (event, None))
                    break
                if event["kind"] == "condvar_wait":
                    f.blocking = ("condvar", (event, None))
                    break
        changed = True
        while changed:
            changed = False
            for f in self.functions:
                if f.blocking:
                    continue
                for event, targets in f.callees:
                    for g in targets:
                        if g.blocking:
                            f.blocking = ("call", (event, g))
                            changed = True
                            break
                    if f.blocking:
                        break

    # -- chain reconstruction ----------------------------------------------

    def acquire_chain(self, start_func, rank):
        """Frames from start_func down to the direct acquisition of `rank`."""
        frames = []
        f = start_func
        guard = 0
        while f is not None and guard < 64:
            guard += 1
            entry = f.may_acquire.get(rank)
            if entry is None:
                break
            ref, witness = entry
            if witness is None:
                for event, aref in f.acquires:
                    if aref.rank == rank:
                        frames.append(_frame(f, event["line"],
                                             "acquires %s" % aref))
                        break
                else:
                    frames.append(_frame(f, f.line, "acquires %s" % ref))
                return frames
            event, g = witness
            frames.append(_frame(f, event["line"],
                                 "calls %s" % g.qual))
            f = g
        return frames

    def blocking_chain(self, start_func):
        """Frames from start_func down to the blocking leaf."""
        frames = []
        f = start_func
        guard = 0
        while f is not None and guard < 64:
            guard += 1
            if f.blocking is None:
                break
            kind, witness = f.blocking
            if kind == "backend":
                frames.append(_frame(f, f.line,
                                     "KVStore backend method"))
                return frames
            event, g = witness
            if kind == "callback":
                frames.append(_frame(f, event["line"],
                                     "invokes user callback '%s'"
                                     % event["callee"]))
                return frames
            if kind == "condvar":
                frames.append(_frame(f, event["line"],
                                     "CondVar::Wait(%s)" % event["mutex"]))
                return frames
            frames.append(_frame(f, event["line"], "calls %s" % g.qual))
            f = g
        return frames


def _frame(func, line, note):
    return {"file": func.file, "line": line, "function": func.qual,
            "note": note}


def _base_identifier(expr):
    m = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)", expr)
    return m.group(1) if m else ""
