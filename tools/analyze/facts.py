"""Fact schema shared by the tools/analyze frontend and the analysis stage.

The frontend (extract.py's portable parser) turns one translation unit into
a *facts* dict; the analysis stage (callgraph.py + checks.py) consumes only
facts and never looks at C++ again. Keeping this boundary strict is what
makes the facts cacheable per source hash.

Facts dict layout (schema SCHEMA_VERSION):

  {
    "schema": int,
    "tu": "src/kvstore/cluster.cc",        # repo-relative path
    "extractor": "python",
    "ranks": {"kLockRankCluster": 400, ...},     # enum LockRank constants
    "aliases": ["ChunkResolver", ...],           # using X = std::function<..>
    "classes": {
       "Cluster": {
          "bases": ["KVStore"],
          "members": {
             # One entry per data member. `guard` is the RSTORE_GUARDED_BY
             # expression ("" when unannotated), `atomic` marks
             # std::atomic-typed members (including containers of atomics),
             # `atomic_marker` an `// analyze:atomic` comment documenting a
             # lock-free protocol, `konst` const/constexpr/static members,
             # and `is_mutable` the `mutable` keyword. `file`/`line` pin the
             # declaration for findings; `allow` lists suppressed checks.
             "stats_": {"type": "KVStats", "guard": "mu_", "atomic": false,
                        "atomic_marker": false, "konst": false,
                        "is_mutable": false, "file": "src/...h",
                        "line": 189, "allow": []},
          },
          # Lock expressions from RSTORE_REQUIRES[_SHARED] on method
          # declarations at class scope, keyed by method base name. The
          # must-hold fixpoint seeds from these.
          "requires": {"AppendRecord": ["mu_"]},
       },
    },
    "mutexes": [ {"member": "mu_", "cls": "Cluster",
                   "rank_const": "kLockRankCluster", "kind": "Mutex",
                   "line": 188} ],
    "functions": [ {
       "qual": "Cluster::ProcessGroup",         # namespaces stripped;
                                                 # file-static helpers are
                                                 # qualified as "<file>::name"
       "cls": "Cluster" | "",
       "file": "src/kvstore/cluster.cc", "line": 123,
       "root": false,                            # // analyze:root marker
       "callback_params": ["fn"],                # std::function-typed params
       "local_mutexes": {"error_mu": "kLockRankParallelError"},
       "local_types": {"shard": "Shard"},        # class-typed params/locals
                                                 # (receiver resolution)
       "events": [ ... ]                         # ordered body events
    } ],
  }

Event kinds (every event has "line", "held" — the list of lock-expression
strings locally held at that point — and "allow", the list of check names a
`// analyze:allow-<check>` comment on that line suppresses):

  acquire       {"lock": "mu_", "how": "MutexLock"|"ReaderLock"|"WriterLock"
                                 |"Lock"|"LockShared"}
  call          {"callee": "Put", "quals": "std::"-style explicit prefix,
                 "recv": "nodes_[node]" or "", "is_decl_ctor": bool}
  callback      {"callee": "fn"}              # invokes a callback parameter
  condvar_wait  {"cv": "cv_", "mutex": "mu_"}
  wall_clock    {"what": "steady_clock::now"}
  random        {"what": "std::random_device"}
  field         {"member": "stats_",          # last path component
                 "recv": "shard" | "this" | "",  # receiver expression
                 "cls": "",                   # owner resolves at analysis time
                 "write": bool}               # mutation (assign/inc/mutating
                                              # container or atomic method)
"""

import hashlib
import json

# v2: member facts became per-field records (guard/atomic/const/...), class
# entries grew a "requires" map, and function bodies emit "field" events.
# Bumping this reshapes every facts-cache key, so stale v1 caches can never
# mask (or manufacture) field-level findings.
SCHEMA_VERSION = 2


def finding_fingerprint(check, parts):
    """Stable identity of a finding for the baseline file.

    Deliberately excludes line numbers so unrelated edits do not churn the
    baseline; includes function/lock identities so a finding moving to a
    different code path reads as new.
    """
    payload = json.dumps([check] + [str(p) for p in parts], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def facts_cache_key(source_bytes, extractor_name, extractor_version):
    """Cache key for one TU's facts: source content + extractor identity."""
    h = hashlib.sha256()
    h.update(b"schema:%d;" % SCHEMA_VERSION)
    h.update(extractor_name.encode("utf-8"))
    h.update(b";v%d;" % extractor_version)
    h.update(source_bytes)
    return h.hexdigest()[:24]
