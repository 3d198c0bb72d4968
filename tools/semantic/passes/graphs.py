"""Whole-program graph rules: the quoted-include graph and lock order.

  layer-inversion   The quoted-include graph must respect the module DAG
                    declared in layers.toml [layers] (a file in module M
                    may include only from M and its declared deps; "*"
                    means any).  Skipped when no [layers] table exists.
  include-cycle     The quoted-include graph must be acyclic.
  lock-order-cycle  The lock-order graph — "guard B constructed while
                    guard A is live", stitched across functions through
                    the call graph — must be acyclic, else two threads
                    taking the locks in opposite orders can deadlock.
                    Callees resolve by simple name (an over-
                    approximation); [hot_paths] stop names are not
                    followed.  Lock identity is `<file stem>:<guard
                    argument>`, so the .h/.cc halves of one class share
                    a node while same-named members of unrelated classes
                    stay distinct.
"""

import os
import re

from . import add
from .. import ast_lite
from ..model import module_of
from .lint import includes as all_includes

GUARD_TYPES = frozenset({"MutexLock", "SpinlockGuard", "lock_guard",
                         "unique_lock", "scoped_lock"})
LOCK_NAME = re.compile(r"[A-Za-z_]\w*(?:(?:\.|->|::)[A-Za-z_]\w*)*")


def run(model, config, findings):
    includes = {rel: [(target, line) for _kind, _t, target, line
                      in all_includes(model.root, fm) if target]
                for rel, fm in model.files.items()}
    _check_layers(model, config.get("layers"), includes, findings)
    graph = {rel: [t for t, _ in edges if t in includes]
             for rel, edges in includes.items()}
    for scc in _cycles(graph):
        head = scc[0]
        line = next(ln for t, ln in includes[head] if t in scc)
        add(findings, model.files[head], line, "include-cycle",
            "include cycle: " + " -> ".join(scc + [head]))
    _check_lock_order(model, config.get("hot_paths", {}), findings)


def _check_layers(model, layers, includes, findings):
    if not layers:
        return
    for rel, edges in sorted(includes.items()):
        fm = model.files[rel]
        allowed = layers.get(fm.module)
        for target, line in edges:
            tmod = module_of(target)
            if tmod == fm.module:
                continue
            if allowed is None:
                add(findings, fm, line, "layer-inversion",
                    f"module '{fm.module}' is not declared in "
                    f"tools/layers.toml [layers]")
                break
            if "*" not in allowed and tmod not in allowed:
                add(findings, fm, line, "layer-inversion",
                    f"module '{fm.module}' may not include from '{tmod}' "
                    f"(declared deps: {sorted(allowed) or 'none'}; see "
                    f"tools/layers.toml)")


def _cycles(graph):
    """Sorted node lists of the strongly connected components of `graph`
    that contain a cycle (a self-loop counts)."""
    reach = {}
    for node in graph:
        seen, stack = set(), list(graph[node])
        while stack:
            nxt = stack.pop()
            if nxt not in seen:
                seen.add(nxt)
                stack.extend(graph.get(nxt, ()))
        reach[node] = seen
    sccs = {frozenset(m for m in reach[n] if n in reach.get(m, ()))
            for n in graph if n in reach[n]}
    return sorted(sorted(scc) for scc in sccs)


def _check_lock_order(model, hot_cfg, findings):
    stop = set(hot_cfg.get("stop", ()))
    fns = [fn for fn in model.functions if fn.body is not None]
    acquisitions = {fn.key: list(_acquisitions(fn)) for fn in fns}
    calls = {fn.key: [c for c in ast_lite.iter_calls(fn.file.tokens,
                                                     *fn.body)
                      if c.name not in stop and c.name in model.by_name]
             for fn in fns}
    # Locks each function acquires transitively: propagate every
    # function's own set up its callers until nothing changes.
    callers = {}
    for fn in fns:
        for c in calls[fn.key]:
            for callee in model.by_name[c.name]:
                callers.setdefault(callee.key, set()).add(fn)
    trans = {fn.key: {a[0] for a in acquisitions[fn.key]} for fn in fns}
    work = [fn for fn in fns if trans[fn.key]]
    while work:
        fn = work.pop()
        for caller in callers.get(fn.key, ()):
            if not trans[fn.key] <= trans[caller.key]:
                trans[caller.key] |= trans[fn.key]
                work.append(caller)
    # Edge A -> B: B is acquired, directly or through a call, while the
    # guard of A is live.  Each edge keeps its smallest (path, line) site.
    edges = {}
    for fn in fns:
        toks = fn.file.tokens
        for label, lo, hi in acquisitions[fn.key]:
            inner = [(b, k) for b, k, _ in acquisitions[fn.key]
                     if lo < k < hi]
            inner += [(b, c.idx) for c in calls[fn.key] if lo < c.idx < hi
                      for callee in model.by_name[c.name]
                      for b in trans.get(callee.key, ())]
            for b, k in inner:
                if b != label:
                    site = (fn.file.rel, toks[k].line)
                    edges[(label, b)] = min(site,
                                            edges.get((label, b), site))
    graph = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
    for scc in _cycles(graph):
        if len(scc) < 2:
            continue
        sites = sorted(edges[(a, b)] for a, b in edges
                       if a in scc and b in scc)
        where = "; ".join(f"{p}:{ln}" for p, ln in sites[:4])
        add(findings, model.files[sites[0][0]], sites[0][1],
            "lock-order-cycle",
            f"locks {{{', '.join(scc)}}} are acquired in conflicting "
            f"nesting orders (sites: {where}) -- concurrent callers can "
            f"deadlock")


def _acquisitions(fn):
    """(lock label, guard token index, index where its scope closes) for
    each scoped guard declared in `fn`'s body."""
    toks = fn.file.tokens
    stem = os.path.splitext(os.path.basename(fn.file.rel))[0]
    lo, hi = fn.body
    for v in ast_lite.iter_locals(toks, lo, hi):
        if v.type_base not in GUARD_TYPES or \
                toks[v.init_lo].text not in ("(", "{"):
            continue
        arg, depth = "", 0
        for t in toks[v.init_lo + 1:v.init_hi]:
            depth += t.text in ("(", "[", "{")
            depth -= t.text in (")", "]", "}")
            if depth < 0 or (depth == 0 and t.text == ","):
                break
            arg += t.text
        m = LOCK_NAME.match(re.sub(r"\[[^\]]*\]", "", arg.lstrip("&*")))
        if m is None:
            continue
        depth, end = 0, hi
        for k in range(v.decl_idx, hi):
            if toks[k].text == "{":
                depth += 1
            elif toks[k].text == "}":
                if depth == 0:
                    end = k
                    break
                depth -= 1
        yield f"{stem}:{m.group(0)}", v.decl_idx, end
