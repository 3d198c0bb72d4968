"""Template-aware hot-path escape analysis with per-backend attribution.

Walks from the [hot_paths] roots in layers.toml through the call graph,
resolving member calls through the *types* of their receivers (a receiver
the walk cannot type reaches every src/ member of that name; a qualified
call, its class's members or else the src/ functions of that name).  When
a receiver's type is a template parameter that stands for a graph-store
backend (engine.cc's explicit instantiations, or the configured backend
list for uninstantiated kernels), the walk forks once per backend,
`if constexpr (requires ...)` branches are pruned against that backend's
real member surface, and every finding names the backend whose
instantiation reaches it.

Rules: hot-path-alloc, hot-path-block, hot-path-throw, plus
hot-path-virtual (virtual dispatch on the hot path — this repo keeps its
kernels devirtualized by construction, so any hit is a regression).
A `path:*` root makes every function defined in that file a root.
"""

import fnmatch

from . import add
from .. import ast_lite

ALLOC_CALLS = frozenset({
    "push_back", "emplace_back", "resize", "reserve", "insert", "emplace",
    "append", "make_unique", "make_shared", "malloc", "calloc", "realloc",
    "strdup",
})
ALLOC_TYPES = frozenset({"unordered_map", "unordered_set"})
BLOCK_IDS = frozenset({
    "MutexLock", "mutex", "recursive_mutex", "timed_mutex", "shared_mutex",
    "lock_guard", "unique_lock", "scoped_lock", "condition_variable",
    "condition_variable_any",
})
BLOCK_CALLS = frozenset({"wait", "wait_for", "wait_until", "sleep_for",
                         "sleep_until"})


def run(model, config, findings):
    cfg = config.get("hot_paths", {})
    sem = config.get("semantic", {})
    stop = set(cfg.get("stop", ()))
    graph_params = set(sem.get("graph_param_names", ()))
    backends = {}
    for name in sem.get("backends", {}):
        ci = model.find_class(name)
        if ci is not None:
            backends[name] = ci

    roots = _root_functions(model, cfg.get("roots", ()))
    # Instantiation-derived bindings: template class X<Backend> binds X's
    # first graph-ish template param to Backend for members of X.
    inst_bindings = {}
    for inst in model.instantiations:
        ci = model.find_class(inst.class_name)
        if ci is None or not ci.template_params:
            continue
        for arg in inst.args:
            arg_ci = model.find_class(arg.split("<")[0])
            if arg_ci is not None and arg_ci.name in backends:
                inst_bindings.setdefault(ci.name, set()).add(arg_ci.name)

    seen = set()
    work = []
    for fn in roots:
        for binding in _seed_bindings(fn, graph_params, backends,
                                      inst_bindings):
            work.append((fn, binding, _label(binding)))
    while work:
        fn, binding, backend = work.pop()
        key = (fn.key, tuple(sorted(binding.items())), backend)
        if key in seen or fn.body is None:
            continue
        seen.add(key)
        if not fn.file.rel.startswith("src/"):
            continue
        dead = _dead_ranges(fn, binding, backends)
        _scan_body(model, fn, binding, backend, dead, findings)
        for callee, callee_binding in _callees(model, fn, binding,
                                               backends, dead,
                                               graph_params):
            if callee.name in stop:
                continue
            work.append((callee, callee_binding,
                         backend or _label(callee_binding)))


def _root_functions(model, roots):
    out = []
    for spec in roots:
        path, _, name = spec.rpartition(":")
        for fn in model.functions:
            if fn.body is None:
                continue
            if not fnmatch.fnmatch(fn.file.rel, path) and \
                    fn.file.rel != path:
                continue
            if name == "*" or fn.name == name:
                out.append(fn)
    return out


def _seed_bindings(fn, graph_params, backends, inst_bindings):
    """Bindings to walk a root under: one per backend for each graph-ish
    template parameter (of the function or its class), else just {}."""
    tparams = set(fn.template_params)
    if fn.cls is not None:
        tparams |= set(fn.cls.template_params)
    gparams = tparams & graph_params
    if not gparams:
        return [{}]
    # Prefer the explicit instantiations of the enclosing class; fall
    # back to every configured backend for free-standing kernels.
    names = None
    if fn.cls is not None:
        names = inst_bindings.get(fn.cls.name)
    if not names:
        names = set(backends)
    out = []
    for b in sorted(names):
        out.append({p: b for p in gparams})
    return out


def _label(binding):
    names = sorted(set(binding.values()))
    return names[0] if len(names) == 1 else ",".join(names) if names else ""


def _receiver_class_name(model, fn, binding, receiver):
    """Best-effort type (class simple name) of a call receiver."""
    if receiver is None or receiver == "<expr>":
        return None
    if receiver in binding:
        return binding[receiver]
    if fn.cls is not None and receiver in fn.cls.fields:
        base = fn.cls.fields[receiver]
        return binding.get(base, base)
    for tb, name, _full in fn.params:
        if name == receiver:
            return binding.get(tb, tb)
    if fn.body is not None:
        for v in ast_lite.iter_locals(fn.file.tokens, *fn.body):
            if v.name == receiver and v.type_base != "auto":
                return binding.get(v.type_base, v.type_base)
    return None


def _dead_ranges(fn, binding, backends):
    """Token ranges pruned by `if constexpr (requires ...)` under this
    binding: the branch whose probe outcome contradicts the bound
    backend's member surface is not instantiated."""
    dead = []
    if fn.body is None:
        return dead
    toks = fn.file.tokens
    for br in ast_lite.iter_requires_branches(toks, *fn.body):
        cname = _receiver_class_name(None, fn, binding, br.receiver) \
            if br.receiver is not None else None
        if cname is None or cname not in backends:
            continue
        has = all(p in backends[cname].members or
                  p in backends[cname].fields
                  for p in br.probes)
        taken_then = has != br.negated
        if taken_then:
            if br.else_lo >= 0:
                dead.append((br.else_lo, br.else_hi))
        else:
            dead.append((br.then_lo, br.then_hi))
    return dead


def _alive(idx, dead):
    return not any(lo <= idx < hi for lo, hi in dead)


def _scan_body(model, fn, binding, backend, dead, findings):
    toks = fn.file.tokens
    lo, hi = fn.body
    suffix = f" [backend: {backend}]" if backend else ""
    ctx = f"hot-path function '{fn.qual_name}'"
    emitted = set()

    def emit(line, rule, what):
        key = (line, rule, backend)
        if key in emitted:
            return
        emitted.add(key)
        add(findings, fn.file, line, rule,
            f"{what} in {ctx}{suffix}")

    for k in range(lo, hi):
        t = toks[k]
        if not _alive(k, dead):
            continue
        if t.kind != "id":
            continue
        if t.text == "throw":
            emit(t.line, "hot-path-throw", "throw expression")
        elif t.text == "new" and not (k + 1 < hi and
                                      toks[k + 1].text == "("):
            emit(t.line, "hot-path-alloc", "new expression")
        elif t.text in ALLOC_TYPES:
            emit(t.line, "hot-path-alloc", f"std::{t.text} use")
        elif t.text in BLOCK_IDS:
            emit(t.line, "hot-path-block",
                 f"blocking primitive '{t.text}'")
    for c in ast_lite.iter_calls(toks, lo, hi):
        if not _alive(c.idx, dead):
            continue
        if c.name in ALLOC_CALLS and (c.receiver is not None or
                                      c.name.startswith("make_") or
                                      c.name in ("malloc", "calloc",
                                                 "realloc", "strdup")):
            emit(c.line, "hot-path-alloc", f"container growth '{c.name}()'")
        elif c.name in BLOCK_CALLS and c.receiver is not None:
            emit(c.line, "hot-path-block", f"blocking '{c.name}()'")
        else:
            target = _resolve(model, fn, binding, c)
            for tf, _tb in target:
                if tf.virtual:
                    emit(c.line, "hot-path-virtual",
                         f"virtual dispatch to '{tf.qual_name}()'")
                    break


def _resolve(model, fn, binding, call):
    """[(FunctionInfo, new_binding)] candidate targets of a call.  A
    receiver whose type stays unresolved (`auto& set = ...`, `q[i].`)
    reaches every src/ member of that name; a qualified call reaches the
    qualifying class's members, else the src/ functions of that name."""
    cname = _receiver_class_name(model, fn, binding, call.receiver)
    if cname is not None:
        ci = model.find_class(cname)
        return [(tf, {}) for tf in ci.members.get(call.name, ())] \
            if ci is not None else []
    if call.receiver is not None:
        return [(tf, {}) for tf in model.by_name.get(call.name, ())
                if tf.cls is not None and tf.file.rel.startswith("src/")]
    if call.qualifier is None and fn.cls is not None and \
            call.name in fn.cls.members:
        return [(tf, dict(binding)) for tf in fn.cls.members[call.name]]
    qual = model.find_class(call.qualifier.split("::")[-1]) \
        if call.qualifier else None
    if qual is not None:
        return [(tf, {}) for tf in qual.members.get(call.name, ())]
    return [(tf, {}) for tf in model.by_name.get(call.name, ())
            if tf.file.rel.startswith("src/") and tf.body is not None]


def _callees(model, fn, binding, backends, dead, graph_params):
    toks = fn.file.tokens
    out = []
    for c in ast_lite.iter_calls(toks, *fn.body):
        if not _alive(c.idx, dead):
            continue
        for tf, tb in _resolve(model, fn, binding, c):
            if tf.body is None:
                continue
            # Crossing into a graph-templated callee: carry the backend
            # binding when an argument is a bound object of this scope.
            tparams = set(tf.template_params)
            if tf.cls is not None:
                tparams |= set(tf.cls.template_params)
            gp = tparams & graph_params
            if gp and not tb:
                bound = _arg_backend(model, fn, binding, c)
                if bound:
                    tb = {p: bound for p in gp}
            out.append((tf, tb))
    return out


def _arg_backend(model, fn, binding, call):
    """Backend name flowing into a call's arguments, if any: the first
    argument identifier whose resolved type is a configured backend."""
    toks = fn.file.tokens
    backend_names = getattr(model, "backend_names", set())
    for k in range(call.arg_lo, call.arg_hi):
        t = toks[k]
        if t.kind == "id":
            cn = _receiver_class_name(model, fn, binding, t.text)
            if cn in backend_names:
                return cn
    return None
