"""Epoch-ownership protocol verification (whole-program role analysis).

DESIGN.md §11 splits every thread into one of two roles: *update* (owns
the live graph, runs the ingest/publish path) and *compute* (runs the
registered analytics callable overlapped with the next epoch's updates,
and may only read `SnapshotView` state).  The local
`compute-reads-live` semantic rule checks the registered lambda's own
body; this pass turns it into a whole-program proof:

  1. Role inference.  Compute-role entry points are (a) the lambda
     arguments of `[dataflow.roles].compute_registrars` calls
     (`set_compute` / `attach`), and (b) lambdas handed to a
     `std::thread` constructed inside a member of an
     `[dataflow.roles].engine_classes` class (the pipeline's in-flight
     compute spawn in publish_epoch).  Engine-spawned entries fork once
     per backend bound by the engine's explicit instantiations (the
     PR 7 binding), so every finding is attributed `[backend: X]`.
  2. Reachability.  A worklist walk follows receiver-typed member calls,
     class-qualified static calls, and name-distinct free functions
     (same resolution rules as the semantic hot-path pass), pruning the
     [hot_paths].stop setup-only sinks.
  3. Verdicts.  Inside the compute-role cone, any call to a
     [semantic.lifetime].live_mutators member is `compute-role-mutates-
     live`; any [dataflow.roles].live_read_members call whose receiver
     provably types to a configured backend class is `compute-role-
     reads-live` (receivers typed as views or unbound graph template
     parameters are the sanctioned snapshot inputs).
  4. Coverage.  Every `[semantic.backends.*]` entry with
     engine_backend=true must be bound by some engine-class
     instantiation, else `backend-role-coverage` fires — a backend the
     role proof cannot see is a backend the protocol does not cover.

The inferred role assignment is exported as `model.role_matrix` for the
CI artifact (--matrix).
"""

from semantic import ast_lite
from semantic.model import Finding
from semantic.passes import add
from semantic.passes.hot_path import _arg_backend, _label, \
    _receiver_class_name, _seed_bindings


def run(model, config, findings):
    cfg = config.get("dataflow", {}).get("roles", {})
    sem = config.get("semantic", {})
    life = sem.get("lifetime", {})
    backends_cfg = sem.get("backends", {})
    engine_classes = set(cfg.get("engine_classes", ()))
    registrars = set(cfg.get("compute_registrars", ())) or \
        set(life.get("compute_registrars", ()))
    live_reads = set(cfg.get("live_read_members", ()))
    view_types = set(cfg.get("view_types", ())) | \
        set(life.get("view_types", ()))
    mutators = set(life.get("live_mutators", ()))
    graph_params = set(sem.get("graph_param_names", ()))
    stop = set(config.get("hot_paths", {}).get("stop", ()))

    backends = {}
    for name in backends_cfg:
        ci = model.find_class(name)
        if ci is not None:
            backends[name] = ci

    # Instantiation bindings: template class X<Backend> binds X's graph
    # parameter to Backend for members of X (explicit and field-implied).
    inst_bindings = {}
    engine_sites = {}           # backend -> ["file:line", ...]
    for inst in model.instantiations:
        ci = model.find_class(inst.class_name)
        if ci is None or not ci.template_params:
            continue
        for arg in inst.args:
            base = arg.split("<")[0].split("::")[-1]
            if base in backends_cfg:
                inst_bindings.setdefault(ci.name, set()).add(base)
                if inst.class_name in engine_classes:
                    engine_sites.setdefault(base, []).append(
                        f"{inst.file.rel}:{inst.line}")

    _check_coverage(model, backends_cfg, backends, engine_classes,
                    engine_sites, findings)

    entries, spawn_sites = _entry_points(
        model, registrars, engine_classes, graph_params, backends,
        inst_bindings)

    reached = {}                # backend label -> set of function keys
    emitted = set()
    seen = set()
    work = list(entries)
    while work:
        ctx, lo, hi, binding, label, origin = work.pop()
        key = (ctx.key, lo, hi, tuple(sorted(binding.items())), label)
        if key in seen:
            continue
        seen.add(key)
        reached.setdefault(label, set()).add(ctx.key)
        if not ctx.file.rel.startswith("src/"):
            continue
        toks = ctx.file.tokens
        for c in ast_lite.iter_calls(toks, lo, hi):
            rcls = _receiver_class_name(model, ctx, binding, c.receiver)
            if c.name in mutators and c.receiver is not None and \
                    rcls not in view_types:
                _emit(findings, emitted, ctx.file, c.line,
                      "compute-role-mutates-live", label,
                      f"compute-role code (entered via {origin}) calls "
                      f"live-graph mutator '{_recv(c)}{c.name}()'; the "
                      f"compute round overlaps the next epoch's updates "
                      f"and must never mutate live adjacency state")
            elif c.name in live_reads and rcls in backends:
                _emit(findings, emitted, ctx.file, c.line,
                      "compute-role-reads-live", label,
                      f"compute-role code (entered via {origin}) reads "
                      f"live backend state '{_recv(c)}{c.name}()' "
                      f"(receiver types to {rcls}); only SnapshotView "
                      f"reads are race-free here")
            if c.name in stop:
                continue
            for tf, tb in _resolve(model, ctx, binding, c):
                if tf.body is None:
                    continue
                tparams = set(tf.template_params)
                if tf.cls is not None:
                    tparams |= set(tf.cls.template_params)
                gp = tparams & graph_params
                if gp and not tb:
                    bound = _arg_backend(model, ctx, binding, c)
                    if bound:
                        tb = {p: bound for p in gp}
                work.append((tf, tf.body[0], tf.body[1], tb,
                             label or _label(tb),
                             f"'{tf.qual_name}' <- {origin}"
                             if len(origin) < 120 else origin))

    model.role_matrix = _matrix(backends_cfg, engine_sites, entries,
                                spawn_sites, reached)


def _recv(call):
    if call.receiver and call.receiver != "<expr>":
        return f"{call.receiver}."
    if call.qualifier:
        return f"{call.qualifier}::"
    return ""


def _emit(findings, emitted, fm, line, rule, label, message):
    key = (fm.rel, line, rule, label)
    if key in emitted:
        return
    emitted.add(key)
    suffix = f" [backend: {label}]" if label else ""
    add(findings, fm, line, rule, message + suffix)


def _check_coverage(model, backends_cfg, backends, engine_classes,
                    engine_sites, findings):
    for name, bcfg in sorted(backends_cfg.items()):
        if not isinstance(bcfg, dict) or \
                not bcfg.get("engine_backend", False):
            continue
        if engine_sites.get(name):
            continue
        engines = ", ".join(sorted(engine_classes)) or "engine"
        msg = (f"backend '{name}' declares engine_backend=true but no "
               f"{engines} instantiation binds it; the compute-role "
               f"proof does not cover this backend")
        header = bcfg.get("header", "")
        fm = model.files.get(header)
        line = backends[name].line if name in backends else 1
        if fm is not None:
            add(findings, fm, line, "backend-role-coverage", msg)
        else:
            findings.append(Finding(header or name, 1,
                                    "backend-role-coverage", msg))


def _entry_points(model, registrars, engine_classes, graph_params,
                  backends, inst_bindings):
    """[(ctx_fn, lo, hi, binding, backend_label, origin)] compute-role
    entries, plus the update-role thread spawn sites for the matrix."""
    entries = []
    spawn_sites = []
    for fn in model.functions:
        if fn.body is None or not fn.file.rel.startswith("src/"):
            continue
        toks = fn.file.tokens
        for c in ast_lite.iter_calls(toks, *fn.body):
            if c.name in registrars:
                for lam in ast_lite.iter_lambdas(toks, c.arg_lo,
                                                 c.arg_hi + 1):
                    origin = (f"{c.name}() registration at "
                              f"{fn.file.rel}:{c.line}")
                    for binding in _seed_bindings(fn, graph_params,
                                                  backends,
                                                  inst_bindings):
                        entries.append((fn, lam.body_lo, lam.body_hi,
                                        binding, _label(binding), origin))
            elif c.name == "thread" and fn.cls is not None:
                lams = list(ast_lite.iter_lambdas(toks, c.arg_lo,
                                                  c.arg_hi + 1))
                if not lams:
                    continue
                site = f"{fn.file.rel}:{c.line}"
                if fn.cls.name not in engine_classes:
                    spawn_sites.append(
                        {"site": site, "in": fn.qual_name,
                         "role": "update"})
                    continue
                spawn_sites.append({"site": site, "in": fn.qual_name,
                                    "role": "compute-spawn"})
                origin = (f"std::thread spawn in '{fn.qual_name}' at "
                          f"{site}")
                gp = set(fn.cls.template_params) & graph_params
                names = sorted(inst_bindings.get(fn.cls.name) or
                               backends)
                for b in names or [""]:
                    binding = {p: b for p in gp} if b else {}
                    for lam in lams:
                        entries.append((fn, lam.body_lo, lam.body_hi,
                                        binding, b, origin))
    return entries, spawn_sites


def _resolve(model, ctx, binding, call):
    """[(FunctionInfo, new_binding)] candidate targets of a call, in
    decreasing confidence: receiver-typed members, class-qualified
    statics, own-class members (inherited ones included), name-distinct
    src free functions."""
    out = []
    rcls = _receiver_class_name(model, ctx, binding, call.receiver)
    if rcls is not None:
        ci = model.find_class(rcls)
        if ci is not None:
            for tf in model.members(ci, call.name):
                out.append((tf, {}))
        return out
    if call.receiver is not None:
        return out                  # unattributable expression receiver
    if call.qualifier is not None:
        ci = model.find_class(call.qualifier.split("::")[-1])
        if ci is not None:
            for tf in model.members(ci, call.name):
                out.append((tf, {}))
            return out
        for tf in model.by_name.get(call.name, ()):
            if tf.cls is None and tf.file.rel.startswith("src/"):
                out.append((tf, {}))
        return out
    own = model.members(ctx.cls, call.name) if ctx.cls is not None else []
    if own:
        for tf in own:
            out.append((tf, dict(binding)))
        return out
    for tf in model.by_name.get(call.name, ()):
        if tf.cls is None and tf.file.rel.startswith("src/"):
            out.append((tf, {}))
    return out


def _matrix(backends_cfg, engine_sites, entries, spawn_sites, reached):
    backends = {}
    for name, bcfg in sorted(backends_cfg.items()):
        if not isinstance(bcfg, dict):
            continue
        backends[name] = {
            "engine_backend": bool(bcfg.get("engine_backend", False)),
            "role_coverage": bool(engine_sites.get(name)),
            "instantiation_sites": sorted(set(engine_sites.get(name,
                                                               ()))),
        }
    seen_entries = []
    dedup = set()
    for ctx, _lo, _hi, _binding, label, origin in entries:
        key = (origin, label)
        if key in dedup:
            continue
        dedup.add(key)
        seen_entries.append({"origin": origin, "backend": label or None})
    return {
        "backends": backends,
        "compute_entry_points": seen_entries,
        "compute_reached_functions": {
            (label or "<unbound>"): sorted(keys)
            for label, keys in sorted(reached.items())},
        "thread_spawn_sites": spawn_sites,
    }
