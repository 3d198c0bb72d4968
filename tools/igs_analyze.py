#!/usr/bin/env python3
"""igs_analyze — the static-analysis driver of igstream.

Parses the tree once through tools/semantic/parse_cache.build_model (the
ast_lite lexer/parser, cross-validated by libclang through
compile_commands.json when `clang.cindex` is importable) and runs every
rule as a pass over that one Model (DESIGN.md §10 has the rule table).
The passes fall into four rule families; `--family` runs one of them:

  lint      semantic/passes/lint.py      per-file token rules
  analyze   semantic/passes/graphs.py    layers, include and lock cycles
  semantic  semantic/passes/{hot_path,lifetime,contracts,telemetry_keys}.py
  dataflow  dataflow/{roles,publication,intervals}.py

A finding is suppressed by an `igs-lint: allow(<rule>)` pragma on its
line or the line above; a pragma that suppresses nothing is itself a
`stale-suppression` finding.  A reviewed finding may instead be accepted
in the audited baseline (tools/analysis_baseline.json); an entry that
matches nothing is a `stale-baseline` finding.

Usage:
  tools/igs_analyze.py [--root DIR] [--frontend auto|clang|lex]
                       [--compile-commands FILE] [--sarif FILE]
                       [--matrix FILE] [--baseline FILE]
                       [--update-baseline] [--family NAME]
  tools/igs_analyze.py --self-test [--family NAME]  # rules vs fixtures

Exit status: 0 clean (or only baselined), 1 findings, 2 usage error.
"""

import argparse
import json
import os
import sys
import time
import tomllib

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from dataflow import intervals, publication, roles  # noqa: E402
from semantic import baseline, parse_cache, sarif  # noqa: E402
from semantic.passes import add, contracts, graphs, hot_path, lifetime, \
    lint, pragmas, telemetry_keys  # noqa: E402

# Rule family -> (its passes, {rule: description}).  A plain run is every
# family over one parse; `--family` runs one of them, which is how the
# ctest legs split the work.  The driver's own stale-suppression and
# stale-baseline rules, and pragmas or baseline entries naming no known
# rule, belong to `analyze`.
FAMILIES = {
    "lint": ((lint,), {
        "bare-mutex": "std::*mutex outside src/common/; use igs::Mutex or "
                      "igs::Spinlock so the thread-safety analysis sees it.",
        "check-side-effect": "Side effect inside IGS_CHECK/IGS_DCHECK "
                             "(IGS_DCHECK compiles out under NDEBUG).",
        "atomic-memory-order": "Atomic operation under src/ without an "
                               "explicit std::memory_order.",
        "header-guard": "src/**/*.h guard is missing or not IGS_<PATH>_H.",
        "include-hygiene": "Quoted include is parent-relative or resolves "
                           "nowhere, or a <bits/...> internal is included."}),
    "analyze": ((graphs,), {
        "layer-inversion": "Quoted include crosses the declared module "
                           "layering (tools/layers.toml) the wrong way.",
        "include-cycle": "The quoted-include graph contains a cycle.",
        "lock-order-cycle": "Two code paths nest the same locks in opposite "
                            "orders; concurrent execution can deadlock.",
        "stale-suppression": "allow() pragma suppresses no finding.",
        "stale-baseline": "Audited baseline entry matches no finding."}),
    "semantic": ((hot_path, lifetime, contracts, telemetry_keys), {
        "hot-path-alloc": "Allocation reachable from a [hot_paths] root for "
                          "the attributed backend instantiation.",
        "hot-path-block": "Blocking primitive reachable from a [hot_paths] "
                          "root.",
        "hot-path-throw": "Throw expression reachable from a [hot_paths] "
                          "root.",
        "hot-path-virtual": "Virtual dispatch on the hot path; kernels are "
                            "devirtualized by construction.",
        "snapshot-view-escape": "SnapshotView leaves its producing scope "
                                "(member store, lambda capture, return).",
        "view-invalidated-use": "publish()/live-store mutation between a "
                                "SnapshotView's creation and its last use.",
        "compute-reads-live": "set_compute callable touches mutable adjacency "
                              "state instead of its SnapshotView argument.",
        "backend-contract": "GraphStore backend is missing a member of its "
                            "required or declared concept surface.",
        "backend-capability": "Backend defines a probed hook it does not "
                              "declare in layers.toml.",
        "contract-probe-dangling": "`requires`-probe probes a member outside "
                                   "the declared probe list (renamed hook?).",
        "telemetry-key-naming": "Telemetry key violates area.subsystem.name.",
        "telemetry-key-collision": "Telemetry key registered at two sites.",
        "telemetry-key-stale-golden": "Golden JSON references a telemetry "
                                      "key no source registers."}),
    "dataflow": ((roles, publication, intervals), {
        "compute-role-mutates-live": "Compute-role call graph reaches a "
                                     "live-graph mutator.",
        "compute-role-reads-live": "Compute-role call graph reads a live "
                                   "backend instead of snapshot state.",
        "backend-role-coverage": "engine_backend=true backend is bound by no "
                                 "engine instantiation.",
        "unpaired-release-store": "Release-ordered atomic write with no "
                                  "acquire-side observer in src/.",
        "unpaired-acquire-load": "Acquire-ordered atomic read with no "
                                 "release-side producer in src/.",
        "relaxed-publication-store": "Relaxed write to an object that "
                                     "carries acquire/release publication.",
        "narrowing-overflow": "static_cast to a narrow unsigned type provably "
                              "overflows.",
        "unproven-narrowing": "Wide integer narrowed in a hot-path root file "
                              "with no dominating guard-macro bound."}),
}
RULES = {r: d for _p, rules in FAMILIES.values() for r, d in rules.items()}
RULE_FAMILY = {r: fam for fam, (_p, rules) in FAMILIES.items()
               for r in rules}

# Family -> fixture case (tests/analysis_fixtures/<case>/{layers.toml,
# src/}) -> the exact set of unsuppressed findings every pass produces on
# it, as "rule path:line".  A case sits with the family of the rules it
# pins; `--self-test --family` checks that family's cases.
CASES = {
    "lint": {
        "atomic_memory_order": {
            "atomic-memory-order src/gen/bad_atomic_gen.cc:10",
            "atomic-memory-order src/sim/bad_atomic.cc:9",
            "atomic-memory-order src/sim/bad_atomic.cc:10",
            "atomic-memory-order src/sim/bad_atomic.cc:12"},
        "bare_mutex": {"bare-mutex src/core/bad_mutex.cc:6"},
        "check_side_effect": {
            "check-side-effect src/graph/bad_check.cc:11",
            "check-side-effect src/graph/bad_check.cc:13"},
        "header_guard": {"header-guard src/stream/bad_guard.h:4"},
        "include_hygiene": {"include-hygiene src/gen/bad_include.cc:3",
                            "include-hygiene src/gen/bad_include.cc:4"},
    },
    "analyze": {
        "clean_ok": set(),
        "include_cycle": {"include-cycle src/ring/a.h:5"},
        "layer_inversion": {"layer-inversion src/common/bad_layer.h:6"},
        "lock_order_cycle": {"lock-order-cycle src/locks/order.cc:13",
                             "lock-order-cycle src/locks/order.cc:36"},
        "stale_suppression": {"stale-suppression src/m/stale.cc:7"},
        "two_pragmas_one_line": {"stale-suppression src/core/pair.cc:14"},
    },
    "semantic": {
        "backend_hot_alloc": {"hot-path-alloc src/app/kernel.h:12"},
        "bad_telemetry_key": {"telemetry-key-naming src/app/tele.cc:8"},
        # The local rule and the whole-program role proof see the same bug.
        "compute_reads_live": {
            "compute-reads-live src/app/compute.cc:15",
            "compute-role-mutates-live src/app/compute.cc:15"},
        "dup_telemetry_key": {
            "telemetry-key-collision src/app/tele2.cc:12"},
        "expr_receiver_lambda": {"hot-path-alloc src/sim/dispatch.cc:11"},
        "hot_file_root": {"hot-path-alloc src/stream/bad_hot_alloc.cc:10",
                          "hot-path-alloc src/stream/bad_hot_alloc.cc:12",
                          "hot-path-alloc src/stream/bad_hot_alloc.cc:13",
                          "hot-path-alloc src/stream/bad_hot_alloc.cc:14"},
        "hot_path_escape": {"hot-path-alloc src/m/helpers.h:9",
                            "hot-path-block src/m/helpers.h:15",
                            "hot-path-throw src/m/helpers.h:23"},
        # A view read after ingest(): republished or written under it.
        "ingest_under_view": {"view-invalidated-use src/app/ingest.cc:13"},
        # A backend's surface includes what it inherits: the base class
        # template supplies it (clean), or lacks a member (the finding).
        "inherited_missing_member": {
            "backend-contract src/graph/mini_store.h:19"},
        "inherited_surface": set(),
        "leaked_view": {"snapshot-view-escape src/app/leak.cc:14",
                        "snapshot-view-escape src/app/leak.cc:22"},
        "missing_capability": {
            "backend-contract src/graph/mini_store.h:6"},
        "publish_under_view": {"view-invalidated-use src/app/pub.cc:13"},
        "qualified_call": {"hot-path-alloc src/stream/kernel.h:9"},
        "stale_golden_key": {
            "telemetry-key-stale-golden tests/golden/mini.json:1"},
    },
    "dataflow": {
        "compute_mutates_live": {
            "compute-role-mutates-live src/app/pipeline.cc:14"},
        "compute_reads_live_graph": {
            "compute-role-reads-live src/app/analytics.h:19"},
        "missing_role_coverage": {
            "backend-role-coverage src/graph/other_store.h:5"},
        "narrowing_overflow": {
            "narrowing-overflow src/stream/offsets.cc:9"},
        "relaxed_publish": {
            "relaxed-publication-store src/core/flag.h:18"},
        "unpaired_acquire": {"unpaired-acquire-load src/core/oneway.h:9"},
        "unpaired_release": {"unpaired-release-store src/core/oneway.h:10"},
        "unproven_narrowing": {
            "unproven-narrowing src/stream/offsets.cc:20"},
    },
}

# Case -> substrings some finding message must contain ("!": none may).
NEEDLES = {
    "backend_hot_alloc": ("[backend: FancyStore]", "![backend: PlainStore]"),
    "compute_mutates_live": ("apply_insert",),
    "compute_reads_live_graph": ("[backend: MiniStore]",),
    "inherited_missing_member": ("'degree'", "!'ensure_vertices'"),
    "missing_role_coverage": ("OtherStore",),
    "narrowing_overflow": ("5000000000",),
    "relaxed_publish": ("tsan-pipeline",),
    "unproven_narrowing": ("!guarded_total",),
}


def load_config(path):
    with open(path, "rb") as f:
        return tomllib.load(f)


def in_family(rule, family):
    """True when `family` (None: every family) owns `rule`."""
    return family in (None, RULE_FAMILY.get(rule, "analyze"))


def analyze(root, config, frontend="lex", compile_commands=None,
            family=None):
    """(model, findings): the passes of `family` (None: all) over one
    parse, pragmas applied and the family's pragmas stale-checked."""
    model = parse_cache.build_model(root, config, frontend,
                                    compile_commands)
    findings = []
    model.pass_timings = {}
    for name, (passes, _rules) in FAMILIES.items():
        for mod in passes if family in (None, name) else ():
            t0 = time.monotonic()
            mod.run(model, config, findings)
            model.pass_timings[mod.__name__.rsplit(".", 1)[-1]] = \
                round(time.monotonic() - t0, 3)
    allows = {rel: pragmas(fm) for rel, fm in model.files.items()}
    used = set()
    for f in findings:
        for line in (f.line, f.line - 1):
            if f.rule in allows.get(f.path, {}).get(line, ()):
                f.suppressed = True
                used.add((f.path, line, f.rule))
    for rel, by_line in sorted(allows.items()):
        for line, rules in sorted(by_line.items()):
            for rule in sorted(r for r in rules if in_family(r, family)
                               and (rel, line, r) not in used):
                add(findings, model.files[rel], line, "stale-suppression",
                    f"allow({rule}) pragma suppresses no finding; remove "
                    f"it or re-audit the site")
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return model, findings


def self_test(root, family=None):
    """Every case of `family` (None: all) through every pass, checked
    against its exact expected findings."""
    fixtures = os.path.join(root, "tests", "analysis_fixtures")
    dirs = {d for d in os.listdir(fixtures)
            if os.path.isdir(os.path.join(fixtures, d))}
    known = {case for by_case in CASES.values() for case in by_case}
    failures = [f"{d}: no expectation in CASES" for d in sorted(dirs - known)]
    cases = {case: want for name, by_case in CASES.items()
             if family in (None, name) for case, want in by_case.items()}
    for case, want in sorted(cases.items()):
        if case not in dirs:
            failures.append(f"{case}: fixture directory missing")
            continue
        fdir = os.path.join(fixtures, case)
        _model, findings = analyze(
            fdir, load_config(os.path.join(fdir, "layers.toml")))
        active = [f for f in findings if not f.suppressed]
        got = {f"{f.rule} {f.path}:{f.line}" for f in active}
        failures += [f"{case}: missing {w}" for w in sorted(want - got)]
        failures += [f"{case}: unexpected {g}" for g in sorted(got - want)]
        for needle in NEEDLES.get(case, ()):
            hit = any(needle.lstrip("!") in f.message for f in active)
            if hit == needle.startswith("!"):
                failures.append(f"{case}: message needle {needle!r}")
    for failure in failures:
        print(f"igs_analyze self-test FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"igs_analyze self-test OK (family={family or 'all'}, "
              f"{len(cases)} cases, "
              f"{sum(map(len, cases.values()))} expected findings)")
    return 1 if failures else 0


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(prog="igs_analyze",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(here))
    ap.add_argument("--layers",
                    help="rule config (default: <root>/tools/layers.toml)")
    ap.add_argument("--frontend", choices=("auto", "clang", "lex"),
                    default="auto")
    ap.add_argument("--compile-commands",
                    help="for the libclang frontend (default: "
                         "<root>/build/compile_commands.json)")
    ap.add_argument("--sarif", metavar="PATH",
                    help="write every finding as SARIF 2.1.0")
    ap.add_argument("--matrix", metavar="PATH",
                    help="write the backend-capability and role matrices "
                         "(JSON)")
    ap.add_argument("--baseline",
                    help="audited baseline (default: "
                         "<root>/tools/analysis_baseline.json)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from current findings "
                         "(justifications must be filled in by review)")
    ap.add_argument("--self-test", action="store_true",
                    help="check every rule against tests/analysis_fixtures")
    ap.add_argument("--family", choices=tuple(FAMILIES),
                    help="run one rule family's passes, or with "
                         "--self-test its fixture cases (default: all)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    if args.self_test:
        return self_test(root, args.family)
    if args.family and (args.matrix or args.update_baseline):
        ap.error("--matrix and --update-baseline need every family")

    layers = args.layers or os.path.join(root, "tools", "layers.toml")
    try:
        config = load_config(layers)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        print(f"igs_analyze: cannot load {layers}: {exc}", file=sys.stderr)
        return 2
    cc = None if args.frontend == "lex" else args.compile_commands or \
        os.path.join(root, "build", "compile_commands.json")
    model, findings = analyze(root, config, args.frontend, cc, args.family)

    base = args.baseline or os.path.join(root, "tools",
                                         "analysis_baseline.json")
    if args.update_baseline:
        baseline.write_template(base, findings)
        print(f"igs_analyze: baseline written to {base}")
        return 0
    entries = [e for e in baseline.load(base) if in_family(e[0], args.family)]
    findings += baseline.apply(findings, entries,
                               os.path.relpath(base, root))
    if args.sarif:
        sarif.write_sarif(args.sarif, "igs_analyze", findings, root, RULES)
    if args.matrix:
        with open(args.matrix, "w", encoding="utf-8") as f:
            json.dump({"capabilities": model.capability_matrix,
                       "roles": model.role_matrix}, f, indent=2)
            f.write("\n")
        print(contracts.format_matrix(model.capability_matrix))

    active = [f for f in findings if not f.suppressed and not f.baselined]
    for f in active:
        print(f)
    for note in model.frontend_notes:
        print(f"igs_analyze: note: {note}", file=sys.stderr)
    ps = model.parse_stats
    timing = ", ".join(
        [f"parse {ps['seconds']}s ({ps['jobs']}j, {ps['cache_hits']} "
         f"cached)"] + [f"{k} {v}s" for k, v in model.pass_timings.items()])
    print(f"igs_analyze: {'FAIL' if active else 'OK'} "
          f"(family={args.family or 'all'}, {len(model.files)} files, "
          f"frontend={model.frontend}, "
          f"{len(active)} active, "
          f"{sum(f.suppressed for f in findings)} suppressed, "
          f"{sum(f.baselined for f in findings)} baselined; {timing})")
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
