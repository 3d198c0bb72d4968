"""Backend contract conformance and the backend-capability matrix.

BasicRealTimeEngine selects optional fast paths with
`if constexpr (requires { g.hook(...); })`: a backend that renames an
implementation away from a probed hook does not fail to compile — it
silently drops to the slow path.  This pass turns that silence into CI
failure:

  backend-contract        an engine backend (engine_backend = true in
                          layers.toml) is missing a member of the
                          unconditional engine surface, or any backend is
                          missing a capability it declares.
  backend-capability      a backend defines a probed hook it does not
                          declare in layers.toml (undeclared capability:
                          the config no longer describes reality, and
                          the next rename will not be caught).
  contract-probe-dangling a `requires`-probe in the source probes a
                          member name that no configured backend defines
                          and that is not in the declared probe list —
                          i.e. the probe can never fire again (typically
                          the aftermath of a rename).

It also emits the backend-capability matrix (--matrix) that DESIGN.md
§10 documents: one row per backend, one column per probed hook.
"""

from . import add
from .. import ast_lite


def run(model, config, findings):
    sem = config.get("semantic", {})
    contract = sem.get("contract", {})
    required = list(contract.get("engine_required", ()))
    probed = list(contract.get("probed", ()))
    backends_cfg = sem.get("backends", {})

    matrix = {"backends": {}, "probed": probed,
              "engine_required": required}
    for name, bcfg in sorted(backends_cfg.items()):
        ci = model.find_class(name)
        row = {"header": bcfg.get("header", ""),
               "engine_backend": bool(bcfg.get("engine_backend")),
               "declared": list(bcfg.get("capabilities", ())),
               "detected": [], "missing_required": [], "found": ci
               is not None}
        matrix["backends"][name] = row
        if ci is None:
            add(findings, _cfg_file(model), 1, "backend-contract",
                f"configured backend '{name}' "
                f"({bcfg.get('header', '?')}) was not found in the "
                f"parsed sources")
            continue
        surface = model.member_names(ci)
        row["detected"] = sorted(p for p in probed if p in surface)
        # Unconditional engine surface.
        if row["engine_backend"]:
            missing = [m for m in required if m not in surface]
            row["missing_required"] = missing
            for m in missing:
                add(findings, ci.file, ci.line, "backend-contract",
                    f"engine backend '{name}' is missing required member "
                    f"'{m}' (unconditional use in BasicRealTimeEngine; "
                    f"see layers.toml [semantic.contract])")
        # Declared capabilities must exist...
        for cap in row["declared"]:
            if cap not in surface:
                add(findings, ci.file, ci.line, "backend-contract",
                    f"backend '{name}' declares capability '{cap}' in "
                    f"layers.toml but defines no such member; the "
                    f"engine's `if constexpr (requires ...)` probe now "
                    f"silently takes the fallback path")
        # ...and existing probed hooks must be declared.
        for cap in row["detected"]:
            if cap not in row["declared"]:
                add(findings, ci.file, ci.line, "backend-capability",
                    f"backend '{name}' defines probed hook '{cap}' but "
                    f"does not declare it in layers.toml "
                    f"[semantic.backends.{name}]; declare it so a future "
                    f"rename fails CI instead of silently dropping the "
                    f"fast path")

    # Probes present in the source must probe declared hook names.
    probes_seen = {}
    for fm in model.files.values():
        if not fm.rel.startswith("src/"):
            continue
        for br in ast_lite.iter_requires_branches(fm.tokens, 0,
                                                  len(fm.tokens)):
            for p in br.probes:
                probes_seen.setdefault(p, (fm, br.line))
    for p, (fm, line) in sorted(probes_seen.items()):
        if p in probed:
            continue
        defined_somewhere = any(
            p in model.member_names(model.find_class(b))
            for b in backends_cfg if model.find_class(b) is not None)
        if not defined_somewhere:
            add(findings, fm, line, "contract-probe-dangling",
                f"`requires`-probe for member '{p}' matches no configured "
                f"backend and is not in the declared probe list "
                f"(layers.toml [semantic.contract] probed); the probed "
                f"fast path is dead — was the hook renamed?")
        else:
            add(findings, fm, line, "contract-probe-dangling",
                f"`requires`-probe for member '{p}' is not declared in "
                f"layers.toml [semantic.contract] probed; declare it so "
                f"backend conformance covers this hook")
    matrix["probes_seen"] = sorted(probes_seen)
    model.capability_matrix = matrix
    return matrix


def _cfg_file(model):
    for fm in model.files.values():
        return fm
    raise RuntimeError("empty model")


def format_matrix(matrix):
    """Render the capability matrix as a markdown table."""
    probed = matrix["probed"]
    lines = ["| backend | engine | " + " | ".join(probed) + " |",
             "|---|---|" + "---|" * len(probed)]
    for name, row in sorted(matrix["backends"].items()):
        cells = [name, "yes" if row["engine_backend"] else "no"]
        for p in probed:
            if p in row["detected"]:
                mark = "yes" if p in row["declared"] else "yes (undeclared)"
            else:
                mark = "declared, MISSING" if p in row["declared"] else "-"
            cells.append(mark)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
