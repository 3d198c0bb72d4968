"""Value-range / narrowing analysis on the [hot_paths] root files.

The hot kernels index with `VertexId`/uint32 run offsets (PR 1's radix
pipeline, the hybrid store's dense-array indices) while the surrounding
math runs in `size_t`/uint64.  Every `static_cast` to a narrow unsigned
type is therefore a proof obligation:

  interval domain  flow-insensitive per file.  A guard-macro call
                   (`IGS_CHECK(n <= std::numeric_limits<uint32_t>::
                   max())`, [dataflow.intervals].guard_macros)
                   establishes an upper-bound fact for its left-hand
                   expression, keyed by normalized spelling, valid
                   file-wide (the repo guards at entry points and casts
                   downstream — see the soundness caveats in DESIGN.md
                   §10).  A local initialized from an integer literal
                   gets a constant interval.
  obligations      `static_cast<N>(e)` where N is uint8/16/32_t or a
                   [dataflow.intervals].narrow_aliases alias, and e is
                   a single identifier of a [dataflow.intervals]
                   .wide_types type, a `.size()` chain, or a literal.
                   Operands whose declared type cannot be established
                   (pointer differences, mixed arithmetic) are skipped —
                   over-approximating them would drown the signal.

Rules:
  narrowing-overflow   the operand's interval provably exceeds the
                       target's maximum (constant propagation) — always
                       a bug.
  unproven-narrowing   a wide operand with no dominating guard fact and
                       no constant bound: either add the guard or audit
                       the invariant with an allow() pragma.
"""

import fnmatch

from semantic import ast_lite
from semantic.cpp_lexer import match_angle, match_delim
from semantic.passes import add

_BUILTIN_NARROW = {"uint8_t": 255, "uint16_t": 65535,
                   "uint32_t": 4294967295}
_LIMIT_MAX = {"uint8_t": 255, "uint16_t": 65535,
              "uint32_t": 4294967295, "uint64_t": 2**64 - 1,
              "size_t": 2**64 - 1, "int32_t": 2**31 - 1,
              "int64_t": 2**63 - 1}


def run(model, config, findings):
    cfg = config.get("dataflow", {}).get("intervals", {})
    narrow = dict(_BUILTIN_NARROW)
    for alias, mx in cfg.get("narrow_aliases", {}).items():
        narrow[alias] = int(mx)
    wide = set(cfg.get("wide_types", ())) | {"size_t", "uint64_t"}
    guards = set(cfg.get("guard_macros", ("IGS_CHECK", "IGS_CHECK_MSG",
                                          "IGS_DCHECK")))
    root_files = _root_files(model, config.get("hot_paths", {})
                             .get("roots", ()))
    for rel in sorted(root_files):
        fm = model.files[rel]
        facts = _guard_facts(fm.tokens, guards, narrow)
        for fn in model.functions:
            if fn.file is not fm or fn.body is None:
                continue
            _check_function(fn, facts, narrow, wide, findings)


def _root_files(model, roots):
    out = set()
    for spec in roots:
        path, _, _name = spec.rpartition(":")
        for rel in model.files:
            if rel == path or fnmatch.fnmatch(rel, path):
                out.add(rel)
    return out


def _norm(toks):
    return "".join(t.text for t in toks)


def _literal(text):
    t = text.replace("'", "").rstrip("uUlLzZ")
    try:
        return int(t, 0)
    except ValueError:
        return None


def _guard_facts(toks, guards, narrow):
    """{normalized lhs expression: proven upper bound} from guard-macro
    calls across the whole file (strongest bound wins)."""
    facts = {}
    for c in ast_lite.iter_calls(toks, 0, len(toks)):
        if c.name not in guards:
            continue
        cond = _first_arg(toks, c.arg_lo, c.arg_hi)
        bound_kind, lhs, rhs = _split_cmp(cond)
        if lhs is None:
            continue
        bound = _rhs_bound(rhs)
        if bound is None:
            continue
        if bound_kind == "<":
            bound -= 1
        key = _norm(lhs)
        if key:
            facts[key] = min(facts.get(key, bound), bound)
    return facts


def _first_arg(toks, lo, hi):
    """Tokens of the first top-level argument (guard condition)."""
    depth = 0
    out = []
    for k in range(lo, hi):
        t = toks[k]
        if t.kind == "punct":
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
            elif t.text == ">>":
                depth -= 2
            elif t.text == "," and depth == 0:
                break
        out.append(t)
    return out


def _split_cmp(cond):
    """('<=' | '<', lhs tokens, rhs tokens) at the top level of a guard
    condition, or (None, None, None)."""
    depth = 0
    for j, t in enumerate(cond):
        if t.kind != "punct":
            continue
        if t.text in ("(", "[", "{", "<") and j and \
                cond[j - 1].kind == "id" and t.text == "<" and \
                cond[j - 1].text in ("numeric_limits", "max", "min",
                                     "vector", "array"):
            depth += 1
        elif t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}", ">") and depth > 0:
            depth -= 1
        elif t.text == ">>" and depth > 0:
            depth -= 2
        elif depth == 0 and t.text in ("<=", "<"):
            return t.text, cond[:j], cond[j + 1:]
    return None, None, None


def _rhs_bound(rhs):
    """Value of the guard's right-hand side: an integer literal, or the
    max() of a known-width numeric_limits instantiation."""
    if len(rhs) == 1 and rhs[0].kind == "num":
        return _literal(rhs[0].text)
    ids = [t.text for t in rhs if t.kind == "id"]
    if "max" in ids and "numeric_limits" in ids:
        for name in ids:
            if name in _LIMIT_MAX:
                return _LIMIT_MAX[name]
    return None


def _check_function(fn, facts, narrow, wide, findings):
    toks = fn.file.tokens
    lo, hi = fn.body
    locals_ = None
    k = lo
    while k < hi:
        t = toks[k]
        if not (t.kind == "id" and t.text == "static_cast" and
                k + 1 < hi and toks[k + 1].text == "<"):
            k += 1
            continue
        close = match_angle(toks, k + 1)
        if close < 0 or close + 1 >= hi or toks[close + 1].text != "(":
            k += 1
            continue
        pclose = match_delim(toks, close + 1, "(", ")")
        if pclose < 0:
            k += 1
            continue
        target_ids = [x.text for x in toks[k + 2:close] if x.kind == "id"]
        target = target_ids[-1] if target_ids else ""
        if target not in narrow:
            k = pclose + 1
            continue
        if locals_ is None:
            locals_ = list(ast_lite.iter_locals(toks, lo, hi))
        _check_cast(fn, toks[close + 2:pclose], target, narrow[target],
                    t.line, facts, locals_, wide, findings)
        k = pclose + 1


def _check_cast(fn, operand, target, target_max, line, facts, locals_,
                wide, findings):
    if not operand:
        return
    key = _norm(operand)
    # 1. Literal operand: decide exactly.
    if len(operand) == 1 and operand[0].kind == "num":
        value = _literal(operand[0].text)
        if value is not None and value > target_max:
            add(findings, fn.file, line, "narrowing-overflow",
                f"static_cast<{target}>({key}) provably overflows: "
                f"{value} > {target_max} in '{fn.qual_name}'")
        return
    # 2. Single identifier of wide type.
    if len(operand) == 1 and operand[0].kind == "id":
        name = operand[0].text
        decl = _decl_of(fn, locals_, name)
        if decl is None:
            return                  # type unknown: out of the domain
        type_base, init = decl
        if type_base not in wide:
            return                  # already narrow or non-integer
        if init is not None and _mutated(fn, name):
            init = None             # accumulator: initializer is no bound
        if init is not None:
            value = _literal(init)
            if value is not None:
                if value > target_max:
                    add(findings, fn.file, line, "narrowing-overflow",
                        f"static_cast<{target}>({name}) provably "
                        f"overflows: '{name}' is {value} (initialized "
                        f"line-locally) > {target_max} in "
                        f"'{fn.qual_name}'")
                return              # constant interval decided either way
        if facts.get(name, target_max + 1) <= target_max:
            return                  # guard fact proves the cast
        add(findings, fn.file, line, "unproven-narrowing",
            f"static_cast<{target}>({name}) narrows {type_base} with no "
            f"dominating guard; add IGS_CHECK({name} <= "
            f"std::numeric_limits<std::{target}>::max()) or audit with "
            f"an allow() pragma in '{fn.qual_name}'")
        return
    # 3. `expr.size()` chain: size_t-wide by construction.
    if len(operand) >= 4 and operand[-1].text == ")" and \
            operand[-2].text == "(" and operand[-3].text == "size" and \
            operand[-4].text in (".", "->"):
        if facts.get(key, target_max + 1) <= target_max:
            return
        add(findings, fn.file, line, "unproven-narrowing",
            f"static_cast<{target}>({key}) narrows a size_t container "
            f"size with no dominating guard; add IGS_CHECK({key} <= "
            f"std::numeric_limits<std::{target}>::max()) or audit with "
            f"an allow() pragma in '{fn.qual_name}'")
    # Anything else (arithmetic, pointer differences) is outside the
    # abstract domain: skipped, see DESIGN.md §10.


_MUTATORS = frozenset({"=", "+=", "-=", "*=", "/=", "++", "--"})


def _mutated(fn, name):
    """True when `name` is written after its declaration anywhere in the
    function body (so a literal initializer is not a constant bound)."""
    toks = fn.file.tokens
    lo, hi = fn.body
    seen_decl = False
    for k in range(lo, hi):
        t = toks[k]
        if t.kind != "id" or t.text != name:
            continue
        if not seen_decl:
            seen_decl = True        # first sighting: the declaration
            continue
        if k + 1 < hi and toks[k + 1].kind == "punct" and \
                toks[k + 1].text in _MUTATORS:
            return True
        if k > lo and toks[k - 1].kind == "punct" and \
                toks[k - 1].text in ("++", "--"):
            return True
    return False


def _decl_of(fn, locals_, name):
    """(type_base, literal initializer text or None) for an identifier:
    local, parameter, or enclosing-class field."""
    for v in locals_:
        if v.name == name:
            toks = fn.file.tokens
            init = None
            # `= <num> ;` or `{<num>}` / `(<num>)` initializers
            span = toks[v.init_lo:v.init_hi]
            nums = [t for t in span if t.kind == "num"]
            ids = [t for t in span if t.kind == "id"]
            if len(nums) == 1 and not ids:
                init = nums[0].text
            return (v.type_base, init)
    for tb, pname, _full in fn.params:
        if pname == name:
            return (tb, None)
    if fn.cls is not None and name in fn.cls.fields:
        return (fn.cls.fields[name], None)
    return None
