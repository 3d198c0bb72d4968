"""Atomic publication pairing (release/acquire edge verification).

Epoch publication is a release/acquire protocol (DESIGN.md §11): the
update stage release-stores a flag/epoch after making the snapshot
visible and the compute stage acquire-loads it before reading.  TSan
only checks the interleavings a given run happens to schedule; this pass
checks the *protocol* statically:

  object model   every `std::atomic`/`std::atomic_flag` class field
                 (keyed `Class::field`) or local is one abstract object.
                 Atomics reaching a function through parameters or
                 computed expressions are skipped — cross-function
                 aliasing is out of scope (documented caveat, DESIGN.md
                 §10).
  op model       member calls load/store/exchange/fetch_*/
                 compare_exchange_*/test_and_set/test/clear, with the
                 memory order parsed from the argument list (no explicit
                 order == seq_cst).  RMW ops count on both sides of the
                 edge.
  publication    an object is a *publication object* when any of its ops
                 carries an ordering at-or-above acquire/release.
                 All-relaxed objects (telemetry counters, statistics)
                 are plain shared counters and stay exempt.

Rules:
  unpaired-release-store   release-side op with release(+)/seq_cst order
                           but no acquire-side observer on the same
                           object anywhere in src/ — one-sided edge.
  unpaired-acquire-load    acquire-side op with acquire(+)/seq_cst order
                           but no release-side producer — ditto.
  relaxed-publication-store  a relaxed *write* on a publication object:
                           it can be reordered past the object's release
                           edge.  Relaxed loads (spin-hints before the
                           acquire retry) are idiomatic and exempt.

Each finding names the `check_matrix.sh` TSan leg whose schedule
deep-run exercises the same interleavings ([dataflow.publication]).
"""

from semantic import ast_lite
from semantic.passes import add

LOAD_OPS = frozenset({"load", "test"})
STORE_OPS = frozenset({"store", "clear"})
RMW_OPS = frozenset({"exchange", "fetch_add", "fetch_sub", "fetch_and",
                     "fetch_or", "fetch_xor", "test_and_set",
                     "compare_exchange_weak", "compare_exchange_strong"})
ATOMIC_OPS = LOAD_OPS | STORE_OPS | RMW_OPS
ATOMIC_TYPES = frozenset({"atomic", "atomic_flag"})

_RANK = {"relaxed": 0, "consume": 1, "acquire": 2, "release": 2,
         "acq_rel": 3, "seq_cst": 4}
_ACQ = frozenset({"consume", "acquire", "acq_rel", "seq_cst"})
_REL = frozenset({"release", "acq_rel", "seq_cst"})


class _Op:
    __slots__ = ("fm", "line", "name", "order", "fn")

    def __init__(self, fm, line, name, order, fn):
        self.fm = fm
        self.line = line
        self.name = name
        self.order = order
        self.fn = fn


def run(model, config, findings):
    cfg = config.get("dataflow", {}).get("publication", {})
    legs = cfg.get("tsan_legs", {})
    default_leg = cfg.get("default_leg", "tsan")

    objects = {}                # key -> (label, [_Op])
    for fn in model.functions:
        if fn.body is None or not fn.file.rel.startswith("src/"):
            continue
        toks = fn.file.tokens
        local_types = None
        for c in ast_lite.iter_calls(toks, *fn.body):
            if c.name not in ATOMIC_OPS or c.receiver is None or \
                    c.receiver == "<expr>":
                continue
            key = label = None
            if fn.cls is not None and c.receiver in fn.cls.fields:
                if fn.cls.fields[c.receiver] in ATOMIC_TYPES:
                    key = f"{fn.cls.qual}::{c.receiver}"
                    label = f"'{fn.cls.name}::{c.receiver}'"
            else:
                if local_types is None:
                    local_types = {v.name: v.type_base for v in
                                   ast_lite.iter_locals(toks, *fn.body)}
                if local_types.get(c.receiver) in ATOMIC_TYPES:
                    key = f"{fn.key}::{c.receiver}"
                    label = f"local '{c.receiver}' in '{fn.qual_name}'"
            if key is None:
                continue
            order = _parse_order(toks, c.arg_lo, c.arg_hi)
            objects.setdefault(key, (label, []))[1].append(
                _Op(fn.file, c.line, c.name, order, fn))

    for key in sorted(objects):
        label, ops = objects[key]
        _check_object(label, ops, legs, default_leg, findings)


def _parse_order(toks, lo, hi):
    """Strongest memory order named in an argument range; seq_cst when
    none is spelled (the C++ default)."""
    orders = []
    k = lo
    while k < hi:
        t = toks[k]
        if t.kind == "id":
            if t.text.startswith("memory_order_"):
                orders.append(t.text[len("memory_order_"):])
            elif t.text == "memory_order":
                # std::memory_order::release spelling
                for q in range(k + 1, min(k + 3, hi)):
                    if toks[q].kind == "id":
                        orders.append(toks[q].text)
                        break
        k += 1
    orders = [o for o in orders if o in _RANK]
    if not orders:
        return "seq_cst"
    return max(orders, key=lambda o: _RANK[o])


def _check_object(label, ops, legs, default_leg, findings):
    rel_side = [op for op in ops if op.name in STORE_OPS | RMW_OPS]
    acq_side = [op for op in ops if op.name in LOAD_OPS | RMW_OPS]
    rel_strong = [op for op in rel_side if op.order in _REL]
    acq_strong = [op for op in acq_side if op.order in _ACQ]
    if not rel_strong and not acq_strong:
        return                      # all-relaxed counter: not publication
    leg0 = _leg(ops[0].fm.rel, legs, default_leg)
    if rel_strong and not acq_strong:
        for op in rel_strong:
            add(findings, op.fm, op.line, "unpaired-release-store",
                f"release-ordered '{op.name}({op.order})' on {label} has "
                f"no acquire-side observer anywhere in src/; the "
                f"publication edge is one-sided (cross-check with "
                f"`tools/check_matrix.sh {_leg(op.fm.rel, legs, default_leg)}`)")
    if acq_strong and not rel_strong:
        for op in acq_strong:
            add(findings, op.fm, op.line, "unpaired-acquire-load",
                f"acquire-ordered '{op.name}({op.order})' on {label} has "
                f"no release-side producer anywhere in src/; the "
                f"publication edge is one-sided (cross-check with "
                f"`tools/check_matrix.sh {_leg(op.fm.rel, legs, default_leg)}`)")
    for op in rel_side:
        if op.order == "relaxed":
            strong = rel_strong[0] if rel_strong else acq_strong[0]
            add(findings, op.fm, op.line, "relaxed-publication-store",
                f"relaxed '{op.name}()' writes publication object "
                f"{label} (which carries a "
                f"{strong.order}-ordered '{strong.name}' at "
                f"{strong.fm.rel}:{strong.line}); a relaxed write can be "
                f"reordered past the release edge (cross-check with "
                f"`tools/check_matrix.sh {leg0}`)")


def _leg(rel, legs, default_leg):
    best = None
    for prefix, leg in legs.items():
        if rel.startswith(prefix) and \
                (best is None or len(prefix) > len(best[0])):
            best = (prefix, leg)
    return best[1] if best else default_leg
