"""Intermediate model shared by the two semantic-analyzer frontends.

The passes (tools/semantic/passes/) consume only these types, so the
libclang frontend and the ast_lite fallback are interchangeable: both
produce a Model holding per-file token streams plus the parsed entities
(classes with typed members, functions with typed params and body token
ranges, explicit template instantiations, using-aliases).
"""

import os


class Finding:
    """One analyzer finding.  `level` is the SARIF severity; suppressed
    findings were silenced by an allow() pragma, baselined ones by an
    entry in the audited baseline file."""

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.suppressed = False
        self.baselined = False
        self.level = "error"

    def __str__(self):
        tag = " [baselined]" if self.baselined else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{tag}"


class FileModel:
    """One source file: token stream + per-line comment text."""

    def __init__(self, rel, tokens, comments):
        self.rel = rel
        self.tokens = tokens
        self.comments = comments

    @property
    def module(self):
        parts = self.rel.split("/")
        if parts[0] == "src" and len(parts) > 1:
            return parts[1]
        return parts[0]


class ClassInfo:
    def __init__(self, name, namespace, file, line, template_params=(),
                 synthetic=False):
        self.name = name                    # simple name
        self.namespace = namespace          # 'igs::graph'
        self.file = file
        self.line = line
        self.template_params = list(template_params)
        self.synthetic = synthetic          # inferred from out-of-line defs
        self.bases = []                     # base-class simple names
        self.members = {}                   # simple name -> [FunctionInfo]
        self.fields = {}                    # field name -> type base name
        self.field_lines = {}               # field name -> line
        self.field_types = {}               # field name -> full type text

    @property
    def qual(self):
        return f"{self.namespace}::{self.name}" if self.namespace \
            else self.name

    def add_member(self, fn):
        self.members.setdefault(fn.name, []).append(fn)

    def __repr__(self):
        return f"<class {self.qual}>"


class FunctionInfo:
    def __init__(self, name, file, line, cls=None, template_params=(),
                 params=(), return_type="", body=None, virtual=False):
        self.name = name
        self.file = file                    # FileModel
        self.line = line
        self.cls = cls                      # ClassInfo or None
        self.template_params = list(template_params)
        self.params = list(params)          # [(type_base, name, full_text)]
        self.return_type = return_type      # base name of the return type
        self.body = body                    # (lo, hi) token range or None
        self.virtual = virtual
        self._locals = None                 # lazy: body VarDecls

    @property
    def key(self):
        return f"{self.file.rel}:{self.qual_name}:{self.line}"

    @property
    def qual_name(self):
        return f"{self.cls.name}::{self.name}" if self.cls else self.name

    def __repr__(self):
        return self.key


class VarDecl:
    __slots__ = ("name", "type_base", "line", "decl_idx", "init_lo",
                 "init_hi")

    def __init__(self, name, type_base, line, decl_idx, init_lo, init_hi):
        self.name = name
        self.type_base = type_base          # 'auto' possible
        self.line = line
        self.decl_idx = decl_idx            # token index of the name
        self.init_lo = init_lo              # initializer token range
        self.init_hi = init_hi


class LambdaInfo:
    __slots__ = ("cap_lo", "cap_hi", "body_lo", "body_hi", "line")

    def __init__(self, cap_lo, cap_hi, body_lo, body_hi, line):
        self.cap_lo = cap_lo
        self.cap_hi = cap_hi
        self.body_lo = body_lo
        self.body_hi = body_hi
        self.line = line


class CallSite:
    __slots__ = ("name", "receiver", "qualifier", "targs", "idx", "line",
                 "arg_lo", "arg_hi")

    def __init__(self, name, receiver, qualifier, targs, idx, line,
                 arg_lo, arg_hi):
        self.name = name                    # simple callee name
        self.receiver = receiver            # receiver id text or None
        self.qualifier = qualifier          # 'A::B' qualifier text or None
        self.targs = targs                  # explicit template args (texts)
        self.idx = idx                      # token index of the name
        self.line = line
        self.arg_lo = arg_lo                # argument token range ( ... )
        self.arg_hi = arg_hi


class RequiresBranch:
    """`if constexpr (requires { recv.m1(..); recv.m2(..); }) {A} else {B}`.
    negated=True for `if constexpr (!requires ...)` (A/B swap roles)."""

    __slots__ = ("receiver", "probes", "then_lo", "then_hi", "else_lo",
                 "else_hi", "line", "negated")

    def __init__(self, receiver, probes, then_lo, then_hi, else_lo, else_hi,
                 line, negated=False):
        self.receiver = receiver
        self.probes = probes                # probed member names
        self.then_lo = then_lo
        self.then_hi = then_hi
        self.else_lo = else_lo              # -1 when absent
        self.else_hi = else_hi
        self.line = line
        self.negated = negated


class Instantiation:
    __slots__ = ("class_name", "args", "file", "line", "explicit")

    def __init__(self, class_name, args, file, line, explicit=True):
        self.class_name = class_name
        self.args = args                    # argument type texts
        self.file = file
        self.line = line
        self.explicit = explicit


class Model:
    """Whole-program view the passes consume."""

    def __init__(self, root):
        self.root = root
        self.files = {}                     # rel -> FileModel
        self.classes = {}                   # simple name -> [ClassInfo]
        self.functions = []                 # every FunctionInfo
        self.by_name = {}                   # simple name -> [FunctionInfo]
        self.instantiations = []            # Instantiation
        self.aliases = {}                   # alias name -> target type text
        self.frontend = "ast_lite"
        self.frontend_notes = []

    def add_class(self, ci):
        self.classes.setdefault(ci.name, []).append(ci)

    def add_function(self, fn):
        self.functions.append(fn)
        self.by_name.setdefault(fn.name, []).append(fn)

    def find_class(self, name):
        """The ClassInfo for a (possibly qualified) type name, or None.
        With several same-named classes, prefers one defined under src/."""
        simple = name.split("::")[-1]
        cands = self.classes.get(simple, [])
        if not cands:
            return None
        ranked = sorted(cands, key=lambda ci: (
            ci.synthetic, not ci.file.rel.startswith("src/")))
        return ranked[0]

    def lineage(self, ci):
        """`ci` then its base classes (breadth-first, each once); bases
        the model never parsed (std::, gtest) are skipped."""
        out = [ci]
        for c in out:
            for b in c.bases:
                bc = self.find_class(b)
                if bc is not None and bc not in out:
                    out.append(bc)
        return out

    def members(self, ci, name):
        """The member functions `name` of `ci`: its own, else those of
        the nearest base declaring it (a derived member hides the
        base's, as in C++ name lookup)."""
        for c in self.lineage(ci):
            if name in c.members:
                return c.members[name]
        return []

    def member_names(self, ci):
        """Every member function name of `ci`, inherited ones included."""
        return {n for c in self.lineage(ci) for n in c.members}

    def field_type(self, ci, name):
        """Type base name of field `name` of `ci` or a base, or None."""
        for c in self.lineage(ci):
            if name in c.fields:
                return c.fields[name]
        return None

    def src_functions(self):
        return [f for f in self.functions if f.file.rel.startswith("src/")]


# --- type text helpers ----------------------------------------------------

_TYPE_NOISE = frozenset({
    "const", "volatile", "static", "inline", "constexpr", "mutable",
    "typename", "struct", "class", "register", "thread_local", "extern",
    "virtual", "explicit", "friend", "unsigned", "signed", "long", "short",
})


def type_base(tokens_or_text):
    """Reduce a type spelling to its base identifier: the last identifier
    of the outermost (non-std) name chain, template arguments stripped.
    'const graph::SnapshotView&' -> 'SnapshotView'; 'GraphT' -> 'GraphT';
    'std::vector<Neighbor>' -> 'vector'."""
    if isinstance(tokens_or_text, str):
        words = _split_type_words(tokens_or_text)
    else:
        words = [t.text for t in tokens_or_text if t.kind == "id"]
        # Template arguments of the chain head are part of the spelling;
        # cut at the first '<' so 'vector<Neighbor>' keeps 'vector'.
        cut = []
        depth = 0
        for t in tokens_or_text:
            if t.kind == "punct" and t.text == "<":
                depth += 1
            elif t.kind == "punct" and (t.text == ">" or t.text == ">>"):
                depth -= 2 if t.text == ">>" else 1
            elif depth == 0 and t.kind == "id":
                cut.append(t.text)
        words = cut or words
    words = [w for w in words if w not in _TYPE_NOISE]
    return words[-1] if words else ""


def _split_type_words(text):
    out, cur, depth = [], "", 0
    for ch in text:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        if depth == 0 and (ch.isalnum() or ch == "_"):
            cur += ch
        else:
            if cur:
                out.append(cur)
            cur = ""
    if cur:
        out.append(cur)
    return out


def module_of(rel):
    parts = rel.replace(os.sep, "/").split("/")
    if parts[0] == "src" and len(parts) > 1:
        return parts[1]
    return parts[0]
