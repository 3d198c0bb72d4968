"""ast_lite — the always-available C++ frontend of the semantic analyzer.

A lightweight recursive scanner over the token stream (cpp_lexer) that
recovers the structure the passes need: namespaces, (template) classes
with member functions and typed fields, free and out-of-line member
function definitions with typed parameter lists and body token ranges,
explicit template instantiations, and using-aliases.

It is deliberately tuned to this repository's idiom (see DESIGN.md §10)
and over-approximates where C++ is ambiguous: a spurious function or
field only widens the call graph, it cannot hide real code from the
escape analysis.  Bodies are stored as token ranges and analyzed lazily
by body_scan helpers (calls, locals, lambdas, constexpr-requires
branches).
"""

from . import cpp_lexer
from .cpp_lexer import match_angle, match_delim
from .model import (CallSite, ClassInfo, FileModel, FunctionInfo,
                    Instantiation, LambdaInfo, Model, RequiresBranch,
                    VarDecl, type_base)

KEYWORDS_NOT_FN = frozenset({
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "decltype", "noexcept", "static_assert", "new", "delete",
    "throw", "else", "do", "case", "default", "defined", "requires",
    "template", "using", "typedef", "goto", "and", "or", "not", "assert",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "typename", "constexpr", "consteval", "co_await", "co_return",
})

QUAL_TOKENS = frozenset({
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "&", "&&", "->",
})


def parse_file(model, rel, text):
    tokens, comments = cpp_lexer.tokenize(text)
    fm = FileModel(rel, tokens, comments)
    model.files[rel] = fm
    _Parser(model, fm).run()
    return fm


class _Scope:
    __slots__ = ("kind", "name", "cls")

    def __init__(self, kind, name="", cls=None):
        self.kind = kind                    # 'ns' | 'class' | 'block'
        self.name = name
        self.cls = cls


class _Parser:
    def __init__(self, model, fm):
        self.model = model
        self.fm = fm
        self.toks = fm.tokens
        self.scopes = []

    # -- helpers ---------------------------------------------------------

    def namespace(self):
        return "::".join(s.name for s in self.scopes
                         if s.kind == "ns" and s.name)

    def cur_class(self):
        for s in reversed(self.scopes):
            if s.kind == "class":
                return s.cls
        return None

    # -- main loop -------------------------------------------------------

    def run(self):
        toks = self.toks
        i = 0
        n = len(toks)
        stmt = []                           # token indices of the statement
        pending_template = None             # param names of `template <...>`
        while i < n:
            t = toks[i]
            if t.kind == "pp":
                i += 1
                continue
            if t.kind == "id" and t.text == "template":
                if i + 1 < n and toks[i + 1].text == "<":
                    close = match_angle(toks, i + 1)
                    if close > 0:
                        pending_template = self._template_params(i + 2,
                                                                 close)
                        i = close + 1
                        continue
                # `template class X<...>;` explicit instantiation: keep
                # the token in the statement.
            if t.kind == "id" and not stmt and \
                    t.text in ("public", "private", "protected") and \
                    i + 1 < n and toks[i + 1].text == ":":
                i += 2
                continue
            if t.kind == "id" and t.text == "namespace" and not stmt:
                i = self._enter_namespace(i)
                continue
            if t.kind == "id" and t.text in ("class", "struct") and \
                    not any(toks[k].text in ("enum", "template", "friend")
                            for k in stmt):
                ni = self._try_class(i, pending_template)
                if ni > 0:
                    pending_template = None
                    stmt = []
                    i = ni
                    continue
            if t.kind == "punct" and t.text == "{":
                fn = self._try_function(stmt, i, pending_template)
                if fn is not None:
                    close = match_delim(toks, i, "{", "}")
                    close = n - 1 if close < 0 else close
                    fn.body = (i + 1, close)
                    pending_template = None
                    stmt = []
                    i = close + 1
                    continue
                if stmt:
                    # Braced initializer inside a declaration: skip it but
                    # keep the statement open (field/variable decl).
                    close = match_delim(toks, i, "{", "}")
                    close = n - 1 if close < 0 else close
                    i = close + 1
                    continue
                self.scopes.append(_Scope("block"))
                i += 1
                continue
            if t.kind == "punct" and t.text == "}":
                if self.scopes:
                    left = self.scopes.pop()
                    if left.kind == "class" and i + 1 < n and \
                            toks[i + 1].text == ";":
                        i += 1
                stmt = []
                i += 1
                continue
            if t.kind == "punct" and t.text == ";":
                self._statement(stmt, pending_template)
                pending_template = None
                stmt = []
                i += 1
                continue
            stmt.append(i)
            i += 1

    # -- constructs ------------------------------------------------------

    def _template_params(self, lo, hi):
        """Names of the type parameters in template <...> (indices)."""
        toks = self.toks
        names = []
        depth = 0
        k = lo
        while k < hi:
            t = toks[k]
            if t.kind == "punct":
                if t.text == "<":
                    depth += 1
                elif t.text in (">", ">>"):
                    depth -= 1
            elif depth == 0 and t.kind == "id" and \
                    t.text in ("typename", "class"):
                if k + 1 < hi and toks[k + 1].kind == "id":
                    names.append(toks[k + 1].text)
                    k += 1
            k += 1
        return names

    def _enter_namespace(self, i):
        toks = self.toks
        names = []
        k = i + 1
        while k < len(toks) and toks[k].kind == "id":
            names.append(toks[k].text)
            k += 1
            if k < len(toks) and toks[k].text == "::":
                k += 1
        if k < len(toks) and toks[k].text == "{":
            for nm in names or [""]:
                self.scopes.append(_Scope("ns", nm))
            if len(names) > 1:
                # collapse A::B into the right number of pops: mark the
                # extras as blocks-with-name already handled by pops at '}'
                # -- each '{' gets exactly one '}', so fold to one scope.
                for _ in range(len(names) - 1):
                    self.scopes.pop()
                self.scopes.append(_Scope("ns", "::".join(names[1:])))
                self.scopes.insert(len(self.scopes) - 1,
                                   _Scope("ns", names[0]))
                self.scopes.pop()
                self.scopes[-1] = _Scope("ns", "::".join(names))
            return k + 1
        # `namespace X = ...;` alias or `using namespace` tail: skip to ';'
        while k < len(toks) and toks[k].text != ";":
            k += 1
        return k + 1

    def _try_class(self, i, template_params):
        """Parse `class|struct NAME [final] [: bases] {` at index i.
        Returns the index just past '{', or -1 if not a definition."""
        toks = self.toks
        k = i + 1
        # attribute-ish macros between keyword and name
        while k < len(toks) and toks[k].kind == "id" and \
                k + 1 < len(toks) and toks[k + 1].text == "(":
            close = match_delim(toks, k + 1, "(", ")")
            if close < 0:
                return -1
            k = close + 1
        if k >= len(toks) or toks[k].kind != "id":
            return -1
        name = toks[k].text
        line = toks[k].line
        k += 1
        # template specialization arguments on the name
        if k < len(toks) and toks[k].text == "<":
            close = match_angle(toks, k)
            if close < 0:
                return -1
            k = close + 1
        while k < len(toks) and toks[k].kind == "id" and \
                toks[k].text == "final":
            k += 1
        if k < len(toks) and toks[k].text == ":":
            while k < len(toks) and toks[k].text not in ("{", ";"):
                k += 1
        if k >= len(toks) or toks[k].text != "{":
            return -1
        ci = ClassInfo(name, self.namespace(), self.fm, line,
                       template_params or ())
        self.model.add_class(ci)
        self.scopes.append(_Scope("class", name, ci))
        return k + 1

    def _try_function(self, stmt, brace_idx, template_params):
        """Does the statement before `{` parse as a function signature?
        Returns a registered FunctionInfo (body set by caller) or None."""
        toks = self.toks
        if not stmt:
            return None
        # Find the parameter list: the first top-level (...) group whose
        # opener is preceded by a plausible function name (ctor init-list
        # entries and trailing annotation macros come after it).
        close_at = -1
        open_at = -1
        depth = 0
        for pos, ti in enumerate(stmt):
            t = toks[ti]
            if t.kind != "punct":
                continue
            if t.text == "(":
                if depth == 0 and open_at < 0 and pos > 0:
                    prev = toks[stmt[pos - 1]]
                    name_like = (
                        (prev.kind == "id" and
                         prev.text not in KEYWORDS_NOT_FN) or
                        (prev.kind == "punct" and
                         prev.text in (">", ">>")) or
                        (prev.kind == "punct" and pos >= 2 and
                         toks[stmt[pos - 2]].kind == "id" and
                         toks[stmt[pos - 2]].text == "operator"))
                    if name_like:
                        open_at = pos
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0 and open_at >= 0 and close_at < 0:
                    close_at = pos
        if close_at < 0:
            return None
        # Tokens after ')' must be qualifiers, attribute macros, a ctor
        # init-list, or a trailing return type.
        pos = close_at + 1
        while pos < len(stmt):
            t = toks[stmt[pos]]
            if t.kind == "punct" and t.text == ":":
                break                       # ctor member-init-list
            if t.kind == "id":
                if t.text in QUAL_TOKENS or t.text.isupper() or \
                        t.text.startswith("IGS_"):
                    # qualifier keyword or annotation macro
                    if pos + 1 < len(stmt) and \
                            toks[stmt[pos + 1]].text == "(":
                        d = 0
                        pos += 1
                        while pos < len(stmt):
                            tt = toks[stmt[pos]].text
                            if tt == "(":
                                d += 1
                            elif tt == ")":
                                d -= 1
                                if d == 0:
                                    break
                            pos += 1
                    pos += 1
                    continue
                # trailing-return-type / init-list identifiers
                pos += 1
                continue
            if t.kind == "punct" and t.text in ("&", "&&", "->", "::", "<",
                                                ">", ",", ":", "(", ")"):
                pos += 1
                continue
            return None
        # The name: identifier chain immediately before '('.
        np = open_at - 1
        if np < 0:
            return None
        # operator functions: `operator ==` etc.
        name = None
        cls_name = None
        t = toks[stmt[np]]
        if t.kind == "punct" and t.text in (">", ">>"):
            # destructor-with-template or name<T>(...): walk to matching '<'
            d = 0
            while np >= 0:
                tt = toks[stmt[np]].text
                if tt in (">", ">>"):
                    d += 2 if tt == ">>" else 1
                elif tt == "<":
                    d -= 1
                    if d == 0:
                        np -= 1
                        break
                np -= 1
            t = toks[stmt[np]] if np >= 0 else None
        if t is None:
            return None
        if t.kind == "id":
            name = t.text
        elif t.kind == "punct" and np >= 1 and \
                toks[stmt[np - 1]].kind == "id" and \
                toks[stmt[np - 1]].text == "operator":
            name = "operator" + t.text
            np -= 1
        else:
            return None
        if name in KEYWORDS_NOT_FN:
            return None
        line = toks[stmt[np]].line
        # Qualified name: Class[<T>]:: before it?
        qp = np - 1
        if qp >= 0 and toks[stmt[qp]].text == "::":
            qp -= 1
            if qp >= 0 and toks[stmt[qp]].text in (">", ">>"):
                d = 0
                while qp >= 0:
                    tt = toks[stmt[qp]].text
                    if tt in (">", ">>"):
                        d += 2 if tt == ">>" else 1
                    elif tt == "<":
                        d -= 1
                        if d == 0:
                            qp -= 1
                            break
                    qp -= 1
            if qp >= 0 and toks[stmt[qp]].kind == "id":
                cls_name = toks[stmt[qp]].text
        # Return type: tokens before the (qualified) name.
        ret_end = qp if cls_name else np
        ret_toks = [toks[k] for k in stmt[:max(ret_end, 0)]
                    if toks[k].kind in ("id", "punct")]
        prefix_ids = [tk.text for tk in ret_toks if tk.kind == "id"]
        virtual = "virtual" in prefix_ids
        ret = type_base(ret_toks) if ret_toks else ""
        # Constructors: name == class name, no return type.
        cls = self.cur_class()
        if cls is None and cls_name:
            cls = self.model.find_class(cls_name)
            if cls is None:
                cls = ClassInfo(cls_name, self.namespace(), self.fm, line,
                                synthetic=True)
                self.model.add_class(cls)
        params = self._params([toks[k] for k in
                               stmt[open_at + 1:close_at]])
        fn = FunctionInfo(name, self.fm, line, cls=cls,
                          template_params=template_params or
                          (cls.template_params if cls and not cls_name
                           else template_params or ()),
                          params=params, return_type=ret, virtual=virtual)
        if cls is not None:
            cls.add_member(fn)
        self.model.add_function(fn)
        return fn

    def _params(self, ptoks):
        """[(type_base, name, full_text)] for a parameter token list."""
        groups = []
        cur = []
        depth = 0
        for t in ptoks:
            if t.kind == "punct":
                if t.text in ("(", "<", "[", "{"):
                    depth += 1
                elif t.text in (")", ">", "]", "}"):
                    depth -= 1
                elif t.text == ">>":
                    depth -= 2
                elif t.text == "," and depth == 0:
                    groups.append(cur)
                    cur = []
                    continue
            cur.append(t)
        if cur:
            groups.append(cur)
        out = []
        for g in groups:
            # strip default argument
            for j, t in enumerate(g):
                if t.kind == "punct" and t.text == "=":
                    g = g[:j]
                    break
            if not g:
                continue
            name = None
            tpart = g
            if len(g) >= 2 and g[-1].kind == "id" and \
                    not (g[-2].kind == "punct" and g[-2].text == "::"):
                name = g[-1].text
                tpart = g[:-1]
            out.append((type_base(tpart), name,
                        " ".join(t.text for t in g)))
        return out

    # -- non-function statements ----------------------------------------

    def _statement(self, stmt, template_params):
        toks = self.toks
        if not stmt:
            return
        texts = [toks[k].text for k in stmt]
        # using alias:  using NAME = TYPE
        if texts[0] == "using" and len(texts) >= 4 and texts[2] == "=":
            self.model.aliases[texts[1]] = "".join(texts[3:])
            return
        # explicit instantiation:  template class NAME<ARGS>
        if texts[0] == "template" and len(texts) >= 3 and \
                texts[1] in ("class", "struct"):
            name = texts[2]
            args = self._angle_args(stmt, 3)
            if args is not None:
                self.model.instantiations.append(Instantiation(
                    name, args, self.fm, toks[stmt[0]].line))
            return
        if texts[0] in ("extern", "friend", "public", "private",
                        "protected", "static_assert", "typedef"):
            return
        cls = self.cur_class()
        # member function declaration (no body):  ... name ( params ) quals
        has_paren = "(" in texts
        if cls is not None and has_paren:
            fn = self._try_decl(stmt, template_params)
            if fn is not None:
                return
        # field:  TYPE name  (class scope, no parens at top level)
        if cls is not None and not has_paren:
            self._try_field(stmt, cls)

    def _angle_args(self, stmt, start_pos):
        toks = self.toks
        if start_pos >= len(stmt) or toks[stmt[start_pos]].text != "<":
            return None
        args = []
        cur = []
        depth = 0
        for k in stmt[start_pos:]:
            t = toks[k]
            if t.kind == "punct":
                if t.text == "<":
                    depth += 1
                    if depth == 1:
                        continue
                elif t.text in (">", ">>"):
                    depth -= 2 if t.text == ">>" else 1
                    if depth <= 0:
                        break
                elif t.text == "," and depth == 1:
                    args.append("".join(cur))
                    cur = []
                    continue
            cur.append(t.text)
        if cur:
            args.append("".join(cur))
        return args

    def _try_decl(self, stmt, template_params):
        """Member function declaration ending in ';'.  Reuses the
        signature parser by pretending the ';' were a '{'."""
        toks = self.toks
        # Reject obvious non-declarations: assignment at top level before
        # the first '(' (e.g. `x = f(y)`), or call statements `f(x)`
        # with no leading type tokens -- a declaration in this repo's
        # style always has at least `Type name(`.
        depth = 0
        first_open = None
        for pos, k in enumerate(stmt):
            t = toks[k]
            if t.kind == "punct":
                if t.text == "(":
                    if depth == 0 and first_open is None:
                        first_open = pos
                    depth += 1
                elif t.text == ")":
                    depth -= 1
                elif t.text == "=" and depth == 0 and first_open is None:
                    return None
        if first_open is not None and first_open < 2 and \
                not (first_open == 1 and
                     toks[stmt[0]].kind == "id"):
            # `name(args)` with nothing before it: a ctor declaration has
            # name == class name; otherwise it is an expression.
            cls = self.cur_class()
            if not (cls and toks[stmt[0]].text in (cls.name, "~" )):
                return None
        fn = self._try_function(stmt, -1, template_params)
        return fn

    def _try_field(self, stmt, cls):
        toks = self.toks
        # strip initializer
        decl = []
        for k in stmt:
            if toks[k].kind == "punct" and toks[k].text == "=":
                break
            decl.append(k)
        if len(decl) < 2:
            return
        # name = last id token (allow trailing [N])
        name_idx = None
        for k in reversed(decl):
            if toks[k].kind == "id":
                name_idx = k
                break
            if toks[k].kind == "punct" and toks[k].text in ("]", "["):
                continue
            if toks[k].kind == "num":
                continue
            return
        if name_idx is None or name_idx == decl[0]:
            return
        name = toks[name_idx].text
        tpart = [toks[k] for k in decl if k < name_idx]
        if not any(t.kind == "id" for t in tpart):
            return
        if tpart[0].kind == "id" and tpart[0].text in (
                "using", "return", "delete", "case", "goto", "friend"):
            return
        base = type_base(tpart)
        if not base or base == name:
            return
        cls.fields[name] = base
        cls.field_lines[name] = toks[name_idx].line
        cls.field_types[name] = " ".join(t.text for t in tpart)
        # implicit instantiation from the field's type spelling
        self._note_type_instantiation(tpart, toks[name_idx].line)

    def _note_type_instantiation(self, ttoks, line):
        for j, t in enumerate(ttoks):
            if t.kind == "id" and j + 1 < len(ttoks) and \
                    ttoks[j + 1].kind == "punct" and \
                    ttoks[j + 1].text == "<":
                close = match_angle(ttoks, j + 1)
                if close > 0:
                    args = "".join(x.text for x in ttoks[j + 2:close])
                    self.model.instantiations.append(Instantiation(
                        t.text, [a for a in args.split(",") if a],
                        self.fm, line, explicit=False))


# --- body scanning helpers (lazy, used by the passes) --------------------

CALL_KEYWORDS = KEYWORDS_NOT_FN | frozenset({"while", "for", "if",
                                             "switch", "catch"})


def iter_calls(toks, lo, hi):
    """Yield CallSite for every `name(`-shaped call in [lo, hi)."""
    k = lo
    while k < hi:
        t = toks[k]
        if t.kind == "id" and t.text not in CALL_KEYWORDS and \
                k + 1 < hi and toks[k + 1].kind == "punct":
            nxt = toks[k + 1].text
            targs = []
            open_idx = -1
            if nxt == "(":
                open_idx = k + 1
            elif nxt == "<":
                close = match_angle(toks, k + 1)
                if close > 0 and close + 1 < hi and \
                        toks[close + 1].text == "(":
                    targs = ["".join(x.text for x in toks[k + 2:close])]
                    targs = [a for a in targs[0].split(",") if a]
                    open_idx = close + 1
            if open_idx > 0:
                arg_close = match_delim(toks, open_idx, "(", ")")
                receiver = None
                qualifier = None
                p = k - 1
                if p >= lo and toks[p].kind == "punct" and \
                        toks[p].text in (".", "->"):
                    if p - 1 >= lo and toks[p - 1].kind == "id":
                        receiver = toks[p - 1].text
                    elif p - 1 >= lo and toks[p - 1].text in (")", "]"):
                        receiver = "<expr>"
                elif p >= lo and toks[p].kind == "punct" and \
                        toks[p].text == "::":
                    quals = []
                    q = p
                    while q - 1 >= lo and toks[q].text == "::" and \
                            toks[q - 1].kind == "id":
                        quals.append(toks[q - 1].text)
                        q -= 2
                    qualifier = "::".join(reversed(quals)) or None
                yield CallSite(t.text, receiver, qualifier, targs, k,
                               t.line, open_idx + 1,
                               arg_close if arg_close > 0 else open_idx + 1)
        k += 1


def iter_locals(toks, lo, hi):
    """Yield VarDecl for local declarations in [lo, hi).  Pattern-based:
    at a statement boundary, a type spelling followed by a name and one
    of `=`, `(`, `{`, `;`."""
    boundary = True
    k = lo
    while k < hi:
        t = toks[k]
        if t.kind == "punct" and t.text in (";", "{", "}"):
            boundary = True
            k += 1
            continue
        if boundary and t.kind == "id" and t.text not in CALL_KEYWORDS:
            got = _try_local(toks, k, hi)
            if got is not None:
                yield got
                k = got.init_hi
                boundary = False
                continue
        boundary = False
        k += 1


def _try_local(toks, k, hi):
    """Parse a declaration starting at token k; None if not one."""
    # type spelling: [const] [auto | id(::id)*[<...>]] [&|*|const]...
    p = k
    ids = 0
    while p < hi:
        t = toks[p]
        if t.kind == "id" and t.text in ("const", "constexpr", "static",
                                         "typename", "volatile"):
            p += 1
            continue
        if t.kind == "id":
            ids += 1
            p += 1
            while p + 1 < hi and toks[p].text == "::" and \
                    toks[p + 1].kind == "id":
                p += 2
            if p < hi and toks[p].text == "<":
                close = match_angle(toks, p)
                if close < 0:
                    return None
                p = close + 1
            break
        return None
    if ids == 0:
        return None
    type_toks = toks[k:p]
    while p < hi and toks[p].kind == "punct" and toks[p].text in ("&", "*",
                                                                  "&&"):
        p += 1
    if p >= hi or toks[p].kind != "id" or toks[p].text in CALL_KEYWORDS:
        return None
    name_idx = p
    name = toks[p].text
    p += 1
    if p >= hi or toks[p].kind != "punct" or \
            toks[p].text not in ("=", "(", "{", ";", ","):
        return None
    init_lo = p
    # initializer extent: to the ';' at depth 0
    depth = 0
    q = p
    while q < hi:
        tt = toks[q].text if toks[q].kind == "punct" else ""
        if tt in ("(", "{", "["):
            depth += 1
        elif tt in (")", "}", "]"):
            if depth == 0:
                break
            depth -= 1
        elif tt == ";" and depth == 0:
            break
        q += 1
    return VarDecl(name, type_base(type_toks), toks[name_idx].line,
                   name_idx, init_lo, q)


_LAMBDA_PRECEDERS = frozenset({"(", ",", "=", "{", ";", "}", ":", "?",
                               "&&", "||", "return"})


def iter_lambdas(toks, lo, hi):
    k = lo
    while k < hi:
        t = toks[k]
        if t.kind == "punct" and t.text == "[":
            prev = toks[k - 1] if k - 1 >= lo else None
            prev_ok = prev is None or \
                (prev.kind == "punct" and prev.text in _LAMBDA_PRECEDERS) \
                or (prev.kind == "id" and prev.text == "return")
            if prev_ok:
                cap_close = match_delim(toks, k, "[", "]")
                if cap_close > 0:
                    p = cap_close + 1
                    if p < hi and toks[p].text == "(":
                        pc = match_delim(toks, p, "(", ")")
                        p = pc + 1 if pc > 0 else p
                    while p < hi and (toks[p].kind == "id" or
                                      toks[p].text in ("->", "&", "*", "::",
                                                       "<", ">", ",")):
                        p += 1
                    if p < hi and toks[p].text == "{":
                        body_close = match_delim(toks, p, "{", "}")
                        if body_close > 0:
                            yield LambdaInfo(k + 1, cap_close, p + 1,
                                             body_close, t.line)
                            k = p  # descend into body for nested lambdas
        k += 1


def iter_requires_branches(toks, lo, hi):
    """Yield RequiresBranch for `if constexpr (requires {...})` in
    [lo, hi)."""
    k = lo
    while k < hi - 3:
        if toks[k].kind == "id" and toks[k].text == "if" and \
                toks[k + 1].kind == "id" and \
                toks[k + 1].text == "constexpr" and \
                toks[k + 2].text == "(":
            cond_close = match_delim(toks, k + 2, "(", ")")
            if cond_close > 0:
                req = None
                negated = False
                for q in range(k + 3, cond_close):
                    if toks[q].kind == "id" and toks[q].text == "requires":
                        if toks[q - 1].kind == "punct" and \
                                toks[q - 1].text == "!":
                            negated = True
                        req = q
                        break
                if req is not None and req + 1 < cond_close and \
                        toks[req + 1].text == "{":
                    req_close = match_delim(toks, req + 1, "{", "}")
                    probes = []
                    receiver = None
                    for c in iter_calls(toks, req + 2, req_close):
                        if c.receiver is not None:
                            probes.append(c.name)
                            receiver = receiver or c.receiver
                    then_lo = then_hi = else_lo = else_hi = -1
                    p = cond_close + 1
                    if p < hi and toks[p].text == "{":
                        tc = match_delim(toks, p, "{", "}")
                        if tc > 0:
                            then_lo, then_hi = p + 1, tc
                            q = tc + 1
                            if q < hi and toks[q].kind == "id" and \
                                    toks[q].text == "else" and \
                                    q + 1 < hi and toks[q + 1].text == "{":
                                ec = match_delim(toks, q + 1, "{", "}")
                                if ec > 0:
                                    else_lo, else_hi = q + 2, ec
                    if probes and then_lo >= 0:
                        yield RequiresBranch(receiver, probes, then_lo,
                                             then_hi, else_lo, else_hi,
                                             toks[k].line, negated)
                        k = then_lo
                        continue
        k += 1


def iter_string_literals(toks, lo, hi):
    for k in range(lo, hi):
        if toks[k].kind == "str":
            raw = toks[k].text
            q = raw.find('"')
            if q >= 0 and raw.endswith('"') and len(raw) >= q + 2:
                yield k, raw[q + 1:-1], toks[k].line
