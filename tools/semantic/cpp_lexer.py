"""C++ tokenizer for the ast_lite frontend.

Produces a flat token stream with line numbers, preserving string-literal
values (the telemetry pass reads them) and collecting comment text per
line (the allow() pragma mechanism reads those).  Preprocessor directives
become single 'pp' tokens so the parser never trips over them.

This is a tokenizer, not a preprocessor: macros are not expanded.  The
repository's style keeps hot-path code macro-free apart from IGS_CHECK
and the thread-safety annotations, both of which parse as ordinary call
expressions.
"""

PUNCT2 = ("::", "->", "<<", ">>", "==", "!=", "<=", ">=", "&&", "||",
          "+=", "-=", "*=", "/=", "++", "--")


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind        # 'id' | 'num' | 'str' | 'chr' | 'punct' | 'pp'
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text!r}@{self.line}"


def _is_id_start(c):
    return c.isalpha() or c == "_"


def _is_id(c):
    return c.isalnum() or c == "_"


def tokenize(text):
    """Return (tokens, comments) where comments maps line -> comment text
    accumulated on that line (where allow() pragmas live)."""
    tokens = []
    comments = {}
    i, n, line = 0, len(text), 1

    def note_comment(s, ln):
        comments[ln] = comments.get(ln, "") + s

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        nxt = text[i + 1] if i + 1 < n else ""
        # Comments.
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            note_comment(text[i:j], line)
            i = j
            continue
        if c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for part in text[i + 2:j].split("\n"):
                note_comment(part, line)
                line += 1
            line -= 1  # split() yields one more part than newlines
            i = j + 2
            continue
        # Preprocessor directive: one token to (continuation-aware) EOL.
        if c == "#":
            start, start_line = i, line
            while i < n:
                j = text.find("\n", i)
                j = n if j < 0 else j
                if text[j - 1] == "\\" and j > start:
                    line += 1
                    i = j + 1
                    continue
                i = j
                break
            tokens.append(Token("pp", text[start:i], start_line))
            continue
        # Raw string literal.
        if c == "R" and nxt == '"':
            k = text.find("(", i + 2)
            if k > 0 and k - i - 2 <= 16:
                delim = text[i + 2:k]
                end = text.find(")" + delim + '"', k)
                end = n if end < 0 else end + len(delim) + 2
                lit = text[i:end]
                tokens.append(Token("str", lit, line))
                line += lit.count("\n")
                i = end
                continue
        # String / char literals (with common prefixes).
        if c in "\"'" or (c in "uUL" and nxt in "\"'"):
            j = i
            while j < n and text[j] not in "\"'":
                j += 1
            quote = text[j]
            k = j + 1
            while k < n and text[k] != quote:
                k = k + 2 if text[k] == "\\" else k + 1
            k = min(k + 1, n)
            tokens.append(Token("str" if quote == '"' else "chr",
                                text[i:k], line))
            line += text.count("\n", i, k)
            i = k
            continue
        # Identifiers / keywords.
        if _is_id_start(c):
            j = i + 1
            while j < n and _is_id(text[j]):
                j += 1
            tokens.append(Token("id", text[i:j], line))
            i = j
            continue
        # Numbers (good enough: digits plus id-chars, '.', exponent signs).
        if c.isdigit() or (c == "." and nxt.isdigit()):
            j = i + 1
            while j < n and (_is_id(text[j]) or text[j] == "." or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
            continue
        # Punctuation: two-char first.
        two = text[i:i + 2]
        if two in PUNCT2:
            tokens.append(Token("punct", two, line))
            i += 2
            continue
        tokens.append(Token("punct", c, line))
        i += 1
    return tokens, comments


def match_delim(tokens, open_idx, open_ch, close_ch):
    """Index of the token matching tokens[open_idx] (which must be
    `open_ch`), or -1.  Ignores other delimiter kinds."""
    depth = 0
    for k in range(open_idx, len(tokens)):
        t = tokens[k]
        if t.kind != "punct":
            continue
        if t.text == open_ch:
            depth += 1
        elif t.text == close_ch:
            depth -= 1
            if depth == 0:
                return k
    return -1


def match_angle(tokens, open_idx):
    """Index of the '>' matching a template-argument '<', or -1.  Bails
    out (returns -1) on tokens that mean the '<' was a comparison."""
    depth = 0
    for k in range(open_idx, min(open_idx + 256, len(tokens))):
        t = tokens[k]
        if t.kind != "punct":
            continue
        if t.text == "<":
            depth += 1
        elif t.text == ">":
            depth -= 1
            if depth == 0:
                return k
        elif t.text == ">>":
            depth -= 2
            if depth <= 0:
                return k
        elif t.text in (";", "{", "}", "&&", "||"):
            return -1
    return -1
