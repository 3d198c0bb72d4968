"""Per-file rules over each file's token stream.

  bare-mutex          Outside src/common/, blocking synchronization must
                      use igs::Mutex or igs::Spinlock (both visible to the
                      thread-safety analysis), never a bare std::*mutex.
  check-side-effect   IGS_CHECK/IGS_DCHECK/IGS_CHECK_MSG arguments must be
                      side-effect free: IGS_DCHECK compiles out under
                      NDEBUG, so a mutation inside it changes release
                      behaviour.
  atomic-memory-order Under src/, every atomic operation spells its
                      memory_order: the implicit seq_cst default hides the
                      cost and the intent.
  header-guard        src/**/*.h guards follow IGS_<PATH>_H.
  include-hygiene     Quoted includes are src-root-relative (or a sibling
                      file); no `..` traversal, no <bits/...> internals.
"""

import os
import re

from . import add
from .. import ast_lite

MUTEXES = frozenset({"mutex", "recursive_mutex", "timed_mutex",
                     "shared_mutex"})
CHECK_MACROS = frozenset({"IGS_CHECK", "IGS_CHECK_MSG", "IGS_DCHECK"})
MUTATING_CALLS = frozenset({"push_back", "pop_back", "insert", "erase",
                            "emplace", "clear", "assign", "reset",
                            "release", "swap"})
ATOMIC_OPS = frozenset({"load", "store", "exchange", "fetch_add",
                        "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
                        "compare_exchange_weak",
                        "compare_exchange_strong"})
INCLUDE = re.compile(r'#\s*include\s+(["<])([^">]+)[">]')
IFNDEF = re.compile(r"#\s*ifndef\s+(\S+)")
DEFINE = re.compile(r"#\s*define\s+(\S+)")


def run(model, config, findings):
    for rel, fm in sorted(model.files.items()):
        toks = fm.tokens
        calls = list(ast_lite.iter_calls(toks, 0, len(toks)))
        if not rel.startswith("src/common/"):
            _bare_mutex(fm, findings)
        if rel != "src/common/check.h":
            _check_side_effects(fm, calls, findings)
        if rel.startswith("src/"):
            _atomic_orders(fm, calls, findings)
        if rel.startswith("src/") and rel.endswith(".h"):
            _header_guard(fm, findings)
        _include_hygiene(model.root, fm, findings)


def _bare_mutex(fm, findings):
    toks = fm.tokens
    flagged = set()
    for k in range(2, len(toks)):
        t = toks[k]
        if t.text in MUTEXES and toks[k - 1].text == "::" and \
                toks[k - 2].text == "std" and t.line not in flagged:
            flagged.add(t.line)
            add(findings, fm, t.line, "bare-mutex",
                "bare std::mutex outside src/common/ — use igs::Mutex or "
                "igs::Spinlock so the thread-safety analysis sees it")


def _check_side_effects(fm, calls, findings):
    toks = fm.tokens
    for c in calls:
        if c.name not in CHECK_MACROS:
            continue
        args = toks[c.arg_lo:c.arg_hi]
        texts = {t.text for t in args if t.kind == "punct"}
        label = ("increment/decrement" if texts & {"++", "--"} else
                 "assignment" if "=" in texts else
                 "compound assignment" if texts & {"+=", "-=", "*=", "/="}
                 else None)
        if label is None and any(
                inner.name in MUTATING_CALLS and inner.receiver is not None
                for inner in ast_lite.iter_calls(toks, c.arg_lo, c.arg_hi)):
            label = "mutating call"
        if label:
            add(findings, fm, c.line, "check-side-effect",
                f"{label} inside {c.name} — the expression must be "
                f"side-effect free (IGS_DCHECK compiles out under NDEBUG)")


def _atomic_orders(fm, calls, findings):
    toks = fm.tokens
    for c in calls:
        if c.name in ATOMIC_OPS and c.receiver is not None and not any(
                "memory_order" in t.text for t in toks[c.arg_lo:c.arg_hi]):
            add(findings, fm, c.line, "atomic-memory-order",
                f".{c.name}() without an explicit std::memory_order "
                f"argument (implicit seq_cst hides intent and cost)")


def _header_guard(fm, findings):
    stem = fm.rel[len("src/"):-len(".h")]
    guard = "IGS_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H"
    toks = fm.tokens
    m = IFNDEF.match(toks[0].text) if toks and toks[0].kind == "pp" \
        else None
    if m is None:
        add(findings, fm, 1, "header-guard",
            f"missing header guard (expected {guard})")
    elif m.group(1) != guard:
        add(findings, fm, toks[0].line, "header-guard",
            f"guard {m.group(1)} != canonical {guard}")
    else:
        d = DEFINE.match(toks[1].text) if len(toks) > 1 else None
        if d is None or d.group(1) != guard:
            line = toks[1].line if len(toks) > 1 else toks[0].line
            add(findings, fm, line, "header-guard",
                f"#ifndef {guard} not followed by matching #define")


def includes(root, fm):
    """(kind, target, resolved, line) per #include of `fm`: `resolved` is
    the root-relative file a quoted include names, looked up src/-rooted
    first, then sibling-relative, or None."""
    for t in fm.tokens:
        m = INCLUDE.match(t.text) if t.kind == "pp" else None
        if m is None:
            continue
        kind, target = m.groups()
        resolved = None
        for base in ("src", os.path.dirname(fm.rel)) if kind == '"' else ():
            rel = os.path.normpath(os.path.join(base, target))
            if os.path.exists(os.path.join(root, rel)):
                resolved = rel.replace(os.sep, "/")
                break
        yield kind, target, resolved, t.line


def _include_hygiene(root, fm, findings):
    for kind, target, resolved, line in includes(root, fm):
        if kind == "<" and target.startswith("bits/"):
            add(findings, fm, line, "include-hygiene",
                f"<{target}> is a libstdc++ internal")
        elif kind == '"' and ".." in target.split("/"):
            add(findings, fm, line, "include-hygiene",
                f'"{target}" uses parent-relative path')
        elif kind == '"' and resolved is None:
            add(findings, fm, line, "include-hygiene",
                f'"{target}" resolves neither from src/ nor as a sibling')
