"""Analysis passes over the shared Model (tools/igs_analyze.py driver).

Each pass module exposes `run(model, config, findings)` where `config`
is the parsed tools/layers.toml document and `findings` the shared list
of model.Finding.  Passes only report; the driver applies the
`igs-lint: allow(<rule>)` pragmas (parsed once, by `pragmas` below), the
audited baseline and the stale-pragma check.
"""

import re

ALLOW_PRAGMA = re.compile(r"igs-lint:\s*allow\(([a-z-]+)")


def pragmas(fm):
    """{line: {rule, ...}} for every `igs-lint: allow(<rule>)` in the
    file's comments — all of them when one line carries several.  A
    backtick-quoted pragma is prose quoting the syntax, not an audit."""
    out = {}
    for line, text in fm.comments.items():
        for m in ALLOW_PRAGMA.finditer(text):
            if text[m.start() - 1:m.start()] != "`":
                out.setdefault(line, set()).add(m.group(1))
    return out


def add(findings, fm, line, rule, message):
    from ..model import Finding
    f = Finding(fm.rel, line, rule, message)
    findings.append(f)
    return f
