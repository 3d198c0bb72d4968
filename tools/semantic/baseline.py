"""Audited baseline of tools/igs_analyze.py.

A baseline entry records a finding that was reviewed and accepted, with a
justification — the SARIF output keeps the finding (greyed out as an
external suppression) so the audit trail is never invisible.  Entries
match on (rule, path, message): line numbers drift with edits but the
messages are built from stable entity names, so a match survives
unrelated churn while any change to the finding itself (renamed symbol,
different backend attribution) un-baselines it.

The file, tools/analysis_baseline.json, holds one list:

    {"_comment": ..., "findings": [{"rule": ..., "path": ...,
                                    "message": ..., "justification": ...}]}

Stale entries — baselined findings the analyzer no longer produces —
become `stale-baseline` findings, mirroring the stale-suppression rule:
a suppression that outlives its finding is a latent hole in the gate.
"""

import json

from .model import Finding

_COMMENT = ("Audited findings accepted by review. Every entry needs a "
            "justification; stale entries fail CI.")


def load(path):
    """[(rule, path, message, justification)] from a baseline file."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return []
    return [(e["rule"], e["path"], e["message"], e.get("justification", ""))
            for e in doc.get("findings", [])]


def apply(findings, entries, baseline_rel):
    """Mark matching findings as baselined; return stale-baseline findings
    for entries that matched nothing."""
    used = [False] * len(entries)
    index = {}
    for i, (rule, path, message, _just) in enumerate(entries):
        index.setdefault((rule, path, message), []).append(i)
    for f in findings:
        hits = index.get((f.rule, f.path, f.message))
        if hits:
            f.baselined = True
            f.level = "note"
            used[hits[0]] = True
    stale = []
    for i, (rule, path, message, _just) in enumerate(entries):
        if not used[i]:
            f = Finding(baseline_rel, 1, "stale-baseline",
                        f"baseline entry for [{rule}] at {path} matches no "
                        f"current finding; remove it: {message!r}")
            stale.append(f)
    return stale


def write_template(path, findings):
    """Serialize current unbaselined findings as a baseline skeleton
    (used by --update-baseline; justifications must be filled by hand)."""
    entries = [
        {"rule": f.rule, "path": f.path, "message": f.message,
         "justification": "TODO: justify or fix"}
        for f in findings
        if not f.suppressed and not f.baselined
        and f.rule != "stale-baseline"
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"_comment": _COMMENT, "findings": entries}, fh, indent=2)
        fh.write("\n")
