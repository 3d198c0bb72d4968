"""SARIF 2.1.0 emitter of tools/igs_analyze.py (one run, every rule)."""

import json

SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def sarif_document(tool_name, findings, root, rule_descriptions):
    """Build the SARIF document dict, rules in `rule_descriptions` order.
    Suppressed findings are omitted; baselined ones are emitted with
    suppression metadata so viewers show them greyed out rather than
    hiding the audit trail."""
    rules = [{"id": rule, "shortDescription": {"text": text}}
             for rule, text in rule_descriptions.items()]
    results = []
    for f in findings:
        if f.suppressed:
            continue
        res = {
            "ruleId": f.rule,
            "level": getattr(f, "level", "error"),
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path,
                                         "uriBaseId": "SRCROOT"},
                    "region": {"startLine": max(f.line, 1)},
                },
            }],
        }
        if getattr(f, "baselined", False):
            res["suppressions"] = [{"kind": "external",
                                    "justification": "audited baseline"}]
        results.append(res)
    return {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": tool_name,
                "informationUri":
                    f"https://example.invalid/igstream/tools/{tool_name}",
                "rules": rules,
            }},
            "originalUriBaseIds": {"SRCROOT": {"uri": "file://" + root}},
            "results": results,
        }],
    }


def write_sarif(path, tool_name, findings, root, rule_descriptions):
    doc = sarif_document(tool_name, findings, root, rule_descriptions)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return doc
