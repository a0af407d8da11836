"""Minimal SARIF 2.1.0 writer for CI code-scanning upload.

Emits one run with the full rule catalogue in
``tool.driver.rules`` and one result per finding, carrying the baseline
fingerprint under ``fingerprints`` so SARIF consumers track findings
across moves the same way our own baseline does.  Output is fully
deterministic -- findings are already sorted by the engine and the JSON
is dumped with sorted keys -- so CI can assert byte-identical reports
between cold- and warm-cache runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.lint.baseline import fingerprints
from repro.lint.core import Finding, all_rules

__all__ = ["to_sarif", "write_sarif"]

_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {"warning": "warning", "error": "error"}


def _rule_catalogue() -> list[dict]:
    return [
        {
            "id": rule.name,
            "defaultConfiguration": {
                "level": _LEVELS.get(rule.severity, "warning")
            },
            "shortDescription": {"text": rule.description or rule.name},
        }
        for rule in all_rules()
    ]


def to_sarif(findings: Iterable[Finding]) -> dict:
    """Build the SARIF log object for a list of findings."""
    results = []
    for finding, fingerprint in fingerprints(findings):
        results.append(
            {
                "ruleId": finding.rule,
                "level": _LEVELS.get(finding.severity, "warning"),
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path,
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col + 1,
                                "snippet": {"text": finding.snippet},
                            },
                        }
                    }
                ],
                "fingerprints": {"reproLint/v2": fingerprint},
            }
        )
    return {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro-kron/lint"
                        ),
                        "rules": _rule_catalogue(),
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": "file:///./"}
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }


def write_sarif(path: str | Path, findings: Iterable[Finding]) -> None:
    """Write the SARIF report; bytes are deterministic for a given
    finding list."""
    payload = json.dumps(to_sarif(findings), indent=2, sort_keys=True)
    Path(path).write_text(payload + "\n", encoding="utf-8")
