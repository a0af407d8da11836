"""Command-line driver: ``python -m repro.lint [paths...]``.

Exit codes: ``0`` clean (after suppressions and baseline), ``1`` findings
reported, ``2`` usage or internal error -- the semantics CI keys off.
The same arguments are mounted as the ``repro-kron lint`` subcommand by
:mod:`repro.cli`.

Runs the full incremental engine: file rules plus the program rules
over the communication IR, with per-file results cached
content-addressed under ``--cache-dir`` (default
``.repro-lint-cache``; disable with ``--no-cache``).
``--sarif FILE`` additionally writes a SARIF 2.1.0
report of the post-baseline findings for CI code-scanning upload.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.lint.baseline import filter_baseline, load_baseline, write_baseline
from repro.lint.cache import DEFAULT_CACHE_DIR
from repro.lint.core import Finding, all_rules
from repro.lint.engine import analyze_paths

__all__ = ["add_lint_arguments", "run_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Mount the lint options on an (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        dest="output_format", help="report format",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="suppress findings fingerprinted in this baseline file",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="write current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--sarif", default=None, metavar="FILE",
        help="also write findings (after baseline filtering) as SARIF 2.1.0",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"incremental analysis cache location (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental cache (analyze every file fresh)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print cache reuse statistics to stderr",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )


def _print_rules() -> None:
    for rule in all_rules():
        scope_dirs = getattr(rule, "scope_dirs", ())
        scope = f" [scope: {', '.join(scope_dirs)}/]" if scope_dirs else ""
        print(f"{rule.name:<22} {rule.severity:<8} {rule.description}{scope}")


def _report(findings: list[Finding], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([f.to_json() for f in findings], indent=2))
        return
    for f in findings:
        print(f.format_human())
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    if findings:
        print(f"\n{len(findings)} finding(s): {errors} error(s), "
              f"{warnings} warning(s)")
    else:
        print("no findings")


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        _print_rules()
        return 0
    select = (
        [s.strip() for s in args.select.split(",") if s.strip()]
        if args.select
        else None
    )
    cache_dir = None if getattr(args, "no_cache", False) else getattr(
        args, "cache_dir", DEFAULT_CACHE_DIR
    )
    try:
        findings, stats = analyze_paths(
            args.paths, select=select, cache_dir=cache_dir
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "stats", False):
        print(
            f"lint: {stats['files']} file(s), {stats['reused']} reused, "
            f"{stats['analyzed']} analyzed",
            file=sys.stderr,
        )
    if args.write_baseline:
        count = write_baseline(args.write_baseline, findings)
        print(f"wrote {count} fingerprint(s) to {args.write_baseline}")
        return 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return 2
        findings = filter_baseline(findings, baseline)
    if getattr(args, "sarif", None):
        from repro.lint.sarif import write_sarif

        write_sarif(args.sarif, findings)
    _report(findings, args.output_format)
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="SPMD correctness static analysis for the repro codebase",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))
