"""The lint pipeline: file rules + whole-program rules + cache.

``analyze_paths`` is the full pipeline behind ``repro-kron lint``:

1. Every ``.py`` file is read and content-hashed.  On a cache hit the
   file's rule findings, communication IR, and suppression maps are
   loaded from :mod:`repro.lint.cache`; on a miss the file is parsed and
   analyzed, then stored.  Repeated runs over an unchanged tree
   therefore re-analyze nothing -- they only re-hash.
2. The per-file IRs are assembled into a
   :class:`repro.lint.callgraph.Program` and the program rules run over
   it.  Program analysis always runs fresh (it is cheap relative to
   parsing, and its input is exactly the cached IRs), so cross-file
   findings stay correct even when only *one* side of a caller/callee
   pair changed.
3. Program findings are filtered through each file's suppression
   pragmas, merged with the file findings, and sorted.

:func:`lint_source` runs the same two steps on one source string (a
one-module program, uncached), and :func:`lint_paths` is
``analyze_paths`` without the cache.

The cache is keyed on content, not path: findings and IR are re-anchored
to the path the file was found at on this run, which pairs with the
path-free baseline fingerprints (moved file == same findings).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.cache import LintCache, content_key, schema_tag
from repro.lint.core import (
    Finding,
    LintContext,
    ProgramRule,
    Rule,
    _collect_suppressions,
    _suppressed,
    all_rules,
    resolve_selection,
)
from repro.lint.ir import IR_VERSION, ModuleIR, extract_module

__all__ = ["LINT_SCHEMA_VERSION", "analyze_paths", "lint_paths", "lint_source"]

#: Bump when Finding shape, suppression expansion, or entry layout change.
LINT_SCHEMA_VERSION = 1


def _analyze_file(text: str, path: str, file_rules) -> dict:
    """Analyze one file from scratch; returns a cache-shaped entry."""
    ctx = LintContext(path=path, source=text)
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        finding = Finding(
            rule="parse-error", severity="error", path=path,
            line=exc.lineno or 1, col=exc.offset or 0,
            message=f"could not parse file: {exc.msg}",
            snippet=ctx.snippet(exc.lineno or 1),
        )
        return {
            "findings": [finding.to_json()],
            "ir": None,
            "suppress_lines": {},
            "suppress_file": [],
        }
    by_line, whole_file = _collect_suppressions(ctx.lines, tree)
    findings: list[Finding] = []
    for rule in file_rules:
        if not rule.applies_to(path):
            continue
        for f in rule.check(tree, ctx):
            if not _suppressed(f, by_line, whole_file):
                findings.append(f)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    ir = extract_module(tree, ctx.lines, path)
    return {
        "findings": [f.to_json() for f in findings],
        "ir": ir.to_json(),
        "suppress_lines": {
            str(line): sorted(names) for line, names in by_line.items()
        },
        "suppress_file": sorted(whole_file),
    }


def _assemble(
    entries: list[tuple[str, dict]], program_rules: list[ProgramRule]
) -> list[Finding]:
    """Merge per-file entries with the program-rule findings over them."""
    findings: list[Finding] = []
    modules: list[ModuleIR] = []
    suppressions: dict[str, tuple[dict, set]] = {}
    for path, entry in entries:
        for item in entry["findings"]:
            findings.append(Finding(**item).with_path(path))
        if entry["ir"] is not None:
            mod = ModuleIR.from_json(entry["ir"])
            mod.path = path
            modules.append(mod)
        suppressions[path] = (
            {
                int(line): set(names)
                for line, names in entry["suppress_lines"].items()
            },
            set(entry["suppress_file"]),
        )

    if program_rules and modules:
        from repro.lint.callgraph import Program

        program = Program(modules)
        for rule in program_rules:
            for f in rule.check(program):
                by_line, whole_file = suppressions.get(f.path, ({}, set()))
                if not _suppressed(f, by_line, whole_file):
                    findings.append(f)

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield each ``.py`` file exactly once, even under overlapping paths.

    ``repro-kron lint src src/repro`` must not double-report findings,
    so files are deduplicated on their resolved absolute path (the first
    spelling encountered wins).
    """
    seen: set[Path] = set()
    for p in paths:
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            candidates = [p]
        else:
            continue
        for candidate in candidates:
            key = candidate.resolve()
            if key in seen:
                continue
            seen.add(key)
            yield candidate


def _rel_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def analyze_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    cache_dir: str | Path | None = None,
) -> tuple[list[Finding], dict]:
    """Run the full (file + program) analysis over ``paths``.

    Returns ``(findings, stats)``; ``stats`` records how much work the
    cache saved (``files``, ``analyzed``, ``reused``).  Passing
    ``cache_dir=None`` disables the cache entirely.  Raises
    ``ValueError`` for unknown names in ``select``.
    """
    file_rules, program_rules = resolve_selection(select)
    cache: LintCache | None = None
    if cache_dir is not None:
        tag = schema_tag(
            LINT_SCHEMA_VERSION, IR_VERSION, [r.name for r in file_rules]
        )
        cache = LintCache(cache_dir, tag)

    entries: list[tuple[str, dict]] = []
    reused = 0
    for file_path in _iter_python_files(Path(p) for p in paths):
        data = file_path.read_bytes()
        rel = _rel_path(file_path)
        entry = None
        key = ""
        if cache is not None:
            key = content_key(data)
            entry = cache.get(key)
            if entry is not None:
                reused += 1
        if entry is None:
            entry = _analyze_file(data.decode("utf-8"), rel, file_rules)
            if cache is not None:
                cache.put(key, entry)
        entries.append((rel, entry))

    stats = {
        "files": len(entries),
        "reused": reused,
        "analyzed": len(entries) - reused,
        "cache": cache_dir is not None,
    }
    return _assemble(entries, program_rules), stats


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Iterable[Rule | ProgramRule] | None = None,
) -> list[Finding]:
    """Lint one source string (as a one-module program); returns findings
    sorted by position.  ``rules`` defaults to every registered rule."""
    rules = all_rules() if rules is None else list(rules)
    file_rules = [r for r in rules if isinstance(r, Rule)]
    program_rules = [r for r in rules if isinstance(r, ProgramRule)]
    return _assemble(
        [(path, _analyze_file(source, path, file_rules))], program_rules
    )


def lint_paths(
    paths: Iterable[str | Path],
    rules: Iterable[Rule | ProgramRule] | None = None,
) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories.

    Uncached :func:`analyze_paths`; ``rules`` restricts the run to the
    rules of those names (default: every registered rule).
    """
    select = None if rules is None else [r.name for r in rules]
    findings, _stats = analyze_paths(paths, select=select)
    return findings
