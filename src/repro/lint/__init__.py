"""SPMD correctness static analysis for the repro codebase.

The distributed generator is an SPMD program whose correctness rests on
invariants the Python runtime cannot enforce:

* every rank must execute the **same collective sequence** -- a
  ``barrier`` reachable only under ``if comm.rank == 0`` deadlocks the
  world (Section III's asynchronous generation);
* buffers received from ``recv``/``alltoall``/``allgather`` may be
  **shared, read-only views** and must never be mutated in place (the
  contract of :meth:`repro.distributed.comm.Communicator.alltoall`);
* Kronecker index arithmetic (``i * n_B + k``) must stay in **int64**,
  and allocations feeding it need explicit dtypes;
* ground-truth output must be **deterministic**: no unordered ``set``
  iteration feeding edges, no process-global ``np.random`` state, no
  time-derived seeds.

This package makes those invariants machine-checked: a rule framework
(:mod:`repro.lint.core`) with the rule families of
:mod:`repro.lint.rules` -- AST passes over one file, and the SPMD
protocol rules (:mod:`repro.lint.rules.protocol`) computed from a
communication IR per module (:mod:`repro.lint.ir`) and a call graph
with per-function comm summaries (:mod:`repro.lint.callgraph`) --
per-line ``# repro-lint: disable=RULE`` suppressions, a checked-in
findings baseline (:mod:`repro.lint.baseline`) so CI fails only on
*new* findings, an incremental content-addressed cache
(:mod:`repro.lint.cache` driven by :mod:`repro.lint.engine`), and
human/JSON/SARIF reporters behind ``python -m repro.lint``
(:mod:`repro.lint.cli`).

The dynamic companion -- the runtime collective-order sentinel that turns
a would-be deadlock into a diagnostic naming both divergent call sites --
lives in :mod:`repro.distributed.checked`.
"""

from repro.lint.baseline import (
    filter_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.core import (
    Finding,
    LintContext,
    ProgramRule,
    Rule,
    all_rules,
    register,
    resolve_selection,
)
from repro.lint.engine import analyze_paths, lint_paths, lint_source
from repro.lint.rules import (
    BufferOwnershipRule,
    CollectiveSymmetryRule,
    DeterminismRule,
    DtypeOverflowRule,
)

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "ProgramRule",
    "all_rules",
    "resolve_selection",
    "register",
    "lint_source",
    "lint_paths",
    "analyze_paths",
    "load_baseline",
    "write_baseline",
    "filter_baseline",
    "CollectiveSymmetryRule",
    "BufferOwnershipRule",
    "DtypeOverflowRule",
    "DeterminismRule",
]
