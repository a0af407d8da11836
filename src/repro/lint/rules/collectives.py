"""collective-symmetry: every rank must run the same collective sequence.

The SPMD deadlock class this catches::

    if comm.rank == 0:
        comm.barrier()          # rank 0 waits forever: peers never arrive

and its sneakier sibling, the rank-guarded early exit::

    if comm.rank == 0:
        return                  # rank 0 leaves the rank program...
    comm.allreduce(x, op)       # ...so this collective hangs on 1..R-1

Detection is lexical and conservative: a collective call is flagged when
(a) any enclosing ``if``/``while`` test mentions a rank identity, or
(b) it appears after a rank-guarded statement that exits the enclosing
block asymmetrically (one branch returns/raises/breaks, the other does
not).  Point-to-point ``send``/``recv`` are intentionally exempt --
rank-dependent p2p is the normal SPMD idiom (and is how the collectives
themselves are implemented in :mod:`repro.distributed.comm`).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.core import Finding, LintContext, Rule, register
from repro.lint.ops import COLLECTIVE_OPS, call_method, contains_rank_ref

__all__ = ["CollectiveSymmetryRule"]

#: (kind, line) describing why the current position is rank-dependent.
_Guard = tuple[str, int]

_EXITS = (ast.Return, ast.Raise, ast.Break, ast.Continue)


def _block_exits(stmts: list[ast.stmt]) -> bool:
    """Does the block unconditionally leave the enclosing sequence?"""
    return any(isinstance(s, _EXITS) for s in stmts)


@register
class CollectiveSymmetryRule(Rule):
    name = "collective-symmetry"
    severity = "error"
    description = (
        "collective calls reachable only under rank-dependent control "
        "flow deadlock the ranks that skip them"
    )

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterable[Finding]:
        self._ctx = ctx
        self._out: list[Finding] = []
        self._scan_block(tree.body, None)
        return self._out

    # ---- block walking --------------------------------------------------
    def _scan_block(self, stmts: list[ast.stmt], guard: _Guard | None) -> None:
        for st in stmts:
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # Fresh scope: a function defined under a rank guard is not
                # itself a collective call site.
                self._scan_block(st.body, None)
            elif isinstance(st, ast.If):
                self._scan_calls(st.test, guard)
                rank_test = contains_rank_ref(st.test)
                inner = ("if", st.lineno) if rank_test else guard
                self._scan_block(st.body, inner)
                self._scan_block(st.orelse, inner)
                if rank_test and _block_exits(st.body) != _block_exits(st.orelse):
                    # Asymmetric exit: statements after this point run on a
                    # rank-dependent subset of the world.
                    guard = guard or ("early-exit", st.lineno)
            elif isinstance(st, ast.While):
                self._scan_calls(st.test, guard)
                rank_test = contains_rank_ref(st.test)
                inner = ("while", st.lineno) if rank_test else guard
                self._scan_block(st.body, inner)
                self._scan_block(st.orelse, inner)
            elif isinstance(st, (ast.For, ast.AsyncFor)):
                self._scan_calls(st.iter, guard)
                self._scan_block(st.body, guard)
                self._scan_block(st.orelse, guard)
            elif isinstance(st, (ast.With, ast.AsyncWith)):
                for item in st.items:
                    self._scan_calls(item.context_expr, guard)
                self._scan_block(st.body, guard)
            elif isinstance(st, ast.Try):
                self._scan_block(st.body, guard)
                for handler in st.handlers:
                    self._scan_block(handler.body, guard)
                self._scan_block(st.orelse, guard)
                self._scan_block(st.finalbody, guard)
            else:
                self._scan_calls(st, guard)

    # ---- call inspection ------------------------------------------------
    def _scan_calls(self, node: ast.AST, guard: _Guard | None) -> None:
        if guard is None:
            return
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            op = call_method(call)
            if op in COLLECTIVE_OPS:
                self._out.append(
                    self._ctx.finding(self, call, self._message(op, guard))
                )

    @staticmethod
    def _message(op: str, guard: _Guard) -> str:
        kind, line = guard
        if kind == "early-exit":
            where = f"follows a rank-guarded early exit at line {line}"
        else:
            where = f"is guarded by a rank-dependent '{kind}' at line {line}"
        return (
            f"collective '{op}' {where}; every rank must execute the same "
            f"collective sequence or the skipped ranks deadlock"
        )
