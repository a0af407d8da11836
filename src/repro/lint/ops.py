"""Shared comm-op tables and AST helpers for every lint layer.

This is a *leaf* module with no package side effects: the file rules
and the whole-program layers (:mod:`repro.lint.ir`,
:mod:`repro.lint.callgraph`) all import it directly.  It cannot live in
the rule package, because importing that package from the IR extractor
would be circular (rules -> protocol -> callgraph -> ir -> rules).
"""

from __future__ import annotations

import ast

__all__ = [
    "COLLECTIVE_OPS",
    "RECEIVING_OPS",
    "INFLIGHT_OPS",
    "REQUEST_OPS",
    "FINISH_OPS",
    "MUTATOR_METHODS",
    "attr_chain",
    "base_name",
    "call_method",
    "contains_rank_ref",
    "walk_calls",
    "walk_scope",
]

#: The collective operations of :class:`repro.distributed.comm.Communicator`.
COLLECTIVE_OPS = frozenset(
    {"barrier", "bcast", "gather", "allgather", "allreduce", "alltoall", "scatter"}
)

#: Operations whose return value is a received (possibly shared) buffer.
RECEIVING_OPS = frozenset(
    {"recv", "alltoall", "allgather", "gather", "bcast", "scatter",
     "alltoall_finish"}
)

#: Nonblocking operations whose buffer argument stays owned by the
#: runtime until the returned request is waited on.
INFLIGHT_OPS = frozenset({"isend", "alltoall_start"})

#: Nonblocking operations returning a :class:`Request` that must be
#: completed (``INFLIGHT_OPS`` plus the buffer-less ``irecv``).
REQUEST_OPS = INFLIGHT_OPS | {"irecv"}

#: Operations that complete an in-flight request.
FINISH_OPS = frozenset({"wait", "alltoall_finish"})

#: Method names that mutate their receiver in place (ndarray / list /
#: dict / set mutators that matter for message payloads).
MUTATOR_METHODS = frozenset(
    {
        "sort", "fill", "resize", "put", "itemset", "partition", "byteswap",
        "setflags", "append", "extend", "insert", "remove", "pop", "clear",
        "update", "reverse", "setdefault", "popitem", "add", "discard",
    }
)


def attr_chain(node: ast.AST) -> tuple[str, ...] | None:
    """Dotted-name chain of a Name/Attribute expression.

    ``np.random.seed`` -> ``("np", "random", "seed")``; ``None`` when the
    expression is not a plain dotted name (e.g. a call result attribute).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def base_name(node: ast.AST) -> str | None:
    """Root variable name of an lvalue-ish expression.

    Peels subscripts and attribute accesses: ``buf[0].real`` -> ``"buf"``.
    """
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def call_method(node: ast.Call) -> str | None:
    """Method name of an ``obj.method(...)`` call, else ``None``."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def contains_rank_ref(node: ast.AST) -> bool:
    """Does the expression mention a rank identity (``.rank``/``rank``)?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in ("rank", "_rank"):
            return True
        if isinstance(sub, ast.Name) and sub.id in ("rank", "_rank"):
            return True
    return False


def walk_calls(node: ast.AST):
    """Yield every Call node in an expression/statement subtree."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def walk_scope(body: list[ast.stmt]):
    """Walk a statement list without descending into nested scopes.

    Yields every node of the given block, including the ``FunctionDef``/
    ``ClassDef`` statements themselves but nothing inside them -- the
    scoped analogue of :func:`ast.walk` for name-binding analyses.
    """
    pending: list[ast.AST] = list(body)
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))
