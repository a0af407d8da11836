"""Nonstochastic Kronecker product of edge lists.

The central generation primitive: for factors ``A`` (``n_A`` vertices) and
``B`` (``n_B`` vertices), every pair of a directed edge ``(i, j)`` of A and a
directed edge ``(k, l)`` of B contributes the product edge

.. math::

    (\\gamma(i, k), \\gamma(j, l)) = (i \\cdot n_B + k,\\; j \\cdot n_B + l),

so ``|E_C| = |E_A| \\cdot |E_B|`` directed edges.  Generation is therefore an
outer product over edge rows; we vectorize it with ``repeat``/``tile`` and --
because the product can be orders of magnitude larger than either factor --
also expose a chunked streaming form that never materializes more than
``chunk_size`` product edges at once.  The distributed generator in
:mod:`repro.distributed.generator` drives exactly these kernels per rank.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.kronecker.indexing import combine_edges, product_vertex_count
from repro.util.chunking import chunk_bounds

__all__ = [
    "kron_edge_block",
    "kron_product",
    "iter_kron_product",
    "kron_power",
    "product_size",
    "RoutePlanB",
    "plan_route_b",
    "kron_edge_block_routed",
    "kron_routed_full",
    "iter_kron_product_routed",
    "routed_chunk_count",
]

#: Default number of product edges materialized per streamed chunk.
DEFAULT_CHUNK = 1 << 20


def product_size(el_a: EdgeList, el_b: EdgeList) -> tuple[int, int]:
    """Exact ``(n_C, directed-edge count)`` of ``A (x) B`` without generating it.

    This is the "ground truth from sublinear storage" counting mode used to
    report paper-scale sizes (e.g. the 40M-vertex / 1.1B-edge gnutella
    product) that are never materialized.
    """
    return el_a.n * el_b.n, el_a.m_directed * el_b.m_directed


def kron_edge_block(
    edges_a: np.ndarray, edges_b: np.ndarray, n_b: int
) -> np.ndarray:
    """Dense outer product of two directed edge blocks.

    Returns the ``(len(a) * len(b), 2)`` array of product edges, ordered with
    the A-edge index varying slowest.  This is the innermost kernel; callers
    control memory by bounding the block sizes.
    """
    ma, mb = len(edges_a), len(edges_b)
    if ma == 0 or mb == 0:
        return np.empty((0, 2), dtype=np.int64)
    src_a = np.repeat(edges_a[:, 0], mb)
    dst_a = np.repeat(edges_a[:, 1], mb)
    src_b = np.tile(edges_b[:, 0], ma)
    dst_b = np.tile(edges_b[:, 1], ma)
    src, dst = combine_edges(src_a, dst_a, src_b, dst_b, n_b)
    return np.column_stack([src, dst])


def kron_product(el_a: EdgeList, el_b: EdgeList) -> EdgeList:
    """Materialize ``C = A (x) B`` as an edge list.

    Semantics follow Def. 1 exactly: the output has one directed edge per
    (A-edge, B-edge) pair.  If both inputs are symmetric, the output is
    symmetric; self-loop structure composes as ``(i=j and k=l)``.
    Raises :class:`~repro.errors.VertexIdOverflowError` when
    ``n_A * n_B`` reaches ``2**63``.
    """
    n_c = product_vertex_count((el_a.n, el_b.n))
    edges = kron_edge_block(el_a.edges, el_b.edges, el_b.n)
    return EdgeList(edges, n_c)


def iter_kron_product(
    el_a: EdgeList,
    el_b: EdgeList,
    chunk_size: int = DEFAULT_CHUNK,
) -> Iterator[np.ndarray]:
    """Stream ``C = A (x) B`` in chunks of at most ``chunk_size`` edges.

    Chunking follows the natural generation order (A-edge major): each yield
    is a contiguous range of the conceptual outer-product enumeration, so
    concatenating all chunks equals :func:`kron_product`.  B is held whole
    (the paper replicates B on every processor); A rows are sliced.

    Yields
    ------
    numpy.ndarray
        ``(c, 2)`` blocks of product edges, ``c <= chunk_size``.
    """
    mb = el_b.m_directed
    if mb == 0 or el_a.m_directed == 0:
        return
    # Choose how many A-edges to expand per chunk; at least one A-edge,
    # whose full B-expansion may exceed chunk_size -- then sub-chunk it.
    a_per_chunk = max(1, chunk_size // mb)
    for a_start, a_stop in chunk_bounds(el_a.m_directed, a_per_chunk):
        block = kron_edge_block(el_a.edges[a_start:a_stop], el_b.edges, el_b.n)
        if len(block) <= chunk_size:
            yield block
        else:
            for s, t in chunk_bounds(len(block), chunk_size):
                yield block[s:t]


# --------------------------------------------------------------------- #
# Fused generation -> routing (the Section III hot path)
# --------------------------------------------------------------------- #
#
# Under the ``source_block`` storage map the owner of a product edge depends
# only on its source ``src = i * n_B + k`` (A-edge source ``i``, B-edge
# source ``k``): owner boundaries are vertex ranges, so for a *fixed* A-edge
# the owner is monotone in ``k``.  Sorting B's edge sources once (B is
# replicated and tiny; the sort is amortized across every expansion that
# reuses the plan) turns per-pair owner assignment into ``nparts``
# searchsorted boundaries per A-edge -- each owner's slice of the product is
# then written directly, with no product-sized sort of any kind.


@dataclass(frozen=True)
class RoutePlanB:
    """Reusable routing precomputation for a replicated factor B.

    Attributes
    ----------
    order:
        Stable argsort of B's edge sources (``(m_B,)`` int64).
    src_sorted:
        ``edges_b[order, 0]`` -- B-edge sources in ascending order.
    """

    order: np.ndarray
    src_sorted: np.ndarray


def plan_route_b(edges_b: np.ndarray) -> RoutePlanB:
    """Build the per-factor routing plan (one small sort of ``m_B`` keys)."""
    edges_b = np.asarray(edges_b, dtype=np.int64).reshape(-1, 2)
    order = np.argsort(edges_b[:, 0], kind="stable")
    return RoutePlanB(order, edges_b[order, 0])


def _routed_positions(
    src_a: np.ndarray, plan: RoutePlanB, n_b: int, bounds: np.ndarray
) -> np.ndarray:
    """Per-(A-edge, owner) bucket boundaries into the sorted B order.

    ``pos[t, d]`` is the first sorted-B position whose pair with A-edge ``t``
    lands in owner ``d`` or later: the pair ``(t, s)`` has product source
    ``src_a[t] * n_b + src_sorted[s]``, owned by ``d`` iff that value falls
    in ``[bounds[d], bounds[d+1])``.
    """
    thresholds = bounds[None, :] - src_a[:, None] * np.int64(n_b)
    pos = np.searchsorted(plan.src_sorted, thresholds.ravel(), side="left")
    return pos.reshape(len(src_a), len(bounds))


def _routed_bucket_rows(
    edges_a: np.ndarray,
    edges_b: np.ndarray,
    plan: RoutePlanB,
    pos: np.ndarray,
    d: int,
    n_b: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Materialize owner ``d``'s slice of the A-block x B product.

    The slice is the concatenation, A-edge major, of each A-edge's run of
    sorted-B partners ``pos[t, d] <= s < pos[t, d+1]``; the run members are
    enumerated with the same repeat/arange gather the BFS kernel uses.
    Writes into ``out`` when given (exact preallocation), else allocates.
    """
    lens = pos[:, d + 1] - pos[:, d]
    total = int(lens.sum())
    if out is None:
        out = np.empty((total, 2), dtype=np.int64)
    if total == 0:
        return out
    a_idx = np.repeat(np.arange(len(edges_a), dtype=np.int64), lens)
    intra = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens
    )
    b_idx = plan.order[np.repeat(pos[:, d], lens) + intra]
    np.multiply(edges_a[a_idx, 0], np.int64(n_b), out=out[:, 0])
    out[:, 0] += edges_b[b_idx, 0]
    np.multiply(edges_a[a_idx, 1], np.int64(n_b), out=out[:, 1])
    out[:, 1] += edges_b[b_idx, 1]
    return out


def kron_edge_block_routed(
    edges_a: np.ndarray,
    edges_b: np.ndarray,
    n_b: int,
    nparts: int,
    n_c: int,
    plan: RoutePlanB | None = None,
) -> list[np.ndarray]:
    """Outer product of two edge blocks, emitted pre-bucketed by owner.

    Routed counterpart of :func:`kron_edge_block` for the ``source_block``
    storage map over ``nparts`` owners of the ``n_c``-vertex product: returns
    ``nparts`` blocks whose concatenation is a permutation of the dense
    expansion, with block ``d`` holding exactly the pairs whose product
    source falls in owner ``d``'s vertex range.  Cost is
    O(output + len(a) * nparts); no product-sized sort is performed.

    Pass a precomputed ``plan`` (:func:`plan_route_b`) to amortize B's one
    small sort across many expansions of the same replicated factor.
    """
    from repro.distributed.partition import vertex_block_bounds

    ma, mb = len(edges_a), len(edges_b)
    if ma == 0 or mb == 0:
        return [np.empty((0, 2), dtype=np.int64) for _ in range(nparts)]
    edges_a = np.asarray(edges_a, dtype=np.int64).reshape(-1, 2)
    edges_b = np.asarray(edges_b, dtype=np.int64).reshape(-1, 2)
    if plan is None:
        plan = plan_route_b(edges_b)
    bounds = vertex_block_bounds(n_c, nparts)
    pos = _routed_positions(edges_a[:, 0], plan, n_b, bounds)
    return [
        _routed_bucket_rows(edges_a, edges_b, plan, pos, d, n_b)
        for d in range(nparts)
    ]


def kron_routed_full(
    el_a: EdgeList,
    el_b: EdgeList,
    nparts: int,
    n_c: int,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[np.ndarray]:
    """Full routed product ``A (x) B``: exact-size per-owner arrays.

    Equivalent to concatenating every chunk of
    :func:`iter_kron_product_routed`, but each owner's total is computed
    analytically up front so its array is allocated exactly once and filled
    in place chunk by chunk -- no per-owner concatenation, no resize.
    """
    from repro.distributed.partition import vertex_block_bounds

    ma, mb = el_a.m_directed, el_b.m_directed
    if ma == 0 or mb == 0:
        return [np.empty((0, 2), dtype=np.int64) for _ in range(nparts)]
    plan = plan_route_b(el_b.edges)
    bounds = vertex_block_bounds(n_c, nparts)
    pos = _routed_positions(el_a.edges[:, 0], plan, n_b=el_b.n, bounds=bounds)
    totals = (pos[:, 1:] - pos[:, :-1]).sum(axis=0)
    outs = [np.empty((int(t), 2), dtype=np.int64) for t in totals]
    fill = np.zeros(nparts, dtype=np.int64)
    a_per_chunk = max(1, chunk_size // mb)
    for a_start, a_stop in chunk_bounds(ma, a_per_chunk):
        pos_c = pos[a_start:a_stop]
        for d in range(nparts):
            c = int((pos_c[:, d + 1] - pos_c[:, d]).sum())
            if c == 0:
                continue
            _routed_bucket_rows(
                el_a.edges[a_start:a_stop],
                el_b.edges,
                plan,
                pos_c,
                d,
                el_b.n,
                out=outs[d][fill[d] : fill[d] + c],
            )
            fill[d] += c
    return outs


def iter_kron_product_routed(
    el_a: EdgeList,
    el_b: EdgeList,
    nparts: int,
    n_c: int,
    chunk_size: int = DEFAULT_CHUNK,
) -> Iterator[list[np.ndarray]]:
    """Stream the routed product: one per-owner bucket list per A-chunk.

    Each yield covers ``max(1, chunk_size // m_B)`` A-edges' full expansion,
    split by owner; chunks therefore hold at most ``max(chunk_size, m_B)``
    edges (a single A-edge's expansion is never split, unlike
    :func:`iter_kron_product`, because routing operates on whole B).  The
    pipelined generator exchanges each yield immediately -- the paper's
    send-as-you-generate shape with the bucketing cost fused away.
    """
    ma, mb = el_a.m_directed, el_b.m_directed
    if ma == 0 or mb == 0:
        return
    plan = plan_route_b(el_b.edges)
    a_per_chunk = max(1, chunk_size // mb)
    for a_start, a_stop in chunk_bounds(ma, a_per_chunk):
        yield kron_edge_block_routed(
            el_a.edges[a_start:a_stop], el_b.edges, el_b.n, nparts, n_c, plan
        )


def routed_chunk_count(ma: int, mb: int, chunk_size: int) -> int:
    """Number of chunks :func:`iter_kron_product_routed` emits."""
    if ma == 0 or mb == 0:
        return 0
    return -(-ma // max(1, chunk_size // mb))


def kron_power(el: EdgeList, k: int) -> EdgeList:
    """Iterated product ``A (x) A (x) ... (x) A`` (``k`` factors).

    ``k = 1`` returns the input unchanged.  Mirrors the repeated-squaring
    usage of Kronecker benchmarks (the paper's ``C = A (x) A`` experiments
    are ``k = 2``).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out = el
    for _ in range(k - 1):
        out = kron_product(out, el)
    return out
