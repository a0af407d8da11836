"""Distributed nonstochastic Kronecker generation (Section III).

One rank program (:func:`generate_rank_cells`) serves both partitioning
schemes, which differ only in the per-rank list of ``(A-part, B-part)``
cells they hand it.  Each rank:

1. takes its slice of the factor edge space (1-D: a shard of A with B
   replicated; 2-D: an (A-part, B-part) grid cell per Remark 1);
2. generates its product edges in rounds, one strided A-edge slice of
   one cell per round (see :func:`_rounds`), mirroring the chunked sends
   of the HavoqGT implementation;
3. with a storage scheme, sends each round's edges to their storage
   owners (:mod:`repro.distributed.shuffle`) before generating the next,
   so generation and storage placement stay decoupled and resident
   memory stays near one round plus the rank's stored share.

Routing
-------
Under ``source_block`` storage the routed kernel
(:func:`repro.kronecker.product.kron_routed_full`) emits every round
*pre-bucketed by owner*: owner assignment is computed analytically from
the product index structure, so no generated edge is ever sorted by
owner.  Under ``edge_hash`` the round is expanded densely and bucketed
with the sort-free counting scatter
(:func:`repro.distributed.shuffle.bucket_edges`).
``tests/property/test_routed_equivalence.py`` checks both against the
serial product split by the stable-argsort reference
(:func:`repro.distributed.shuffle.argsort_split`).

Pipelines
---------
``pipeline="sync"`` completes each round's exchange before generating
the next round; ``"async"`` double-buffers, so round ``k``'s exchange is
in flight while round ``k+1`` is generated.  Both store the same blocks
in the same order.

Generation models
-----------------
Without an ``skg`` spec every enumerated product edge is emitted -- the
paper's nonstochastic generator.  With one (an
:class:`repro.skg.model.SKGSpec`), the stochastic Kronecker tier
(:mod:`repro.skg`): the factors enumerate the *candidate* space (all
ordered vertex pairs, via
:func:`repro.graph.generators.complete_with_loops`) and a deterministic
hash-thresholded acceptance filter (:class:`repro.skg.sample.SKGAcceptor`)
runs inside the generate span on every scheme x storage x pipeline path.
Because acceptance is a pure function of ``(skg_seed, u, v)``, the
filtered output is bit-identical across backends, chunk sizes, retries,
and elastic re-sharding -- the same invariants the exact model enjoys.
``edges.generated`` counts *accepted* edges (what enters routing and
storage, keeping trace reconciliation intact); the filter's own volume
lands on the ``skg.accepted`` / ``skg.rejected`` counters.

The rank function is a plain module-level callable taking its
:class:`Communicator` first, runnable under any backend via
:func:`repro.distributed.launcher.spmd_run`.  The convenience driver
(:func:`generate_distributed`) wires partitioning + launch + reassembly
and is what the examples, tests, and benches call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.comm import Communicator
from repro.distributed.launcher import spmd_run
from repro.distributed.partition import partition_edges_1d, partition_edges_2d
from repro.distributed.shuffle import (
    _check_wire,
    bucket_edges,
    exchange_edges,
    exchange_edges_finish,
    exchange_edges_start,
)
from repro.errors import PartitionError
from repro.graph.edgelist import EdgeList
from repro.kronecker.indexing import product_vertex_count
from repro.kronecker.product import (
    DEFAULT_CHUNK,
    iter_kron_product,
    kron_edge_block,
    kron_routed_full,
)
from repro.telemetry.session import telemetry_of

__all__ = [
    "RankOutput",
    "generate_rank_cells",
    "generate_distributed",
]

_PIPELINES = ("sync", "async")
_EMPTY = np.empty((0, 2), dtype=np.int64)


@dataclass(frozen=True)
class RankOutput:
    """What one rank produced.

    Attributes
    ----------
    rank:
        Producer rank.
    edges:
        The product edges this rank ends up *storing* (post-shuffle when a
        storage scheme is active, otherwise its generated edges).
    generated:
        How many edges this rank generated (pre-shuffle), for load stats.
    """

    rank: int
    edges: np.ndarray
    generated: int


def _check_pipeline(pipeline: str, storage: str | None) -> None:
    if pipeline not in _PIPELINES:
        raise PartitionError(
            f"unknown pipeline {pipeline!r}; use 'sync' or 'async'"
        )
    if pipeline == "async" and storage is None:
        raise PartitionError(
            "pipeline='async' requires a storage scheme ('source_block' or "
            "'edge_hash'); with storage=None nothing is exchanged, so there "
            "is nothing to overlap"
        )


def _check_skg(skg, n_c: int) -> None:
    if skg is None:
        return
    from repro.skg.model import SKGSpec

    if not isinstance(skg, SKGSpec):
        raise PartitionError(
            f"skg must be an SKGSpec, got {type(skg).__name__}"
        )
    if skg.n != n_c:
        raise PartitionError(
            f"SKG spec covers 2**{skg.k} = {skg.n} vertices but the factor "
            f"product has {n_c}; the factors must enumerate exactly the "
            f"spec's candidate space (see repro.skg.distributed."
            f"skg_candidate_factors)"
        )


def _make_acceptor(skg):
    """Build the per-rank SKG acceptance filter (None for exact runs).

    Imported lazily: :mod:`repro.skg` depends on this module for its
    distributed drivers, so a top-level import would be circular.
    """
    if skg is None:
        return None
    from repro.skg.sample import SKGAcceptor

    return SKGAcceptor(skg)


def _generate_cells(
    cells: list[tuple[EdgeList, EdgeList]], chunk_size: int, acceptor=None
) -> tuple[np.ndarray, int]:
    """Stream this rank's cell products into one exactly-sized array.

    The local (nothing exchanged) path.  The product size of every cell is
    known up front (``|E_A_part| * |E_B_part|``), so the output is
    allocated once and each streamed chunk is written into its slice --
    peak memory is the output plus one chunk.

    With an SKG ``acceptor`` the surviving count is not known up front, so
    accepted chunk slices are collected and stacked instead; the returned
    count is the *accepted* volume.
    """
    if acceptor is not None:
        kept: list[np.ndarray] = []
        for part_a, part_b in cells:
            for chunk in iter_kron_product(part_a, part_b, chunk_size):
                accepted = acceptor.filter_edges(chunk)
                if len(accepted):
                    kept.append(accepted)
        edges = np.vstack(kept) if kept else _EMPTY
        return edges, len(edges)
    total = sum(a.m_directed * b.m_directed for a, b in cells)
    if total == 0:
        return _EMPTY, 0
    edges = np.empty((total, 2), dtype=np.int64)
    fill = 0
    for part_a, part_b in cells:
        for chunk in iter_kron_product(part_a, part_b, chunk_size):
            edges[fill : fill + len(chunk)] = chunk
            fill += len(chunk)
    assert fill == total
    return edges, total


def _rounds(
    cells: list[tuple[EdgeList, EdgeList]], chunk_size: int
) -> list[tuple[EdgeList, int, int, EdgeList]]:
    """One rank's exchange rounds: ``(A-part, k, stride, B-part)`` each.

    A cell takes ``stride = ceil(m_A / max(1, chunk_size // m_B))``
    rounds; round ``k`` expands the A-edges ``k::stride`` against the
    cell's whole B-part (routing needs whole-B runs, so one A-edge's
    expansion is never split), i.e. at most ``max(chunk_size, m_B)``
    edges.  Strided rather than contiguous slices give every round the
    owner mix of the whole cell: contiguous A-edges share sources, hence
    owners, so contiguous rounds would load a few links each in turn.
    """
    rounds = []
    for part_a, part_b in cells:
        if part_b.m_directed:
            per_round = max(1, chunk_size // part_b.m_directed)
            stride = -(-part_a.m_directed // per_round)
            rounds += [(part_a, k, stride, part_b) for k in range(stride)]
    return rounds


def _exchange_rounds(
    comm: Communicator,
    assignments: list[list[tuple[EdgeList, EdgeList]]],
    n_c: int,
    storage: str,
    chunk_size: int,
    pipeline: str,
    wire: str,
    acceptor,
) -> tuple[np.ndarray, int]:
    """Generate this rank's rounds, sending each to its storage owners.

    Every rank must join every exchange, so all ranks run the largest
    per-rank round count, which each computes from the replicated
    ``assignments`` (no collective); ranks past their own rounds send
    empty buckets.  The count is at least one, so a run always makes at
    least one exchange.
    """
    tel = telemetry_of(comm)
    rounds = _rounds(assignments[comm.rank], chunk_size)
    all_rounds = max(
        1, max(len(_rounds(cells, chunk_size)) for cells in assignments)
    )
    routed = storage == "source_block"
    idle = [_EMPTY] * comm.size
    stored: list[np.ndarray] = []
    generated = 0

    def next_outgoing(r: int) -> list[np.ndarray]:
        """Generate and bucket round ``r`` (the producer step)."""
        nonlocal generated
        with tel.span("generate", cat="phase", round=r):
            if r >= len(rounds):
                blocks = idle
            else:
                part_a, k, stride, part_b = rounds[r]
                slice_a = EdgeList(part_a.edges[k::stride], part_a.n)
                if routed:
                    blocks = kron_routed_full(
                        slice_a, part_b, comm.size, n_c, chunk_size
                    )
                else:
                    blocks = [
                        kron_edge_block(slice_a.edges, part_b.edges, part_b.n)
                    ]
            if acceptor is not None:
                blocks = [acceptor.filter_edges(b) for b in blocks]
        generated += sum(len(b) for b in blocks)
        # A routed round leaves the kernel already split by owner, so its
        # route phase is empty; the span stays so every storage run traces
        # the same phases.
        with tel.span("route", cat="phase"):
            if routed:
                return blocks
            return bucket_edges(blocks[0], comm.size, scheme=storage, n=n_c)

    if pipeline == "sync":
        for r in range(all_rounds):
            received = exchange_edges(comm, next_outgoing(r), wire=wire)
            if len(received):
                stored.append(received)
    else:
        # Double-buffered: finish round k's exchange only after round
        # k+1's buckets exist.  One request in flight keeps the
        # per-channel FIFO contract trivially satisfied; the in-flight
        # buckets are owned by the runtime until finished (Request
        # contract), which holds because next_outgoing builds fresh
        # arrays each round.
        pending = None
        issued_at = 0.0
        overlap_s = 0.0
        for r in range(all_rounds):
            outgoing = next_outgoing(r)
            if pending is not None:
                # Everything since the issue was generation that hid the
                # in-flight exchange.
                overlap_s += tel.clock() - issued_at
                received = exchange_edges_finish(comm, pending)
                if len(received):
                    stored.append(received)
            pending = exchange_edges_start(comm, outgoing, wire=wire)
            issued_at = tel.clock()
        # Tail flush: no generation left to hide this wait, so it does
        # not count toward the overlap.
        received = exchange_edges_finish(comm, pending)
        if len(received):
            stored.append(received)
        tel.add("exchange.overlap_s", overlap_s)
    if len(stored) > 1:
        return np.vstack(stored), generated
    return (stored[0] if stored else _EMPTY), generated


def generate_rank_cells(
    comm: Communicator,
    assignments: list[list[tuple[EdgeList, EdgeList]]],
    n_c: int,
    storage: str | None,
    chunk_size: int = DEFAULT_CHUNK,
    pipeline: str = "sync",
    wire: str = "raw",
    skg=None,
) -> RankOutput:
    """Rank program: generate ``assignments[comm.rank]`` in rounds, store.

    ``assignments`` is the replicated per-rank list of ``(A-part,
    B-part)`` cells.  The 1-D scheme (``C_r = A_r (x) B``) is one cell per
    rank, ``[[(part, el_b)] for part in partition_edges_1d(el_a, R)]``;
    Remark 1's 2-D scheme gives rank ``r`` the grid cell
    ``A_{r % Rh} (x) B_{r // Rh}`` (several when the grid is folded).

    ``storage=None`` keeps generated edges local (nothing is exchanged,
    as on a one-rank world).  ``"source_block"``/``"edge_hash"`` send
    each round to its owners in one exchange per round (see module
    docstring); ``pipeline="async"`` overlaps round ``k``'s exchange with
    round ``k+1``'s generation and stores output bit-identical to
    ``"sync"`` with the same ``wire``.  Time spent generating while an
    exchange was in flight accumulates into the ``exchange.overlap_s``
    counter.  ``wire="varint"`` compresses every exchanged bucket
    (:mod:`repro.distributed.wire`).  ``skg`` (an
    :class:`repro.skg.model.SKGSpec`) switches on stochastic acceptance.
    """
    _check_pipeline(pipeline, storage)
    _check_wire(wire)
    tel = telemetry_of(comm)
    acceptor = _make_acceptor(skg)
    if storage is None or comm.size == 1:
        with tel.span("generate", cat="phase"):
            edges, generated = _generate_cells(
                assignments[comm.rank], chunk_size, acceptor
            )
    else:
        edges, generated = _exchange_rounds(
            comm, assignments, n_c, storage, chunk_size, pipeline, wire,
            acceptor,
        )
    if acceptor is not None:
        tel.add("skg.accepted", acceptor.accepted)
        tel.add("skg.rejected", acceptor.rejected)
    tel.add("edges.generated", generated)
    tel.add("edges.stored", len(edges))
    return RankOutput(comm.rank, edges, generated)


def generate_distributed(
    el_a: EdgeList,
    el_b: EdgeList,
    nranks: int,
    *,
    scheme: str = "1d",
    storage: str | None = None,
    backend: str = "thread",
    chunk_size: int = DEFAULT_CHUNK,
    pipeline: str = "sync",
    wire: str = "raw",
    skg=None,
    runner=spmd_run,
    telemetry=None,
) -> tuple[EdgeList, list[RankOutput]]:
    """Generate ``C = A (x) B`` across ``nranks`` ranks and reassemble.

    Parameters
    ----------
    el_a, el_b:
        Factor edge lists.
    nranks:
        World size.
    scheme:
        ``"1d"`` (paper Section III) or ``"2d"`` (Remark 1).
    storage:
        ``None`` (keep where generated), ``"source_block"``, or
        ``"edge_hash"``.
    backend:
        Launcher backend (``"thread"``, ``"process"``, or ``"inline"`` for
        ``nranks == 1``).
    chunk_size:
        Max product edges per generation round (at least one A-edge's
        full expansion).
    pipeline:
        ``"sync"`` (each round's exchange completes before the next round
        is generated -- the default) or ``"async"`` (double-buffered: the
        exchange of round ``k`` is in flight while round ``k+1`` is
        generated).  ``"async"`` requires a ``storage`` scheme.
    wire:
        ``"raw"`` (int64 blocks as-is) or ``"varint"`` (delta-sorted
        varint compression of every exchanged block -- see
        :mod:`repro.distributed.wire`).
    skg:
        ``None`` (default) emits every product edge.  An
        :class:`repro.skg.model.SKGSpec` whose vertex count matches the
        product's filters candidates with the deterministic
        hash-thresholded acceptance described in the module docstring;
        anything else raises :class:`~repro.errors.PartitionError`.
    runner:
        The launch function, ``spmd_run``-compatible.  The supervised
        launcher (:func:`repro.distributed.supervisor.spmd_run_supervised`)
        is passed here -- pre-bound with its retry/fault/checkpoint
        configuration -- to add recovery without the generator knowing.
    telemetry:
        Optional :class:`~repro.telemetry.session.TelemetrySession`,
        forwarded to the runner.  ``None`` forwards nothing, so
        ``spmd_run``-compatible runners without a ``telemetry`` parameter
        keep working.

    Returns
    -------
    (EdgeList, list[RankOutput])
        The reassembled product (row order may differ from the serial
        product; contents are identical as multisets) and per-rank outputs.

    Raises :class:`~repro.errors.VertexIdOverflowError` before launching
    any rank when ``n_A * n_B`` reaches ``2**63``.
    """
    n_c = product_vertex_count((el_a.n, el_b.n))
    _check_pipeline(pipeline, storage)
    _check_wire(wire)
    _check_skg(skg, n_c)
    if scheme == "1d":
        assignments = [
            [(part, el_b)] for part in partition_edges_1d(el_a, nranks)
        ]
    elif scheme == "2d":
        assignments = partition_edges_2d(el_a, el_b, nranks)
    else:
        raise PartitionError(f"unknown scheme {scheme!r}; use '1d' or '2d'")
    run_kwargs = {"backend": backend}
    if telemetry is not None:
        run_kwargs["telemetry"] = telemetry
    outputs = runner(
        generate_rank_cells,
        nranks,
        assignments,
        n_c,
        storage,
        chunk_size,
        pipeline,
        wire,
        skg,
        **run_kwargs,
    )
    blocks = [o.edges for o in outputs if o is not None and len(o.edges)]
    edges = (
        np.vstack(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    )
    return EdgeList(edges, n_c), outputs
