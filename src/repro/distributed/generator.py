"""Distributed nonstochastic Kronecker generation (Section III).

One batch rank program (:func:`generate_rank_cells`) serves both
partitioning schemes, which differ only in the per-rank list of
``(A-part, B-part)`` cells they hand it, plus a per-chunk pipelined 1-D
variant.  Each rank:

1. takes its slice of the factor edge space (1-D: a shard of A with B
   replicated; 2-D: an (A-part, B-part) grid cell per Remark 1);
2. streams its product edges in bounded chunks, mirroring the asynchronous
   chunked sends of the HavoqGT implementation;
3. optionally routes each edge to its storage owner
   (:mod:`repro.distributed.shuffle`), so generation and storage placement
   stay decoupled.

Routing
-------
Under ``source_block`` storage the routed kernels of
:mod:`repro.kronecker.product` emit every chunk *pre-bucketed by owner*:
owner assignment is computed analytically from the product index
structure, so no generated edge is ever sorted by owner.  Under
``edge_hash`` the chunk is expanded densely and bucketed with the
sort-free counting scatter (:func:`repro.distributed.shuffle.bucket_edges`).
``tests/property/test_routed_equivalence.py`` checks both against the
serial product split by the stable-argsort reference
(:func:`repro.distributed.shuffle.argsort_split`).

Generation models (``model=``)
------------------------------
``"exact"`` (default):
    every enumerated product edge is emitted -- the paper's
    nonstochastic generator.
``"skg"``:
    the stochastic Kronecker tier (:mod:`repro.skg`).  The factors
    enumerate the *candidate* space (all ordered vertex pairs, via
    :func:`repro.graph.generators.complete_with_loops`) and a
    deterministic hash-thresholded acceptance filter
    (:class:`repro.skg.sample.SKGAcceptor`) runs inside the generate
    span on every scheme x storage x pipeline path.  Because acceptance
    is a pure function of ``(skg_seed, u, v)``, the filtered output is
    bit-identical across backends, chunk sizes, retries, and elastic
    re-sharding -- the same invariants the exact model enjoys.
    ``edges.generated`` counts *accepted* edges (what enters routing and
    storage, keeping trace reconciliation intact); the filter's own
    volume lands on the ``skg.accepted`` / ``skg.rejected`` counters.

The rank functions are plain module-level callables taking their
:class:`Communicator` first, runnable under any backend via
:func:`repro.distributed.launcher.spmd_run`.  Convenience drivers
(:func:`generate_distributed`) wire partitioning + launch + reassembly and
are what the examples, tests, and benches call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.comm import Communicator
from repro.distributed.launcher import spmd_run
from repro.distributed.partition import partition_edges_1d, partition_edges_2d
from repro.distributed.shuffle import (
    WIRE_FORMATS,
    bucket_edges,
    exchange_edges,
    exchange_edges_finish,
    exchange_edges_start,
    shuffle_to_owners,
)
from repro.errors import PartitionError
from repro.graph.edgelist import EdgeList
from repro.kronecker.indexing import product_vertex_count
from repro.kronecker.product import (
    DEFAULT_CHUNK,
    iter_kron_product,
    iter_kron_product_routed,
    kron_routed_full,
    routed_chunk_count,
)
from repro.telemetry.session import NULL_TELEMETRY, telemetry_of

__all__ = [
    "RankOutput",
    "generate_rank_cells",
    "generate_rank_1d_pipelined",
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


def _check_pipeline(pipeline: str) -> None:
    if pipeline not in _PIPELINES:
        raise PartitionError(
            f"unknown pipeline {pipeline!r}; use 'sync' or 'async'"
        )


def _check_wire(wire: str) -> None:
    if wire not in WIRE_FORMATS:
        raise PartitionError(
            f"unknown wire format {wire!r}; use one of {WIRE_FORMATS}"
        )


def _check_model(model: str, skg, n_c: int) -> None:
    if model not in ("exact", "skg"):
        raise PartitionError(
            f"unknown model {model!r}; use 'exact' or 'skg'"
        )
    if model == "exact":
        if skg is not None:
            raise PartitionError(
                "model='exact' does not take an SKG spec; pass model='skg'"
            )
        return
    from repro.skg.model import SKGSpec

    if not isinstance(skg, SKGSpec):
        raise PartitionError(
            f"model='skg' requires an SKGSpec, got {type(skg).__name__}"
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


def _emit_skg_counters(tel, acceptor) -> None:
    """Report the acceptance filter's volume on the rank's telemetry."""
    if acceptor is not None:
        tel.add("skg.accepted", acceptor.accepted)
        tel.add("skg.rejected", acceptor.rejected)


def _generate_cells(
    cells: list[tuple[EdgeList, EdgeList]], chunk_size: int, acceptor=None
) -> tuple[np.ndarray, int]:
    """Stream this rank's cell products into one exactly-sized array.

    The product size of every cell is known up front
    (``|E_A_part| * |E_B_part|``), so the output is allocated once and each
    streamed chunk is written into its slice -- peak memory is the output
    plus one chunk, half the chunk-list-then-vstack peak of the previous
    implementation.

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


def _generate_cells_routed(
    cells: list[tuple[EdgeList, EdgeList]],
    nparts: int,
    n_c: int,
    chunk_size: int,
    tel=NULL_TELEMETRY,
    acceptor=None,
) -> tuple[list[np.ndarray], int]:
    """Generate this rank's cells directly into per-owner buckets.

    Each cell's per-owner slices are exactly preallocated by
    :func:`kron_routed_full`; multi-cell ranks (folded 2-D grids) stack the
    per-cell buckets owner-wise.  Owner assignment is analytic, so the
    "route" phase degenerates to the owner-wise stack -- the trace shows it
    that way on purpose.  The SKG ``acceptor`` (when present) filters each
    owner bucket inside the generate span.
    """
    per_owner: list[list[np.ndarray]] = [[] for _ in range(nparts)]
    generated = 0
    with tel.span("generate", cat="phase"):
        for part_a, part_b in cells:
            buckets = kron_routed_full(part_a, part_b, nparts, n_c, chunk_size)
            for d, blk in enumerate(buckets):
                if acceptor is not None:
                    blk = acceptor.filter_edges(blk)
                if len(blk):
                    per_owner[d].append(blk)
                    generated += len(blk)
    with tel.span("route", cat="phase"):
        outgoing = [
            np.vstack(blks) if len(blks) > 1 else (blks[0] if blks else _EMPTY)
            for blks in per_owner
        ]
    return outgoing, generated


def generate_rank_cells(
    comm: Communicator,
    assignments: list[list[tuple[EdgeList, EdgeList]]],
    n_c: int,
    storage: str | None,
    chunk_size: int = DEFAULT_CHUNK,
    wire: str = "raw",
    skg=None,
) -> RankOutput:
    """Batch rank program: generate ``assignments[comm.rank]``, then store.

    ``assignments`` is the replicated per-rank list of ``(A-part,
    B-part)`` cells.  The 1-D scheme (``C_r = A_r (x) B``) is one cell per
    rank, ``[[(part, el_b)] for part in partition_edges_1d(el_a, R)]``;
    Remark 1's 2-D scheme gives rank ``r`` the grid cell
    ``A_{r % Rh} (x) B_{r // Rh}`` (several when the grid is folded).
    ``storage=None`` keeps generated edges local;
    ``"source_block"``/``"edge_hash"`` route them to their owners in one
    exchange (see module docstring).  ``skg`` (an
    :class:`repro.skg.model.SKGSpec`) switches on stochastic acceptance.
    """
    _check_wire(wire)
    cells = assignments[comm.rank]
    tel = telemetry_of(comm)
    acceptor = _make_acceptor(skg)
    if storage == "source_block" and comm.size > 1:
        outgoing, generated = _generate_cells_routed(
            cells, comm.size, n_c, chunk_size, tel, acceptor
        )
        edges = exchange_edges(comm, outgoing, wire=wire)
    else:
        with tel.span("generate", cat="phase"):
            edges, generated = _generate_cells(cells, chunk_size, acceptor)
        if storage is not None and comm.size > 1:
            edges = shuffle_to_owners(
                comm, edges, scheme=storage, n=n_c, wire=wire
            )
    _emit_skg_counters(tel, acceptor)
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
    model: str = "exact",
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
        Max product edges materialized at once per rank.
    pipeline:
        ``"sync"`` (each round's exchange completes before the next chunk
        is generated -- the default) or ``"async"`` (double-buffered: the
        exchange of chunk ``k`` is in flight while chunk ``k+1`` is
        generated).  ``"async"`` requires ``scheme="1d-pipelined"`` -- the
        batch schemes have a single exchange with nothing to overlap.
    wire:
        ``"raw"`` (int64 blocks as-is) or ``"varint"`` (delta-sorted
        varint compression of every exchanged block -- see
        :mod:`repro.distributed.wire`).
    model / skg:
        ``model="exact"`` (default) emits every product edge.
        ``model="skg"`` requires ``skg`` (an
        :class:`repro.skg.model.SKGSpec` whose vertex count matches the
        product's) and filters candidates with the deterministic
        hash-thresholded acceptance described in the module docstring.
        The two parameters must be consistent -- passing a spec with
        ``model="exact"`` (or vice versa) raises
        :class:`~repro.errors.PartitionError`.
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
    _check_pipeline(pipeline)
    _check_wire(wire)
    _check_model(model, skg, n_c)
    if pipeline == "async" and scheme != "1d-pipelined":
        raise PartitionError(
            f"pipeline='async' requires scheme='1d-pipelined' (scheme "
            f"{scheme!r} performs a single batch exchange with nothing to "
            f"overlap)"
        )
    run_kwargs = {"backend": backend}
    if telemetry is not None:
        run_kwargs["telemetry"] = telemetry
    if scheme == "1d-pipelined":
        if storage is None:
            storage = "source_block"
        outputs = runner(
            generate_rank_1d_pipelined,
            nranks,
            partition_edges_1d(el_a, nranks),
            el_b,
            n_c,
            storage,
            chunk_size,
            pipeline,
            wire,
            skg,
            **run_kwargs,
        )
    else:
        if scheme == "1d":
            assignments = [
                [(part, el_b)] for part in partition_edges_1d(el_a, nranks)
            ]
        elif scheme == "2d":
            assignments = partition_edges_2d(el_a, el_b, nranks)
        else:
            raise PartitionError(
                f"unknown scheme {scheme!r}; use '1d', '1d-pipelined', or "
                f"'2d'"
            )
        outputs = runner(
            generate_rank_cells,
            nranks,
            assignments,
            n_c,
            storage,
            chunk_size,
            wire,
            skg,
            **run_kwargs,
        )
    blocks = [o.edges for o in outputs if o is not None and len(o.edges)]
    edges = (
        np.vstack(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    )
    return EdgeList(edges, n_c), outputs


def _expanded_chunk_count(ma: int, mb: int, chunk_size: int) -> int:
    """Chunks :func:`iter_kron_product` emits for an ``ma x mb`` product."""
    if ma == 0 or mb == 0:
        return 0
    if chunk_size >= mb:
        a_per_chunk = max(1, chunk_size // mb)
        return -(-ma // a_per_chunk)
    return ma * (-(-mb // chunk_size))


def generate_rank_1d_pipelined(
    comm: Communicator,
    parts_a: list[EdgeList],
    el_b: EdgeList,
    n_c: int,
    storage: str,
    chunk_size: int = DEFAULT_CHUNK,
    pipeline: str = "sync",
    wire: str = "raw",
    skg=None,
) -> RankOutput:
    """1-D rank program with per-chunk routing (pipelined sends).

    The batch program (:func:`generate_rank_cells`) generates everything and
    exchanges once, peaking at the rank's full generated volume.  The
    HavoqGT implementation instead sends edges *as they are produced*;
    this variant reproduces that shape: each generated chunk is routed to
    its storage owners immediately, so resident memory is bounded by
    roughly one chunk plus the rank's stored share.

    Under ``source_block`` storage each chunk leaves the generation kernel
    already split by owner (one routed-kernel call per exchange round);
    under ``edge_hash`` each chunk is expanded, then bucketed sort-free.

    All ranks must agree on the number of exchange rounds; the round count
    is fixed up front by an allreduce over per-rank chunk counts, with
    ranks that exhaust their chunks early participating with empty blocks.

    ``pipeline="async"`` turns the loop into a double-buffered
    producer/consumer: round ``k``'s exchange is issued split-phase
    (:func:`exchange_edges_start`) and completed only *after* round
    ``k+1``'s chunk has been generated and bucketed, so generation
    overlaps the in-flight exchange -- the paper's overlap of generation
    with asynchronous edge sends.  At most one exchange is in flight and
    at most two chunks are resident (the in-flight buckets plus the chunk
    being generated), preserving the bounded-memory guarantee.  The
    stored output is bit-identical to ``pipeline="sync"`` with the same
    ``wire``: the same per-round blocks arrive in the same order.
    ``wire="varint"`` additionally compresses every exchanged bucket
    (:mod:`repro.distributed.wire`).  Time spent generating while an
    exchange was in flight accumulates into the ``exchange.overlap_s``
    counter.
    """
    _check_pipeline(pipeline)
    _check_wire(wire)
    tel = telemetry_of(comm)
    acceptor = _make_acceptor(skg)
    part = parts_a[comm.rank]
    mb = el_b.m_directed
    routed = storage == "source_block"
    # The chunk count must match the generator's emission exactly.  The
    # routed iterator never splits one A-edge's expansion (routing needs
    # whole-B runs); the expanding iterator sub-chunks it when
    # mb > chunk_size.
    if routed:
        my_rounds = routed_chunk_count(part.m_directed, mb, chunk_size)
        chunks = iter_kron_product_routed(part, el_b, comm.size, n_c, chunk_size)
    else:
        my_rounds = _expanded_chunk_count(part.m_directed, mb, chunk_size)
        chunks = iter_kron_product(part, el_b, chunk_size)
    all_rounds = comm.allreduce(my_rounds, max)

    empty_buckets = [_EMPTY] * comm.size
    stored: list[np.ndarray] = []
    generated = 0

    def next_outgoing(_round: int) -> list[np.ndarray]:
        """Generate and bucket one round's chunk (the producer step)."""
        nonlocal generated
        with tel.span("generate", cat="phase", round=_round):
            block = next(chunks, None)
            if block is not None and acceptor is not None:
                if routed:
                    block = [acceptor.filter_edges(b) for b in block]
                else:
                    block = acceptor.filter_edges(block)
        if routed:
            outgoing = empty_buckets if block is None else block
            generated += sum(len(b) for b in outgoing)
            return outgoing
        if block is None:
            block = _EMPTY
        generated += len(block)
        with tel.span("route", cat="phase"):
            return bucket_edges(block, comm.size, scheme=storage, n=n_c)

    if comm.size == 1:
        for _round in range(all_rounds):
            received = next_outgoing(_round)[0]
            if len(received):
                stored.append(np.asarray(received))
    elif pipeline == "sync":
        for _round in range(all_rounds):
            outgoing = next_outgoing(_round)
            received = exchange_edges(comm, outgoing, wire=wire)
            if len(received):
                stored.append(received)
    else:
        # Double-buffered: finish round k's exchange only after round
        # k+1's chunk exists.  One request in flight keeps the per-channel
        # FIFO contract trivially satisfied; the in-flight buckets are
        # owned by the runtime until finished (Request contract), which
        # holds here because next_outgoing builds fresh arrays each round.
        pending = None
        issued_at = 0.0
        overlap_s = 0.0
        for _round in range(all_rounds):
            outgoing = next_outgoing(_round)
            if pending is not None:
                # Everything since the issue was generation that hid the
                # in-flight exchange.
                overlap_s += tel.clock() - issued_at
                received = exchange_edges_finish(comm, pending)
                if len(received):
                    stored.append(received)
            pending = exchange_edges_start(comm, outgoing, wire=wire)
            issued_at = tel.clock()
        if pending is not None:
            # Tail flush: no generation left to hide this wait, so it
            # does not count toward the overlap.
            received = exchange_edges_finish(comm, pending)
            if len(received):
                stored.append(received)
        tel.add("exchange.overlap_s", overlap_s)
    # a rank may still hold residual chunks if per-rank chunk counts were
    # underestimated (cannot happen with the shared formula, but guard):
    for _block in chunks:  # pragma: no cover - defensive
        raise PartitionError("pipelined round count underestimated")
    edges = np.vstack(stored) if stored else _EMPTY
    _emit_skg_counters(tel, acceptor)
    tel.add("edges.generated", generated)
    tel.add("edges.stored", len(edges))
    return RankOutput(comm.rank, edges, generated)
