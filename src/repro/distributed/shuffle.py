"""Edge shuffle: route generated edges to their storage owners.

"If edges are being stored, the processor responsible for generating an edge
must then send it to the processor responsible for its storage as determined
by some mapping scheme" (Section III).  The shuffle is deliberately
independent of how edges were generated -- the modularity the paper calls
out -- so both the 1-D and 2-D generators reuse it unchanged.

Bucketing is a counting-sort scatter (:func:`counting_scatter`).  Owner
ids are bounded by the world size, so they fit a narrow integer dtype and
numpy's stable small-integer sort is a radix/counting sort -- O(m +
nparts) instead of the O(m log m) comparison argsort.  On a 1M-edge block
with 8 owners this is ~3x the stable comparison argsort
(``benchmarks/bench_kernels.py``), which no generation path calls: it is
:func:`argsort_split`, the reference the property tests and the naive
benchmark baseline compare against.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.comm import Communicator, Request
from repro.distributed.partition import owners_by_edge_hash, owners_by_vertex_block
from repro.distributed.wire import decode_edges, encode_edges, is_wire_block
from repro.errors import CommunicatorError
from repro.telemetry.session import telemetry_of

__all__ = [
    "counting_scatter",
    "argsort_split",
    "bucket_edges",
    "exchange_edges",
    "exchange_edges_start",
    "exchange_edges_finish",
    "shuffle_to_owners",
    "WIRE_FORMATS",
]

#: Valid values of the ``wire`` knob: ``"raw"`` ships int64 blocks as-is,
#: ``"varint"`` delta-sorts and varint-encodes them (see
#: :mod:`repro.distributed.wire`).
WIRE_FORMATS = ("raw", "varint")


def _check_wire(wire: str) -> None:
    if wire not in WIRE_FORMATS:
        raise ValueError(
            f"unknown wire format {wire!r}; expected one of {WIRE_FORMATS}"
        )


def _owner_sort_dtype(nparts: int) -> np.dtype:
    """Narrowest unsigned dtype holding owner ids, to hit numpy's radix sort."""
    if nparts <= 1 << 8:
        return np.dtype(np.uint8)
    if nparts <= 1 << 16:
        return np.dtype(np.uint16)
    # numpy's radix sort covers 1- and 2-byte ints; wider worlds fall back
    # to a comparison sort on int32, still cheaper than int64 keys.
    return np.dtype(np.int32)


def _gather_rows(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``rows[order]`` for 2-D row arrays, via a single flat 1-D take.

    Gathering an ``(m, 2)`` int64 array row-wise through a 16-byte-element
    view is ~3x faster than the 2-D fancy index numpy would otherwise run.
    """
    if (
        rows.ndim == 2
        and rows.shape[1] == 2
        and rows.itemsize == 8
        and rows.flags.c_contiguous
    ):
        flat = rows.view(np.complex128).reshape(-1)
        return flat.take(order).view(rows.dtype).reshape(-1, 2)
    return rows[order]


def counting_scatter(
    rows: np.ndarray, owners: np.ndarray, nparts: int
) -> list[np.ndarray]:
    """Split ``rows`` into ``nparts`` buckets by ``owners`` without a
    comparison sort.

    Stable (rows keep their relative order inside each bucket), so the
    output is row-for-row identical to :func:`argsort_split`.
    Returned buckets are views into one backing array -- treat them as
    read-only, like buffers received from :meth:`Communicator.alltoall`.
    """
    order = np.argsort(owners.astype(_owner_sort_dtype(nparts)), kind="stable")
    sorted_rows = _gather_rows(rows, order)
    counts = np.bincount(owners, minlength=nparts)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return [sorted_rows[bounds[d] : bounds[d + 1]] for d in range(nparts)]


def argsort_split(
    rows: np.ndarray, owners: np.ndarray, nparts: int
) -> list[np.ndarray]:
    """Reference split of ``rows`` by ``owners``: stable comparison argsort.

    The naive bucketing :func:`counting_scatter` replaces, kept as the
    test oracle and benchmark baseline only.
    """
    order = np.argsort(owners, kind="stable")
    counts = np.bincount(owners, minlength=nparts)
    return np.split(rows[order], np.cumsum(counts)[:-1])


def edge_owners(
    edges: np.ndarray,
    nparts: int,
    *,
    scheme: str = "source_block",
    n: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Owner rank of each edge row under a storage scheme.

    Schemes
    -------
    ``"source_block"``:
        owner of ``(u, v)`` is the block owner of ``u`` (requires ``n``,
        the product vertex count).  This is the typical adjacency-storage
        layout: each rank stores the rows of its vertex range.
    ``"edge_hash"``:
        owner is ``hash(u, v) % nparts`` -- load-balanced, direction
        independent.
    """
    if scheme == "source_block":
        if n is None:
            raise ValueError("source_block scheme requires the vertex count n")
        return owners_by_vertex_block(edges[:, 0], n, nparts)
    if scheme == "edge_hash":
        return owners_by_edge_hash(edges, nparts, seed)
    raise ValueError(f"unknown scheme {scheme!r}")


def bucket_edges(
    edges: np.ndarray,
    nparts: int,
    *,
    scheme: str = "source_block",
    n: int | None = None,
    seed: int = 0,
) -> list[np.ndarray]:
    """Split an edge block into per-owner buckets (counting scatter).

    See :func:`edge_owners` for the schemes.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    owners = edge_owners(edges, nparts, scheme=scheme, n=n, seed=seed)
    return counting_scatter(edges, owners, nparts)


def _as_edge_block(blk: np.ndarray | None) -> np.ndarray | None:
    """Normalize one received bucket; ``None``/empty become ``None``.

    Wire-encoded payloads (:func:`repro.distributed.wire.encode_edges`)
    are decoded first -- their uint8 streams may have odd length, so the
    magic check must precede the generic shape validation.  A payload
    that is neither a wire block nor interpretable as ``(m, 2)`` integer
    edges (odd element count, non-numeric dtype) means a corrupted or
    misrouted message; raise a diagnostic naming the problem instead of
    letting ``reshape`` throw a bare ``ValueError`` deep in the exchange.
    """
    if blk is None:
        return None
    blk = np.asarray(blk)
    if blk.size == 0:
        return None
    if is_wire_block(blk):
        decoded = decode_edges(blk)
        return decoded if decoded.size else None
    if blk.dtype.kind not in "biu" or blk.size % 2:
        raise CommunicatorError(
            f"received edge block with dtype {blk.dtype} and shape "
            f"{blk.shape}: not interpretable as (m, 2) integer edges -- "
            f"a corrupted or misrouted exchange message"
        )
    return blk.reshape(-1, 2)


def _encode_outgoing(
    outgoing: list[np.ndarray], wire: str, tel
) -> list[np.ndarray]:
    """Apply the wire format to per-destination buckets (counting bytes)."""
    if wire == "raw":
        return outgoing
    raw_bytes = 0
    encoded: list[np.ndarray | None] = []
    for blk in outgoing:
        if blk is None or np.asarray(blk).size == 0:
            encoded.append(None)
            continue
        blk = np.asarray(blk, dtype=np.int64).reshape(-1, 2)
        raw_bytes += blk.nbytes
        encoded.append(encode_edges(blk))
    tel.add("exchange.bytes_raw", raw_bytes)
    tel.add(
        "exchange.bytes_wire",
        sum(e.nbytes for e in encoded if e is not None),
    )
    return encoded


def _stack_received(incoming: list) -> np.ndarray:
    blocks = [b for b in map(_as_edge_block, incoming) if b is not None]
    if not blocks:
        return np.empty((0, 2), dtype=np.int64)
    return np.vstack(blocks)


def exchange_edges(
    comm: Communicator, outgoing: list[np.ndarray], *, wire: str = "raw"
) -> np.ndarray:
    """All-to-all exchange of per-destination edge buckets.

    ``outgoing[d]`` is the block this rank routes to rank ``d``; returns the
    vertical stack of everything received (own bucket included).  Defensive
    about what backends hand back: ``None`` entries and zero-size blocks of
    any shape are skipped, and received buffers are never mutated (the
    zero-copy process backend may return read-only shared views -- see
    :meth:`Communicator.alltoall`); the returned stack is a fresh array this
    rank owns.

    ``wire="varint"`` compresses each bucket before the collective and
    decodes on receipt (:mod:`repro.distributed.wire`); the received
    *multiset* of edges is identical, but rows arrive sorted per block.
    """
    _check_wire(wire)
    tel = telemetry_of(comm)
    with tel.span("exchange", cat="phase"):
        tel.add("edges.routed", sum(len(b) for b in outgoing if b is not None))
        payload = _encode_outgoing(outgoing, wire, tel)
        incoming = comm.alltoall(payload)
        received = _stack_received(incoming)
    tel.add("edges.received", len(received))
    return received


def exchange_edges_start(
    comm: Communicator, outgoing: list[np.ndarray], *, wire: str = "raw"
) -> Request:
    """Issue the split-phase half of :func:`exchange_edges`.

    Buckets are (optionally) wire-encoded and the exchange is started via
    :meth:`Communicator.alltoall_start`; the returned request is fed to
    :func:`exchange_edges_finish`.  Between the two calls the caller owns
    neither the outgoing buckets (in-flight, see
    :class:`~repro.distributed.comm.Request`) nor any received data yet --
    it should generate the *next* chunk, which is the entire point.
    """
    _check_wire(wire)
    tel = telemetry_of(comm)
    with tel.span("exchange.issue", cat="phase"):
        tel.add("edges.routed", sum(len(b) for b in outgoing if b is not None))
        payload = _encode_outgoing(outgoing, wire, tel)
        return comm.alltoall_start(payload)


def exchange_edges_finish(comm: Communicator, request: Request) -> np.ndarray:
    """Complete a split-phase exchange; returns the stacked received edges.

    Emits the same ``exchange`` span and ``edges.received`` counter as the
    blocking :func:`exchange_edges`, so phase-level trace consumers see a
    single exchange regardless of pipeline mode (the span now covers only
    the wait + decode, with issue time under ``exchange.issue``).
    """
    tel = telemetry_of(comm)
    with tel.span("exchange", cat="phase"):
        incoming = comm.alltoall_finish(request)
        received = _stack_received(incoming)
    tel.add("edges.received", len(received))
    return received


def shuffle_to_owners(
    comm: Communicator,
    edges: np.ndarray,
    *,
    scheme: str = "source_block",
    n: int | None = None,
    seed: int = 0,
    wire: str = "raw",
) -> np.ndarray:
    """Bucket locally generated edges and exchange them in one collective."""
    with telemetry_of(comm).span("route", cat="phase"):
        outgoing = bucket_edges(
            edges, comm.size, scheme=scheme, n=n, seed=seed
        )
    return exchange_edges(comm, outgoing, wire=wire)
