"""Out-of-core distributed generation: stream product shards to disk.

At paper scale the product never fits in memory; each rank streams its
``C_r`` chunks straight to its own shard file.  This module wires the
chunked generator to the partitioned file layout of :mod:`repro.graph.io`,
so the full pipeline is::

    factors on disk -> per-rank generation -> per-rank shard files,

with peak memory bounded by ``chunk_size`` product edges per rank
regardless of ``|E_C|``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.distributed.comm import Communicator
from repro.distributed.launcher import spmd_run
from repro.distributed.partition import partition_edges_1d, partition_edges_2d
from repro.errors import PartitionError
from repro.graph.edgelist import EdgeList
from repro.kronecker.indexing import product_vertex_count
from repro.kronecker.product import DEFAULT_CHUNK, iter_kron_product

__all__ = ["ShardManifest", "generate_to_directory"]


@dataclass(frozen=True)
class ShardManifest:
    """What one out-of-core run produced."""

    directory: Path
    n: int
    nranks: int
    edges_total: int
    shard_paths: list[Path]

    def load(self) -> EdgeList:
        """Read every shard back into one edge list (for verification)."""
        parts = []
        for p in self.shard_paths:
            arr = np.load(p)["edges"]
            if len(arr):
                parts.append(arr)
        edges = (
            np.vstack(parts) if parts else np.empty((0, 2), dtype=np.int64)
        )
        return EdgeList(edges, self.n)


def _rank_stream_to_file(
    comm: Communicator,
    assignments,
    directory: str,
    chunk_size: int,
    skg=None,
) -> tuple[str, int]:
    """Rank program: stream this rank's cells into one ``.npz`` shard.

    Chunks are buffered per rank and written once at the end of the rank's
    generation (numpy's npz container is not appendable); the buffered list
    holds views of at most ``chunk_size`` edges each, so peak *extra*
    memory beyond the final shard is one chunk.  With an SKG spec the
    chunks are filtered through the deterministic acceptance hash before
    buffering, so the shard holds (and the count reports) accepted edges
    only.
    """
    acceptor = None
    if skg is not None:
        from repro.skg.sample import SKGAcceptor

        acceptor = SKGAcceptor(skg)
    out_path = Path(directory) / f"shard_{comm.rank:05d}.npz"
    blocks: list[np.ndarray] = []
    count = 0
    for part_a, part_b in assignments[comm.rank]:
        for blk in iter_kron_product(part_a, part_b, chunk_size):
            if acceptor is not None:
                blk = acceptor.filter_edges(blk)
            if len(blk):
                blocks.append(blk)
                count += len(blk)
    edges = np.vstack(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    np.savez_compressed(out_path, edges=edges)
    return str(out_path), count


def generate_to_directory(
    el_a: EdgeList,
    el_b: EdgeList,
    directory: str | os.PathLike,
    nranks: int,
    *,
    scheme: str = "2d",
    backend: str = "thread",
    chunk_size: int = DEFAULT_CHUNK,
    rendezvous: str | None = None,
    local_ranks: tuple[int, ...] | None = None,
    skg=None,
) -> ShardManifest:
    """Generate ``A (x) B`` across ranks, writing one shard file per rank.

    Returns a :class:`ShardManifest`; ``manifest.load()`` reassembles the
    product for verification at test scale.  ``rendezvous`` (socket
    backend only) points the ranks at an external ``host:port`` roster
    server instead of a private in-process one; ``local_ranks`` restricts
    this invocation to its share of a multi-host world, in which case the
    manifest covers only the shards written on this host (the remote
    shards live on the other hosts' filesystems).  ``skg`` (an
    :class:`repro.skg.model.SKGSpec`) filters the streamed product with
    the stochastic tier's acceptance hash -- the factors must then
    enumerate the spec's candidate space
    (:func:`repro.skg.distributed.skg_candidate_factors`).

    Raises :class:`~repro.errors.VertexIdOverflowError` before launching
    any rank when ``n_A * n_B`` reaches ``2**63``.
    """
    product_vertex_count((el_a.n, el_b.n))
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if scheme == "1d":
        assignments = [
            [(part, el_b)] for part in partition_edges_1d(el_a, nranks)
        ]
    elif scheme == "2d":
        assignments = partition_edges_2d(el_a, el_b, nranks)
    else:
        raise PartitionError(f"unknown scheme {scheme!r}")

    results = spmd_run(
        _rank_stream_to_file, nranks, assignments, str(directory),
        chunk_size, skg, backend=backend, rendezvous=rendezvous,
        local_ranks=local_ranks,
    )
    # Ranks launched on other hosts report None slots; their shards are
    # on those hosts, so this manifest covers the local share only.
    local = [r for r in results if r is not None]
    paths = [Path(p) for p, _c in local]
    total = sum(c for _p, c in local)
    return ShardManifest(
        directory=directory,
        n=el_a.n * el_b.n,
        nranks=nranks,
        edges_total=total,
        shard_paths=paths,
    )

