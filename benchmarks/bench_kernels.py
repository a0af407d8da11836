"""Kernel microbenchmarks: the hot paths behind every experiment.

Tracks the throughput of the library's innermost vectorized kernels --
edge-block expansion, edge hashing, BFS, dedup normalization, streaming
validation -- so regressions in the foundations show up before they distort
the experiment-level benches.
"""

import numpy as np
import pytest

from repro.analytics.bfs import bfs_levels, bfs_levels_multi
from repro.analytics.distances import hop_matrix
from repro.distributed.shuffle import argsort_split, bucket_edges, edge_owners
from repro.graph import CSRGraph, gnutella_like
from repro.kronecker.product import (
    iter_kron_product,
    kron_edge_block,
    kron_edge_block_routed,
)
from repro.util.hashing import edge_uniform
from repro.validation.streaming import StreamingValidator

#: World size used by the bucketing/routing microbenches.
NPARTS = 8


def argsort_bucket_edges(edges, nparts, *, scheme, n):
    """Naive baseline: owner map, then the stable-argsort reference split."""
    owners = edge_owners(edges, nparts, scheme=scheme, n=n)
    return argsort_split(edges, owners, nparts)


@pytest.fixture(scope="module")
def big_factor():
    return gnutella_like(n=400)


@pytest.fixture(scope="module")
def million_edge_block():
    """A 1M-edge product-like block over a 10M-vertex id space."""
    rng = np.random.default_rng(12345)
    return rng.integers(0, 10_000_000, size=(1_000_000, 2), dtype=np.int64)


def test_bench_kron_edge_block(benchmark, big_factor):
    """Outer-product expansion rate (the generation kernel)."""
    a = big_factor.edges[:512]
    b = big_factor.edges[:512]
    out = benchmark(kron_edge_block, a, b, big_factor.n)
    assert len(out) == 512 * 512


def test_bench_chunked_stream(benchmark, big_factor):
    """Chunked streaming overhead vs one-shot expansion."""
    small = big_factor.induced_subgraph(np.arange(120))

    def stream():
        total = 0
        for blk in iter_kron_product(small, small, 1 << 16):
            total += len(blk)
        return total

    total = benchmark(stream)
    assert total == small.m_directed**2


@pytest.mark.parametrize("method", ["argsort", "scatter"])
@pytest.mark.parametrize("scheme", ["source_block", "edge_hash"])
def test_bench_bucketing(benchmark, million_edge_block, method, scheme):
    """Owner bucketing on a 1M-edge block: naive argsort vs sort-free scatter.

    The acceptance bar for the fused hot path: ``scatter`` must be at least
    2x ``argsort`` on the ``source_block`` scheme (compare the two
    parametrizations in the saved benchmark JSON).
    """
    bucket = bucket_edges if method == "scatter" else argsort_bucket_edges
    buckets = benchmark(
        bucket, million_edge_block, NPARTS, scheme=scheme, n=10_000_000
    )
    assert sum(len(b) for b in buckets) == len(million_edge_block)


@pytest.mark.parametrize("kernel", ["legacy", "routed"])
def test_bench_routed_expansion(benchmark, big_factor, kernel):
    """Generate-and-bucket a ~1M-edge product block: expand+argsort vs routed.

    ``legacy`` is the naive baseline: expand the outer product, then
    argsort-bucket it; ``routed`` emits each owner's slice directly from
    the factor structure.
    """
    a = big_factor.edges[:1024]
    b = big_factor.edges[:1024]
    n_c = big_factor.n * big_factor.n

    if kernel == "legacy":

        def run():
            block = kron_edge_block(a, b, big_factor.n)
            return argsort_bucket_edges(
                block, NPARTS, scheme="source_block", n=n_c
            )

    else:

        def run():
            return kron_edge_block_routed(a, b, big_factor.n, NPARTS, n_c)

    buckets = benchmark(run)
    assert sum(len(blk) for blk in buckets) == 1024 * 1024


def test_bench_edge_hashing(benchmark):
    """Def. 8 hash throughput on 1M edges."""
    rng = np.random.default_rng(0)
    u = rng.integers(0, 10**9, size=1_000_000)
    v = rng.integers(0, 10**9, size=1_000_000)
    out = benchmark(edge_uniform, u, v)
    assert len(out) == 1_000_000


def test_bench_bfs(benchmark, big_factor):
    """Single-source BFS on the scale-free factor."""
    csr = CSRGraph.from_edgelist(big_factor)
    levels = benchmark(bfs_levels, csr, 0)
    assert levels.max() >= 1


def test_bench_bfs_multi(benchmark, big_factor):
    """Batched 256-source BFS sweep (the all-pairs analytics kernel)."""
    csr = CSRGraph.from_edgelist(big_factor)
    sources = np.arange(256, dtype=np.int64)
    levels = benchmark(bfs_levels_multi, csr, sources)
    assert levels.shape == (256, csr.n)


@pytest.mark.parametrize("method", ["loop", "batched"])
def test_bench_hop_matrix(benchmark, big_factor, method):
    """All-pairs hops on the n=400 scale-free factor: per-vertex loop vs
    batched multi-source BFS (the Fig. 1 / validation workload)."""
    out = benchmark.pedantic(
        hop_matrix,
        args=(big_factor,),
        kwargs={"method": method},
        rounds=3,
        iterations=1,
    )
    assert out.shape == (big_factor.n, big_factor.n)


def test_bench_dedup_normalization(benchmark, big_factor):
    """Keyed-sort dedup on a ~1M-row product edge array."""
    from repro.kronecker import kron_product

    sub = big_factor.induced_subgraph(np.arange(150))
    c = kron_product(sub, sub)
    el = benchmark(c.deduplicate)
    assert el.m_directed <= c.m_directed


def test_bench_streaming_validation(benchmark, big_factor):
    """Streaming-validator consumption rate."""
    small = big_factor.induced_subgraph(np.arange(100))
    chunks = list(iter_kron_product(small, small, 1 << 15))

    def validate():
        sv = StreamingValidator(small, small)
        for blk in chunks:
            sv.consume(blk)
        return sv.passed

    assert benchmark(validate)
