"""Equivalence of the fused generate->route hot path with a naive oracle.

The routed kernels, the sort-free counting scatter, and the zero-copy
shared-memory exchange are pure optimizations: for every scheme x storage x
backend combination each rank must store exactly the edge multiset that
the serial product, split by the stable-argsort reference
(:func:`repro.distributed.shuffle.argsort_split`) under the same storage
map, assigns it.  These tests pin that contract with hypothesis-driven
factors plus a seeded sweep over the full combination grid
(process-backend cases run once per combination -- fork startup
dominates -- with the shared-memory threshold forced down so the
zero-copy path is actually exercised).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.distributed.mpcomm as mpcomm
from repro.distributed import generate_distributed
from repro.distributed.shuffle import argsort_split, bucket_edges, edge_owners
from repro.graph import EdgeList, erdos_renyi
from repro.kronecker import kron_product
from repro.kronecker.product import kron_edge_block, kron_edge_block_routed

SCHEMES = ["1d", "1d-pipelined", "2d"]
STORAGES = ["source_block", "edge_hash"]
BACKENDS = ["thread", "process"]


def edge_key_sorted(edges: np.ndarray, n: int) -> np.ndarray:
    """Multiset fingerprint: sorted scalar row keys."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.sort(e[:, 0] * np.int64(n) + e[:, 1])


@st.composite
def small_factor_pair(draw):
    n_a = draw(st.integers(min_value=2, max_value=10))
    n_b = draw(st.integers(min_value=2, max_value=8))
    seed_a = draw(st.integers(min_value=0, max_value=2**16))
    seed_b = draw(st.integers(min_value=0, max_value=2**16))
    return (
        erdos_renyi(n_a, 0.5, seed=seed_a),
        erdos_renyi(n_b, 0.5, seed=seed_b),
    )


class TestBucketingEquivalence:
    @given(
        edges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=199),
                st.integers(min_value=0, max_value=199),
            ),
            max_size=300,
        ),
        nparts=st.integers(min_value=1, max_value=9),
        scheme=st.sampled_from(STORAGES),
    )
    @settings(max_examples=60, deadline=None)
    def test_scatter_matches_argsort(self, edges, nparts, scheme):
        """Sort-free bucketing is row-for-row equal to the argsort split."""
        arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
        owners = edge_owners(arr, nparts, scheme=scheme, n=200)
        oracle = argsort_split(arr, owners, nparts)
        fast = bucket_edges(arr, nparts, scheme=scheme, n=200)
        assert len(oracle) == len(fast) == nparts
        for lo, hi in zip(oracle, fast):
            assert np.array_equal(lo, hi)

    @given(pair=small_factor_pair(), nparts=st.integers(min_value=1, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_routed_kernel_matches_expand_then_bucket(self, pair, nparts):
        """The analytic router emits exactly the oracle buckets (multisets)."""
        a, b = pair
        n_c = a.n * b.n
        dense = kron_edge_block(a.edges, b.edges, b.n)
        owners = edge_owners(dense, nparts, scheme="source_block", n=n_c)
        oracle = argsort_split(dense, owners, nparts)
        routed = kron_edge_block_routed(a.edges, b.edges, b.n, nparts, n_c)
        for lo, ro in zip(oracle, routed):
            assert np.array_equal(
                edge_key_sorted(lo, n_c), edge_key_sorted(ro, n_c)
            )


@pytest.fixture(scope="module")
def factors():
    return erdos_renyi(9, 0.4, seed=2024), erdos_renyi(7, 0.5, seed=7)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("nranks", [2, 4, 5])
def test_placement_matches_oracle(factors, scheme, storage, nranks):
    """Each rank stores exactly its share of the serial product.

    The share is the serial product split by the argsort reference under
    the same storage map (thread backend, every scheme x storage).
    """
    a, b = factors
    expect = kron_product(a, b)
    got, outputs = generate_distributed(
        a, b, nranks, scheme=scheme, storage=storage
    )
    assert got == expect
    owners = edge_owners(expect.edges, nranks, scheme=storage, n=expect.n)
    oracle = argsort_split(expect.edges, owners, nranks)
    assert [o.rank for o in outputs] == list(range(nranks))
    for out, share in zip(outputs, oracle):
        assert np.array_equal(
            edge_key_sorted(out.edges, expect.n),
            edge_key_sorted(share, expect.n),
        )


class TestGenerationEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("storage", STORAGES)
    def test_tiny_chunks_fused(self, factors, scheme, storage):
        """Chunked routed emission covers every edge exactly once."""
        a, b = factors
        got, _ = generate_distributed(
            a, b, 3, scheme=scheme, storage=storage, chunk_size=11,
        )
        assert got == kron_product(a, b)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("storage", STORAGES)
def test_fused_process_backend_zero_copy(monkeypatch, scheme, storage):
    """Process backend with the shared-memory exchange forced on.

    Lowering the threshold makes every edge block ride shared memory, so
    this exercises wrap, attach, unlink, and read-only hand-off end to end.
    """
    monkeypatch.setattr(mpcomm, "SHM_MIN_BYTES", 1)
    a, b = erdos_renyi(8, 0.5, seed=99), erdos_renyi(6, 0.5, seed=100)
    expect = kron_product(a, b)
    got, _ = generate_distributed(
        a, b, 3, scheme=scheme, storage=storage, backend="process",
    )
    assert got == expect


def test_routed_kernel_empty_blocks():
    """Degenerate inputs produce well-shaped empty buckets."""
    empty = np.empty((0, 2), dtype=np.int64)
    buckets = kron_edge_block_routed(empty, empty, 4, 3, 12)
    assert len(buckets) == 3
    for blk in buckets:
        assert blk.shape == (0, 2)


def test_routed_single_part_is_whole_product():
    a, b = erdos_renyi(6, 0.6, seed=5), erdos_renyi(5, 0.6, seed=6)
    n_c = a.n * b.n
    (bucket,) = kron_edge_block_routed(a.edges, b.edges, b.n, 1, n_c)
    el = EdgeList(bucket, n_c)
    assert el == kron_product(a, b)
