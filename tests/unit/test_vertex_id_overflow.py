"""The int64 vertex-id bound: products of 2**63 or more vertices are refused.

Product vertex ids are int64, so a product with ``n >= 2**63`` vertices
would wrap ids to negative values (unguarded, ``multi_combine`` over
sixteen 16-vertex factors returns ``[-1]``).  Every constructor of a
product raises :class:`VertexIdOverflowError` first, before building any
per-vertex array.
"""

import tracemalloc

import numpy as np
import pytest

from repro.distributed import generate_distributed
from repro.errors import ReproError, VertexIdOverflowError
from repro.graph import EdgeList, clique
from repro.graph.csr import CSRGraph
from repro.kronecker import KroneckerGraph, kron_product
from repro.kronecker.power import (
    KroneckerPowerGraph,
    multi_combine,
    multi_split,
)

#: Factor-size vectors whose product is exactly 2**62, the largest power
#: of two the bound accepts.
SIZES_2_62 = [[2] * 62, [2**31, 2**31], [16] * 15 + [4]]


def edgeless(n: int) -> EdgeList:
    """A factor with ``n`` vertices and no edges (no per-vertex storage)."""
    return EdgeList(np.empty((0, 2), dtype=np.int64), n)


@pytest.fixture
def no_csr(monkeypatch):
    """Fail instead of building a CSR (whose indptr is per-vertex)."""

    def refuse(el):
        raise AssertionError(f"CSR built for a {el.n}-vertex factor")

    monkeypatch.setattr(CSRGraph, "from_edgelist", refuse)


def raises_without_allocating(build) -> VertexIdOverflowError:
    tracemalloc.start()
    try:
        with pytest.raises(VertexIdOverflowError) as info:
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    return info.value


@pytest.mark.parametrize("sizes", SIZES_2_62)
@pytest.mark.parametrize("pid", [2**31, 2**32, 2**62 - 1])
def test_large_ids_round_trip(sizes, pid):
    ids = np.array([pid, 0, pid - 1], dtype=np.int64)
    coords = multi_split(ids, sizes)
    assert all(np.all((c >= 0) & (c < n)) for c, n in zip(coords, sizes))
    np.testing.assert_array_equal(multi_combine(coords, sizes), ids)


def test_2_62_vertex_power_graph_accepted():
    g = KroneckerPowerGraph([clique(2)] * 62)
    assert g.n == 2**62
    assert g.m_directed == 2**62


@pytest.mark.parametrize("factors", [[clique(2)] * 63, [clique(16)] * 16])
def test_power_graph_at_2_63_and_2_64_raises(factors):
    raises_without_allocating(lambda: KroneckerPowerGraph(factors))


def test_multi_combine_at_2_64_raises():
    err = raises_without_allocating(
        lambda: multi_combine([np.array([15])] * 16, [16] * 16)
    )
    assert isinstance(err, ReproError)


@pytest.mark.parametrize("n_b", [2**31, 2**32])
def test_two_factor_products_raise(no_csr, n_b):
    a, b = edgeless(2**32), edgeless(n_b)
    raises_without_allocating(lambda: KroneckerGraph(a, b))
    raises_without_allocating(lambda: kron_product(a, b))
    raises_without_allocating(lambda: generate_distributed(a, b, 2))


def test_just_below_bound_accepted():
    a, b = edgeless(2**32), edgeless(2**31 - 1)
    assert kron_product(a, b).n == 2**63 - 2**32
    el, _ = generate_distributed(a, b, 2)
    assert el.n == 2**63 - 2**32 and len(el.edges) == 0
