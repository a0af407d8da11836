"""Unit tests for the sort-free bucketing path and exchange hardening."""

import numpy as np
import pytest

from repro.distributed.comm import Communicator
from repro.distributed.partition import (
    owners_by_vertex_block,
    vertex_block_bounds,
)
from repro.distributed.shuffle import (
    argsort_split,
    bucket_edges,
    counting_scatter,
    edge_owners,
    exchange_edges,
)
from repro.errors import PartitionError


class TestCountingScatter:
    def test_matches_argsort_order_exactly(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 1000, size=(5000, 2), dtype=np.int64)
        owners = rng.integers(0, 11, size=5000, dtype=np.int64)
        got = counting_scatter(rows, owners, 11)
        expect = argsort_split(rows, owners, 11)
        assert len(got) == 11
        for g, e in zip(got, expect):
            assert np.array_equal(g, e)

    def test_empty_input(self):
        got = counting_scatter(
            np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64), 4
        )
        assert len(got) == 4
        assert all(len(b) == 0 for b in got)

    def test_single_bucket(self):
        rows = np.arange(20, dtype=np.int64).reshape(-1, 2)
        (got,) = counting_scatter(rows, np.zeros(10, dtype=np.int64), 1)
        assert np.array_equal(got, rows)

    def test_wide_world_uses_int_fallback(self):
        # nparts beyond the 2-byte radix range still buckets correctly
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 100, size=(500, 2), dtype=np.int64)
        owners = rng.integers(0, 70000, size=500, dtype=np.int64)
        got = counting_scatter(rows, owners, 70000)
        assert sum(len(b) for b in got) == 500


class TestBucketEdges:
    def test_methods_agree_both_schemes(self):
        """bucket_edges (counting scatter) equals the argsort reference."""
        rng = np.random.default_rng(11)
        edges = rng.integers(0, 300, size=(2000, 2), dtype=np.int64)
        for scheme in ("source_block", "edge_hash"):
            owners = edge_owners(edges, 5, scheme=scheme, n=300)
            a = argsort_split(edges, owners, 5)
            s = bucket_edges(edges, 5, scheme=scheme, n=300)
            for x, y in zip(a, s):
                assert np.array_equal(x, y)


class TestVertexBlockBounds:
    @pytest.mark.parametrize("n,nparts", [(1, 1), (7, 3), (100, 7), (35, 35), (5, 8)])
    def test_bounds_invert_owner_map(self, n, nparts):
        bounds = vertex_block_bounds(n, nparts)
        assert bounds[0] == 0 and bounds[-1] == n
        assert np.all(np.diff(bounds) >= 0)
        v = np.arange(n, dtype=np.int64)
        owners = owners_by_vertex_block(v, n, nparts)
        # owner d's vertices are exactly [bounds[d], bounds[d+1])
        expect = np.searchsorted(bounds, v, side="right") - 1
        assert np.array_equal(owners, expect)

    def test_invalid(self):
        with pytest.raises(PartitionError):
            vertex_block_bounds(0, 3)
        with pytest.raises(PartitionError):
            vertex_block_bounds(3, 0)


class _FakeComm(Communicator):
    """Inline communicator whose alltoall returns a canned list."""

    def __init__(self, canned):
        self._canned = canned

    @property
    def rank(self):
        return 0

    @property
    def size(self):
        return len(self._canned)

    def send(self, obj, dest, tag=0):  # pragma: no cover - unused
        raise AssertionError

    def recv(self, source, tag=0):  # pragma: no cover - unused
        raise AssertionError

    def barrier(self):  # pragma: no cover - unused
        return None

    def alltoall(self, objs):
        return list(self._canned)


class TestExchangeEdgesDefensive:
    def test_skips_none_and_empty_blocks(self):
        good = np.array([[1, 2], [3, 4]], dtype=np.int64)
        incoming = [
            None,
            np.empty((0, 2), dtype=np.int64),
            np.empty(0, dtype=np.int64),  # flat empty, wrong shape
            good,
        ]
        comm = _FakeComm(incoming)
        out = exchange_edges(comm, [None] * 4)
        assert np.array_equal(out, good)

    def test_all_empty(self):
        comm = _FakeComm([None, np.empty((0, 2), dtype=np.int64)])
        out = exchange_edges(comm, [None, None])
        assert out.shape == (0, 2)
        assert out.dtype == np.int64

    def test_flat_block_reshaped(self):
        # a backend handing back a flattened buffer still round-trips
        comm = _FakeComm([np.array([5, 6, 7, 8], dtype=np.int64)])
        out = exchange_edges(comm, [None])
        assert np.array_equal(out, [[5, 6], [7, 8]])

    def test_result_is_owned_copy(self):
        shared = np.array([[1, 1]], dtype=np.int64)
        shared.flags.writeable = False  # simulate a zero-copy buffer
        comm = _FakeComm([shared, shared])
        out = exchange_edges(comm, [None, None])
        assert out.flags.writeable
        out[0, 0] = 9  # must not raise
