"""Unit tests for chunked-round (per-round shuffle) distributed generation."""

import numpy as np
import pytest

from repro.distributed import generate_distributed, partition_edges_2d
from repro.distributed.checkpoint import edges_digest
from repro.distributed.supervisor import (
    generate_distributed_supervised,
    generation_run_key,
)
from repro.errors import PartitionError
from repro.graph import cycle, erdos_renyi
from repro.kronecker import kron_product
from repro.telemetry import TelemetrySession


@pytest.fixture
def factors():
    return erdos_renyi(9, 0.4, seed=901), cycle(7)  # |E_B| = 14


class TestPipelined1D:
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_matches_serial(self, factors, nranks):
        a, b = factors
        backend = "inline" if nranks == 1 else "thread"
        got, _ = generate_distributed(
            a, b, nranks, scheme="1d", storage="source_block",
            backend=backend,
        )
        assert got == kron_product(a, b)

    @pytest.mark.parametrize("chunk", [3, 13, 14, 15, 50, 10**6])
    def test_all_chunk_regimes(self, factors, chunk):
        """One A-edge per round (chunk <= |E_B|) and grouped A-edges."""
        a, b = factors
        got, _ = generate_distributed(
            a, b, 3, scheme="1d", storage="source_block", chunk_size=chunk
        )
        assert got == kron_product(a, b)

    def test_source_block_placement(self, factors):
        a, b = factors
        n_c = a.n * b.n
        _, outputs = generate_distributed(
            a, b, 4, scheme="1d", storage="source_block", chunk_size=14
        )
        for out in outputs:
            if len(out.edges):
                owners = (out.edges[:, 0] * 4) // n_c
                assert np.all(owners == out.rank)

    def test_edge_hash_storage(self, factors):
        a, b = factors
        got, _ = generate_distributed(
            a, b, 3, scheme="1d", storage="edge_hash"
        )
        assert got == kron_product(a, b)

    def test_unbalanced_shards_no_deadlock(self):
        """Ranks with zero A-edges must still join every exchange round."""
        a = erdos_renyi(3, 0.6, seed=902)  # very few edges
        b = cycle(5)
        got, _ = generate_distributed(
            a, b, 6, scheme="1d", storage="source_block", chunk_size=4
        )
        assert got == kron_product(a, b)

    def test_generated_counts(self, factors):
        a, b = factors
        _, outputs = generate_distributed(
            a, b, 3, scheme="1d", storage="source_block"
        )
        assert sum(o.generated for o in outputs) == a.m_directed * b.m_directed

    def test_process_backend(self, factors):
        a, b = factors
        got, _ = generate_distributed(
            a, b, 2, scheme="1d", storage="source_block", chunk_size=14,
            backend="process",
        )
        assert got == kron_product(a, b)

    @pytest.mark.parametrize("storage", ["source_block", "edge_hash"])
    def test_one_round_run_makes_one_exchange(self, factors, storage):
        """A run that fits one round agrees on it without a collective."""
        a, b = factors
        tel = TelemetrySession()
        generate_distributed(a, b, 4, storage=storage, telemetry=tel)
        assert len(tel.ranks) == 4
        for snap in tel.ranks:
            counters = snap.metrics["counters"]
            assert counters.get("comm.allreduce.calls", 0) == 0
            assert counters["comm.alltoall.calls"] == 1


class TestAsyncPipeline:
    @pytest.mark.parametrize("wire", ["raw", "varint"])
    def test_matches_serial(self, factors, wire):
        a, b = factors
        got, _ = generate_distributed(
            a, b, 4, scheme="1d", storage="source_block", pipeline="async",
            wire=wire,
        )
        assert got == kron_product(a, b)

    @pytest.mark.parametrize("chunk", [3, 14, 50, 10**6])
    def test_all_chunk_regimes(self, factors, chunk):
        a, b = factors
        got, _ = generate_distributed(
            a, b, 3, scheme="1d", storage="source_block", chunk_size=chunk,
            pipeline="async", wire="varint",
        )
        assert got == kron_product(a, b)

    @pytest.mark.parametrize("wire", ["raw", "varint"])
    def test_async_is_bit_identical_to_sync(self, factors, wire):
        # Stronger than multiset equality: the double-buffered loop must
        # store the same blocks in the same order on every rank, so each
        # rank's raw edge array matches the sync run byte for byte.  Three
        # ranks fold the 2-D grid, so one rank runs several cells.
        a, b = factors
        assert max(len(c) for c in partition_edges_2d(a, b, 3)) > 1
        for scheme in ("1d", "2d"):
            for storage in ("source_block", "edge_hash"):
                for nranks in (3, 4):
                    runs = [
                        generate_distributed(
                            a, b, nranks, scheme=scheme, storage=storage,
                            chunk_size=10, pipeline=pipeline, wire=wire,
                        )[1]
                        for pipeline in ("sync", "async")
                    ]
                    for s, y in zip(*runs):
                        assert np.array_equal(s.edges, y.edges), (
                            scheme, storage, nranks, s.rank,
                        )

    def test_process_backend(self, factors):
        a, b = factors
        got, _ = generate_distributed(
            a, b, 2, scheme="1d", storage="source_block", backend="process",
            pipeline="async", wire="varint",
        )
        assert got == kron_product(a, b)

    def test_edge_hash_storage(self, factors):
        a, b = factors
        got, _ = generate_distributed(
            a, b, 3, scheme="1d", storage="edge_hash",
            pipeline="async", wire="varint",
        )
        assert got == kron_product(a, b)

    def test_unbalanced_shards_no_deadlock(self):
        a = erdos_renyi(3, 0.6, seed=902)  # ranks with zero A-edges
        b = cycle(5)
        got, _ = generate_distributed(
            a, b, 6, scheme="1d", storage="source_block", chunk_size=4,
            pipeline="async", wire="varint",
        )
        assert got == kron_product(a, b)

    @pytest.mark.parametrize("scheme", ["1d", "2d"])
    def test_async_requires_storage(self, factors, scheme):
        a, b = factors
        with pytest.raises(PartitionError, match="storage"):
            generate_distributed(a, b, 2, scheme=scheme, pipeline="async")

    def test_unknown_pipeline_rejected(self, factors):
        a, b = factors
        with pytest.raises(PartitionError, match="pipeline"):
            generate_distributed(
                a, b, 2, storage="source_block", pipeline="overlapped"
            )

    def test_unknown_wire_rejected(self, factors):
        a, b = factors
        with pytest.raises(PartitionError, match="wire"):
            generate_distributed(
                a, b, 2, storage="source_block", wire="zstd"
            )

    def test_run_key_distinguishes_wire(self, factors):
        a, b = factors
        keys = {
            generation_run_key(
                a, b, 4, "1d", "source_block", 1 << 14, wire=w,
            )
            for w in ("raw", "varint")
        }
        assert len(keys) == 2

    def test_previous_key_format_misses(self, factors, tmp_path):
        """A checkpoint keyed with a pipeline token is regenerated, not
        resumed (and not verified against, which would be fatal)."""
        a, b = factors
        old_key = (
            f"gen-{edges_digest(a.edges):016x}-{edges_digest(b.edges):016x}"
            f"-r4-1d-source_block-c14-sync-raw"
        )
        assert generation_run_key(
            a, b, 4, "1d", "source_block", 14
        ) != old_key
        generate_distributed_supervised(
            a, b, 4, storage="source_block", chunk_size=14,
            checkpoint_dir=tmp_path, run_key=old_key,
        )
        tel = TelemetrySession()
        got, _ = generate_distributed_supervised(
            a, b, 4, storage="source_block", chunk_size=14,
            checkpoint_dir=tmp_path, telemetry=tel,
        )
        counters = tel.aggregated_metrics()["counters"]
        assert counters["edges.generated"] == len(got.edges)
        assert counters.get("edges.restored", 0) == 0

    def test_sync_checkpoint_resumes_async_run(self, factors, tmp_path):
        a, b = factors
        ref, _ = generate_distributed_supervised(
            a, b, 4, storage="source_block", chunk_size=14,
            pipeline="sync", checkpoint_dir=tmp_path,
        )
        tel = TelemetrySession()
        got, _ = generate_distributed_supervised(
            a, b, 4, storage="source_block", chunk_size=14,
            pipeline="async", checkpoint_dir=tmp_path, telemetry=tel,
        )
        counters = tel.aggregated_metrics()["counters"]
        assert counters.get("edges.generated", 0) == 0
        assert counters["edges.restored"] == len(ref.edges)
        assert np.array_equal(got.edges, ref.edges)
