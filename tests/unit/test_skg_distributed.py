"""SKG generation through the SPMD runtime: bit-identity everywhere.

The stochastic tier's one promise is that a fixed ``(seed_matrix,
skg_seed)`` names *one* graph, no matter how the candidate space is
enumerated: every scheme x storage x pipeline x wire x
backend combination, supervised retry under faults, and checkpointed
elastic re-sharding must reproduce the serial oracle bit-for-bit.
Also covers the run-key digest folding, telemetry counters, the
``--model skg`` CLI, and the service layer's SKG routes.
"""

import asyncio

import numpy as np
import pytest

from repro.cli import main
from repro.distributed.faults import FaultPlan
from repro.distributed.supervisor import (
    SupervisorReport,
    canonical_edges,
    generation_family_key,
    generation_run_key,
)
from repro.errors import ReproError
from repro.kronecker.product import DEFAULT_CHUNK
from repro.skg.distributed import (
    generate_skg_distributed,
    generate_skg_supervised,
    skg_candidate_factors,
)
from repro.skg.model import SKGSpec
from repro.skg.sample import skg_sample_edges
from repro.telemetry import TelemetrySession

SPEC = SKGSpec.from_library("polblogs", k=6, skg_seed=3)


@pytest.fixture(scope="module")
def oracle():
    """Serial reference edge set, canonical order."""
    return canonical_edges(skg_sample_edges(SPEC).edges)


def check(el, oracle):
    np.testing.assert_array_equal(canonical_edges(el.edges), oracle)


class TestCandidateFactors:
    def test_product_enumerates_every_pair(self):
        a, b = skg_candidate_factors(5)
        assert a.n * b.n == 1 << 5
        assert a.m_directed == a.n * a.n  # complete with loops
        assert b.m_directed == b.n * b.n

    def test_split_is_near_even(self):
        a, b = skg_candidate_factors(7)
        assert (a.n, b.n) == (1 << 3, 1 << 4)


class TestDistributedBitIdentity:
    @pytest.mark.parametrize("scheme", ["1d", "2d"])
    @pytest.mark.parametrize("storage", ["source_block", "edge_hash"])
    def test_scheme_storage_grid(self, oracle, scheme, storage):
        el, _ = generate_skg_distributed(
            SPEC, 4, scheme=scheme, storage=storage
        )
        check(el, oracle)

    @pytest.mark.parametrize("ranks", [1, 2, 5])
    def test_rank_count_invariance(self, oracle, ranks):
        backend = "inline" if ranks == 1 else "thread"
        el, _ = generate_skg_distributed(SPEC, ranks, backend=backend)
        check(el, oracle)

    def test_chunk_size_invariance(self, oracle):
        for chunk in (64, 1 << 10):
            el, _ = generate_skg_distributed(SPEC, 3, chunk_size=chunk)
            check(el, oracle)

    @pytest.mark.parametrize("wire", ["raw", "varint"])
    def test_async_pipeline_and_wire(self, oracle, wire):
        el, _ = generate_skg_distributed(
            SPEC, 4, scheme="1d-pipelined", pipeline="async", wire=wire
        )
        check(el, oracle)

    def test_process_backend(self, oracle):
        el, _ = generate_skg_distributed(SPEC, 2, backend="process")
        check(el, oracle)

    def test_acceptance_counters_cover_candidate_space(self):
        tel = TelemetrySession()
        el, _ = generate_skg_distributed(SPEC, 3, telemetry=tel)
        counters = tel.aggregated_metrics().get("counters", {})
        accepted = counters.get("skg.accepted", 0)
        rejected = counters.get("skg.rejected", 0)
        assert accepted == len(el.edges)
        assert accepted + rejected == SPEC.n * SPEC.n

    def test_noisy_spec_also_bit_identical(self):
        noisy = SKGSpec.from_library(
            "polblogs", k=6, skg_seed=3, noise_b=0.1
        )
        ref = canonical_edges(skg_sample_edges(noisy).edges)
        el, _ = generate_skg_distributed(noisy, 4, scheme="2d")
        check(el, ref)
        assert not np.array_equal(
            ref, canonical_edges(skg_sample_edges(SPEC).edges)
        )


class TestRunKeys:
    def test_digest_folds_into_run_and_family_keys(self):
        a, b = skg_candidate_factors(SPEC.k)
        args = (a, b, 4, "1d", "source_block", DEFAULT_CHUNK)
        exact = generation_run_key(*args)
        skg = generation_run_key(*args, model="skg", skg=SPEC)
        other = generation_run_key(
            *args, model="skg",
            skg=SKGSpec.from_library("polblogs", k=6, skg_seed=4),
        )
        assert len({exact, skg, other}) == 3
        assert f"{SPEC.digest():016x}" in skg
        fam = generation_family_key(
            a, b, "1d", "source_block", DEFAULT_CHUNK,
            model="skg", skg=SPEC,
        )
        assert f"{SPEC.digest():016x}" in fam

    def test_skg_model_requires_spec(self):
        a, b = skg_candidate_factors(SPEC.k)
        with pytest.raises(ReproError, match="requires an SKG spec"):
            generation_run_key(
                a, b, 4, "1d", "source_block", DEFAULT_CHUNK,
                model="skg",
            )


class TestSupervisedAndElastic:
    def test_crash_retry_recovers_bit_identical(self, oracle, tmp_path):
        rep = SupervisorReport()
        el, _ = generate_skg_supervised(
            SPEC, 3, storage="edge_hash",
            fault_plan=FaultPlan(name="crash", crash_rank=1, crash_at=0),
            checkpoint_dir=tmp_path,
            report=rep,
        )
        check(el, oracle)
        assert rep.attempts >= 2

    def test_elastic_reshard_4_to_2(self, oracle, tmp_path):
        el_ref, _ = generate_skg_supervised(
            SPEC, 4, storage="source_block", checkpoint_dir=tmp_path
        )
        check(el_ref, oracle)
        tel = TelemetrySession()
        el, outputs = generate_skg_supervised(
            SPEC, 2, storage="source_block", checkpoint_dir=tmp_path,
            telemetry=tel,
        )
        check(el, oracle)
        assert len(outputs) == 2
        assert all(o.generated == 0 for o in outputs), \
            "resumed shards must not regenerate"
        counters = tel.aggregated_metrics().get("counters", {})
        assert counters.get("edges.restored", 0) == len(el.edges)

    def test_different_spec_never_consumes_foreign_checkpoints(
        self, tmp_path
    ):
        generate_skg_supervised(
            SPEC, 4, storage="source_block", checkpoint_dir=tmp_path
        )
        other = SKGSpec.from_library("polblogs", k=6, skg_seed=99)
        el, outputs = generate_skg_supervised(
            other, 4, storage="source_block", checkpoint_dir=tmp_path
        )
        assert sum(o.generated for o in outputs) == len(el.edges), \
            "a different spec digest must regenerate, not resume"


class TestCli:
    def test_generate_model_skg_writes_shards(self, tmp_path, capsys):
        code = main([
            "generate", "--model", "skg",
            "--seed-matrix", "polblogs", "--skg-k", "6", "--skg-seed", "3",
            "--out", str(tmp_path / "shards"), "--ranks", "3",
            "--scheme", "1d", "--backend", "thread",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "generated" in out
        shards = sorted((tmp_path / "shards").glob("shard_*.npz"))
        assert len(shards) == 3
        edges = np.vstack([np.load(p)["edges"] for p in shards])
        np.testing.assert_array_equal(
            canonical_edges(edges),
            canonical_edges(skg_sample_edges(SPEC).edges),
        )

    def test_list_seed_matrices(self, capsys):
        assert main(["generate", "--list-seed-matrices"]) == 0
        out = capsys.readouterr().out
        assert "polblogs" in out and "facebook" in out

    def test_skg_rejects_positional_factors(self, tmp_path, capsys):
        # The CLI turns ReproError into exit code 2 + stderr message.
        code = main([
            "generate", "a.txt", "b.txt", "--model", "skg",
            "--out", str(tmp_path / "s"),
        ])
        assert code == 2
        assert "candidate factors" in capsys.readouterr().err


class TestServiceSkgRoutes:
    @staticmethod
    def serve(fn):
        from repro.service.loadgen import HTTPClient
        from repro.service.server import KronService, ServiceConfig

        async def run():
            service = KronService(ServiceConfig(port=0))
            await service.start()
            client = HTTPClient("127.0.0.1", service.bound_port)
            await client.connect()
            try:
                return await fn(client)
            finally:
                await client.aclose()
                await service.aclose()

        return asyncio.run(run())

    PAYLOAD = {"seed_matrix": "polblogs", "k": 6, "skg_seed": 3}

    def test_register_query_and_cache(self):
        from repro.skg.expected import expected_undirected_edges

        async def go(client):
            status, doc = await client.request(
                "POST", "/v1/tenants/t/skg", self.PAYLOAD
            )
            assert status == 200, doc
            digest = doc["skg"]
            assert digest == f"{SPEC.digest():016x}"

            status, doc = await client.request("GET", "/v1/tenants/t/skg")
            assert status == 200
            assert [h["skg"] for h in doc["skg"]] == [digest]

            status, doc = await client.request(
                "GET", f"/v1/tenants/t/skg/{digest}/summary"
            )
            assert status == 200
            assert doc["theta"] == list(SPEC.theta)

            url = f"/v1/tenants/t/skg/{digest}/expected/edge_count"
            status, doc = await client.request("POST", url, {})
            assert status == 200 and doc["cached"] is False
            assert doc["value"]["expected_undirected_edges"] == \
                pytest.approx(expected_undirected_edges(SPEC))
            status, doc = await client.request("POST", url, {})
            assert status == 200 and doc["cached"] is True

        self.serve(go)

    def test_error_paths(self):
        async def go(client):
            status, doc = await client.request(
                "POST", "/v1/tenants/t/skg", {"seed_matrix": "nope"}
            )
            assert status == 400

            status, doc = await client.request(
                "GET", "/v1/tenants/t/skg/0123456789abcdef/summary"
            )
            assert status == 404

            await client.request("POST", "/v1/tenants/t/skg", self.PAYLOAD)
            digest = f"{SPEC.digest():016x}"
            status, doc = await client.request(
                "POST", f"/v1/tenants/t/skg/{digest}/expected/nope", {}
            )
            assert status == 400

        self.serve(go)

    def test_properties_listing_includes_expected(self):
        async def go(client):
            status, doc = await client.request("GET", "/v1/properties")
            assert status == 200
            assert "edge_count" in doc["skg_expected"]

        self.serve(go)
