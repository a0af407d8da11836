"""Unit tests for repro.distributed.supervisor and the degradation ladder."""

import os
import threading
import time

import numpy as np
import pytest

import repro.distributed.launcher as launcher
import repro.distributed.mpcomm as mpcomm
from repro.distributed import spmd_run
from repro.distributed.checkpoint import CheckpointStore, edges_digest
from repro.distributed.faults import FaultPlan
from repro.distributed.generator import RankOutput, generate_distributed
from repro.distributed.supervisor import (
    SupervisorReport,
    canonical_edges,
    generate_distributed_supervised,
    generation_family_key,
    generation_run_key,
    spmd_run_supervised,
)
from repro.errors import (
    CheckpointError,
    CommunicatorError,
    DegradationWarning,
    RankDiedError,
    RankFailedError,
)
from repro.graph.generators import clique, cycle


def allsum(comm):
    return comm.allreduce(comm.rank + 1, lambda a, b: a + b)


class TestRetry:
    def test_no_fault_single_attempt(self):
        rep = SupervisorReport()
        assert spmd_run_supervised(allsum, 4, report=rep) == [10] * 4
        assert rep.attempts == 1 and rep.failures == []

    def test_crash_plan_retries_and_recovers(self):
        plan = FaultPlan(seed=1, crash_rank=1, crash_at=0)
        rep = SupervisorReport()
        out = spmd_run_supervised(allsum, 4, fault_plan=plan, report=rep)
        assert out == [10] * 4
        assert rep.attempts == 2
        assert len(rep.failures) == 1 and "rank 1" in rep.failures[0]

    def test_attempts_exhausted_reraises(self):
        # Armed on every attempt: no retry budget can save it.
        plan = FaultPlan(
            seed=1, crash_rank=0, crash_at=0, fault_attempts=1 << 20
        )
        rep = SupervisorReport()
        with pytest.raises(RankFailedError):
            spmd_run_supervised(
                allsum, 4, fault_plan=plan, max_attempts=2,
                backoff_base=0.0, report=rep,
            )
        assert rep.attempts == 2

    def test_program_bug_not_retried(self):
        calls = []

        def buggy(comm):
            if comm.rank == 0:
                calls.append(1)
                raise ValueError("deterministic bug")
            return comm.rank

        rep = SupervisorReport()
        with pytest.raises(RankFailedError, match="ValueError"):
            spmd_run_supervised(buggy, 2, report=rep)
        assert len(calls) == 1  # exactly one attempt

    def test_transient_rank_error_retried(self):
        state = {"failed": False}
        lock = threading.Lock()

        def flaky(comm):
            with lock:
                if comm.rank == 0 and not state["failed"]:
                    state["failed"] = True
                    raise CommunicatorError("transient network blip")
            return comm.rank

        out = spmd_run_supervised(flaky, 2, backoff_base=0.0)
        assert out == [0, 1]

    def test_max_attempts_validated(self):
        with pytest.raises(CommunicatorError):
            spmd_run_supervised(allsum, 2, max_attempts=0)


def make_output(comm):
    edges = np.array(
        [[comm.rank, comm.rank + 1], [comm.rank, 0]], dtype=np.int64
    )
    return RankOutput(comm.rank, edges, len(edges))


class TestCheckpointing:
    def test_independent_resume_skips_completed(self, tmp_path):
        calls = []
        lock = threading.Lock()

        def tracked(comm):
            with lock:
                calls.append(comm.rank)
            return make_output(comm)

        kw = dict(
            checkpoint=tmp_path, run_key="t", shard_mode="independent"
        )
        first = spmd_run_supervised(tracked, 4, **kw)
        assert sorted(calls) == [0, 1, 2, 3]
        second = spmd_run_supervised(tracked, 4, **kw)
        assert sorted(calls) == [0, 1, 2, 3]  # nothing re-ran
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.edges, b.edges)

    def test_independent_partial_resume(self, tmp_path):
        store = CheckpointStore(tmp_path)
        out = spmd_run_supervised(
            make_output, 4, checkpoint=store, run_key="t",
            shard_mode="independent",
        )
        store.discard("t.rank00002")
        calls = []
        lock = threading.Lock()

        def tracked(comm):
            with lock:
                calls.append(comm.rank)
            return make_output(comm)

        resumed = spmd_run_supervised(
            tracked, 4, checkpoint=store, run_key="t",
            shard_mode="independent",
        )
        assert calls == [2]  # only the discarded shard re-ran
        for a, b in zip(out, resumed):
            np.testing.assert_array_equal(a.edges, b.edges)

    def test_collective_all_cached_loads(self, tmp_path):
        def with_comm(comm):
            comm.barrier()
            return make_output(comm)

        kw = dict(checkpoint=tmp_path, run_key="t", shard_mode="collective")
        first = spmd_run_supervised(with_comm, 4, **kw)

        def must_not_run(comm):
            raise AssertionError("all shards cached; nothing should re-run")

        second = spmd_run_supervised(must_not_run, 4, **kw)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.edges, b.edges)

    def test_collective_reexecution_verifies_digest(self, tmp_path):
        def with_comm(comm):
            comm.barrier()
            return make_output(comm)

        kw = dict(checkpoint=tmp_path, run_key="t", shard_mode="collective")
        spmd_run_supervised(with_comm, 4, **kw)
        CheckpointStore(tmp_path).discard("t.rank00000")

        def nondeterministic(comm):
            comm.barrier()
            out = make_output(comm)
            if comm.rank == 1:  # diverges from its recorded shard
                return RankOutput(1, out.edges + 1, out.generated)
            return out

        with pytest.raises(RankFailedError, match="CheckpointError"):
            spmd_run_supervised(nondeterministic, 4, **kw)

    def test_bad_shard_mode_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="shard_mode"):
            spmd_run_supervised(
                make_output, 2, checkpoint=tmp_path, shard_mode="bogus"
            )

    def test_run_key_separates_configurations(self):
        a, b = clique(3), cycle(4)
        k1 = generation_run_key(a, b, 4, "1d", "source_block", 100)
        k2 = generation_run_key(a, b, 4, "1d", "edge_hash", 100)
        k3 = generation_run_key(a, b, 2, "1d", "source_block", 100)
        assert len({k1, k2, k3}) == 3

    def test_family_key_wildcards_rank_count(self):
        a, b = clique(3), cycle(4)
        family = generation_family_key(a, b, "1d", "source_block", 100)
        for nranks in (2, 4):
            key = generation_run_key(a, b, nranks, "1d", "source_block", 100)
            assert key.replace(f"-r{nranks}-", "-r*-") == family


class TestSupervisedGeneration:
    def test_matches_unsupervised_after_crash(self, tmp_path):
        a, b = clique(3), cycle(4)
        ref, _ = generate_distributed(a, b, 4, storage="source_block")
        plan = FaultPlan(seed=9, crash_rank=2, crash_at=1)
        rep = SupervisorReport()
        el, _ = generate_distributed_supervised(
            a, b, 4, storage="source_block", checkpoint_dir=tmp_path,
            fault_plan=plan, report=rep,
        )
        np.testing.assert_array_equal(
            canonical_edges(el.edges), canonical_edges(ref.edges)
        )
        assert rep.attempts == 2

    def test_fresh_rerun_reuses_checkpoints(self, tmp_path):
        a, b = clique(3), cycle(4)
        el1, _ = generate_distributed_supervised(
            a, b, 4, checkpoint_dir=tmp_path
        )
        el2, _ = generate_distributed_supervised(
            a, b, 4, checkpoint_dir=tmp_path
        )
        np.testing.assert_array_equal(el1.edges, el2.edges)
        assert len(CheckpointStore(tmp_path).keys()) == 4


class TestLiveness:
    def test_kill_minus_nine_surfaces_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "5")

        def killer(comm):
            if comm.rank == 1:
                os.kill(os.getpid(), 9)
            comm.barrier()
            return comm.rank

        start = time.monotonic()
        with pytest.raises(RankDiedError) as err:
            spmd_run(killer, 4, backend="process")
        elapsed = time.monotonic() - start
        # Liveness polling must beat the recv timeout, not ride the old
        # hardcoded 300s join deadline.
        assert elapsed < 5.0
        message = str(err.value)
        assert "rank 1" in message and "SIGKILL" in message
        assert "missing" in message

    def test_rank_died_is_retryable_family(self):
        assert issubclass(RankDiedError, CommunicatorError)


class TestDegradation:
    def test_process_backend_falls_back_to_threads(self, monkeypatch):
        monkeypatch.setattr(launcher, "_fork_context", lambda: None)
        with pytest.warns(DegradationWarning, match="thread backend"):
            out = spmd_run(allsum, 4, backend="process")
        assert out == [10] * 4

    def test_shm_failure_falls_back_to_pickle(self, monkeypatch):
        def broken(arr):
            raise OSError("No space left on device: '/dev/shm'")

        monkeypatch.setattr(mpcomm, "_shm_wrap", broken)
        pipes = mpcomm.make_process_pipes(2)
        sender = mpcomm.ProcessCommunicator(pipes, 0, 2, shm_min_bytes=8)
        receiver = mpcomm.ProcessCommunicator(pipes, 1, 2, shm_min_bytes=8)
        payload = np.arange(64, dtype=np.int64)
        with pytest.warns(DegradationWarning, match="pickled"):
            sender.send(payload, 1)
        np.testing.assert_array_equal(receiver.recv(0), payload)
        # Degradation is sticky: later sends skip shm without re-warning.
        sender.send(payload, 1)
        np.testing.assert_array_equal(receiver.recv(0), payload)


class TestDecorrelatedJitter:
    def test_deterministic_given_seed(self):
        import random

        from repro.distributed.supervisor import decorrelated_jitter

        def sequence(seed, steps=16):
            rng = random.Random(seed)
            delay, out = 0.05, []
            for _ in range(steps):
                delay = decorrelated_jitter(delay, 0.05, 3.0, 2.0, rng)
                out.append(delay)
            return out

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)

    def test_stays_within_exponential_envelope(self):
        import random

        from repro.distributed.supervisor import decorrelated_jitter

        rng = random.Random(123)
        base, factor, cap = 0.05, 3.0, 2.0
        prev = base
        for _ in range(200):
            nxt = decorrelated_jitter(prev, base, factor, cap, rng)
            assert base <= nxt <= min(cap, max(base, prev * factor))
            prev = nxt

    def test_cap_clamps(self):
        import random

        from repro.distributed.supervisor import decorrelated_jitter

        rng = random.Random(0)
        for _ in range(50):
            assert decorrelated_jitter(100.0, 0.05, 3.0, 2.0, rng) <= 2.0

    def test_zero_base_zero_prev_stays_zero(self):
        # Tests that disable backoff (base=0) must keep sleeping 0s.
        import random

        from repro.distributed.supervisor import decorrelated_jitter

        rng = random.Random(0)
        assert decorrelated_jitter(0.0, 0.0, 3.0, 2.0, rng) == 0.0

    def test_desynchronizes_identical_failures(self):
        # Two ranks failing at the same instant with different seeds must
        # not re-dial in lockstep -- the whole point of the jitter.
        import random

        from repro.distributed.supervisor import decorrelated_jitter

        a = decorrelated_jitter(0.4, 0.05, 3.0, 2.0, random.Random(1))
        b = decorrelated_jitter(0.4, 0.05, 3.0, 2.0, random.Random(2))
        assert a != b
