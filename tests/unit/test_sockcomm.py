"""Unit tests for the TCP socket communicator backend.

Most coverage runs through :func:`make_socket_world` (real sockets on
loopback, all ranks in one process, so counters and fault hooks are
directly observable).  A handful of tests spawn real OS processes via
``spmd_run(backend="socket")``; those rank functions are module-level
for picklability, mirroring the process-backend test conventions.
"""

import time

import numpy as np
import pytest

from repro.distributed import spmd_run
from repro.distributed.comm import RECV_TIMEOUT_ENV
from repro.distributed.faults import FaultPlan, FaultyCommunicator
from repro.distributed.sockcomm import (
    RendezvousServer,
    SocketCommunicator,
    make_socket_world,
    parse_hostport,
)
from repro.errors import CommunicatorError, DegradationWarning, RankDiedError


@pytest.fixture(autouse=True)
def _fast_timeouts(monkeypatch):
    # Keeps dead-rank detection and reconnect budgets test-sized.
    monkeypatch.setenv(RECV_TIMEOUT_ENV, "2.0")


def _close_world(comms):
    for c in comms:
        c.close()


@pytest.fixture
def world3():
    comms = make_socket_world(3)
    yield comms
    _close_world(comms)


class TestParseHostport:
    def test_round_trip(self):
        assert parse_hostport("10.0.0.7:9310") == ("10.0.0.7", 9310)

    @pytest.mark.parametrize("bad", ["nohost", ":123", "h:notaport"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(CommunicatorError):
            parse_hostport(bad)


class TestSocketWorldConformance:
    def test_ring_p2p_and_tags(self, world3):
        for c in world3:
            c.send(("ring", c.rank), (c.rank + 1) % 3, tag=4)
        for c in world3:
            got = c.recv((c.rank - 1) % 3, tag=4)
            assert got == ("ring", (c.rank - 1) % 3)

    def test_out_of_order_tags_stashed(self, world3):
        a, b = world3[0], world3[1]
        a.send("first-tag7", 1, tag=7)
        a.send("then-tag3", 1, tag=3)
        assert b.recv(0, tag=3) == "then-tag3"
        assert b.recv(0, tag=7) == "first-tag7"

    def test_collectives(self, world3):
        import threading

        results = {}

        def run(c):
            total = c.allreduce(np.full(3, c.rank + 1), lambda x, y: x + y)
            gathered = c.allgather(c.rank * 10)
            c.barrier()
            results[c.rank] = (total, gathered)

        threads = [threading.Thread(target=run, args=(c,)) for c in world3]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        for rank in range(3):
            total, gathered = results[rank]
            assert np.array_equal(total, np.full(3, 6))
            assert gathered == [0, 10, 20]

    def test_send_to_self_rejected(self, world3):
        with pytest.raises(CommunicatorError):
            world3[0].send("x", 0)

    def test_probe(self, world3):
        assert not world3[1].probe(0, tag=9)
        world3[0].send("here", 1, tag=9)
        deadline = time.monotonic() + 5
        while not world3[1].probe(0, tag=9):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert world3[1].recv(0, tag=9) == "here"


class TestSelfHealing:
    def test_disconnect_heals_with_replay(self, world3):
        # Burst, sever the 1->2 link from rank 1's side, then keep
        # talking: the dialer (rank 2) re-dials and both sides replay
        # whatever the break swallowed.
        for i in range(5):
            world3[1].send(["burst", i], 2)
        world3[1].inject_disconnect(2)
        world3[1].send("after-break", 2)
        got = [world3[2].recv(1) for _ in range(6)]
        assert got == [["burst", i] for i in range(5)] + ["after-break"]
        assert world3[2].sock_counters.reconnects >= 1
        assert (
            world3[1].sock_counters.disconnects
            + world3[2].sock_counters.disconnects
            >= 1
        )

    def test_settle_waits_for_own_heal(self, world3):
        # The dialer (rank 2) severs its own link; its next send fails on
        # the closed socket and starts the heal.  settle() must not return
        # before that reconnect, so counters read right after include it.
        world3[2].inject_disconnect(1)
        world3[2].send("wake", 1)
        world3[2].settle()
        assert world3[2].sock_counters.reconnects == 1
        assert world3[1].recv(2) == "wake"

    def test_heartbeat_acks_prune_replay(self, world3):
        for i in range(4):
            world3[0].send(i, 1)
        for _ in range(4):
            world3[1].recv(0)
        deadline = time.monotonic() + 5
        peer = world3[0]._peers[1]
        while peer.replay and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not peer.replay, "heartbeat acks should prune the buffer"
        assert peer.acked >= 4

    def test_partition_declares_peer_dead(self, world3):
        world3[1].inject_partition(2)
        with pytest.raises(RankDiedError) as err:
            # The victim link never heals; detection beats the recv
            # timeout by construction (reconnect budget is a fraction).
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                world3[2].send("probe", 1)
                time.sleep(0.05)
        assert err.value.heartbeat_age_s is None or (
            err.value.heartbeat_age_s >= 0
        )
        assert err.value.address and ":" in err.value.address

    def test_slow_peer_stays_alive(self, world3):
        world3[0].set_send_delay(0.05, 1)
        t0 = time.monotonic()
        world3[0].send("slow", 1)
        assert world3[1].recv(0) == "slow"
        assert time.monotonic() - t0 >= 0.05
        # the throttle slows data without tripping liveness
        assert not world3[0]._peers[1].declared_dead


class TestFaultyCompose:
    def test_disconnect_plan_fires_on_socket(self, world3):
        plan = FaultPlan(seed=1, name="t-disc", disconnect_at=((0, 0),))
        faulty = FaultyCommunicator(world3[0], plan)
        faulty.send("x", 1)
        assert faulty.counters.disconnects == 1
        assert world3[1].recv(0) == "x"

    def test_disconnect_plan_noop_on_thread_backend(self):
        from repro.distributed import make_thread_world

        comms = make_thread_world(2)
        plan = FaultPlan(seed=1, name="t-disc", disconnect_at=((0, 0),))
        faulty = FaultyCommunicator(comms[0], plan)
        faulty.send("x", 1)
        assert faulty.counters.disconnects == 0
        assert comms[1].recv(0) == "x"


class TestRendezvous:
    def test_two_sequential_rounds_one_server(self):
        with RendezvousServer() as server:
            addr = "%s:%d" % server.address
            for _ in range(2):
                comms = [None, None]
                import threading

                def boot(rank):
                    comms[rank] = SocketCommunicator.connect(
                        addr, rank, 2
                    )

                threads = [
                    threading.Thread(target=boot, args=(r,))
                    for r in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                comms[0].send("round", 1)
                assert comms[1].recv(0) == "round"
                _close_world(comms)

    def test_size_disagreement_rejected(self):
        with RendezvousServer() as server:
            addr = "%s:%d" % server.address
            import threading

            errors = []

            def boot(rank, size):
                try:
                    c = SocketCommunicator.connect(addr, rank, size)
                    c.close()
                except CommunicatorError as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=boot, args=(0, 2)),
                threading.Thread(target=boot, args=(1, 3)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert errors, "conflicting world sizes must be rejected"


# ---- real multiprocess launches (module-level fns: picklability) ------ #
def _echo_rank(comm):
    return comm.rank


def _ring_pass(comm):
    comm.send(comm.rank, dest=(comm.rank + 1) % comm.size, tag=1)
    return comm.recv((comm.rank - 1) % comm.size, tag=1)


class TestSocketLauncher:
    def test_ranks_identify(self):
        assert spmd_run(_echo_rank, 3, backend="socket") == [0, 1, 2]

    def test_ring_point_to_point(self):
        out = spmd_run(_ring_pass, 4, backend="socket")
        assert out == [3, 0, 1, 2]

    def test_split_world_across_two_launches(self):
        # The two-host topology on one machine: two spmd_run invocations,
        # each owning half the ranks, meet at a shared rendezvous.
        import threading

        with RendezvousServer() as server:
            addr = "%s:%d" % server.address
            results = {}

            def launch(ranks):
                results[ranks] = spmd_run(
                    _ring_pass, 4, backend="socket",
                    rendezvous=addr, local_ranks=ranks,
                )

            threads = [
                threading.Thread(target=launch, args=(ranks,))
                for ranks in ((0, 1), (2, 3))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        # Each launch reports its own ranks; the others stay None.
        assert results[(0, 1)] == [3, 0, None, None]
        assert results[(2, 3)] == [None, None, 1, 2]

    def test_unreachable_rendezvous_degrades_to_process(self):
        with pytest.warns(DegradationWarning, match="process backend"):
            out = spmd_run(
                _ring_pass, 2, backend="socket",
                rendezvous="127.0.0.1:1",  # nothing listens here
            )
        assert out == [1, 0]

    def test_rendezvous_rejected_on_other_backends(self):
        with pytest.raises(CommunicatorError):
            spmd_run(_echo_rank, 2, backend="thread",
                     rendezvous="127.0.0.1:9310")
