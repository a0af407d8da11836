"""Supervised SPMD execution: retry, checkpoint/resume, chaos harness.

:func:`spmd_run_supervised` is a drop-in replacement for
:func:`repro.distributed.launcher.spmd_run` that adds the recovery layer
the bare launcher deliberately lacks:

* **whole-run retry with exponential backoff** on communicator failures
  (timeouts, rank crashes, dead child processes, collective divergence) --
  rank-program bugs (``ValueError`` in user code, checkpoint digest
  mismatches) are *not* retried, they re-raise immediately;
* **deterministic fault injection** via a
  :class:`~repro.distributed.faults.FaultPlan` -- each attempt re-binds the
  plan to its attempt number, so probabilistic faults reroll and scheduled
  faults disarm once ``fault_attempts`` is exhausted;
* **shard-level checkpoint/resume** through the content-addressed
  :class:`~repro.distributed.checkpoint.CheckpointStore`: completed shard
  outputs persist, a retry re-executes only missing shards, and a shard
  that *is* re-executed (because peers need its collective traffic) is
  verified bit-for-bit against the recorded digest.

:func:`generate_distributed_supervised` wires all of it to the generator,
and :func:`run_chaos_matrix` drives a seeded fault matrix end-to-end,
asserting every plan recovers to output bit-identical (canonical edge
order) to the fault-free run -- the ``repro-kron chaos`` subcommand.
"""

from __future__ import annotations

import functools
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.distributed.checkpoint import (
    CheckpointStore,
    RunManifest,
    edges_digest,
    reshard_run,
)
from repro.distributed.comm import RECV_TIMEOUT_ENV
from repro.distributed.faults import FaultPlan, default_fault_matrix
from repro.distributed.generator import RankOutput, generate_distributed
from repro.distributed.launcher import spmd_run
from repro.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    CommunicatorError,
    RankFailedError,
    ReproError,
)
from repro.graph.edgelist import EdgeList
from repro.kronecker.product import DEFAULT_CHUNK
from repro.telemetry.clock import monotonic
from repro.telemetry.session import TelemetrySession, telemetry_of

__all__ = [
    "SupervisorReport",
    "spmd_run_supervised",
    "decorrelated_jitter",
    "generation_run_key",
    "generation_family_key",
    "generate_distributed_supervised",
    "ChaosOutcome",
    "ChaosReport",
    "run_chaos_matrix",
]

#: Exception type *names* considered transient when a child process ships
#: its failure back as a string (the type object does not survive the hop).
_RETRYABLE_TYPE_NAMES = frozenset(
    {
        "CommunicatorError",
        "CollectiveOrderError",
        "RankCrashError",
        "RankDiedError",
        "TimeoutError",
        "BrokenBarrierError",
        "Empty",
        "EOFError",
        "BrokenPipeError",
        "ConnectionResetError",
        # Corruption *at rest*: the loader deleted the damaged artifact, so
        # a retry regenerates the shard (unlike its parent CheckpointError,
        # which signals nondeterminism and stays fatal).
        "CheckpointCorruptionError",
    }
)


def _is_retryable(exc: BaseException) -> bool:
    """Transient infrastructure failure vs. deterministic program bug."""
    if isinstance(exc, RankFailedError):
        cause = exc.__cause__
        if cause is not None:
            return isinstance(
                cause, (CommunicatorError, CheckpointCorruptionError)
            )
        return exc.original_type in _RETRYABLE_TYPE_NAMES
    return isinstance(exc, (CommunicatorError, CheckpointCorruptionError))


@dataclass
class SupervisorReport:
    """What a supervised run did (filled in place by the supervisor)."""

    attempts: int = 0
    failures: list[str] = field(default_factory=list)

    def record_failure(self, attempt: int, exc: BaseException) -> None:
        first_line = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        self.failures.append(f"attempt {attempt}: {first_line}")


class _CheckpointedRankFn:
    """Wrap a ``RankOutput``-returning rank program with shard checkpoints.

    ``shard_mode="independent"`` (comm-free rank programs): each rank
    skips straight to its persisted shard when one verifies, so a retry
    re-executes only the failed shards.

    ``shard_mode="collective"`` (rank programs that exchange edges): ranks
    agree via one allreduce whether *every* shard is already persisted --
    if so, all load and no generation happens; otherwise all ranks re-run
    so the exchange stays symmetric, and any rank holding a checkpoint
    verifies its re-executed output digest against the recorded one
    (deterministic generation makes a mismatch a hard
    :class:`CheckpointError`, never a retry).

    Module-level class (not a closure) so the process backend can ship it
    to forked children; it reopens the store per call because file handles
    do not survive the fork.
    """

    def __init__(
        self, fn, directory: str | os.PathLike, run_key: str, shard_mode: str
    ) -> None:
        if shard_mode not in ("independent", "collective"):
            raise CheckpointError(
                f"unknown shard_mode {shard_mode!r}; "
                f"use 'independent' or 'collective'"
            )
        self.fn = fn
        self.directory = str(directory)
        self.run_key = run_key
        self.shard_mode = shard_mode

    def _key(self, rank: int) -> str:
        return f"{self.run_key}.rank{rank:05d}"

    def __call__(self, comm, *args):
        tel = telemetry_of(comm)
        with tel.span("checkpoint", cat="phase", op="load"):
            store = CheckpointStore(self.directory)
            key = self._key(comm.rank)
            # discard=True: a truncated/corrupted shard is deleted and
            # raises the *transient* CheckpointCorruptionError, so the
            # supervised retry regenerates it instead of silently running
            # from a half-trusted store.
            cached = store.get(key, discard=True)
        if self.shard_mode == "collective" and comm.size > 1:
            all_cached = comm.allreduce(
                cached is not None, lambda a, b: a and b
            )
            if all_cached:
                tel.add("checkpoint.hits")
                tel.add("edges.restored", len(cached.edges))
                tel.add("edges.stored", len(cached.edges))
                return RankOutput(comm.rank, cached.edges, cached.generated)
            tel.add("checkpoint.misses")
            out = self.fn(comm, *args)
            if cached is not None:
                with tel.span("checkpoint", cat="phase", op="verify"):
                    fresh = edges_digest(out.edges)
                if fresh != cached.digest:
                    if cached.resharded:
                        # Elastic shards hold the right edges in canonical
                        # union order, not generation order; once the world
                        # re-generated anyway, the fresh layout is the
                        # ground truth -- replace, don't diagnose.
                        with tel.span("checkpoint", cat="phase", op="store"):
                            store.put(key, out.edges,
                                      generated=out.generated)
                    else:
                        raise CheckpointError(
                            f"rank {comm.rank}: re-executed shard digest "
                            f"{fresh:#018x} does not match checkpoint "
                            f"{cached.digest:#018x} for key {key!r} -- "
                            f"generation is expected to be deterministic"
                        )
            else:
                with tel.span("checkpoint", cat="phase", op="store"):
                    store.put(key, out.edges, generated=out.generated)
            return out
        if cached is not None:
            tel.add("checkpoint.hits")
            tel.add("edges.restored", len(cached.edges))
            tel.add("edges.stored", len(cached.edges))
            return RankOutput(comm.rank, cached.edges, cached.generated)
        tel.add("checkpoint.misses")
        out = self.fn(comm, *args)
        with tel.span("checkpoint", cat="phase", op="store"):
            store.put(key, out.edges, generated=out.generated)
        return out


def decorrelated_jitter(
    prev: float,
    base: float,
    factor: float,
    cap: float,
    rng: random.Random,
) -> float:
    """Next backoff delay under decorrelated jitter.

    The AWS-style scheme: uniform in ``[base, prev * factor]``, clamped to
    ``cap``.  Retaining the exponential *envelope* (never above
    ``min(cap, prev * factor)``) while randomizing within it keeps
    simultaneously-failing ranks/hosts from re-dialing in lockstep --
    synchronized retry storms are exactly what took down the network the
    first time.  Deterministic given ``rng``; with ``base == prev == 0``
    the sequence stays 0 (tests that disable backoff keep sleeping 0s).
    """
    return min(cap, rng.uniform(base, max(base, prev * factor)))


def spmd_run_supervised(
    fn,
    nranks: int,
    *args,
    backend: str = "thread",
    checked: bool | None = None,
    fault_plan: FaultPlan | None = None,
    max_attempts: int = 3,
    backoff_base: float = 0.05,
    backoff_factor: float = 2.0,
    backoff_max: float = 2.0,
    backoff_seed: int | None = None,
    checkpoint: str | os.PathLike | CheckpointStore | None = None,
    run_key: str | None = None,
    shard_mode: str = "collective",
    report: SupervisorReport | None = None,
    telemetry=None,
    rendezvous: str | None = None,
    pre_attempt=None,
) -> list:
    """Run ``fn`` across ``nranks`` ranks under supervision.

    Drop-in for :func:`spmd_run` (same positional contract, returns
    per-rank results in rank order), plus:

    fault_plan:
        Inject this :class:`FaultPlan` (re-bound to each attempt number)
        beneath the collective-order sentinel.
    max_attempts:
        Total attempts before the last failure re-raises.  Only failures
        classified as transient communicator faults are retried.
    backoff_base / backoff_factor / backoff_max:
        Backoff envelope (seconds) slept between attempts.  The first
        retry sleeps exactly ``backoff_base``; later retries draw
        decorrelated jitter within the exponential envelope
        (:func:`decorrelated_jitter`) so simultaneous multi-rank failures
        do not retry in lockstep.
    backoff_seed:
        Seed for the jitter RNG (``None`` = nondeterministic).  Chaos and
        unit tests pin it for reproducible retry timing.
    checkpoint / run_key / shard_mode:
        When ``checkpoint`` names a directory (or store), wrap ``fn`` --
        which must return :class:`RankOutput` -- in shard-level
        checkpoint/resume (see :class:`_CheckpointedRankFn`).
    report:
        Optional :class:`SupervisorReport` filled with attempt counts and
        per-attempt failure summaries.
    telemetry:
        Optional :class:`~repro.telemetry.session.TelemetrySession`,
        forwarded to every :func:`spmd_run` attempt.  Retries additionally
        land on the session's supervisor lane as instant events (attempt
        number, error, backoff), so a recovered run's trace shows *why* it
        took the time it took.
    rendezvous:
        Socket backend only; forwarded to every :func:`spmd_run` attempt
        (``"host:port"`` of an external ``repro-kron serve-rendezvous``).
    pre_attempt:
        Optional ``pre_attempt(attempt)`` callable run *inside* each
        attempt's try block, before the launch -- the elastic-resume hook:
        a transient failure it raises (e.g.
        :class:`CheckpointCorruptionError` from resharding damaged
        checkpoints) is retried like any launch failure.
    """
    if max_attempts < 1:
        raise CommunicatorError(f"max_attempts must be >= 1, got {max_attempts}")
    run_fn = fn
    if checkpoint is not None:
        directory = (
            checkpoint.directory
            if isinstance(checkpoint, CheckpointStore)
            else checkpoint
        )
        key = run_key or getattr(fn, "__name__", "spmd-run")
        run_fn = _CheckpointedRankFn(fn, directory, key, shard_mode)
    rng = random.Random(backoff_seed)
    delay = backoff_base
    for attempt in range(max_attempts):
        wrap = fault_plan.binder(attempt) if fault_plan is not None else None
        try:
            if pre_attempt is not None:
                pre_attempt(attempt)
            results = spmd_run(
                run_fn,
                nranks,
                *args,
                backend=backend,
                checked=checked,
                wrap_comm=wrap,
                telemetry=telemetry,
                rendezvous=rendezvous,
            )
        except ReproError as exc:
            if report is not None:
                report.attempts = attempt + 1
                report.record_failure(attempt, exc)
            retrying = _is_retryable(exc) and attempt + 1 < max_attempts
            if telemetry is not None and telemetry.enabled:
                telemetry.record(
                    "supervisor.retry" if retrying else "supervisor.giveup",
                    attempt=attempt + 1,
                    error=type(exc).__name__,
                    backoff_s=min(delay, backoff_max) if retrying else 0.0,
                )
            if not retrying:
                raise
            time.sleep(min(delay, backoff_max))
            delay = decorrelated_jitter(
                delay, backoff_base, backoff_factor, backoff_max, rng
            )
            continue
        if report is not None:
            report.attempts = attempt + 1
        if telemetry is not None and telemetry.enabled and attempt:
            telemetry.record("supervisor.recovered", attempts=attempt + 1)
        return results
    raise AssertionError("unreachable")  # pragma: no cover


def generation_run_key(
    el_a: EdgeList,
    el_b: EdgeList,
    nranks: int | str,
    scheme: str,
    storage: str | None,
    chunk_size: int,
    *,
    pipeline: str = "sync",
    wire: str = "raw",
    model: str = "exact",
    skg=None,
) -> str:
    """Content-addressed signature of one generation configuration.

    Folds the factor edge digests and every parameter that affects shard
    contents or row order, so a resumed run can never consume checkpoints
    written under a different configuration.  ``wire`` matters because the
    varint codec re-sorts each exchanged block (shard row order changes);
    ``pipeline`` is included for symmetry even though sync and async are
    bit-identical -- run keys identify configurations, not equivalence
    classes.  ``model="skg"`` appends the spec digest
    (:meth:`repro.skg.model.SKGSpec.digest`, covering the seed matrix,
    ``skg_seed``, and noise parameters), so stochastic runs with
    different specs can never share checkpoints; exact keys are
    unchanged.  ``nranks="*"`` gives :func:`generation_family_key`.
    """
    return (
        f"gen-{edges_digest(el_a.edges):016x}-{edges_digest(el_b.edges):016x}"
        f"-r{nranks}-{scheme}-{storage}-c{chunk_size}"
        f"-{pipeline}-{wire}{_model_token(model, skg)}"
    )


def _model_token(model: str, skg) -> str:
    """Run-key suffix identifying the generation model (empty for exact)."""
    if model == "exact" and skg is None:
        return ""
    if skg is None:
        raise CheckpointError(
            f"model {model!r} requires an SKG spec for run-key derivation"
        )
    return f"-skg{skg.digest():016x}"


def generation_family_key(
    el_a: EdgeList,
    el_b: EdgeList,
    scheme: str,
    storage: str | None,
    chunk_size: int,
    **options,
) -> str:
    """:func:`generation_run_key` with ``r*`` for the rank count.

    Two run keys with the same family describe the same edge set sharded
    at different world sizes -- the elastic-resume compatibility class.
    Everything that changes *contents* stays in -- including the SKG spec
    digest, since a stochastic run's edge set is a function of the spec;
    only ``r{nranks}`` (which changes *placement*) is wildcarded.
    """
    return generation_run_key(
        el_a, el_b, "*", scheme, storage, chunk_size, **options
    )


def _maybe_elastic_reshard(
    directory: str | os.PathLike,
    run_key: str,
    family: str,
    nranks: int,
    scheme: str,
    n: int,
) -> bool:
    """Reshard a same-family manifest onto ``nranks`` if one exists.

    The supervisor's per-attempt hook: when the target run key has no
    complete shard set but a manifest of the same family (checkpointed at
    a different rank count) does, re-partition it through
    :func:`reshard_run`.  Returns whether a reshard happened; raises the
    transient :class:`CheckpointCorruptionError` when the source artifacts
    turn out damaged (the retry then generates from scratch).
    """
    store = CheckpointStore(directory)
    if all(store.has(f"{run_key}.rank{r:05d}") for r in range(nranks)):
        return False
    for manifest in store.manifests():
        if manifest.family != family or manifest.nranks == nranks:
            continue
        reshard_run(
            store, manifest, new_key=run_key, new_ranks=nranks,
            scheme=scheme, n=n,
        )
        return True
    return False


def generate_distributed_supervised(
    el_a: EdgeList,
    el_b: EdgeList,
    nranks: int,
    *,
    scheme: str = "1d",
    storage: str | None = None,
    backend: str = "thread",
    chunk_size: int = DEFAULT_CHUNK,
    pipeline: str = "sync",
    wire: str = "raw",
    model: str = "exact",
    skg=None,
    fault_plan: FaultPlan | None = None,
    max_attempts: int = 3,
    checkpoint_dir: str | os.PathLike | None = None,
    run_key: str | None = None,
    report: SupervisorReport | None = None,
    telemetry=None,
    rendezvous: str | None = None,
    backoff_seed: int | None = None,
) -> tuple[EdgeList, list[RankOutput]]:
    """:func:`generate_distributed` under the supervised launcher.

    Same contract and parameters as the unsupervised driver, plus the
    supervision knobs of :func:`spmd_run_supervised`.  With a
    ``checkpoint_dir``, completed shards persist under a run key derived
    from the factor digests and generation parameters; a retry (or a fresh
    call with the same configuration) re-executes only missing shards.

    **Elastic re-sharded resume**: after a storage-routed run succeeds, a
    :class:`~repro.distributed.checkpoint.RunManifest` records the shard
    digests and the consensus union digest.  A later call with the same
    configuration but a *different* ``nranks`` finds the manifest through
    the rank-count-independent family key and re-partitions the shards
    through the target world's ownership map before the first attempt
    (:func:`reshard_run`) -- the resumed run loads every shard, generates
    nothing, and reassembles a bit-identical edge set whether the world
    shrank or grew.
    """
    if run_key is None and checkpoint_dir is not None:
        run_key = generation_run_key(
            el_a, el_b, nranks, scheme, storage, chunk_size,
            pipeline=pipeline, wire=wire, model=model, skg=skg,
        )
    # Rank programs without a storage exchange never touch the
    # communicator, so their shards resume independently; routed programs
    # must keep the exchange symmetric across ranks.
    shard_mode = (
        "independent"
        if storage is None and scheme in ("1d", "2d")
        else "collective"
    )
    # Elastic resume needs an ownership map, which only storage-routed
    # shards have (storage=None shards live where the *partition* put
    # them, a function of the old rank count).  1d-pipelined defaults its
    # storage to source_block inside the generator; mirror that here.
    effective_storage = storage
    if scheme == "1d-pipelined" and storage is None:
        effective_storage = "source_block"
    family = None
    pre_attempt = None
    if checkpoint_dir is not None and effective_storage is not None:
        family = generation_family_key(
            el_a, el_b, scheme, storage, chunk_size,
            pipeline=pipeline, wire=wire, model=model, skg=skg,
        )
        n_c = el_a.n * el_b.n
        pre_attempt = functools.partial(
            _elastic_pre_attempt, checkpoint_dir, run_key, family, nranks,
            effective_storage, n_c, telemetry,
        )
    runner = functools.partial(
        spmd_run_supervised,
        fault_plan=fault_plan,
        max_attempts=max_attempts,
        checkpoint=checkpoint_dir,
        run_key=run_key,
        shard_mode=shard_mode,
        report=report,
        rendezvous=rendezvous,
        backoff_seed=backoff_seed,
        pre_attempt=pre_attempt,
    )
    el, outputs = generate_distributed(
        el_a,
        el_b,
        nranks,
        scheme=scheme,
        storage=storage,
        backend=backend,
        chunk_size=chunk_size,
        pipeline=pipeline,
        wire=wire,
        model=model,
        skg=skg,
        runner=runner,
        telemetry=telemetry,
    )
    if family is not None:
        # Success: record the consensus manifest elastic resume feeds on.
        store = CheckpointStore(checkpoint_dir)
        union = canonical_edges(el.edges)
        store.put_manifest(
            RunManifest(
                run_key=run_key,
                family=family,
                nranks=nranks,
                shard_digests=tuple(
                    edges_digest(o.edges) for o in outputs
                ),
                union_digest=edges_digest(union),
                edges_total=int(len(union)),
            )
        )
    return el, outputs


def _elastic_pre_attempt(
    directory, run_key, family, nranks, scheme, n, telemetry, attempt
):
    """Per-attempt elastic hook (module-level for picklability/clarity)."""
    resharded = _maybe_elastic_reshard(
        directory, run_key, family, nranks, scheme, n
    )
    if resharded and telemetry is not None and telemetry.enabled:
        telemetry.record(
            "supervisor.elastic_reshard", attempt=attempt, nranks=nranks
        )


# --------------------------------------------------------------------- #
# chaos harness
# --------------------------------------------------------------------- #
@contextmanager
def _recv_timeout_env(seconds: float | None):
    """Temporarily pin ``REPRO_RECV_TIMEOUT`` (None = leave untouched)."""
    if seconds is None:
        yield
        return
    old = os.environ.get(RECV_TIMEOUT_ENV)
    os.environ[RECV_TIMEOUT_ENV] = str(seconds)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(RECV_TIMEOUT_ENV, None)
        else:
            os.environ[RECV_TIMEOUT_ENV] = old


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Edges in canonical (lexicographic) row order for bit-comparison.

    Distributed reassembly order varies with world size and backend; the
    canonical sort makes "same multiset" checkable as array equality.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


@dataclass(frozen=True)
class ChaosOutcome:
    """One (plan, backend) cell of the chaos matrix."""

    plan: str
    backend: str
    recovered: bool
    identical: bool
    attempts: int
    error: str = ""
    #: Wall time of the whole cell -- including retries and backoff -- so
    #: a report shows recovery *cost*, not just recovery success.
    elapsed_s: float = 0.0
    #: Socket-backend recovery work observed in the cell: TCP reconnects
    #: completed and in-flight frames replayed after them.  Zero on
    #: thread/process cells, which have no connections to heal.
    reconnects: int = 0
    replays: int = 0

    @property
    def ok(self) -> bool:
        return self.recovered and self.identical


@dataclass
class ChaosReport:
    """Every cell of one chaos-matrix run."""

    outcomes: list[ChaosOutcome] = field(default_factory=list)

    @property
    def all_recovered(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def to_text(self) -> str:
        lines = [
            f"{'plan':<16}{'backend':<9}"
            f"{'attempts':>9}{'elapsed':>9}  status"
        ]
        for o in self.outcomes:
            if o.ok:
                status = "recovered, bit-identical"
            elif o.recovered:
                status = "RAN BUT OUTPUT DIVERGED"
            else:
                status = f"FAILED: {o.error}"
            lines.append(
                f"{o.plan:<16}{o.backend:<9}"
                f"{o.attempts:>9}{o.elapsed_s:>8.2f}s  {status}"
            )
        good = sum(o.ok for o in self.outcomes)
        lines.append(f"{good}/{len(self.outcomes)} cells recovered")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable report (``repro-kron chaos --json``)."""
        return {
            "cells": [
                {
                    "plan": o.plan,
                    "backend": o.backend,
                    "recovered": o.recovered,
                    "identical": o.identical,
                    "ok": o.ok,
                    "attempts": o.attempts,
                    "elapsed_s": o.elapsed_s,
                    "reconnects": o.reconnects,
                    "replays": o.replays,
                    "error": o.error,
                }
                for o in self.outcomes
            ],
            "cells_ok": sum(o.ok for o in self.outcomes),
            "cells_total": len(self.outcomes),
            "all_recovered": self.all_recovered,
        }


def _sock_repair_counts(tel) -> dict[str, int]:
    """Reconnect/replay counts harvested from a cell's telemetry session.

    Sums the per-rank ``sock.*`` counters the socket backend reports at
    finalize; a ``None`` session (non-socket cell) contributes zeros.
    """
    if tel is None:
        return {"reconnects": 0, "replays": 0}
    counters = tel.aggregated_metrics().get("counters", {})
    return {
        "reconnects": int(counters.get("sock.reconnects", 0)),
        "replays": int(counters.get("sock.replayed", 0)),
    }


def run_chaos_matrix(
    el_a: EdgeList,
    el_b: EdgeList,
    nranks: int = 4,
    *,
    plans: list[FaultPlan] | None = None,
    seed: int = 0,
    backends: tuple[str, ...] = ("thread", "process"),
    scheme: str = "1d",
    storage: str | None = "source_block",
    chunk_size: int = DEFAULT_CHUNK,
    pipeline: str = "sync",
    wire: str = "raw",
    model: str = "exact",
    skg=None,
    recv_timeout_s: float | None = 2.0,
    max_attempts: int = 4,
    checkpoint_root: str | os.PathLike | None = None,
    rendezvous: str | None = None,
) -> ChaosReport:
    """Drive every fault plan against supervised generation.

    For each plan x backend cell, run
    :func:`generate_distributed_supervised` under the plan and compare the
    recovered product -- in canonical edge order -- bit-for-bit against
    the fault-free reference.  ``recv_timeout_s`` pins
    ``REPRO_RECV_TIMEOUT`` for the duration so dropped-message timeouts
    resolve in seconds, not minutes.  ``pipeline``/``wire`` select the
    async double-buffered loop and the varint wire format
    (``scheme="1d-pipelined"`` required for ``pipeline="async"``), so the
    matrix can prove fault recovery for the split-phase exchange too.

    A ``"socket"`` entry in ``backends`` runs those cells over the TCP
    backend with a per-cell telemetry session, and the outcome carries the
    reconnect/replay counts the connection-healing machinery reported --
    so the JSON report shows not just that a cell recovered but how much
    wire-level repair the recovery took.

    ``model="skg"`` (with an :class:`repro.skg.model.SKGSpec`) runs every
    cell through the stochastic acceptance filter: the fault-free
    references and all recovered cells then prove that seeded Bernoulli
    acceptance -- not just exact enumeration -- survives crashes, drops,
    and checkpointed retry bit-identically.
    """
    if plans is None:
        plans = default_fault_matrix(seed=seed, nranks=nranks)
    el, _ = generate_distributed(
        el_a, el_b, nranks, scheme=scheme, storage=storage,
        backend="thread", chunk_size=chunk_size,
        pipeline=pipeline, wire=wire, model=model, skg=skg,
    )
    reference = canonical_edges(el.edges)
    report = ChaosReport()
    with _recv_timeout_env(recv_timeout_s):
        for i, plan in enumerate(plans):
            for backend in backends:
                sup = SupervisorReport()
                checkpoint_dir = (
                    Path(checkpoint_root) / f"{i:02d}-{plan.label()}-{backend}"
                    if checkpoint_root is not None
                    else None
                )
                # Socket cells get their own telemetry session purely to
                # harvest sock.* counters; thread/process cells stay
                # un-instrumented so their comm-op indices (and therefore
                # the targeted fault schedules) are unchanged.
                tel = TelemetrySession() if backend == "socket" else None
                t0 = monotonic()
                try:
                    el, _ = generate_distributed_supervised(
                        el_a, el_b, nranks, scheme=scheme, storage=storage,
                        backend=backend, chunk_size=chunk_size,
                        pipeline=pipeline, wire=wire,
                        model=model, skg=skg,
                        fault_plan=plan, max_attempts=max_attempts,
                        checkpoint_dir=checkpoint_dir, report=sup,
                        telemetry=tel,
                        rendezvous=(
                            rendezvous if backend == "socket" else None
                        ),
                    )
                except ReproError as exc:
                    report.outcomes.append(
                        ChaosOutcome(
                            plan=plan.label(), backend=backend,
                            recovered=False,
                            identical=False, attempts=sup.attempts,
                            error=str(exc).splitlines()[0],
                            elapsed_s=monotonic() - t0,
                            **_sock_repair_counts(tel),
                        )
                    )
                    continue
                identical = np.array_equal(
                    canonical_edges(el.edges), reference
                )
                report.outcomes.append(
                    ChaosOutcome(
                        plan=plan.label(), backend=backend,
                        recovered=True, identical=identical,
                        attempts=sup.attempts,
                        elapsed_s=monotonic() - t0,
                        **_sock_repair_counts(tel),
                    )
                )
    return report
