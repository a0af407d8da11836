"""SKG drivers over the SPMD runtime.

The stochastic tier deliberately adds *no* new rank program: candidates
are enumerated by the exact generator's own product kernels and filtered
in place.  The enumeration trick is to pick factors whose Kronecker
product is the complete candidate space -- two complete-with-self-loops
graphs on ``2**ka`` and ``2**kb`` vertices (``ka + kb = k``) produce
every ordered pair of ``2**k`` vertices exactly once, with the A-factor
supplying the high address bits (matching the model's level-0-is-MSB
convention).  Everything else -- partitioning, owner routing, pipelined
async exchange, varint wire, supervised retry, checkpointed and elastic
resume -- is the machinery of PRs 1-8, reused verbatim through
``generate_distributed(..., model="skg")``.
"""

from __future__ import annotations

import os

from repro.distributed.generator import RankOutput, generate_distributed
from repro.distributed.supervisor import (
    SupervisorReport,
    generate_distributed_supervised,
)
from repro.graph.edgelist import EdgeList
from repro.graph.generators import complete_with_loops
from repro.kronecker.product import DEFAULT_CHUNK
from repro.skg.model import SKGSpec

__all__ = [
    "skg_candidate_factors",
    "generate_skg_distributed",
    "generate_skg_supervised",
]


def skg_candidate_factors(k: int) -> tuple[EdgeList, EdgeList]:
    """Factor pair whose product enumerates all ``2**k x 2**k`` pairs.

    Splits the exponent near-evenly (``ka = k // 2``) so both factor
    edge lists stay around ``2**k`` rows -- the 1-D scheme shards the
    ``2**(2*ka)`` A-edges across ranks and replicates B, exactly the
    paper's layout.
    """
    ka = k // 2
    kb = k - ka
    return complete_with_loops(1 << ka), complete_with_loops(1 << kb)


def generate_skg_distributed(
    spec: SKGSpec,
    nranks: int,
    *,
    scheme: str = "1d",
    storage: str | None = None,
    backend: str = "thread",
    chunk_size: int = DEFAULT_CHUNK,
    pipeline: str = "sync",
    wire: str = "raw",
    runner=None,
    telemetry=None,
) -> tuple[EdgeList, list[RankOutput]]:
    """Generate the SKG instance ``spec`` describes across ``nranks``.

    Thin wrapper: builds the candidate factors for ``spec.k`` and calls
    :func:`repro.distributed.generator.generate_distributed` with
    ``model="skg"``.  All scheme/storage/pipeline/wire combinations of
    the exact generator are available and produce bit-identical edge
    sets for a fixed spec.
    """
    el_a, el_b = skg_candidate_factors(spec.k)
    kwargs = {}
    if runner is not None:
        kwargs["runner"] = runner
    return generate_distributed(
        el_a,
        el_b,
        nranks,
        scheme=scheme,
        storage=storage,
        backend=backend,
        chunk_size=chunk_size,
        pipeline=pipeline,
        wire=wire,
        model="skg",
        skg=spec,
        telemetry=telemetry,
        **kwargs,
    )


def generate_skg_supervised(
    spec: SKGSpec,
    nranks: int,
    *,
    scheme: str = "1d",
    storage: str | None = None,
    backend: str = "thread",
    chunk_size: int = DEFAULT_CHUNK,
    pipeline: str = "sync",
    wire: str = "raw",
    fault_plan=None,
    max_attempts: int = 3,
    checkpoint_dir: str | os.PathLike | None = None,
    run_key: str | None = None,
    report: SupervisorReport | None = None,
    telemetry=None,
    rendezvous: str | None = None,
    backoff_seed: int | None = None,
) -> tuple[EdgeList, list[RankOutput]]:
    """Supervised SKG generation: retry, checkpoint/resume, elastic.

    Wraps
    :func:`repro.distributed.supervisor.generate_distributed_supervised`
    with the spec's candidate factors.  The run key (and elastic family
    key) folds the spec digest, so resumed shards can only ever be
    consumed by the identical stochastic configuration, and a 4-rank
    checkpointed run re-shards onto a different world size with
    bit-identical output.
    """
    el_a, el_b = skg_candidate_factors(spec.k)
    return generate_distributed_supervised(
        el_a,
        el_b,
        nranks,
        scheme=scheme,
        storage=storage,
        backend=backend,
        chunk_size=chunk_size,
        pipeline=pipeline,
        wire=wire,
        model="skg",
        skg=spec,
        fault_plan=fault_plan,
        max_attempts=max_attempts,
        checkpoint_dir=checkpoint_dir,
        run_key=run_key,
        report=report,
        telemetry=telemetry,
        rendezvous=rendezvous,
        backoff_seed=backoff_seed,
    )
