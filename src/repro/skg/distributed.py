"""SKG candidate factors for the SPMD runtime.

The stochastic tier deliberately adds *no* new rank program or driver:
candidates are enumerated by the exact generator's own product kernels
and filtered in place.  The enumeration trick is to pick factors whose Kronecker
product is the complete candidate space -- two complete-with-self-loops
graphs on ``2**ka`` and ``2**kb`` vertices (``ka + kb = k``) produce
every ordered pair of ``2**k`` vertices exactly once, with the A-factor
supplying the high address bits (matching the model's level-0-is-MSB
convention).  Everything else -- partitioning, owner routing, pipelined
async exchange, varint wire, supervised retry, checkpointed and elastic
resume -- is the exact generator's machinery, reused verbatim::

    a, b = skg_candidate_factors(spec.k)
    el, outputs = generate_distributed(a, b, nranks, skg=spec)

(or :func:`~repro.distributed.supervisor.generate_distributed_supervised`
with the same arguments).  The run key (and elastic family key) folds
the spec digest, so checkpointed shards can only ever be consumed by the
identical stochastic configuration.
"""

from __future__ import annotations

from repro.graph.edgelist import EdgeList
from repro.graph.generators import complete_with_loops

__all__ = ["skg_candidate_factors"]


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
