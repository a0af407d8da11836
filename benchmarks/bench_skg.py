"""Stochastic-tier perf snapshot: SKG acceptance overhead on the hot path.

The SKG generator reuses the exact fused 1-D kernel unchanged and adds
one step inside the generate span: the vectorized hash-thresholded
acceptance filter (:class:`repro.skg.sample.SKGAcceptor`).  This
benchmark bounds what that step costs under the same emulated
interconnect as the exact trajectory (:mod:`repro.distributed.netsim`,
the paper's communication-bound regime), by running the *same ~1M
candidate enumeration* three ways on the same ranks:

* ``exact``: the fused kernel over the SKG candidate factors with no
  acceptor -- every candidate pair is routed and stored;
* ``skg-accept-all``: the identical kernel through the acceptance
  filter with the all-ones seed matrix, so every candidate is hashed,
  probability-scored, *and still routed* -- stored volume is
  bit-identical to ``exact``, which isolates pure acceptance compute as
  the only difference.  Its wall-over-wall ratio minus one is the
  headline ``acceptance_overhead`` that ``check_regression.py --suite
  skg`` caps at 25%;
* ``skg``: the fitted ``polblogs`` spec -- the production shape, where
  filtering *before* routing drops ~99% of candidates and the kernel
  beats ``exact`` outright (reported as ``speedup_skg_vs_exact``, gated
  above 1.0: if filtering ever stops paying for itself on the wire,
  the tier lost its point).

Storage placement is ``edge_hash``: with complete candidate factors the
1-D ``source_block`` placement is perfectly rank-aligned (every
generated edge is already owned locally, zero wire traffic), which
would let the throttle idle and reduce the comparison to bare compute;
hashed placement makes ~3/4 of the stored volume cross the emulated
wire, restoring the regime the exact trajectory benchmarks.  Wire time
is deterministic sleeps, so the committed ``BENCH_skg.json`` numbers
transfer across machines with only the compute share exposed to
hardware variance -- same methodology as ``trajectory.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_skg.py [--out BENCH_skg.json]
"""

from __future__ import annotations

import argparse
import json
import platform
from functools import partial
from pathlib import Path

from repro.distributed.generator import generate_rank_cells
from repro.distributed.launcher import spmd_run
from repro.distributed.netsim import NetworkModel, ThrottledCommunicator
from repro.distributed.partition import partition_edges_1d
from repro.skg.distributed import skg_candidate_factors
from repro.skg.expected import expected_edge_rows
from repro.skg.model import SKGSpec
from repro.telemetry.clock import perf_clock, wall_clock

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The benchmarked spec: the fitted polblogs matrix at k=10 gives a
#: 1024-vertex instance with 2**20 = ~1M candidate pairs -- enough for
#: per-candidate work to dominate launch overhead, small enough for CI.
SPEC_NAME = "polblogs"
SPEC_K = 10
SPEC_SEED = 7

#: Same emulated per-link interconnect as ``trajectory.py``: 2 MB/s
#: sustained plus 100 us per message, the communication-bound profile
#: the paper's cluster deployment runs in.
NETWORK = NetworkModel(bandwidth=2e6, latency=100e-6)


def _accept_all_spec() -> SKGSpec:
    """All-ones seed matrix: every candidate accepted, none filtered.

    Directed with self-loops so the acceptance decision covers every
    ordered pair -- stored output is then bit-identical to the exact
    case and the two kernels differ only by the acceptance compute.
    """
    return SKGSpec(
        name="accept-all",
        theta=(1.0, 1.0, 1.0, 1.0),
        k=SPEC_K,
        skg_seed=SPEC_SEED,
        directed=True,
        self_loops=True,
    )


def _timed_rank(comm, cells, n_c, chunk_size, skg):
    """Barrier-bracketed kernel timing (slowest rank defines the run)."""
    comm.barrier()
    t0 = perf_clock()
    out = generate_rank_cells(
        comm, cells, n_c, "edge_hash", chunk_size, skg=skg
    )
    comm.barrier()
    return perf_clock() - t0, len(out.edges)


def run_case(
    name: str,
    a,
    b,
    ranks: int,
    backend: str,
    chunk_size: int,
    repeat: int,
    stat: str,
    skg,
) -> dict:
    """``stat``-of-``repeat`` kernel runs of one configuration."""
    cells = [[(part, b)] for part in partition_edges_1d(a, ranks)]
    n_c = a.n * b.n
    candidates = int(a.m_directed) * int(b.m_directed)
    wrap = partial(ThrottledCommunicator, model=NETWORK)
    runs = []
    for _ in range(repeat):
        results = spmd_run(
            _timed_rank, ranks, cells, n_c, chunk_size, skg,
            backend=backend, wrap_comm=wrap,
        )
        wall_s = max(w for w, _ in results)
        edges = sum(m for _, m in results)
        runs.append({
            "case": name,
            "candidates": candidates,
            "edges": edges,
            "wall_s": wall_s,
            "candidates_per_s": candidates / wall_s,
        })
    runs.sort(key=lambda r: r["wall_s"])
    if stat == "median":
        return runs[len(runs) // 2]
    return runs[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_skg.json"),
        help="output JSON path (default: BENCH_skg.json at repo root)",
    )
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--backend", default="process",
                        choices=("thread", "process"))
    parser.add_argument("--chunk-size", type=int, default=1 << 14)
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per case")
    parser.add_argument("--stat", default="best", choices=("best", "median"),
                        help="which repetition to keep (default: best; "
                             "CI regression checks use median)")
    args = parser.parse_args(argv)

    spec = SKGSpec.from_library(SPEC_NAME, k=SPEC_K, skg_seed=SPEC_SEED)
    a, b = skg_candidate_factors(spec.k)

    run = partial(
        run_case,
        a=a, b=b, ranks=args.ranks, backend=args.backend,
        chunk_size=args.chunk_size, repeat=args.repeat, stat=args.stat,
    )
    cases = {
        "exact": run("exact", skg=None),
        "skg-accept-all": run("skg-accept-all", skg=_accept_all_spec()),
        "skg": run("skg", skg=spec),
    }
    if cases["skg-accept-all"]["edges"] != cases["exact"]["edges"]:
        print("FAIL: accept-all stored a different edge count than exact "
              f"({cases['skg-accept-all']['edges']} vs "
              f"{cases['exact']['edges']})")
        return 1
    overhead = (
        cases["skg-accept-all"]["wall_s"] / cases["exact"]["wall_s"] - 1.0
    )
    speedup = cases["exact"]["wall_s"] / cases["skg"]["wall_s"]
    result = {
        "benchmark": "skg-acceptance",
        "timestamp_unix": wall_clock(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": {
            "spec": {
                "seed_matrix": SPEC_NAME,
                "k": SPEC_K,
                "skg_seed": SPEC_SEED,
                "digest": f"{spec.digest():016x}",
            },
            "candidates": cases["skg"]["candidates"],
            "expected_edge_rows": expected_edge_rows(spec),
            "storage": "edge_hash",
            "ranks": args.ranks,
            "backend": args.backend,
            "chunk_size": args.chunk_size,
            "repeat": args.repeat,
            "stat": args.stat,
            "network": {
                "bandwidth_bytes_per_s": NETWORK.bandwidth,
                "latency_s": NETWORK.latency,
            },
            "timing": "kernel (barrier-to-barrier, slowest rank)",
        },
        "cases": cases,
        "acceptance_overhead": overhead,
        "speedup_skg_vs_exact": speedup,
        "acceptance_rate": (
            cases["skg"]["edges"] / cases["skg"]["candidates"]
        ),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    print(f"skg acceptance snapshot written to {args.out}")
    for name, case in cases.items():
        print(
            f"  {name:<15} {case['edges']:>8} edges stored  "
            f"{case['candidates_per_s'] / 1e6:6.2f} Mcandidates/s  "
            f"({case['wall_s'] * 1e3:8.1f} ms)"
        )
    print(f"  acceptance overhead (accept-all vs exact): {overhead:+.1%}")
    print(f"  fitted-spec speedup vs exact:              {speedup:.2f}x  "
          f"(acceptance rate {result['acceptance_rate']:.4%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
