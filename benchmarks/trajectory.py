"""Generation perf trajectory: one JSON snapshot per run_benchmarks.sh run.

Runs the distributed generation kernel under a telemetry session --
the batch rank program and the async double-buffered pipeline on the
same factor pair -- and writes ``BENCH_generation.json`` (repo root by
default) with the numbers the project tracks release over release:

* ``edges_per_s``: product edges generated per second of *kernel* wall
  time -- each rank times barrier-to-barrier around its generation
  kernel (standard MPI methodology), and the slowest rank defines the
  run, so process spawn/teardown noise stays out of the trajectory;
* ``bytes_shuffled``: total ``alltoall`` payload bytes across all
  ranks, straight from the instrumented communicator's counters (for
  the ``varint`` wire format this is the *encoded* byte count -- the
  bytes that actually cross the wire);
* ``overlap_s`` / ``overlap_frac``: how much exchange latency the async
  pipeline hid behind generation, and what fraction of the total
  exchange window that is;
* ``speedup_async_vs_fused``: the headline ratio the async pipeline is
  expected to keep above 1.0.

The kernel runs on the process backend under an **emulated
interconnect** (:mod:`repro.distributed.netsim`): every message pays
``latency + bytes/bandwidth`` of wire time, charged against its send
timestamp so in-flight transfers genuinely overlap compute.  The
in-memory backends pass buffers at memcpy speed, which hides the
communication cost the paper's cluster deployment is bound by; the
throttled wire restores that regime, and makes the trajectory stable
across machines (wire time is deterministic, compute is not).

Plain script, not a pytest-benchmark module: it needs the telemetry
aggregation path (which pytest-benchmark's timer-only harness cannot
see), and ``pyproject.toml`` keeps pytest collection out of
``benchmarks/`` anyway.  Usage::

    PYTHONPATH=src python benchmarks/trajectory.py [--out BENCH_generation.json]
"""

from __future__ import annotations

import argparse
import json
import platform
from functools import partial
from pathlib import Path

from repro.distributed.generator import (
    generate_rank_1d_pipelined,
    generate_rank_cells,
)
from repro.distributed.launcher import spmd_run
from repro.distributed.netsim import NetworkModel, ThrottledCommunicator
from repro.distributed.partition import partition_edges_1d
from repro.graph.generators import erdos_renyi
from repro.telemetry import TelemetrySession
from repro.telemetry.clock import perf_clock, wall_clock

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Same seeded pair the kernel benches use (benchmarks/conftest.py): big
#: enough that per-rank work dominates launch overhead, small enough for CI.
FACTOR_N = 40
FACTOR_P = 0.25
FACTOR_SEEDS = (1001, 1002)

#: Emulated per-link interconnect (see module docstring): 2 MB/s
#: sustained per link plus 100 us per message -- the per-rank share of a
#: bisection-limited alltoall at cluster scale, sized so the fused
#: baseline spends most of its kernel on the wire (the paper's
#: communication-bound profile).  Wire time is deterministic sleeps, so
#: the trajectory stays comparable across machines and CI runners.
NETWORK = NetworkModel(bandwidth=2e6, latency=100e-6)

#: The tracked configurations.  ``pipelined-async`` is the paper-style
#: overlap pipeline: double-buffered generation with the varint wire
#: format, so it moves fewer bytes *and* hides wire time behind compute.
CASES = {
    "fused": {},
    "pipelined-async": {
        "scheme": "1d-pipelined",
        "pipeline": "async",
        "wire": "varint",
    },
}


def _timed_rank_1d(comm, parts_a, el_b, n_c, chunk_size, wire):
    """Barrier-bracketed kernel timing around the batch rank program."""
    cells = [[(part, el_b)] for part in parts_a]
    comm.barrier()
    t0 = perf_clock()
    out = generate_rank_cells(
        comm, cells, n_c, "source_block", chunk_size, wire
    )
    comm.barrier()
    return perf_clock() - t0, len(out.edges)


def _timed_rank_pipelined(
    comm, parts_a, el_b, n_c, chunk_size, pipeline, wire
):
    """Barrier-bracketed kernel timing around the pipelined generator."""
    comm.barrier()
    t0 = perf_clock()
    out = generate_rank_1d_pipelined(
        comm, parts_a, el_b, n_c, "source_block", chunk_size, pipeline, wire
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
    stat: str = "best",
    *,
    scheme: str = "1d",
    pipeline: str = "sync",
    wire: str = "raw",
) -> dict:
    """``stat``-of-``repeat`` traced kernel runs of one configuration."""
    parts_a = partition_edges_1d(a, ranks)
    n_c = a.n * b.n
    wrap = partial(ThrottledCommunicator, model=NETWORK)
    runs = []
    for _ in range(repeat):
        session = TelemetrySession()
        if scheme == "1d-pipelined":
            results = spmd_run(
                _timed_rank_pipelined, ranks, parts_a, b, n_c, chunk_size,
                pipeline, wire,
                backend=backend, wrap_comm=wrap, telemetry=session,
            )
        else:
            results = spmd_run(
                _timed_rank_1d, ranks, parts_a, b, n_c, chunk_size, wire,
                backend=backend, wrap_comm=wrap, telemetry=session,
            )
        wall_s = max(w for w, _ in results)
        edges = sum(m for _, m in results)
        counters = session.aggregated_metrics()["counters"]
        overlap_s = float(counters.get("exchange.overlap_s", 0.0))
        wait_s = float(counters.get("comm.wait.seconds.total", 0.0))
        runs.append({
            "case": name,
            "scheme": scheme,
            "pipeline": pipeline,
            "wire": wire,
            "edges": edges,
            "wall_s": wall_s,
            "edges_per_s": edges / wall_s,
            "bytes_shuffled": int(counters.get("comm.alltoall.bytes_out", 0)),
            "bytes_shuffled_raw": int(
                counters.get(
                    "exchange.bytes_raw",
                    counters.get("comm.alltoall.bytes_out", 0),
                )
            ),
            "alltoall_calls": int(
                counters.get("comm.alltoall.calls", 0)
                + counters.get("comm.alltoall_start.calls", 0)
            ),
            "overlap_s": overlap_s,
            "overlap_frac": (
                overlap_s / (overlap_s + wait_s)
                if overlap_s + wait_s > 0
                else 0.0
            ),
            "stage_seconds": {
                span: totals["seconds"]
                for span, totals in sorted(session.span_totals().items())
                if not span.startswith("comm.")
            },
        })
    runs.sort(key=lambda r: r["wall_s"])
    if stat == "median":
        return runs[len(runs) // 2]
    return runs[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_generation.json"),
        help="output JSON path (default: BENCH_generation.json at repo root)",
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

    a = erdos_renyi(FACTOR_N, FACTOR_P, seed=FACTOR_SEEDS[0])
    b = erdos_renyi(FACTOR_N, FACTOR_P, seed=FACTOR_SEEDS[1])

    cases = {
        name: run_case(
            name, a, b, args.ranks, args.backend, args.chunk_size,
            args.repeat, args.stat, **params,
        )
        for name, params in CASES.items()
    }
    fused = cases["fused"]
    asyncp = cases["pipelined-async"]
    result = {
        "benchmark": "generation-trajectory",
        "timestamp_unix": wall_clock(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": {
            "factors": f"ER(n={FACTOR_N}, p={FACTOR_P}) x 2, "
                       f"seeds {FACTOR_SEEDS}",
            "factor_edges": [int(a.m_directed), int(b.m_directed)],
            "storage": "source_block",
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
        "speedup_async_vs_fused": fused["wall_s"] / asyncp["wall_s"],
        "bytes_reduction_async_vs_fused": (
            fused["bytes_shuffled"] / asyncp["bytes_shuffled"]
            if asyncp["bytes_shuffled"]
            else 0.0
        ),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    print(f"generation trajectory written to {args.out}")
    for name, case in cases.items():
        extra = ""
        if case["pipeline"] == "async":
            extra = (f"  overlap {case['overlap_frac'] * 100:5.1f}%"
                     f" ({case['overlap_s'] * 1e3:.2f} ms hidden)")
        print(
            f"  {name:<15} {case['edges']:>9} edges  "
            f"{case['edges_per_s'] / 1e6:7.2f} Medges/s  "
            f"{case['bytes_shuffled'] / 1e6:7.2f} MB shuffled{extra}"
        )
    print(f"  async vs fused speedup:   "
          f"{result['speedup_async_vs_fused']:.2f}x  "
          f"(bytes reduced {result['bytes_reduction_async_vs_fused']:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
