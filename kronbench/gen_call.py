"""One generation call in a fresh process (the parent of its rank processes).

Usage::

    python3 kronbench/gen_call.py --kind exact|skg --seed N --scale full|tiny \
        --out DIR [--trace]

Builds the workload's inputs (untimed), then times one call from factors
in to result out: ``generate_distributed_supervised`` with a fresh
checkpoint directory ``DIR`` for ``exact``, ``generate_to_directory``
writing shards into ``DIR`` for ``skg``.  A process of its own per call
makes every run start cold, and lets ``getrusage`` give the peak resident
memory of exactly this parent (started through ``spawn.py``) and of its
largest rank.  Prints one JSON line with the wall time, the stored edge
count, both peaks and, with ``--trace``, the per-layer timings.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics

import inputs
from layers import LayerClock, clock, critical_path, rank_count, traced_launcher

LAUNCH_SAMPLES = 5


def _noop_rank(comm):
    return comm.rank


def launch_seconds() -> float:
    """Median wall time of a no-op process-backend ``spmd_run``."""
    from repro.distributed.launcher import spmd_run

    times = []
    for _ in range(LAUNCH_SAMPLES):
        t0 = clock()
        spmd_run(_noop_rank, inputs.NRANKS, backend="process")
        times.append(clock() - t0)
    return statistics.median(times)


def _out_bytes(args, _result) -> int:
    comm, outgoing = args[0], args[1]
    return sum(
        blk.nbytes for dest, blk in enumerate(outgoing)
        if dest != comm.rank and blk is not None
    )


def trace_exact(lc: LayerClock, ranks: list) -> None:
    """Wrap the layers ``generate_distributed_supervised`` goes through."""
    from repro.distributed import checkpoint, generator, mpcomm, supervisor

    generator.partition_edges_1d = lc.wrap(
        "partition", generator.partition_edges_1d)
    generator.kron_routed_full = lc.wrap(
        "enumerate", generator.kron_routed_full,
        count=lambda _a, buckets: sum(len(b) for b in buckets))
    generator.exchange_edges = lc.wrap(
        "exchange", generator.exchange_edges, count=_out_bytes,
        active="exchange")
    comm_cls = mpcomm.ProcessCommunicator
    comm_cls.recv = lc.wrap_when("exchange_wait", comm_cls.recv, "exchange")
    checkpoint.CheckpointStore.put = lc.wrap(
        "checkpoint_put", checkpoint.CheckpointStore.put)
    supervisor.spmd_run = traced_launcher(supervisor.spmd_run, lc, ranks)
    run_sup = supervisor.spmd_run_supervised

    def runner(*args, **kwargs):
        out = run_sup(*args, **kwargs)
        lc.mark("runner_end")
        return out

    supervisor.spmd_run_supervised = runner
    gen_dist = supervisor.generate_distributed

    def generate(*args, **kwargs):
        out = gen_dist(*args, **kwargs)
        lc.mark("reassembled")
        return out

    supervisor.generate_distributed = generate


def trace_skg(lc: LayerClock, ranks: list) -> None:
    """Wrap the layers ``generate_to_directory`` goes through."""
    from repro.distributed import outofcore
    from repro.skg import sample

    outofcore.partition_edges_2d = lc.wrap(
        "partition", outofcore.partition_edges_2d)
    outofcore.iter_kron_product = lc.wrap_iter(
        "enumerate", outofcore.iter_kron_product)
    sample.SKGAcceptor.filter_edges = lc.wrap(
        "accept", sample.SKGAcceptor.filter_edges,
        count=lambda _a, kept: len(kept))
    outofcore.spmd_run = traced_launcher(outofcore.spmd_run, lc, ranks)


def wire_layers(outputs) -> dict:
    """Varint codec cost on the blocks each rank received (off the raw path)."""
    from repro.distributed.wire import decode_edges, encode_edges

    enc, dec, raw, wire = [], [], 0, 0
    for out in outputs:
        t0 = clock()
        block = encode_edges(out.edges)
        t1 = clock()
        decoded = decode_edges(block)
        enc.append(t1 - t0)
        dec.append(clock() - t1)
        if len(decoded) != len(out.edges):
            raise RuntimeError("varint round trip lost edges")
        raw += out.edges.nbytes
        wire += block.nbytes
    return {
        "wire.encode_s": max(enc),
        "wire.decode_s": max(dec),
        "wire.varint_ratio": wire / raw if raw else 0.0,
    }


def call_exact(seed: int, scale: str, out: str, lc, ranks) -> tuple[float, int, dict]:
    from repro.distributed.supervisor import generate_distributed_supervised

    a, b = inputs.exact_factors(seed, scale)
    t0 = clock()
    el, outputs = generate_distributed_supervised(
        a, b, inputs.NRANKS, storage="source_block", backend="process",
        checkpoint_dir=out,
    )
    t1 = clock()
    layers = {}
    if lc is not None:
        layers = {
            "partition.s": lc.seconds.get("partition", 0.0),
            "generator.reassemble_s": lc.marks["reassembled"] - lc.marks["runner_end"],
            "supervisor.manifest_s": t1 - lc.marks["reassembled"],
            "shuffle.bytes_out": rank_count(ranks, "exchange"),
            **wire_layers(outputs),
        }
        for key, layer in (
            ("kronecker.enumerate", "enumerate"),
            ("shuffle.exchange", "exchange"),
            ("shuffle.exchange_wait", "exchange_wait"),
            ("checkpoint.put", "checkpoint_put"),
        ):
            layers[f"{key}_s"], layers[f"{key}_imbalance_s"] = critical_path(
                ranks, layer)
    return t1 - t0, len(el.edges), layers


def call_skg(seed: int, scale: str, out: str, lc, ranks) -> tuple[float, int, dict]:
    from repro.distributed.outofcore import generate_to_directory
    from repro.skg import skg_candidate_factors

    spec = inputs.skg_spec(seed, scale)
    a, b = skg_candidate_factors(spec.k)
    t0 = clock()
    manifest = generate_to_directory(
        a, b, out, inputs.NRANKS, scheme="2d", backend="process", skg=spec,
    )
    t1 = clock()
    layers = {}
    if lc is not None:
        for r in ranks:
            r["seconds"]["store"] = (
                r["end"] - r["start"]
                - r["seconds"].get("enumerate", 0.0)
                - r["seconds"].get("accept", 0.0)
            )
        candidates = rank_count(ranks, "enumerate")
        layers = {
            "partition.s": lc.seconds.get("partition", 0.0),
            "skg.acceptance_rate": (
                rank_count(ranks, "accept") / candidates if candidates else 0.0
            ),
        }
        for key, layer in (
            ("kronecker.enumerate", "enumerate"),
            ("skg.accept", "accept"),
            ("outofcore.store", "store"),
        ):
            layers[f"{key}_s"], layers[f"{key}_imbalance_s"] = critical_path(
                ranks, layer)
    return t1 - t0, manifest.edges_total, layers


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--kind", choices=("exact", "skg"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    inputs.use_checkout_src()

    lc, ranks, launch = None, [], None
    if args.trace:
        launch = launch_seconds()
        lc = LayerClock()
        (trace_exact if args.kind == "exact" else trace_skg)(lc, ranks)
    call = call_exact if args.kind == "exact" else call_skg
    wall, edges, layers = call(args.seed, args.scale, args.out, lc, ranks)
    if launch is not None:
        layers["launcher.launch_s"] = launch
    print(json.dumps({
        "wall_s": wall,
        "edges": edges,
        "parent_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rank_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
