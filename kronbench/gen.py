"""The generation workloads, ``gen-exact`` and ``gen-skg``.

Set-up (timed several times; the median is ``setup_s``) builds the
workload's inputs and the reference answer with the plain single-process
path: ``kron_product`` for ``gen-exact``, ``skg_sample_edges`` for
``gen-skg``.  Each timed call then runs in a fresh process
(``gen_call.py``) with a fresh output directory, and its result on disk
is checked against the reference outside the timed region.
"""

from __future__ import annotations

import json
import shutil
import statistics
from pathlib import Path

import numpy as np

import inputs
from layers import clock

SETUP_REPS = 3
#: Calls per run at least, however long they take: the median of three
#: keeps one slow call from moving the figures.
MIN_CALLS = 3
CALL_TIMEOUT_S = 150.0

#: Critical-path layers whose sum the untraced wall time is reconciled with.
CRITICAL = {
    "exact": (
        "partition.s", "launcher.launch_s", "kronecker.enumerate_s",
        "shuffle.exchange_s", "checkpoint.put_s", "generator.reassemble_s",
        "supervisor.manifest_s",
    ),
    "skg": (
        "partition.s", "launcher.launch_s", "kronecker.enumerate_s",
        "skg.accept_s", "outofcore.store_s",
    ),
}


def reference(kind: str, seed: int, scale: str) -> tuple[dict, float]:
    """Expected edge count and canonical digest, plus the serial time."""
    if kind == "exact":
        from repro.kronecker.product import kron_product

        a, b = inputs.exact_factors(seed, scale)
        t0 = clock()
        el = kron_product(a, b)
    else:
        from repro.skg.sample import skg_sample_edges

        spec = inputs.skg_spec(seed, scale)
        t0 = clock()
        el = skg_sample_edges(spec)
    serial = clock() - t0
    ref = {
        "edges": len(el.edges),
        "n": el.n,
        "digest": inputs.canonical_digest(el.edges, el.n),
    }
    return ref, serial


def check(kind: str, out: Path, ref: dict, edges: int) -> bool:
    """Does the call's result on disk match the reference?"""
    if edges != ref["edges"]:
        return False
    if kind == "exact":
        from repro.distributed.checkpoint import CheckpointStore

        manifests = CheckpointStore(out).manifests()
        return (
            len(manifests) == 1
            and manifests[0].union_digest == ref["digest"]
            and manifests[0].edges_total == ref["edges"]
        )
    blocks = [np.load(p)["edges"] for p in sorted(out.glob("shard_*.npz"))]
    stored = np.vstack(blocks) if blocks else np.empty((0, 2), np.int64)
    return (
        len(stored) == ref["edges"]
        and inputs.canonical_digest(stored, ref["n"]) == ref["digest"]
    )


def one_call(kind, seed, scale, out: Path, trace: bool) -> dict:
    argv = [
        str(inputs.BENCH_DIR / "gen_call.py"), "--kind", kind,
        "--seed", str(seed), "--scale", scale, "--out", str(out),
    ]
    if trace:
        argv.append("--trace")
    stdout = inputs.run_child(argv, CALL_TIMEOUT_S)
    return json.loads(stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str,
        work: Path, import_s: float) -> dict:
    kind = workload.removeprefix("gen-")
    builds, serial = [], []
    for _ in range(1 if trace else SETUP_REPS):
        t0 = clock()
        ref, serial_s = reference(kind, seed, scale)
        builds.append(clock() - t0)
        serial.append(serial_s)

    attempted = failed = 0
    calls = []

    def timed_call(index: int, traced: bool) -> dict | None:
        nonlocal attempted, failed
        out = work / f"call{index}"
        attempted += 1
        try:
            res = one_call(kind, seed, scale, out, traced)
            ok = check(kind, out, ref, res["edges"])
            if traced and kind == "exact":
                res["layers"]["checkpoint.bytes_written"] = sum(
                    p.stat().st_size for p in out.glob("*.npz"))
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            print(f"kronbench: call {index} failed: {exc}", flush=True)
            res, ok = None, False
        finally:
            shutil.rmtree(out, ignore_errors=True)
        failed += not ok
        return res if ok else None

    start = clock()
    while len(calls) < MIN_CALLS or clock() - start < seconds:
        res = timed_call(len(calls), False)
        calls.append(res)
        if res is None:
            break
    good = [c for c in calls if c is not None]
    walls = [c["wall_s"] for c in good] or [float("nan")]
    result = {
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "setup_s": import_s + statistics.median(builds),
            "edges_per_s": statistics.median(
                [c["edges"] / c["wall_s"] for c in good] or [0.0]),
            "latency_p50_ms": 1e3 * statistics.median(walls),
            # A run makes three to six calls: too few for any percentile
            # above the median to have samples beyond it, so the highest
            # percentile the sample supports is the median itself.
            "latency_tail_ms": 1e3 * statistics.median(walls),
            # The larger of the two peaks, not their sum: they fall at
            # different times, and the forked ranks share the parent's
            # pages, so a sum would count those twice.
            "peak_rss_mb": max(
                [max(c["parent_rss_kb"], c["rank_rss_kb"]) / 1024 for c in good]
                or [0.0]),
        },
        "layers": {},
    }
    if not trace or not good:
        return result
    traced = timed_call(len(calls), True)
    result["attempted"], result["failed"] = attempted, failed
    if traced is None:
        return result
    untraced = statistics.median(walls)
    layers = traced["layers"]
    layers["baseline.serial_s"] = statistics.median(serial)
    layers["trace_overhead_s"] = traced["wall_s"] - untraced
    layers["unattributed_s"] = untraced - sum(layers[k] for k in CRITICAL[kind])
    layers["rss.parent_mb"] = max(c["parent_rss_kb"] for c in good) / 1024
    layers["rss.rank_max_mb"] = max(c["rank_rss_kb"] for c in good) / 1024
    if kind == "exact":
        layers["skg.acceptance_rate"] = 1.0
    result["layers"] = layers
    return result
