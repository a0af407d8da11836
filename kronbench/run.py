"""kronbench: the repository benchmark, end to end and per layer.

Usage (from the root of a checkout)::

    python3 kronbench/run.py --workload gen-exact|gen-skg|serve-mixed \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` adds a traced pass and prints the per-layer metrics (see
``BENCHMARK.json`` for both lists and ``kronbench/README.md`` for what
each one means).  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is nonzero when any correctness check failed.  ``--scale tiny``
shrinks every input for the benchmark's own smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time

T_START = time.perf_counter()

import inputs  # noqa: E402

WORKLOADS = ("gen-exact", "gen-skg", "serve-mixed")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    inputs.use_checkout_src()
    with open(inputs.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload == "serve-mixed":
        import serve as workload

        import repro.graph.datasets  # noqa: F401
        import repro.service.analytics  # noqa: F401
        import repro.service.loadgen  # noqa: F401
    else:
        import gen as workload

        import repro.distributed.supervisor  # noqa: F401
        import repro.skg  # noqa: F401
    import_s = time.perf_counter() - T_START

    work = inputs.ROOT / ".kronbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        res = workload.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.scale, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass

    if args.trace:
        # A layer the workload does not pass through reports 0.
        values = {m["name"]: res["layers"].get(m["name"], 0.0) for m in spec["per_layer"]}
        wanted = spec["per_layer"]
    else:
        values, wanted = res["e2e"], spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    correct = res["failed"] == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
