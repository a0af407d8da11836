"""The serving workload, ``serve-mixed``.

A fresh ``repro-kron serve`` subprocess holds ``gnutella_like() (x)
gnutella_like(n=600, seed=5)`` (n = 672,184).  A closed loop over
``CONNECTIONS`` keep-alive connections (``repro.service.loadgen``'s
``HTTPClient``) sends a seeded request sequence in loadgen's default mix:
mostly 256-pair edge batches, some degree and neighbor batches, and a
quarter analytics.  One analytics request in seven is cold (closeness at
a vertex not asked before) and the rest warm (a repeated property), so
cold computations on the server's single event loop delay the cheap
requests queued behind them.

Set-up (timed several times; the median is ``setup_s``) is: build the
factors, spawn the server, wait for its ``REPRO_SERVE`` line, register
the graph.  Every answer of a seeded sample is checked afterwards against
a local ``KroneckerGraph`` and ``compute_property``.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from layers import clock

SETUP_REPS = 3
CONNECTIONS = 2
TENANT = "bench"

#: Request mix: edge batches, degree batches, neighbor batches, analytics.
#: The edge, degree and analytics shares are ``repro.service.loadgen``'s
#: defaults (``analytics_fraction`` 0.25, then 5% degree batches, the rest
#: edge batches).  loadgen sends no neighbor batches; this benchmark moves
#: 5% of the edge share to them, the same share as degree batches.
MIX = (0.65, 0.05, 0.05, 0.25)
KINDS = ("edges", "degrees", "neighbors", "analytics")
#: loadgen's analytics rotation.  Its closeness entry is asked at a vertex
#: not asked before, so one analytics request in seven is cold (a cache
#: miss computed on the server's event loop); the other six repeat.
ROTATION = (
    ("summary", {}),
    ("triangles", {"convention": "no_loops"}),
    ("triangles", {"convention": "full_loops"}),
    ("degree_histogram", {}),
    ("eccentricity_histogram", {}),
    ("closeness", None),
    ("community", {"set_a": [0, 1], "set_b": [0, 1, 2]}),
)
EDGE_BATCH = 256
DEGREE_BATCH = 64
NEIGHBOR_BATCH = 4
NEIGHBOR_LIMIT = 64
POOL = 256
PLAN_LENGTH = 1 << 18
#: One cheap answer in this many is checked (every analytics answer is).
CHECK_EVERY = 16
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0

#: The client runs on the first CPU it may use and the server on the
#: second, so the scheduler never stacks both on one CPU for a while.  On
#: a two-vCPU virtual machine this cut the run-to-run spread (IQR over
#: median, five seeds) of the cheap-request p50 from 0.22 to 0.13.
#: ``None`` on a host with a single CPU.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPU, SERVER_CPU = (_CPUS[0], _CPUS[1]) if len(_CPUS) > 1 else (None, None)


def _pin_server() -> None:
    if SERVER_CPU is not None:
        os.sched_setaffinity(0, {SERVER_CPU})


class Plan:
    """The seeded request sequence; request ``i`` is the same on every pass."""

    def __init__(self, seed: int, a, b, base: str) -> None:
        self.base = base
        rng = np.random.default_rng([seed, 11])
        n = a.n * b.n
        self.kinds = rng.choice(len(KINDS), size=PLAN_LENGTH, p=MIX)
        self.rotation = rng.integers(len(ROTATION), size=PLAN_LENGTH)
        self.fresh_p = rng.integers(n, size=PLAN_LENGTH)
        half = EDGE_BATCH // 2
        self.edge_pool = []
        for _ in range(POOL):
            # Half the pairs are product edges, so both answers get checked.
            ea = a.edges[rng.integers(a.m_directed, size=half)]
            eb = b.edges[rng.integers(b.m_directed, size=half)]
            real = np.column_stack([ea[:, 0] * b.n + eb[:, 0], ea[:, 1] * b.n + eb[:, 1]])
            pairs = np.vstack([real, rng.integers(n, size=(half, 2))])
            self.edge_pool.append(pairs[rng.permutation(EDGE_BATCH)].tolist())
        self.degree_pool = [
            rng.integers(n, size=DEGREE_BATCH).tolist() for _ in range(POOL)]
        self.neighbor_pool = [
            rng.integers(n, size=NEIGHBOR_BATCH).tolist() for _ in range(POOL)]

    def request(self, i: int) -> tuple[str, str, dict]:
        """``(kind, path, payload)`` of request ``i``."""
        j = i % PLAN_LENGTH
        kind = KINDS[self.kinds[j]]
        if kind == "edges":
            return kind, self.base + "edges", {"pairs": self.edge_pool[i % POOL]}
        if kind == "degrees":
            return kind, self.base + "degrees", {"vertices": self.degree_pool[i % POOL]}
        if kind == "neighbors":
            return kind, self.base + "neighbors", {
                "vertices": self.neighbor_pool[i % POOL], "limit": NEIGHBOR_LIMIT}
        prop, params = ROTATION[self.rotation[j]]
        if params is None:
            params = {"p": int(self.fresh_p[j])}
        return kind, f"{self.base}analytics/{prop}", {"params": params}


@dataclass
class Pass:
    """What one closed-loop pass measured."""

    requests: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    errors: int = 0
    #: Latency of each cheap (edge, degree, neighbor) request.
    cheap_s: list[float] = field(default_factory=list)
    edge_pairs: int = 0
    analytics_s: list[float] = field(default_factory=list)
    checks: list[tuple[int, object]] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


class Server:
    """One ``repro-kron serve`` subprocess (optionally the traced entry)."""

    def __init__(self, work: Path, tag: str, traced: bool) -> None:
        self.stats_path = work / f"{tag}.stats.json"
        self.rusage = work / f"{tag}.rusage.json"
        if traced:
            argv = [str(inputs.BENCH_DIR / "serve_traced.py"), str(self.stats_path)]
        else:
            argv = ["-m", "repro.cli", "serve"]
        with open(work / f"{tag}.stderr", "w") as err:
            self.proc = inputs.spawn(
                [*argv, "--port", "0"], self.rusage,
                stdout=subprocess.PIPE, stderr=err, preexec_fn=_pin_server,
            )

    def wait_ready(self) -> tuple[str, int]:
        from repro.service.loadgen import parse_serve_line

        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("REPRO_SERVE "):
                    return parse_serve_line(line)
        raise RuntimeError("server did not print its REPRO_SERVE line")

    def stop(self, timeout: float = 0.0) -> None:
        """Wait up to ``timeout`` for the server to exit, then kill it."""
        inputs.stop(self.proc, timeout)
        self.proc.stdout.close()

    @property
    def peak_rss_kb(self) -> int:
        return inputs.peak_rss_kb(self.rusage)


async def _register(host: str, port: int, a, b) -> str:
    from repro.service.loadgen import HTTPClient

    client = await HTTPClient(host, port).connect()
    try:
        status, doc = await client.request("POST", f"/v1/tenants/{TENANT}/graphs", {
            "a": {"edges": a.edges.tolist(), "n": a.n},
            "b": {"edges": b.edges.tolist(), "n": b.n},
        })
    finally:
        await client.aclose()
    if status != 200:
        raise RuntimeError(f"graph registration failed: {status} {doc}")
    return doc["graph"]


async def _finish(host: str, port: int, server: Server) -> dict:
    """Read ``/v1/metrics``, shut the server down and reap it."""
    from repro.service.loadgen import HTTPClient

    client = await HTTPClient(host, port).connect()
    try:
        _, metrics = await client.request("GET", "/v1/metrics")
        await client.request("POST", "/v1/admin/shutdown")
    finally:
        await client.aclose()
    server.stop(EXIT_TIMEOUT_S)
    return metrics


async def _start(work: Path, tag: str, traced: bool, a, b):
    server = Server(work, tag, traced)
    try:
        host, port = server.wait_ready()
        graph = await _register(host, port, a, b)
    except BaseException:
        server.stop()
        raise
    return server, host, port, graph


async def _drive(host, port, plan: Plan, *, seconds=None, count=None) -> Pass:
    """Closed loop: each connection sends its next request on the last reply."""
    from repro.service.loadgen import HTTPClient

    out = Pass()
    deadline = None if seconds is None else clock() + seconds

    async def connection() -> None:
        client = await HTTPClient(host, port).connect()
        try:
            while True:
                if deadline is not None and clock() >= deadline:
                    return
                if count is not None and out.requests >= count:
                    return
                i = out.requests
                out.requests += 1
                kind, path, payload = plan.request(i)
                t0 = clock()
                status, doc = await client.request("POST", path, payload)
                dt = clock() - t0
                if status != 200:
                    out.errors += 1
                    continue
                if kind == "analytics":
                    out.analytics_s.append(dt)
                    out.checks.append((i, doc))
                    continue
                out.cheap_s.append(dt)
                if kind == "edges":
                    out.edge_pairs += EDGE_BATCH
                if i % CHECK_EVERY == 0:
                    out.checks.append((i, doc))
        finally:
            await client.aclose()

    cpu0, t0 = time.process_time(), clock()
    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    out.wall_s, out.cpu_s = clock() - t0, time.process_time() - cpu0
    return out


def _mismatches(plan: Plan, checks, a, b) -> int:
    """Sampled answers that differ from a local ``KroneckerGraph`` / ground truth."""
    from repro.kronecker.lazy import KroneckerGraph
    from repro.service.analytics import compute_property

    g = KroneckerGraph(a, b)
    bad = 0
    for i, doc in checks:
        kind, path, payload = plan.request(i)
        if kind == "edges":
            pairs = np.asarray(payload["pairs"])
            ok = doc["exists"] == g.has_edges(pairs[:, 0], pairs[:, 1]).tolist()
        elif kind == "degrees":
            ok = doc["degrees"] == g.degree(np.asarray(payload["vertices"])).tolist()
        elif kind == "neighbors":
            want = []
            for p in payload["vertices"]:
                nbrs = g.neighbors(p)
                want.append({
                    "p": p,
                    "neighbors": nbrs[:NEIGHBOR_LIMIT].tolist(),
                    "degree_total": int(len(nbrs)),
                    "truncated": len(nbrs) > NEIGHBOR_LIMIT,
                })
            ok = doc["neighborhoods"] == want
        else:
            prop = path.rsplit("/", 1)[1]
            value = compute_property(prop, g, payload["params"])
            ok = doc["value"] == json.loads(json.dumps(value))
        bad += not ok
    return bad


async def _run(seed, seconds, trace, scale, work, import_s) -> dict:
    if CLIENT_CPU is not None:
        os.sched_setaffinity(0, {CLIENT_CPU})
    setups, servers = [], []
    try:
        for rep in range(1 if trace else SETUP_REPS):
            t0 = clock()
            a, b = inputs.serve_factors(scale)
            server, host, port, graph = await _start(work, f"setup{rep}", False, a, b)
            servers.append(server)
            setups.append(clock() - t0)
        for stale in servers[:-1]:
            stale.stop()
        plan = Plan(seed, a, b, f"/v1/tenants/{TENANT}/graphs/{graph}/")
        main = await _drive(host, port, plan, seconds=seconds)
        main.metrics = await _finish(host, port, servers[-1])
        main_rss_kb = servers[-1].peak_rss_kb
        passes = [main]
        if trace:
            server, host, port, _graph = await _start(work, "traced", True, a, b)
            servers.append(server)
            traced = await _drive(host, port, plan, count=main.requests)
            traced.metrics = await _finish(host, port, server)
            passes.append(traced)
    finally:
        for server in servers:
            server.stop()

    failed = sum(p.errors + _mismatches(plan, p.checks, a, b) for p in passes)
    analytics_p50_ms = 1e3 * statistics.median(main.analytics_s or [np.nan])
    result = {
        "attempted": sum(p.requests for p in passes),
        "failed": failed,
        "e2e": {
            "setup_s": import_s + statistics.median(setups),
            # Over every cheap request of the window, and every pair
            # answered over the window's wall time.
            "edges_per_s": main.edge_pairs / main.wall_s,
            "latency_p50_ms": 1e3 * float(np.percentile(main.cheap_s, 50)),
            "latency_tail_ms": 1e3 * float(np.percentile(main.cheap_s, 99)),
            "peak_rss_mb": main_rss_kb / 1024,
        },
        "layers": {},
    }
    if trace:
        result["layers"] = _layers(main, traced, servers[-1].stats_path, analytics_p50_ms)
    return result


def _layers(main: Pass, traced: Pass, stats_path: Path, analytics_p50_ms) -> dict:
    with open(stats_path) as fh:
        stats = json.load(fh)
    seconds, samples = stats["seconds"], stats["samples"]
    cheap = len(traced.cheap_s)
    cache = traced.metrics["cache"]
    return {
        "protocol.parse_us": 1e6 * statistics.median(samples["parse"]),
        "protocol.render_us": 1e6 * statistics.median(samples["render"]),
        "lazy.query_us": 1e6 * seconds.get("lazy", 0.0) / max(cheap, 1),
        "analytics.cold_compute_ms": 1e3 * statistics.median(samples.get("compute") or [0.0]),
        "service.compute_share": seconds.get("compute", 0.0) / traced.wall_s,
        "service.analytics_p50_ms": analytics_p50_ms,
        "cache.hit_rate": cache["hit_rate"],
        "cache.singleflights": cache["singleflights"],
        "loadgen.client_us": 1e6 * main.cpu_s / main.requests,
        "trace_overhead_s": traced.wall_s - main.wall_s,
        "unattributed_s": main.wall_s - sum(
            seconds.get(k, 0.0) for k in ("parse", "lazy", "compute", "render")),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str,
        work: Path, import_s: float) -> dict:
    return asyncio.run(_run(seed, seconds, trace, scale, work, import_s))
