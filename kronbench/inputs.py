"""Seeded inputs and process plumbing shared by every kronbench module.

Every program under test is imported from ``src/`` of the checkout the
benchmark runs in (the current working directory), never from an
installed copy, so the numbers always describe the tree being measured.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: World size of every generation run: one rank per core of a two-core host.
NRANKS = 2

#: Factor sizes per scale.  ``full`` is the benchmark proper; ``tiny``
#: exists for the benchmark's own smoke test.
EXACT_ER = {"full": (200, 0.1), "tiny": (24, 0.3)}
SKG_K = {"full": 13, "tiny": 6}
SERVE_FACTORS = {"full": ((1200, 20190814), (600, 5)), "tiny": ((80, 20190814), (50, 5))}


def use_checkout_src() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; fail if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"kronbench: no src/repro under {ROOT}; run from the root of a "
            f"checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # A fixed string-hash seed keeps dict and set layouts, and so their
    # speed, the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], rusage: Path | None = None, **popen) -> subprocess.Popen:
    """Start ``python3 ARGV`` through ``spawn.py``, in a session of its own.

    ``spawn.py`` writes the child's peak RSS to ``rusage``, if given, when
    it exits (:func:`peak_rss_kb`); :func:`stop` kills the whole group.
    """
    return subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "spawn.py"), str(rusage or "-"),
         sys.executable, *argv],
        cwd=ROOT, env=child_env(), start_new_session=True, text=True,
        **popen,
    )


def stop(proc: subprocess.Popen, timeout: float = 0.0) -> None:
    """Wait up to ``timeout`` for ``proc``, then kill its process group."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def peak_rss_kb(rusage: Path) -> int:
    with open(rusage) as fh:
        return json.load(fh)["maxrss_kb"]


def run_child(argv: list[str], timeout: float) -> str:
    """Run ``python3 ARGV`` to completion; return its stdout.

    The child and anything it forked are killed when it overruns
    ``timeout``; a nonzero exit raises ``RuntimeError``.
    """
    proc = spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        proc.communicate()
        raise RuntimeError(f"{argv[0]} overran {timeout:g}s") from None
    if proc.returncode != 0:
        raise RuntimeError(
            f"{argv[0]} exited {proc.returncode}: {err.strip()[-2000:]}"
        )
    return out


def _relabel(el, seed: int, salt: int):
    """The same graph under a seeded vertex permutation (seed 0: identity)."""
    from repro.graph.edgelist import EdgeList

    if seed == 0:
        return el
    perm = np.random.default_rng([seed, salt]).permutation(el.n)
    return EdgeList(perm[el.edges], el.n)


def exact_factors(seed: int, scale: str):
    """``gen-exact`` factors: ER(200, 0.1) with seeds 1001 and 1002.

    The benchmark seed relabels the vertices, which changes every edge id,
    digest and rank split but keeps the edge count, so runs with
    different seeds do the same amount of work.
    """
    from repro.graph.generators import erdos_renyi

    n, p = EXACT_ER[scale]
    return (
        _relabel(erdos_renyi(n, p, seed=1001), seed, 1),
        _relabel(erdos_renyi(n, p, seed=1002), seed, 2),
    )


def skg_spec(seed: int, scale: str):
    """``gen-skg`` spec: the polblogs seed matrix at k = 13, skg_seed 7 + seed."""
    from repro.skg import SKGSpec

    return SKGSpec.from_library("polblogs", k=SKG_K[scale], skg_seed=7 + seed)


def serve_factors(scale: str):
    """``serve-mixed`` factors: ``gnutella_like() (x) gnutella_like(600, seed=5)``."""
    from repro.graph.datasets import gnutella_like

    (na, sa), (nb, sb) = SERVE_FACTORS[scale]
    return gnutella_like(n=na, seed=sa), gnutella_like(n=nb, seed=sb)


def canonical_digest(edges: np.ndarray, n: int) -> int:
    """``edges_digest`` of the rows in lexicographic order.

    Sorting one linear key is the same order as the supervisor's two-key
    lexsort and several times cheaper, which keeps set-up short.
    """
    from repro.distributed.checkpoint import edges_digest

    keys = edges[:, 0] * np.int64(n) + edges[:, 1]
    keys.sort()
    return edges_digest(np.column_stack([keys // n, keys % n]))
