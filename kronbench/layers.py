"""Per-layer timing from outside the program.

The traced runs replace public functions of the layers with wrappers that
time each call (and count the work it handled), then restore nothing:
every traced program runs in a process of its own.  Rank processes are
forked from the traced parent, so they inherit the wrappers; each rank
starts from a cleared :class:`LayerClock` and ships its totals back with
its result (:class:`TracedRank`).

Per-rank layers are reported as the critical path (the maximum over
ranks) and the imbalance (maximum minus minimum), never as a sum.
"""

from __future__ import annotations

import functools
import time

clock = time.perf_counter


class LayerClock:
    """Seconds, work counts and call samples per layer, in one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self.marks: dict[str, float] = {}
        self.active: set[str] = set()

    def add(self, name: str, seconds: float, count: int = 0) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + count

    def mark(self, name: str) -> None:
        """Record the current time under ``name`` (last call wins)."""
        self.marks[name] = clock()

    def wrap(self, name, fn, *, count=None, samples=False, active=None):
        """Time every call of ``fn`` under ``name``.

        ``count(args, result)`` gives the work one call handled.  With
        ``samples`` each call's duration is kept, for per-call medians.
        ``active`` names a flag that is set while the call runs, so a
        nested layer can count only the time spent inside this one.
        """

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if active is not None:
                self.active.add(active)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if active is not None:
                    self.active.discard(active)
            self.add(name, dt, count(args, result) if count else 0)
            if samples:
                self.samples.setdefault(name, []).append(dt)
            return result

        return timed

    def wrap_when(self, name, fn, flag: str):
        """Like :meth:`wrap`, but count only calls made while ``flag`` is set."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if flag not in self.active:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, clock() - t0)

        return timed

    def wrap_iter(self, name, fn, *, count=len):
        """Time each step of the generator ``fn`` returns."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    self.add(name, clock() - t0)
                    return
                self.add(name, clock() - t0, count(item))
                yield item

        return timed

    def snapshot(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "marks": dict(self.marks),
        }


class TracedRank:
    """Rank-program wrapper: clear the clock, run, return ``(out, layers)``."""

    def __init__(self, fn, layer_clock: LayerClock) -> None:
        self.fn = fn
        self.layer_clock = layer_clock

    def __call__(self, comm, *args):
        self.layer_clock.reset()
        t0 = clock()
        out = self.fn(comm, *args)
        snap = self.layer_clock.snapshot()
        snap["start"] = t0
        snap["end"] = clock()
        return out, snap


def traced_launcher(spmd_run, layer_clock: LayerClock, ranks: list):
    """Wrap an ``spmd_run``-compatible launcher to collect rank layers.

    Only the process backend is supported: with threads the ranks would
    share one clock.  Each launch appends its per-rank snapshots to
    ``ranks``.
    """

    @functools.wraps(spmd_run)
    def run(fn, nranks, *args, backend="thread", **kwargs):
        if backend != "process":
            raise ValueError("rank tracing needs the process backend")
        results = spmd_run(
            TracedRank(fn, layer_clock), nranks, *args, backend=backend,
            **kwargs,
        )
        ranks.extend(snap for _out, snap in results)
        return [out for out, _snap in results]

    return run


def critical_path(ranks: list[dict], layer: str) -> tuple[float, float]:
    """``(max, max - min)`` of one layer's seconds over ranks."""
    values = [r["seconds"].get(layer, 0.0) for r in ranks]
    if not values:
        return 0.0, 0.0
    return max(values), max(values) - min(values)


def rank_count(ranks: list[dict], layer: str) -> int:
    """Work count of one layer summed over ranks (a count, not a time)."""
    return sum(r["counts"].get(layer, 0) for r in ranks)
