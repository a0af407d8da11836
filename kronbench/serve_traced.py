"""``repro-kron serve`` with its layers timed from outside.

Usage::

    python3 kronbench/serve_traced.py STATS_JSON [serve options...]

Wraps the public functions each request passes through -- request-body
parsing, the lazy Kronecker graph queries, analytics computation on a
cache miss, response rendering -- then runs the ``serve`` command
unchanged.  When the server shuts down, the per-layer totals and per-call
samples are written to ``STATS_JSON``.
"""

from __future__ import annotations

import json
import sys

import inputs
from layers import LayerClock


def main() -> int:
    stats_path, serve_args = sys.argv[1], sys.argv[2:]
    inputs.use_checkout_src()
    from repro.cli import main as cli_main
    from repro.kronecker.lazy import KroneckerGraph
    from repro.service import protocol, server

    lc = LayerClock()
    protocol.HTTPRequest.json = lc.wrap(
        "parse", protocol.HTTPRequest.json, samples=True)
    server.render_response = lc.wrap(
        "render", server.render_response, samples=True)
    server.compute_property = lc.wrap(
        "compute", server.compute_property, samples=True)
    for name in ("has_edges", "degree", "neighbors"):
        setattr(KroneckerGraph, name, lc.wrap("lazy", getattr(KroneckerGraph, name)))
    rc = cli_main(["serve", *serve_args])
    with open(stats_path, "w") as fh:
        json.dump(lc.snapshot(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
