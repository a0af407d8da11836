"""Smoke test of the benchmark itself, on tiny inputs.

Run from the root of the repository::

    python3 -m pytest kronbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Layers each workload must see doing work in a traced run.
BUSY_LAYERS = {
    "gen-exact": (
        "kronecker.enumerate_s", "shuffle.exchange_s", "shuffle.bytes_out",
        "wire.encode_s", "checkpoint.put_s", "checkpoint.bytes_written",
        "supervisor.manifest_s", "launcher.launch_s", "baseline.serial_s",
    ),
    "gen-skg": (
        "kronecker.enumerate_s", "skg.accept_s", "skg.acceptance_rate",
        "outofcore.store_s", "launcher.launch_s", "baseline.serial_s",
    ),
    "serve-mixed": (
        "protocol.parse_us", "protocol.render_us", "lazy.query_us",
        "analytics.cold_compute_ms", "cache.hit_rate", "loadgen.client_us",
    ),
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "kronbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(BUSY_LAYERS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    values = {k: v["value"] for k, v in doc["metrics"].items()}
    busy = BUSY_LAYERS[workload] if trace else list(values)
    assert all(values[k] > 0 for k in busy), values


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "kronbench", tmp_path / "kronbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "gen-exact", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
