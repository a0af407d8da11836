"""End-to-end: ``repro-kron trace``, ``repro-kron chaos --json``, and the
``python -m repro.telemetry.validate`` checker, all through their real
entry points.
"""

import json

import pytest

from repro.cli import main
from repro.telemetry.export import validate_chrome_trace
from repro.telemetry.validate import main as validate_main


def run_trace(tmp_path, *extra):
    out = tmp_path / "trace.json"
    rc = main(["trace", "--out", str(out), *extra])
    metrics = tmp_path / "trace-metrics.json"
    return rc, out, metrics


class TestTraceCommand:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_default_workload_produces_valid_trace(
        self, tmp_path, capsys, backend
    ):
        rc, out, metrics = run_trace(
            tmp_path, "--ranks", "4", "--backend", backend
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "exact" in stdout and "MISMATCH" not in stdout

        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        lanes = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {f"rank {r}" for r in range(4)} <= lanes
        span_names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert {"generate", "route", "exchange", "checkpoint"} <= span_names

        summary = json.loads(metrics.read_text())
        # K4 (x) C5: 12 directed factor-A edges x 10 factor-B edges.
        assert summary["expected_edges"] == 120
        assert summary["edge_counts_exact"] is True
        counters = summary["aggregate"]["counters"]
        assert counters["edges.generated"] == 120
        assert counters["edges.stored"] == 120
        assert counters["comm.alltoall.calls"] == 4
        assert summary["nranks"] == 4
        # Per-rank edge counts sum to the aggregate exactly.
        per_rank = sum(
            r["counters"].get("edges.generated", 0)
            for r in summary["per_rank"].values()
        )
        assert per_rank == 120

    def test_checkpoint_resume_records_hits(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        rc1, _, metrics = run_trace(
            tmp_path, "--ranks", "4", "--checkpoint-dir", str(ckpt)
        )
        assert rc1 == 0
        fresh = json.loads(metrics.read_text())["aggregate"]["counters"]
        assert fresh["checkpoint.misses"] == 4
        assert "checkpoint.hits" not in fresh

        rc2, _, metrics = run_trace(
            tmp_path, "--ranks", "4", "--checkpoint-dir", str(ckpt)
        )
        assert rc2 == 0
        resumed = json.loads(metrics.read_text())["aggregate"]["counters"]
        assert resumed["checkpoint.hits"] == 4
        assert resumed["edges.restored"] == 120

    def test_metrics_out_override(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        metrics = tmp_path / "custom.json"
        rc = main([
            "trace", "--ranks", "2", "--out", str(out),
            "--metrics-out", str(metrics),
        ])
        assert rc == 0
        assert metrics.exists()


class TestChaosJson:
    def test_json_report_shape(self, tmp_path, capsys):
        rc = main([
            "chaos", "--ranks", "2", "--backends", "thread", "--json",
            "--checkpoint-root", str(tmp_path / "chk"),
        ])
        report = json.loads(capsys.readouterr().out)
        assert rc == (0 if report["all_recovered"] else 1)
        assert report["cells_total"] == len(report["cells"]) > 0
        cell = report["cells"][0]
        assert {
            "plan", "backend", "recovered", "identical",
            "ok", "attempts", "elapsed_s", "error",
        } <= set(cell)
        assert cell["elapsed_s"] >= 0.0


class TestValidateModule:
    def test_passes_on_real_trace(self, tmp_path, capsys):
        rc, out, _ = run_trace(tmp_path, "--ranks", "2")
        assert rc == 0
        capsys.readouterr()
        rc = validate_main([
            str(out),
            "--require-lanes", "2",
            "--require-span", "generate",
            "--require-span", "exchange",
        ])
        assert rc == 0
        assert "valid" in capsys.readouterr().out

    def test_fails_on_missing_lane(self, tmp_path, capsys):
        rc, out, _ = run_trace(tmp_path, "--ranks", "2")
        assert rc == 0
        capsys.readouterr()
        assert validate_main([str(out), "--require-lanes", "16"]) == 1
        assert "lanes" in capsys.readouterr().err

    def test_fails_on_garbage_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"oops": 1}]}')
        assert validate_main([str(bad)]) == 1
        assert capsys.readouterr().err
