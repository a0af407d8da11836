"""Incremental engine tests: content-addressed reuse and invalidation."""

import json
import textwrap
from pathlib import Path

from repro.lint.cache import LintCache, content_key, schema_tag
from repro.lint.cli import main as lint_main
from repro.lint.engine import analyze_paths

BAD = textwrap.dedent(
    """
    def f(comm, x):
        if comm.rank == 0:
            comm.barrier()
        data = comm.alltoall(x)
        data[0] = 99
    """
)

CLEAN = "def g(comm):\n    comm.barrier()\n"


def _tree(tmp_path: Path) -> Path:
    src = tmp_path / "proj"
    src.mkdir()
    (src / "bad.py").write_text(BAD)
    (src / "clean.py").write_text(CLEAN)
    return src


class TestCacheReuse:
    def test_warm_run_reuses_everything(self, tmp_path):
        src = _tree(tmp_path)
        cache = tmp_path / "cache"
        cold, stats_cold = analyze_paths([src], cache_dir=cache)
        warm, stats_warm = analyze_paths([src], cache_dir=cache)
        assert stats_cold == {"files": 2, "reused": 0, "analyzed": 2, "cache": True}
        assert stats_warm == {"files": 2, "reused": 2, "analyzed": 0, "cache": True}
        assert [f.to_json() for f in warm] == [f.to_json() for f in cold]

    def test_only_changed_files_reanalyzed(self, tmp_path):
        src = _tree(tmp_path)
        cache = tmp_path / "cache"
        analyze_paths([src], cache_dir=cache)
        (src / "clean.py").write_text(CLEAN + "\n# touched\n")
        _findings, stats = analyze_paths([src], cache_dir=cache)
        assert stats["reused"] == 1
        assert stats["analyzed"] == 1

    def test_moved_file_hits_cache_with_remapped_path(self, tmp_path):
        src = _tree(tmp_path)
        cache = tmp_path / "cache"
        cold, _ = analyze_paths([src], cache_dir=cache)
        assert any(f.path.endswith("bad.py") for f in cold)
        (src / "bad.py").rename(src / "relocated.py")
        warm, stats = analyze_paths([src], cache_dir=cache)
        assert stats["reused"] == 2  # same content, new name: still a hit
        assert {f.rule for f in warm} == {f.rule for f in cold}
        assert all(f.path.endswith("relocated.py") for f in warm)

    def test_corrupt_entries_are_recomputed(self, tmp_path):
        src = _tree(tmp_path)
        cache = tmp_path / "cache"
        cold, _ = analyze_paths([src], cache_dir=cache)
        for entry in cache.rglob("*.json"):
            entry.write_text("{not json")
        again, stats = analyze_paths([src], cache_dir=cache)
        assert stats["reused"] == 0
        assert [f.to_json() for f in again] == [f.to_json() for f in cold]

    def test_different_select_does_not_share_entries(self, tmp_path):
        src = _tree(tmp_path)
        cache = tmp_path / "cache"
        analyze_paths([src], select=["dtype-overflow"], cache_dir=cache)
        findings, stats = analyze_paths(
            [src], select=["buffer-ownership"], cache_dir=cache
        )
        # A cached dtype-overflow run must not satisfy a
        # buffer-ownership run: the schema tag differs.
        assert stats["reused"] == 0
        assert {f.rule for f in findings} == {"buffer-ownership"}


class TestCrossFileInvalidation:
    """Program findings stay correct when only *one* side changed."""

    def test_fixing_the_helper_clears_the_callers_finding(self, tmp_path):
        src = tmp_path / "proj"
        src.mkdir()
        (src / "helper.py").write_text(
            "def sync(comm):\n    comm.barrier()\n"
        )
        (src / "caller.py").write_text(
            "from helper import sync\n\n"
            "def run(comm):\n"
            "    if comm.rank == 0:\n"
            "        sync(comm)\n"
        )
        cache = tmp_path / "cache"
        cold, _ = analyze_paths(
            [src], select=["protocol-divergence"], cache_dir=cache
        )
        assert [f.rule for f in cold] == ["protocol-divergence"]
        # Remove the collective from the helper; the caller is untouched
        # and served from cache, yet its finding must disappear.
        (src / "helper.py").write_text("def sync(comm):\n    return None\n")
        warm, stats = analyze_paths(
            [src], select=["protocol-divergence"], cache_dir=cache
        )
        assert stats["reused"] == 1
        assert warm == []


class TestCachePrimitives:
    def test_content_key_is_content_only(self):
        assert content_key(b"abc") == content_key(b"abc")
        assert content_key(b"abc") != content_key(b"abd")

    def test_schema_tag_folds_versions_and_rules(self):
        base = schema_tag(1, 1, ["a", "b"])
        assert schema_tag(1, 1, ["b", "a"]) == base  # order-insensitive
        assert schema_tag(2, 1, ["a", "b"]) != base
        assert schema_tag(1, 2, ["a", "b"]) != base
        assert schema_tag(1, 1, ["a"]) != base

    def test_get_rejects_key_mismatch(self, tmp_path):
        cache = LintCache(tmp_path, "tag")
        cache.put("k1", {"findings": []})
        entry = cache.get("k1")
        assert entry is not None and entry["key"] == "k1"
        # An entry lying about its key (e.g. a hand-edited file) is a miss.
        (tmp_path / "tag" / "k2.json").write_text(
            json.dumps({"key": "other", "findings": []})
        )
        assert cache.get("k2") is None


class TestCliCacheFlags:
    def test_stats_and_warm_run(self, tmp_path, capsys, monkeypatch):
        src = _tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert lint_main([str(src), "--stats"]) == 1
        assert "2 analyzed" in capsys.readouterr().err
        assert lint_main([str(src), "--stats"]) == 1
        assert "2 reused" in capsys.readouterr().err
        assert (tmp_path / ".repro-lint-cache").is_dir()

    def test_no_cache_creates_nothing(self, tmp_path, capsys, monkeypatch):
        src = _tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert lint_main([str(src), "--no-cache", "--stats"]) == 1
        assert "0 reused" in capsys.readouterr().err
        assert not (tmp_path / ".repro-lint-cache").exists()

    def test_sarif_bytes_identical_cold_vs_warm(self, tmp_path, capsys, monkeypatch):
        src = _tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert lint_main([str(src), "--sarif", "cold.sarif"]) == 1
        assert lint_main([str(src), "--sarif", "warm.sarif"]) == 1
        capsys.readouterr()
        cold = (tmp_path / "cold.sarif").read_bytes()
        warm = (tmp_path / "warm.sarif").read_bytes()
        assert cold == warm
        log = json.loads(cold)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert {r["ruleId"] for r in run["results"]} == {
            "collective-symmetry", "buffer-ownership",
        }
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "protocol-divergence" in rule_ids
