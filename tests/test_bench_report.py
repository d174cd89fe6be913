"""Regression tests for ``tools/bench_report.py``.

The PR 10 bugfix sweep: a malformed ``BENCH_*.json`` must fail the run
with a clear message naming the file (exit 1), never a raw traceback
and never a silent skip that drops the row from the table.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "bench_report", REPO_ROOT / "tools" / "bench_report.py"
)
bench_report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_report)


@pytest.fixture
def root(tmp_path):
    return tmp_path


def _write(root, name, payload):
    (root / name).write_text(
        payload if isinstance(payload, str) else json.dumps(payload)
    )


def test_generic_file_renders_and_check_passes(root, capsys):
    _write(root, "BENCH_future.json", {"speedup": 2.0, "bit_identical": True})
    assert bench_report.main(["--root", str(root)]) == 0
    text = (root / "BENCHMARKS.md").read_text()
    assert "BENCH_future.json" in text
    assert bench_report.main(["--root", str(root), "--check"]) == 0


def test_stale_document_fails_check(root, capsys):
    _write(root, "BENCH_future.json", {"speedup": 2.0})
    assert bench_report.main(["--root", str(root)]) == 0
    _write(root, "BENCH_future.json", {"speedup": 3.0, "runs": 5})
    assert bench_report.main(["--root", str(root), "--check"]) == 1
    assert "stale" in capsys.readouterr().err


def test_invalid_json_exits_nonzero_with_message(root, capsys):
    _write(root, "BENCH_broken.json", "{not json")
    assert bench_report.main(["--root", str(root)]) == 1
    err = capsys.readouterr().err
    assert "BENCH_broken.json" in err
    assert "not valid JSON" in err
    assert not (root / "BENCHMARKS.md").exists()


def test_non_object_top_level_exits_nonzero(root, capsys):
    _write(root, "BENCH_list.json", [1, 2, 3])
    assert bench_report.main(["--root", str(root)]) == 1
    err = capsys.readouterr().err
    assert "BENCH_list.json" in err
    assert "JSON object" in err


def test_extractor_mismatch_exits_nonzero_not_traceback(root, capsys):
    # A known trajectory name whose payload lacks the shape its bespoke
    # extractor needs: batch_curve entries without batch_size used to
    # escape as a raw KeyError traceback.
    _write(
        root,
        "BENCH_INCREMENTAL.json",
        {"batch_curve": [{"speedup": 0.5}], "bit_identical": True},
    )
    assert bench_report.main(["--root", str(root), "--check"]) == 1
    err = capsys.readouterr().err
    assert "BENCH_INCREMENTAL.json" in err
    assert "extractor" in err


def test_malformed_check_fails_before_staleness(root, capsys):
    _write(root, "BENCH_broken.json", "[1,")
    assert bench_report.main(["--root", str(root), "--check"]) == 1
    assert "BENCH_broken.json" in capsys.readouterr().err


def test_repo_tracked_files_still_render():
    text = bench_report.render()
    assert text.startswith("# Benchmark trajectory")
    assert "BENCH_sampling.json" in text
