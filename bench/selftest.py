"""Tests of the benchmark itself (not part of the library's test suite).

Run from the repository root:  python3 -m pytest -q bench/selftest.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.load_source_tree()

from tracer import COUNT_SUFFIXES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _flip_last_digit(text: str) -> str:
    match = list(re.finditer(r"\d", text))[-1]
    digit = "1" if match.group() != "1" else "2"
    return text[: match.start()] + digit + text[match.end():]


def _corrupt(workload, outcome):
    """Damage the op's output the way a broken writer or check would."""
    if workload.name == "verify_suite":
        outcome.result = outcome.result.replace('"passed": true', '"passed": false')
    elif workload.name == "bulk_export":
        path = workload.out_path
        path.write_text(_flip_last_digit(path.read_text(encoding="utf-8")), encoding="utf-8")
    else:
        path = workload.stdout_path
        path.write_text(_flip_last_digit(path.read_text(encoding="utf-8")), encoding="utf-8")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_counts_as_failed(name, tmp_path):
    workload = WORKLOADS[name](seed=3, workdir=tmp_path)
    workload.prepare()
    execute = workload.execute

    def corrupting_execute(op, tracer):
        outcome = execute(op, tracer)
        _corrupt(workload, outcome)
        return outcome

    workload.execute = corrupting_execute
    res = run.run_loop(workload, seconds=0.0)
    assert res.attempted == len(workload.deck())
    assert res.failed == res.attempted


def _traced_run(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first, second = _traced_run(name, seed=5), _traced_run(name, seed=5)
    counts = [m for m in first if m.rsplit(".", 1)[1] in COUNT_SUFFIXES]
    assert counts and any(first[m] > 0 for m in counts)
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_declares_every_computed_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from tracer import layer_metric_names

    per_layer = [m["name"] for m in spec["per_layer"]]
    expected = layer_metric_names() + ["trace.overhead_frac"] + [
        f"cli.import.{lib}_ms" for lib in ("numpy", "click", "dunklkg")
    ]
    assert per_layer == expected
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "throughput_ops_s", "latency_p50_ms", "latency_tail_ms",
        "cpu_ms_per_op", "peak_rss_mb",
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
