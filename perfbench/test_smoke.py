"""Smoke test of the benchmark on a tiny slice of each workload.

    python3 -m pytest perfbench -q
"""

import functools
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170, env=env)


@functools.lru_cache(maxsize=None)     # each (workload, trace) runs once
def _bench(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), tuple(lines[:-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    result, _ = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    defs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in defs}
    for m in defs:
        assert NAME.fullmatch(m["name"]), m["name"]
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digests_match_untraced(workload):
    # run.py compares the traced run's digests with the untraced run's
    # (and, for serve, with direct evaluation); print them to check here
    result, table = _bench(workload, 1)
    digest_lines = [ln for ln in table if ln.strip().startswith("digests")]
    assert digest_lines, table
    for line in digest_lines:
        digests = line.split(":", 1)[1].split()
        assert len(digests) >= 2 and len(set(digests)) == 1, line
    assert result["correct"] is True


def test_k1_layer_self_times_sum_to_traced_wall():
    result, _ = _bench("k1-timed", 1)
    vals = {k: v["value"] for k, v in result["metrics"].items()}
    total = sum(v for k, v in vals.items() if k.endswith(".self_s"))
    assert total == pytest.approx(vals["trace.wall_s"], rel=1e-3)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_capped_samples():
    env = dict(os.environ, REPRO_SAMPLES="2")
    proc = _run("--workload", WORKLOADS[0], "--trace", "0", env=env)
    assert proc.returncode != 0
    assert "REPRO_SAMPLES" in proc.stderr
