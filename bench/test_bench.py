"""Smoke test of the benchmark at its smallest size.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py

It runs every workload for one pass over its pool, untraced and traced,
checks that each metric named in BENCHMARK.json is printed, and checks
that every correctness gate rejects an optimum planted 1/4 off.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (needs src/ on the path)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUARTER = Fraction(1, 4)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_prints_every_metric(trace):
    child = run_bench("--seed", "3", "--seconds", "0.01", "--trace", trace)
    assert child.returncode == 0, child.stdout + child.stderr
    results = [json.loads(line) for line in child.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        for metric in wanted:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert child.stdout.count("fail_rate 0 ") == len(results)
        assert all(m["value"] > 0 for r in results
                   for m in r["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = run_bench("--workload", "coupled_flow", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert child.returncode != 0
    assert not any(line.startswith("{") for line in child.stdout.splitlines())


def first_optimum(workload):
    for case in workload.pool:
        record = workload.collect(case, workload.op(case))
        if record[0] == 0 if isinstance(record, tuple) else record.optimal:
            return case, record
    raise AssertionError("no optimal case in the pool")


def planted(record):
    if isinstance(record, tuple):
        code, text = record
        lines = []
        for line in text.splitlines(keepends=True):
            if line.startswith("value: "):
                value = Fraction(line.split(":", 1)[1].strip().strip("'\""))
                line = f"value: '{value + QUARTER}'\n"
            lines.append(line)
        return code, "".join(lines)
    return dataclasses.replace(record, value=record.value + QUARTER)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_rejects_a_planted_wrong_value(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, tmp_path)
    case, record = first_optimum(workload)
    workload.check(case, record)
    with pytest.raises(checks.GateError):
        workload.check(case, planted(record))
