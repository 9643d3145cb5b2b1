"""Smoke test of the benchmark harness at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit, on
every workload and in both kinds of run, and that a wrong frozen digest is
counted as failed items.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(capsys, workload, trace, **kwargs):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.05",
            "--trace", str(trace), "--size", "tiny"]
    result = run.main(argv, **kwargs)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == result
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(capsys, workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCH[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_digest_fails_every_item(capsys, workload):
    result = _run(capsys, workload, 0, expected="0" * 64)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
