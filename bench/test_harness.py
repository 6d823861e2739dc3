"""Smoke check of the benchmark harness at toy sizes.

    python3 -m pytest bench/test_harness.py -q

Runs every workload's code path on a 10-actor flock, n = 20 spaces and a
12-vertex graph, untraced and traced. Asserts that every metric named in
BENCHMARK.json is printed with its unit, and that a deliberately corrupted
output, or a value that disagrees with the reference, is counted as a
failed op.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import thclust  # noqa: E402
import thclust.cli  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def toy(name: str, tmp_path: Path, trace: bool = False, reference=None) -> dict:
    return run.measure(name, seed=3, seconds=0.0, trace=trace, size="toy",
                       workdir=tmp_path / "work", reference=reference)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(name, trace, tmp_path):
    record = toy(name, tmp_path, trace=trace)
    line = run.result_line(record, SPEC)
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    source = record["layers"] if trace else record["e2e"]
    for m in wanted:
        assert m["name"] in source, m["name"]
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert not (tmp_path / "work").exists()


def _merge_first_blocks(original):
    def corrupted(ultrametric, r):
        blocks = original(ultrametric, r)
        return [sorted(blocks[0] + blocks[1])] + blocks[2:] if len(blocks) > 1 else blocks
    return corrupted


def _tampered_solution(original):
    def corrupted(sampling, scheme="fkw", workers=1):
        sol = original(sampling, scheme=scheme, workers=workers)
        local = dataclasses.replace(sol.local, chi=sol.local.chi + 1.0)
        return dataclasses.replace(sol, local=local)
    return corrupted


CORRUPTIONS = {
    "flock-label": (thclust, "solve_labeled", _tampered_solution),
    "fit-large": (thclust, "cut_at_height", _merge_first_blocks),
    "cli-session": (thclust.cli, "cut_at_height", _merge_first_blocks),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_counts_as_failure(name, tmp_path, monkeypatch):
    owner, attr, corrupt = CORRUPTIONS[name]
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    record = toy(name, tmp_path)
    assert record["failed"] >= 1
    assert record["e2e"]["fail_ratio"] == record["failed"] / record["attempted"] > 0
    assert run.result_line(record, SPEC)["correct"] is False


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_mismatch_counts_as_failure(name, tmp_path):
    values = toy(name, tmp_path)["values"]
    assert toy(name, tmp_path, reference=values)["failed"] == 0
    key = sorted(values)[0]
    wrong = dict(values)
    wrong[key] = values[key] + 1 if isinstance(values[key], (int, float)) else "0" * 16
    assert toy(name, tmp_path, reference=wrong)["failed"] >= 1
