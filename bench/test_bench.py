"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TOY = {
    "market": {"students": 40, "schools": 4, "types": 3, "capacity": 8},
    "audit": {"count": 3, "students": 4, "schools": 2, "types": 3},
    "stability": {"markets": 2, "students": 10, "schools": 3, "types": 3, "capacity": 2},
}
COUNTS = (
    "engine.cop_calls",
    "engine.choose_calls",
    "choice.reference_calls",
    "verification.blocking_candidates",
)


@pytest.fixture(scope="module")
def rm():
    return run.load_package()


def toy_run(rm, tmp_path, name, trace=False, tamper=None, seed=1):
    return run.run_workload(
        rm, name, seed, 0, trace, size=TOY[name], tamper=tamper, work_root=tmp_path
    )


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(TOY)
    assert set(TOY) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(TOY))
def test_every_metric_is_emitted_with_its_unit(rm, tmp_path, name, trace):
    result, record = toy_run(rm, tmp_path, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"}
        assert isinstance(value["value"], (int, float))
    assert record["error_rate"] == 0
    if trace:
        assert record["counts_repeat"] is True
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in expected)
        assert record["wall"]["throughput"] > 0 and record["wall"]["setup_s"] > 0


def test_calibration_slices_are_taken_once_and_the_timer_is_restored():
    handler = signal.getsignal(signal.SIGALRM)
    calibrator = calibrate.Calibrator()
    with calibrator.measure() as outer:
        with calibrator.measure() as inner:
            sum(i * i for i in range(200_000))
    assert inner.slices >= calibrate.MIN_SLICES
    assert outer.slices >= inner.slices and outer.seconds >= inner.seconds > 0
    assert outer.slices == calibrator.slices
    assert outer.reference_seconds == pytest.approx(outer.seconds / outer.slowdown)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler

    with calibrate.Calibrator(enabled=False).measure() as wall:
        pass
    assert wall.slices == 0 and wall.slowdown == 1.0


def drop_first_contract(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc["contracts"] = doc["contracts"][1:]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("name", ["market", "stability"])
def test_a_tampered_allocation_is_a_failed_operation(rm, tmp_path, name):
    result, record = toy_run(rm, tmp_path, name, tamper=drop_first_contract)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert record["error_rate"] > 0


def test_one_seed_repeats_its_digests_and_counts(rm, tmp_path):
    runs = [toy_run(rm, tmp_path, "stability", trace=True) for _ in range(2)]
    (first, first_record), (second, second_record) = runs
    for key in ("inputs_sha256", "reports_sha256"):
        assert first_record[key] == second_record[key]
    for count in COUNTS:
        assert first["metrics"][count] == second["metrics"][count]
    assert first["metrics"]["verification.blocking_candidates"]["value"] > 0
    other_seed = toy_run(rm, tmp_path, "stability", seed=2)[1]
    assert other_seed["inputs_sha256"] != first_record["inputs_sha256"]


def test_without_the_source_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    command = [sys.executable, *SPEC["command"][1:]]
    args = ["--workload", "market", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        command + args, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
