"""Schema checks of BENCHMARK.json and layers.json, and a smoke run per workload."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH / "layers.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def smoke(workload, trace):
    out = run("--workload", workload, "--seed", "3", "--seconds", "0",
              "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("higher", "lower")
        assert UNIT.fullmatch(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.fullmatch(m["unit"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_map_covers_every_per_layer_metric():
    assert list(LAYERS["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for entry in LAYERS["per_layer"].values():
        for workload, metrics in entry["moves"].items():
            assert workload in WORKLOADS and set(metrics) <= e2e
    for workload, names in LAYERS["end_to_end"].items():
        assert workload in WORKLOADS and set(names) <= e2e


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_predictions(workload):
    result = smoke(workload, 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    value = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "extract":
        assert value["train_eval.extract_features.cache_hit_ratio.cold"] == 0.0
        assert value["train_eval.extract_features.cache_hit_ratio.warm"] == 1.0
        assert value["audio_io.resample.calls"] > 0
    else:
        assert value["audio_io.resample.calls"] == 0
    if workload == "train":
        assert value["train_eval.extract_features.cache_hit_ratio"] == 1.0
        assert value["nn.rmsprop.step_ms"] > 0
    if workload == "classify":
        assert 0 < value["features.frames_kept_ratio"] < 1
        assert value["nn.model.forward.b1_ms_p50"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("--workload", "extract", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert out.returncode != 0 and not out.stdout.strip()
