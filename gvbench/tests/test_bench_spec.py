"""BENCHMARK.json against the contract and against what the code emits."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from gvbench import bench, harness, spans, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_name_and_unit_is_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(m["name"])
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))


def test_end_to_end_bounds():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_workloads_match_the_code():
    # raw-matrix is defined in the code but not gated (see gvbench/workloads.py)
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values() if w.name != "raw-matrix"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_per_layer_names_are_exactly_what_a_traced_run_produces():
    produced = set(spans.layer_metrics(spans.Recorder()))
    produced |= {"trace.pipeline_s", "trace.overhead_s", "mean_eer_pct", "train_frames_per_s",
                 "extract_frames_per_s", "verify_user_windows_per_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == produced


def test_end_to_end_names_are_produced_by_an_untraced_run(monkeypatch):
    it = harness.Iteration([harness.StepResult("extract", 2.0, 0, "", ""),
                            harness.StepResult("evaluate", 4.0, 0, "", "")],
                           extracted_frames=100, user_windows=40, auc=[0.9], eer=[0.1])
    run = bench.Run(None, workloads.WORKLOADS["raw-matrix"], 1, 1.0, Path("unused"))
    monkeypatch.setattr(run, "setup", lambda reps: [1.0, 2.0, 3.0])
    monkeypatch.setattr(run, "iterate", lambda: [(it, None)])
    values = run.e2e_metrics(import_s=0.5)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(values)
    assert values["setup_s"] == 2.5 and values["pipeline_s"] == 6.0
    assert values["train_frames_per_s"] == 0.0  # raw-matrix does not train
    assert values["extract_frames_per_s"] == 50.0
    assert values["verify_user_windows_per_s"] == 10.0
    assert values["mean_auc_pct"] == 90.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "gvbench", tmp_path / "gvbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "gvbench/run.py", "--workload", "fcn-cd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "gvbench"]
