"""Runs CLI steps in-process, times them, and checks what they wrote.

Each step calls ``gaitverify.cli.main`` with an argv list, exactly as the
console script would, with stdout/stderr captured. After an iteration the
outputs are checked outside the timed region: exit codes, SHA-256 digests
of the primary outputs against the run's first iteration (the CLI promises
byte-identical outputs for identical flags, seed and inputs), feature row
counts and width, the user count of every report, no skipped user, and a
``__summary__`` row that matches the per-user rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .spans import Recorder
from .workloads import Step, Workload


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class StepResult:
    command: str
    seconds: float
    exit_code: int
    stdout: str
    stderr: str


def run_step(cli, step: Step, recorder: Recorder | None = None) -> StepResult:
    """One CLI command; a crash counts as exit code -1 with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    index = recorder.begin(f"cli.{step.command}") if recorder is not None else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(step.argv))
    except Exception:  # the benchmark keeps running and counts the failure
        code = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    if index is not None:
        recorder.end(index)
    return StepResult(step.command, seconds, code, out.getvalue(), err.getvalue())


@dataclass
class Iteration:
    """One pass over the timed steps, with what its outputs' checks found."""

    results: list[StepResult]
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    train_frames: int = 0          # augmented training frames per epoch
    extracted_frames: int = 0
    user_windows: int = 0          # per-user report rows
    auc: list[float] = field(default_factory=list)   # __summary__ means, one per report
    eer: list[float] = field(default_factory=list)

    def seconds(self, command: str | None = None) -> float:
        return sum(r.seconds for r in self.results if command in (None, r.command))


def run_iteration(cli, steps: list[Step], recorder: Recorder | None = None) -> Iteration:
    results = []
    for step in steps:
        result = run_step(cli, step, recorder)
        results.append(result)
        if result.exit_code != 0:
            break  # later steps read this step's outputs
    return Iteration(results)


_TRAIN_FRAMES = re.compile(r"^training frames: (\d+)", re.M)


def _data_rows(path) -> tuple[int, int]:
    """(rows after the header, fields in the header) of a CSV."""
    with open(path) as fh:
        width = len(fh.readline().rstrip("\n").split(","))
        return sum(1 for _ in fh), width


def _check_report(path, expected_users: int, failures: list[str]) -> tuple[int, float, float]:
    """Per-user rows, summary mean AUC and mean EER of one report CSV."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "user_id,auc,eer" or not lines[-1].startswith("__summary__,"):
        failures.append(f"{path}: not a report CSV")
        return 0, 0.0, 0.0
    rows = [line.split(",") for line in lines[1:-1]]
    aucs = [float(r[1]) for r in rows]
    eers = [float(r[2]) for r in rows]
    _, auc_cell, eer_cell = lines[-1].split(",")
    mean_auc, mean_eer = float(auc_cell.split()[0]), float(eer_cell.split()[0])
    if len(rows) != expected_users:
        failures.append(f"{path}: {len(rows)} users, expected {expected_users}")
    if rows and (abs(mean_auc - sum(aucs) / len(aucs)) > 1e-8
                 or abs(mean_eer - sum(eers) / len(eers)) > 1e-8):
        failures.append(f"{path}: __summary__ does not match the per-user rows")
    if any(not 0.0 <= v <= 1.0 for v in aucs + eers):
        failures.append(f"{path}: AUC or EER outside [0, 1]")
    if rows and mean_auc <= 0.5:
        failures.append(f"{path}: mean AUC {mean_auc} is not above chance")
    return len(rows), mean_auc, mean_eer


def check_steps(it: Iteration, steps: list[Step], reference: dict[str, str] | None) -> bool:
    """Exit codes, skipped users and primary-output digests; False if a command failed.

    ``reference`` holds the digests of the run's first iteration.
    """
    failures = it.failures
    for step, result in zip(steps, it.results):
        if result.exit_code != 0:
            failures.append(f"{step.command} exited {result.exit_code}: "
                            f"{result.stderr.strip()[-500:]}")
    failures.extend(f"{s.command} not run" for s in steps[len(it.results):])
    if len(it.results) < len(steps) or any(r.exit_code for r in it.results):
        return False
    for step, result in zip(steps, it.results):
        failures.extend(f"{step.command}: {line}" for line in result.stderr.splitlines()
                        if line.startswith("warning:"))
        for path in step.outputs:
            it.digests[Path(path).name] = sha256(path)
    if reference is not None:
        failures.extend(f"{name}: digest differs from the run's first iteration"
                        for name, digest in it.digests.items() if reference.get(name) != digest)
    return True


def check_iteration(it: Iteration, workload: Workload, steps: list[Step],
                    reference: dict[str, str] | None) -> None:
    """Fill the iteration's counts and failures.

    An operation is a command or a per-user evaluation, so an iteration
    attempts len(steps) + users x windows x protocols operations.
    """
    it.attempted = len(steps) + workload.user_windows
    if not check_steps(it, steps, reference):
        # a failed command evaluates no user
        it.failures.extend(["user evaluation not run"] * workload.user_windows)
        return
    for step, result in zip(steps, it.results):
        if step.command == "train":
            match = _TRAIN_FRAMES.search(result.stdout)
            if match is None:
                it.failures.append("train: no 'training frames' line")
            else:
                it.train_frames = int(match.group(1))
        elif step.command == "extract":
            rows, width = _data_rows(step.outputs[0])
            it.extracted_frames = rows
            if rows != workload.expected_frames or width != 4 + workload.feature_dim:
                it.failures.append(f"extract: {rows} rows x {width} fields, expected "
                                   f"{workload.expected_frames} x {4 + workload.feature_dim}")
        elif step.command == "evaluate":
            for path in step.outputs:
                users, auc, eer = _check_report(path, workload.expected_users, it.failures)
                it.user_windows += users
                it.auc.append(auc)
                it.eer.append(eer)
