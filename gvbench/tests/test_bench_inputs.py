"""Seeded inputs and the output checks that feed ``failed``."""

import io
import contextlib

import pytest

from gvbench import harness, workloads


def synth_digests(tmp_path, name, seed):
    import gaitverify.cli as cli
    workload = workloads.WORKLOADS[name]
    tmp_path.mkdir(parents=True, exist_ok=True)
    digests = {}
    for step in workloads.synth_steps(workload, seed, tmp_path):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(step.argv)) == 0
        digests.update({p.rsplit("/", 1)[-1]: harness.sha256(p) for p in step.outputs})
    return digests


def test_same_seed_gives_identical_input_csvs(tmp_path):
    first = synth_digests(tmp_path / "a", "fcn-cd", seed=3)
    again = synth_digests(tmp_path / "b", "fcn-cd", seed=3)
    other = synth_digests(tmp_path / "c", "fcn-cd", seed=4)
    assert set(first) == {"train.csv", "eval.csv"}
    assert first == again
    assert all(first[k] != other[k] for k in first)


def test_populations_never_share_a_seed():
    for w in workloads.WORKLOADS.values():
        slots = [p.seed_slot for p in w.populations]
        assert 0 not in slots and len(set(slots)) == len(slots)  # slot 0 seeds training
    assert workloads.derive_seed(1, 1) != workloads.derive_seed(1, 2)


def write_report(path, rows, summary):
    path.write_text("user_id,auc,eer\n" + "".join(f"{u},{a},{e}\n" for u, a, e in rows)
                    + f"__summary__,{summary[0]} (0),{summary[1]} (0)\n")


@pytest.fixture
def evaluate_only(tmp_path):
    """A one-step workload whose report files the test writes by hand."""
    w = workloads.WORKLOADS["raw-matrix"]
    w = workloads.Workload(w.name, w.why, w.populations, None, "eval", ("cd",))
    out = tmp_path / "report_cd.csv"
    step = workloads.Step("evaluate", ("evaluate",), workloads.report_paths(str(out)))
    users = [f"s{i:02d}" for i in range(1, w.expected_users + 1)]
    for path in step.outputs:
        write_report(tmp_path / path.rsplit("/", 1)[-1],
                     [(u, 0.75, 0.25) for u in users], (0.75, 0.25))
    return w, step, tmp_path


def result(stderr=""):
    return harness.StepResult("evaluate", 1.0, 0, "", stderr)


def test_clean_iteration_passes(evaluate_only):
    w, step, _ = evaluate_only
    it = harness.Iteration([result()])
    harness.check_iteration(it, w, [step], None)
    assert it.failures == []
    assert it.attempted == 1 + w.user_windows
    assert it.user_windows == w.expected_users * 5
    assert it.auc == [0.75] * 5


def test_checks_count_failures(evaluate_only):
    w, step, tmp = evaluate_only
    reference = {name: "0" * 64 for name in (p.rsplit("/", 1)[-1] for p in step.outputs)}
    write_report(tmp / "report_cd.w3.csv", [("s01", 0.75, 0.25)], (0.5, 0.25))
    it = harness.Iteration([result("warning: user s07: fewer than 2 frames, skipped\n")])
    harness.check_iteration(it, w, [step], reference)
    text = "\n".join(it.failures)
    assert "skipped" in text
    assert f"1 users, expected {w.expected_users}" in text
    assert "__summary__ does not match" in text
    assert text.count("digest differs") == 5


def test_failed_command_fails_every_user_evaluation(evaluate_only):
    w, step, _ = evaluate_only
    it = harness.Iteration([harness.StepResult("evaluate", 1.0, 2, "", "error: boom")])
    harness.check_iteration(it, w, [step], None)
    assert len(it.failures) == it.attempted
