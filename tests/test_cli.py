"""End-to-end CLI runs: exit codes, byte-identical outputs, manifests, located errors."""

import csv
import functools
import random
import struct
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gaitverify
from gaitverify import cli, models, ocsvm
from gaitverify.cli import main
from gaitverify.data.container import load_model, save_model
from gaitverify.signal import MAX_SAMPLES

WINDOWS = range(1, 6)


@pytest.fixture(scope="module")
def features(tmp_path_factory):
    """Raw features of 3 synthetic subjects, 2 sessions of 2 recordings each."""
    root = tmp_path_factory.mktemp("cli")
    data, out = root / "gait.csv", root / "features.csv"
    assert main(["synth", "--subjects", "3", "--seconds", "12", "--recordings", "2",
                 "--seed", "3", "--out", str(data)]) == 0
    assert main(["extract", "--raw", "--data", str(data), "--out", str(out)]) == 0
    return out


def evaluate(features, out, window, *extra):
    return main(["evaluate", "--features", str(features), "--window", window,
                 "--out", str(out), *extra])


def outputs(out):
    """Bytes of the per-window reports and the summary of one evaluate run."""
    paths = [out.with_name(f"{out.stem}.w{w}{out.suffix}") for w in WINDOWS]
    paths.append(out.with_name(out.name + ".summary.txt"))
    return {p.name: p.read_bytes() for p in paths}


def manifest(out):
    return json.loads(out.with_name(out.name + ".manifest.json").read_text())


@pytest.mark.parametrize("protocol", ["sd1", "cd"])
def test_evaluate_is_reproducible_and_one_pass_matches_single_windows(
        features, tmp_path, protocol):
    out = tmp_path / "report.csv"
    assert evaluate(features, out, "1..5", "--protocol", protocol) == 0
    first, first_manifest = outputs(out), manifest(out)
    # header, 3 users and the summary row in every window's report
    assert all(v.count(b"\n") == 5 for k, v in first.items() if k.endswith(".csv"))
    assert evaluate(features, out, "1..5", "--protocol", protocol) == 0
    assert outputs(out) == first
    second_manifest = manifest(out)
    for m in (first_manifest, second_manifest):
        del m["duration_seconds"], m["created_utc"]
    assert first_manifest == second_manifest

    for w in WINDOWS:
        single = tmp_path / f"single{w}.csv"
        assert evaluate(features, single, str(w), "--protocol", protocol) == 0
        assert single.read_bytes() == first[f"report.w{w}.csv"], f"window {w}"


def test_report_quotes_a_user_id_with_a_comma(tmp_path):
    data, feats, out = tmp_path / "gait.csv", tmp_path / "features.csv", tmp_path / "r.csv"
    assert main(["synth", "--subjects", "3", "--seconds", "12", "--recordings", "2",
                 "--seed", "3", "--out", str(data)]) == 0
    lines = data.read_text().splitlines(keepends=True)
    data.write_text("".join(lines[:1] + ['"Smith, J"' + line[3:] if line.startswith("s02,")
                                         else line for line in lines[1:]]))
    assert main(["extract", "--raw", "--data", str(data), "--out", str(feats)]) == 0
    assert evaluate(feats, out, "1", "--protocol", "cd") == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [3] * 5
    assert [row[0] for row in rows[1:-1]] == ["s01", "Smith, J", "s03"]


def test_duplicate_windows_exit_one(features, tmp_path, capsys):
    out = tmp_path / "dup.csv"
    assert evaluate(features, out, "1,1", "--protocol", "sd1") == 1
    assert capsys.readouterr().err == (
        "error: argument --window: expected distinct windows, got '1,1'\n")
    assert not out.exists()


@pytest.mark.parametrize("command, line, key", [
    ("synth", "seed = abc", "seed"),
    ("synth", "sessions = 3", "sessions"),
    ("evaluate", "window = 9", "window"),
    ("evaluate", "gamma = xyz", "gamma"),
])
def test_bad_config_value_exits_one_with_location(features, tmp_path, capsys,
                                                  command, line, key):
    config = tmp_path / "run.cfg"
    config.write_text(f"# comment\n\n{line}\n")
    required = {"synth": ["--subjects", "2", "--seconds", "3"],
                "evaluate": ["--features", str(features), "--protocol", "sd1"]}[command]
    out = tmp_path / "out.csv"
    assert main([command, *required, "--config", str(config), "--out", str(out)]) == 1
    assert f"error: {config}:3: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_explicit_flag_beats_config(features, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("window = 9\n")
    out = tmp_path / "report.csv"
    assert evaluate(features, out, "2", "--protocol", "sd1", "--config", str(config)) == 0
    assert out.exists()


def test_extract_with_invalid_utf8_container_exits_one(features, tmp_path, capsys):
    encoder = models.strip_classifier(models.FCNClassifier(3, seed=0))
    path = tmp_path / "bad.gvf"
    save_model(path, *models.to_container(encoder))
    raw = path.read_bytes()
    path.write_bytes(raw[:16] + b"\xff" + raw[17:])
    data = features.with_name("gait.csv")
    assert main(["extract", "--model", str(path), "--data", str(data),
                 "--out", str(tmp_path / "f.csv")]) == 1
    assert f"error: {path}: string at byte 12 is not valid UTF-8" in capsys.readouterr().err


def three_block_container():
    fcn = models.FCNClassifier(3, seed=0)
    fcn.body.forward(np.random.default_rng(0).standard_normal((4, 128, 3)), train=True)
    return models.to_container(models.strip_classifier(fcn), {"mode": "e2e"})


def modified(container, tensors=(), **metadata):
    """A copy of the (metadata, arrays) ``container`` with tensors replaced, added or
    (given as None) removed, and metadata changed."""
    arrays = {**container[1], **dict(tensors)}
    return ({**container[0], **metadata},
            {name: a for name, a in arrays.items() if a is not None})


def assert_extract_fails_naming(path, features, capsys, message):
    """extract --model ``path`` exits 1 with ``error: path: message`` alone, writing nothing."""
    out = path.with_name("f.csv")
    assert main(["extract", "--model", str(path), "--data", str(features.with_name("gait.csv")),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {message}\n"
    assert captured.out == ""
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


@pytest.mark.parametrize("tensors, metadata, message", [
    ({"block1.bn.gamma": np.ones(1)}, {},
     "container tensor 'block1.bn.gamma' has shape (1,), expected (128,)"),
    ({"block2.bn.running_mean": np.zeros(1)}, {},
     "container tensor 'block2.bn.running_mean' has shape (1,), expected (256,)"),
    ({"block2.conv.w": np.zeros((5, 64, 256))}, {},
     "container tensor 'block2.conv.w' has shape (5, 64, 256), expected (kernel, 128, filters) "
     "with kernel and filters above 0"),
    ({"head.w": np.zeros((128, 3))}, {},
     "container tensor 'head.w' is not part of a 3-block encoder"),
    # without its weight block3 is no block: its other tensors are extra
    ({"block3.conv.w": None}, {},
     "container tensor 'block3.conv.b' is not part of a 2-block encoder"),
    ({}, {"arch": "autoencoder"},
     "container metadata 'arch' is 'autoencoder', expected 'fcn-encoder'"),
    ({"block2.bn.running_var": np.r_[np.ones(255), -1.0]}, {},
     "container tensor 'block2.bn.running_var' holds a negative variance"),
], ids=["gamma-shape", "running-mean-shape", "conv-shape", "extra-tensor", "dropped-block",
        "arch", "negative-variance"])
def test_extract_with_malformed_container_exits_one_naming_it(features, tmp_path, capsys,
                                                             tensors, metadata, message):
    path = tmp_path / "bad.gvf"
    save_model(path, *modified(three_block_container(), tensors, **metadata))
    assert_extract_fails_naming(path, features, capsys, message)


@pytest.mark.parametrize("tensors, message", [
    (lambda arrays: dict.fromkeys(arrays), "container lacks tensor 'block1.conv.w'"),
    (lambda arrays: {"block1.conv.w": None}, "container lacks tensor 'block1.conv.w'"),
    (lambda arrays: {"block1.conv.w": arrays["block1.conv.w"].reshape(8, 384)},
     "container tensor 'block1.conv.w' has shape (8, 384), expected (kernel, 3, filters) "
     "with kernel and filters above 0"),
    (lambda arrays: {"block1.conv.w": np.zeros((8, 3, 0))},
     "container tensor 'block1.conv.w' has shape (8, 3, 0), expected (kernel, 3, filters) "
     "with kernel and filters above 0"),
    # block2 built as (1, 4000, 4000) would be 122 MiB float64 from a 64 KiB container
    (lambda arrays: {"block1.conv.w": np.zeros((1, 3, 4000), np.float32),
                     "block2.conv.w": np.zeros((1, 1, 4000), np.float32)},
     "container tensor 'block2.conv.w' has shape (1, 1, 4000), expected (kernel, 4000, "
     "filters) with kernel and filters above 0"),
    (lambda arrays: {name: None for name in arrays if name.startswith("block2.")},
     "container tensor 'block3.conv.w' is not part of a 1-block encoder"),
], ids=["no-tensors", "no-block1", "2d-conv", "zero-length-axis", "in-channels", "gap"])
def test_extract_takes_the_blocks_from_the_convolution_weights(features, tmp_path, capsys,
                                                               tensors, message):
    container = three_block_container()
    path = tmp_path / "bad.gvf"
    save_model(path, *modified(container, tensors(container[1])))
    assert_extract_fails_naming(path, features, capsys, message)


def test_extract_reads_a_container_that_states_its_architecture_in_metadata(features, tmp_path):
    # the metadata keys a container held before the tensor shapes alone set the
    # architecture: they are ignored, and the features are the same bytes
    metadata, arrays = three_block_container()
    old = {"arch": metadata["arch"], "filters": "128,256,128", "kernels": "8,5,3",
           "feature_dim": "128", **metadata, "batches_tracked": "18"}
    data = features.with_name("gait.csv")
    out = {}
    for name, meta in [("new", metadata), ("old", old)]:
        save_model(tmp_path / f"{name}.gvf", meta, arrays)
        assert main(["extract", "--model", str(tmp_path / f"{name}.gvf"), "--data", str(data),
                     "--out", str(tmp_path / f"{name}.csv")]) == 0
        out[name] = (tmp_path / f"{name}.csv").read_bytes()
    assert (tmp_path / "old.gvf").stat().st_size > (tmp_path / "new.gvf").stat().st_size
    assert out["old"] == out["new"]


def test_extract_with_overflowing_weights_exits_one_writing_nothing(features, tmp_path, capsys):
    # finite float32 weights whose products overflow: the features would be nan,
    # and no numpy warning may reach stderr (pytest turns one into an error)
    path = tmp_path / "bad.gvf"
    huge = {"block1.conv.w": np.full((8, 3, 128), 1e37)}
    save_model(path, *modified(three_block_container(), huge))
    assert_extract_fails_naming(path, features, capsys, "the encoder's features are not finite "
                                                        "(its weights overflow float32)")


def corrupted_container(tmp_path, edit):
    """Path of a saved three-block container whose bytes ``edit`` has rewritten."""
    path = tmp_path / "bad.gvf"
    save_model(path, *three_block_container())
    path.write_bytes(edit(path.read_bytes()))
    return path


@pytest.mark.parametrize("edit, message", [
    # the last payload float is the last entry of block3.bn.running_var
    (lambda raw: raw[:-4] + np.float32(np.nan).tobytes(),
     "tensor 'block3.bn.running_var' holds non-finite values"),
    (lambda raw: raw[:-4] + np.float32(-np.inf).tobytes(),
     "tensor 'block3.bn.running_var' holds non-finite values"),
    # the second metadata key renamed to the first's name, both 4 bytes long
    (lambda raw: raw.replace(b"\x04\x00\x00\x00mode", b"\x04\x00\x00\x00arch", 1),
     "duplicate metadata key 'arch'"),
], ids=["nan-payload", "inf-payload", "repeated-metadata-key"])
def test_extract_with_corrupted_container_exits_one_writing_nothing(features, tmp_path, capsys,
                                                                   edit, message):
    assert_extract_fails_naming(corrupted_container(tmp_path, edit), features, capsys, message)


def test_misspelled_boolean_in_config_exits_one_with_location(features, tmp_path, capsys):
    config, out = tmp_path / "run.cfg", tmp_path / "f.csv"
    data = str(features.with_name("gait.csv"))
    config.write_text("# raw features\nraw = ture\n")
    assert main(["extract", "--data", data, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {config}:2: raw: 'ture' is not a boolean\n"
    assert not out.exists()
    for word in ("On", "YES", "1", "true"):
        config.write_text(f"raw = {word}\n")
        assert main(["extract", "--data", data, "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == features.read_bytes(), word
    for word in ("off", "No", "0", "FALSE"):
        config.write_text(f"raw = {word}\n")
        assert main(["extract", "--data", data, "--config", str(config),
                     "--out", str(tmp_path / "g.csv")]) == 1
        assert "--model is required unless --raw is given" in capsys.readouterr().err, word


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_non_finite_gamma_exits_one(features, tmp_path, capsys, gamma):
    out = tmp_path / "report.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(features, out, "1", "--protocol", "sd1", "--gamma", gamma) == 1
    assert capsys.readouterr().err == (
        f"error: argument --gamma: expected 'auto' or a positive finite number, got '{gamma}'\n")
    assert not out.exists()


def test_required_option_from_config(features, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("protocol = sd1\n")
    out, flag_out = tmp_path / "report.csv", tmp_path / "flag.csv"
    assert main(["evaluate", "--features", str(features), "--config", str(config),
                 "--out", str(out)]) == 0
    assert evaluate(features, flag_out, "1", "--protocol", "sd1") == 0
    assert out.read_bytes() == flag_out.read_bytes()


def test_required_option_missing_everywhere_exits_one(features, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("window = 2\n")
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--features", str(features), "--config", str(config),
                 "--out", str(out)]) == 1
    assert "error: the following arguments are required: --protocol" in capsys.readouterr().err
    assert not out.exists()
    assert main(["evaluate", "--features", str(features), "--out", str(out)]) == 1
    assert "error: the following arguments are required: --protocol" in capsys.readouterr().err
    assert not out.exists()


def test_explicit_required_flag_beats_config(features, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("protocol = cd\n")
    out, flag_out = tmp_path / "report.csv", tmp_path / "flag.csv"
    assert evaluate(features, out, "1", "--protocol", "sd1", "--config", str(config)) == 0
    assert evaluate(features, flag_out, "1", "--protocol", "sd1") == 0
    assert out.read_bytes() == flag_out.read_bytes()
    summary = out.with_name(out.name + ".summary.txt").read_text()
    assert "same_day_s1" in summary and "cross_day" not in summary



@pytest.mark.parametrize("flag", [["--proto", "cd"], ["--protocol=cd"], ["--pro=cd"]])
def test_explicit_flag_beats_config_in_every_spelling(features, tmp_path, flag):
    config = tmp_path / "c.cfg"
    config.write_text("protocol = sd1\n")
    out = tmp_path / "r.csv"
    assert evaluate(features, out, "1", *flag, "--config", str(config)) == 0
    summary = out.with_name(out.name + ".summary.txt").read_text()
    assert "cross_day" in summary and "same_day_s1" not in summary


@pytest.mark.parametrize("key", ["protocl", "windw", "config", "help"])
def test_unknown_config_key_exits_one_at_its_line(features, tmp_path, capsys, key):
    config = tmp_path / "c.cfg"
    config.write_text(f"{key} = sd1\n")
    out = tmp_path / "r.csv"
    assert evaluate(features, out, "1", "--protocol", "sd1", "--config", str(config)) == 1
    assert capsys.readouterr().err == f"error: {config}:1: unknown option {key!r}\n"
    assert not out.exists()


def test_config_key_of_another_command_is_allowed(tmp_path):
    # one shared file: synth ignores evaluate's protocol and reads its own seed
    config = tmp_path / "shared.cfg"
    config.write_text("protocol = sd1\nseed = 4\n")
    ours, flag = tmp_path / "ours.csv", tmp_path / "flag.csv"
    synth = ["synth", "--subjects", "2", "--seconds", "3"]
    assert main([*synth, "--config", str(config), "--out", str(ours)]) == 0
    assert main([*synth, "--seed", "4", "--out", str(flag)]) == 0
    assert ours.read_bytes() == flag.read_bytes()

def test_repeated_config_key_exits_one_at_its_second_line(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text("seed = 1\n# a comment\nseed = 2\n")
    out = tmp_path / "gait.csv"
    assert main(["synth", "--subjects", "2", "--seconds", "3", "--config", str(config),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {config}:3: 'seed' is already set at line 1\n"
    assert not out.exists()


def test_config_keys_in_either_spelling_match_their_flags(features, tmp_path):
    # dashes and underscores, a value holding '=' and a negative number
    config = tmp_path / "c.cfg"

    def run(argv, out):
        """Bytes of the primary output and its summary, if any, and the config digest."""
        assert main([*argv, "--out", str(out)]) == 0
        summary = out.with_name(out.name + ".summary.txt")
        return (out.read_bytes(), summary.exists() and summary.read_bytes(),
                manifest(out)["config_digest"])

    evaluate_argv = ["evaluate", "--features", str(features), "--protocol", "sd1"]
    config.write_text("label_features = -1\nlabel-augment = a=b\n")
    ours = run([*evaluate_argv, "--config", str(config)], tmp_path / "r.csv")
    assert ours == run([*evaluate_argv, "--label-features", "-1", "--label-augment", "a=b"],
                       tmp_path / "r.csv")
    assert ours[1].decode().splitlines()[1].split()[:2] == ["-1", "a=b"]

    train_argv = ["train", "--mode", "ae", "--epochs", "1",
                  "--data", str(features.with_name("gait.csv"))]
    config.write_text("batch-size = 8\n")
    ours = run([*train_argv, "--config", str(config)], tmp_path / "m.gvf")
    assert ours == run([*train_argv, "--batch-size", "8"], tmp_path / "m.gvf")
    assert ours[0] != run(train_argv, tmp_path / "m.gvf")[0]


def test_help_marks_options_required_as_a_flag_or_in_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    note = "required, as a flag or in --config"
    for option in ("--features FEATURES features CSV;", "--protocol {sd1,sd2,cd}",
                   "--out OUT output per-user report CSV;"):
        assert f"{option} {note}" in text
    assert text.count(note) == 3


@pytest.mark.parametrize("command", [
    ["synth", "--subjects", "2", "--seconds", "3", "--out", "OUT"],
    ["train", "--mode", "ae", "--epochs", "1", "--data", "GAIT", "--out", "OUT"],
    ["gradcheck"],
], ids=["synth", "train", "gradcheck"])
def test_negative_seed_exits_one_as_a_flag_and_in_config(features, tmp_path, capsys, command):
    paths = {"GAIT": str(features.with_name("gait.csv")), "OUT": str(tmp_path / "out")}
    argv = [paths.get(arg, arg) for arg in command]
    message = "argument --seed: expected a non-negative integer, got '-1'"
    assert main([*argv, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    config = tmp_path / "c.cfg"
    config.write_text("seed = -1\n")
    assert main([*argv, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {config}:1: seed: {message}\n"
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("seconds", ["nan", "inf", "0.001"])
def test_synth_with_no_sample_per_recording_exits_one(tmp_path, capsys, seconds):
    out = tmp_path / "gait.csv"
    assert main(["synth", "--subjects", "2", "--seconds", seconds, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: argument --seconds: expected a duration of 1 to {MAX_SAMPLES} samples "
        f"at 100 Hz, got '{seconds}'\n")
    assert list(tmp_path.iterdir()) == []


SYNTH = ["synth", "--subjects", "2", "--seconds", "3", "--out", "OUT"]
TRAIN = ["train", "--mode", "ae", "--data", "GAIT", "--out", "OUT"]
EVALUATE = ["evaluate", "--features", "FEATURES", "--protocol", "sd1", "--out", "OUT"]


# 1e300 s is more samples than any array can hold: rejected before numpy is asked
OUT_OF_RANGE = {
    "--subjects": (SYNTH, "an integer >= 1", ["0"]),
    "--recordings": (SYNTH, "an integer >= 1", ["0"]),
    "--seconds": (SYNTH, f"a duration of 1 to {MAX_SAMPLES} samples at 100 Hz", ["1e300"]),
    "--drift": (SYNTH, "a number in [0, 1]", ["1.5", "-0.1"]),
    "--epochs": (TRAIN, "an integer >= 1", ["0"]),
    "--batch-size": (TRAIN, "an integer >= 1", ["0"]),
    "--nu": (EVALUATE, "a number in (0, 1]", ["0", "nan"]),
    "--gamma": (EVALUATE, "'auto' or a positive finite number", ["-1", "0", "nan", "1e400"]),
    "--window": (EVALUATE, "distinct windows", ["1,1", "2,3,2"]),
}


@pytest.mark.parametrize("flag, value", [
    pytest.param(flag, value, id=f"{flag[2:]}={value}")
    for flag, (_, _, values) in OUT_OF_RANGE.items() for value in values])
def test_out_of_range_value_exits_one_naming_its_flag_or_config_line(
        features, tmp_path, capsys, flag, value):
    command, expected, _ = OUT_OF_RANGE[flag]
    paths = {"GAIT": str(features.with_name("gait.csv")), "FEATURES": str(features),
             "OUT": str(tmp_path / "out")}
    argv = [paths.get(arg, arg) for arg in command]
    if flag in argv:  # a required option: the config value must be the only one
        del argv[argv.index(flag):argv.index(flag) + 2]
    message = f"argument {flag}: expected {expected}, got '{value}'"
    assert main([*argv, flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    config = tmp_path / "c.cfg"
    config.write_text(f"{flag[2:]} = {value}\n")
    assert main([*argv, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {config}:1: {flag[2:].replace('-', '_')}: {message}\n"
    assert list(tmp_path.iterdir()) == [config]


def test_window_range_is_checked_before_it_is_built(features, tmp_path, capsys, monkeypatch):
    built = []

    def bounded_range(*args):
        built.append(len(range(*args)))
        assert built[-1] <= 5, "a window range was built before its bounds were checked"
        return range(*args)

    monkeypatch.setattr(cli, "range", bounded_range, raising=False)
    out = tmp_path / "r.csv"
    assert evaluate(features, out, "1..1000000000000", "--protocol", "sd1") == 1
    assert capsys.readouterr().err == "error: argument --window: windows must lie in 1..5\n"
    assert built == [] and not out.exists()
    assert evaluate(features, out, "2..3", "--protocol", "sd1") == 0
    assert built == [2]


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 728. TiB for an array"),
     "Unable to allocate 728. TiB for an array"),
    (MemoryError(), "out of memory"),
])
def test_memory_error_exits_two_without_a_traceback(tmp_path, capsys, monkeypatch,
                                                     error, message):
    def no_memory(rec):
        raise error

    monkeypatch.setattr("gaitverify.signal.resample_linear", no_memory)
    data = canonical_csv(tmp_path / "gait.csv", recording_rows("r1", 200))
    out = tmp_path / "f.csv"
    assert main(["extract", "--raw", "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_solver_that_does_not_converge_exits_two(features, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("gaitverify.evaluate.ocsvm.train_ocsvm",
                        functools.partial(ocsvm.train_ocsvm, max_iter=1))
    out = tmp_path / "report.csv"
    assert evaluate(features, out, "1", "--protocol", "sd1") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: one-class SVM did not converge in 1 iterations")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


# seeds 1, 2, 4, 6 and 8 can fail the check (ROADMAP item 2)
@pytest.mark.parametrize("seed", [0, 3, 5, 7, 9])
def test_gradcheck_passes(capsys, seed):
    assert main(["gradcheck", "--seed", str(seed)]) == 0
    assert "gradient check passed" in capsys.readouterr().out


def test_gradcheck_with_corrupted_gradient_exits_two(capsys, monkeypatch):
    # negative control: a 1% error in one analytic gradient must fail the check
    original = models.Autoencoder.loss_and_backward

    def corrupted(self, *args, **kwargs):
        loss = original(self, *args, **kwargs)
        for p in self.parameters():
            if p.name == "dec.out.w":
                p.grad *= 1.01
        return loss

    monkeypatch.setattr(models.Autoencoder, "loss_and_backward", corrupted)
    assert main(["gradcheck"]) == 2
    assert "FAILED" in capsys.readouterr().out


def train_extract_evaluate(root):
    """synth -> train (e2e cshift, ae rnd) -> extract --model -> evaluate, in root.

    Returns the bytes of every primary output and the run manifests.
    """
    data = root / "gait.csv"
    assert main(["synth", "--subjects", "3", "--seconds", "8", "--seed", "4",
                 "--out", str(data)]) == 0
    outputs, manifests = {}, {}
    for mode, augment in (("e2e", "cshift"), ("ae", "rnd")):
        model, feats, report = (root / f"{mode}.gvf", root / f"{mode}.csv",
                                root / f"{mode}_report.csv")
        assert main(["train", "--mode", mode, "--augment", augment, "--epochs", "1",
                     "--seed", "5", "--data", str(data), "--out", str(model)]) == 0
        assert main(["extract", "--model", str(model), "--data", str(data),
                     "--out", str(feats)]) == 0
        assert main(["evaluate", "--features", str(feats), "--protocol", "cd",
                     "--window", "1..2", "--out", str(report)]) == 0
        for path in (model, root / f"{mode}.gvf.history.csv", feats,
                     root / f"{mode}_report.w1.csv", root / f"{mode}_report.w2.csv",
                     root / f"{mode}_report.csv.summary.txt"):
            outputs[path.name] = path.read_bytes()
        for path in (model, feats, report):
            m = json.loads(path.with_name(path.name + ".manifest.json").read_text())
            del m["duration_seconds"], m["created_utc"]
            manifests[path.name] = m
    return outputs, manifests


def test_train_extract_evaluate_is_reproducible(tmp_path, capsys):
    first = train_extract_evaluate(tmp_path)
    out = capsys.readouterr().out
    assert "training frames: 44 (augmented from 22), validation frames: 14" in out
    assert out.count("trained ") == 2
    assert train_extract_evaluate(tmp_path) == first
    assert capsys.readouterr().out == out
    outputs, _ = first
    assert outputs["e2e.gvf.history.csv"].startswith(b"epoch,train_loss,val_loss,lr\n1,")
    assert outputs["e2e.csv"].count(b"\n") == outputs["ae.csv"].count(b"\n") == 1 + 36


def test_same_training_in_two_directories_gives_identical_containers(tmp_path):
    synth = ["synth", "--subjects", "3", "--seconds", "6", "--seed", "2"]
    containers = []
    for name in ("a", "bb"):
        root = tmp_path / name
        root.mkdir()
        assert main([*synth, "--out", str(root / "gait.csv")]) == 0
        assert main(["train", "--mode", "ae", "--epochs", "1", "--seed", "1",
                     "--data", str(root / "gait.csv"), "--out", str(root / "m.gvf")]) == 0
        containers.append((root / "m.gvf").read_bytes())
    assert containers[0] == containers[1]


def canonical_csv(path, rows):
    path.write_text("subject,session,recording,t,ax,ay,az\n"
                    + "".join(",".join(map(str, row)) + "\n" for row in rows))
    return path


def recording_rows(recording, n, session="1"):
    return [("s01", session, recording, i / 100.0, 0.1 * i, 1.0, -1.0) for i in range(n)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_canonical_value_exits_one_at_its_line(tmp_path, capsys, value):
    rows = recording_rows("r1", 200)
    rows[140] = rows[140][:5] + (value,) + rows[140][6:]
    data = canonical_csv(tmp_path / "gait.csv", rows)
    out = tmp_path / "f.csv"
    assert main(["extract", "--raw", "--data", str(data), "--out", str(out)]) == 1
    assert f"error: {data}:142: non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_canonical_field_over_the_csv_limit_exits_one_at_its_line(tmp_path, capsys):
    # CRLF line ends send the file to csv.reader, whose field limit is 131072 characters
    rows = recording_rows("r1", 200)
    rows[1] = rows[1][:6] + ("1" * 200_000,)
    data = tmp_path / "gait.csv"
    data.write_bytes(canonical_csv(data, rows).read_bytes().replace(b"\n", b"\r\n"))
    out = tmp_path / "f.csv"
    assert main(["extract", "--raw", "--data", str(data), "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == f"error: {data}:3: field larger than field limit (131072)\n")
    assert not out.exists()


def test_line_after_a_multi_line_quoted_field_is_its_physical_line(tmp_path, capsys):
    # the quoted "0.1\n" of line 3 runs onto line 4, so the 11th data row is on line 12
    rows = [[str(v) for v in row] for row in recording_rows("r1", 200)]
    rows[1][4] = '"0.1\n"'
    rows[9][4] = "abc"
    data = tmp_path / "ml.csv"
    data.write_bytes(("subject,session,recording,t,ax,ay,az\r\n"
                      + "".join(",".join(row) + "\r\n" for row in rows)).encode())
    out = tmp_path / "f.csv"
    assert main(["extract", "--raw", "--data", str(data), "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == f"error: {data}:12: could not convert string to float: 'abc'\n")
    assert not out.exists()


def test_single_sample_recording_exits_one_naming_it(tmp_path, capsys):
    data = canonical_csv(tmp_path / "gait.csv",
                         recording_rows("r1", 200) + recording_rows("r2", 1))
    out = tmp_path / "f.csv"
    assert main(["extract", "--raw", "--data", str(data), "--out", str(out)]) == 1
    assert (f"error: {data}: recording (s01, 1, r2) has 1 sample; resampling needs "
            f"at least 2") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("first, last, seconds", [(0.0, 1e300, "1e+300"),
                                                   (-1e308, 1e308, "inf")])
def test_recording_longer_than_any_array_exits_one_naming_it(tmp_path, capsys,
                                                             first, last, seconds):
    data = canonical_csv(tmp_path / "gait.csv", [("s01", "1", "r1", first, 1, 2, 3),
                                                 ("s01", "1", "r1", last, 1, 2, 3)])
    out = tmp_path / "f.csv"
    assert main(["extract", "--raw", "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: recording (s01, 1, r1) spans {seconds} s, more samples at 100 Hz "
        "than an array can hold\n")
    assert not out.exists()


def test_non_finite_feature_value_exits_one_at_its_line(features, tmp_path, capsys):
    lines = features.read_text().splitlines(keepends=True)
    fields = lines[4].split(",")
    fields[7] = "nan"
    lines[4] = ",".join(fields)
    bad = tmp_path / "features.csv"
    bad.write_text("".join(lines))
    out = tmp_path / "report.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(bad, out, "1", "--protocol", "sd1") == 1
    assert f"error: {bad}:5: non-finite value" in capsys.readouterr().err
    assert not out.exists()


def with_huge_value(features, tmp_path, line):
    """A copy of the features file with 1e200 in one field of ``line``; its fields."""
    lines = features.read_text().splitlines(keepends=True)
    fields = lines[line].split(",")
    fields[7] = "1e200"
    lines[line] = ",".join(fields)
    bad = tmp_path / "features.csv"
    bad.write_text("".join(lines))
    return bad, fields


@pytest.mark.parametrize("gamma", ["auto", "0.01"])
def test_feature_value_too_large_for_the_svm_exits_one_naming_file_and_user(
        features, tmp_path, capsys, gamma):
    # a cross-day training row reaches only its own user's model
    bad, fields = with_huge_value(features, tmp_path, 4)
    assert fields[1] == "1"
    out = tmp_path / "report.csv"
    assert evaluate(bad, out, "1", "--protocol", "cd", "--gamma", gamma) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: user {fields[0]}: ")
    assert not out.exists()


@pytest.mark.parametrize("protocol, session", [("cd", "2"), ("sd1", "1")])
def test_test_session_value_too_large_exits_one_naming_its_row(features, tmp_path, capsys,
                                                               protocol, session):
    # every user's model scores a test-session row: the error names the row, not
    # the first user whose model met it
    lines = features.read_text().splitlines()
    line = max(i for i, text in enumerate(lines) if text.split(",")[1] == session)
    bad, fields = with_huge_value(features, tmp_path, line)
    assert fields[0] != lines[1].split(",")[0]
    out = tmp_path / "report.csv"
    assert evaluate(bad, out, "1..5", "--protocol", protocol) == 1
    subject, session, recording, frame = fields[:4]
    assert capsys.readouterr().err == (
        f"error: {bad}: subject {subject}, session {session}, recording {recording}, "
        f"frame {frame}: vector values too large for the RBF kernel\n")
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("protocol", ["cd", "sd2"])
def test_protocol_without_its_session_exits_one_naming_the_file(features, tmp_path, capsys,
                                                                protocol):
    lines = features.read_text().splitlines(keepends=True)
    one_session = tmp_path / "features.csv"
    one_session.write_text("".join(line for line in lines if line.split(",")[1] != "2"))
    out = tmp_path / "report.csv"
    assert evaluate(one_session, out, "1", "--protocol", protocol) == 1
    assert capsys.readouterr().err.startswith(f"error: {one_session}: ")
    assert not out.exists()


def test_repeated_feature_row_exits_one_at_its_line(features, tmp_path, capsys):
    lines = features.read_text().splitlines(keepends=True)
    bad = tmp_path / "features.csv"
    bad.write_text("".join(lines + lines[1:2]))
    out = tmp_path / "report.csv"
    assert evaluate(bad, out, "1", "--protocol", "sd1") == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:{len(lines) + 1}: repeats the subject, session, recording and frame "
        f"of line 2\n")
    assert not out.exists()


def test_extract_with_truncated_container_exits_one(features, tmp_path, capsys):
    path = tmp_path / "trunc.gvf"
    save_model(path, *models.to_container(models.strip_classifier(models.FCNClassifier(3, seed=0))))
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    out = tmp_path / "f.csv"
    assert main(["extract", "--model", str(path), "--data", str(features.with_name("gait.csv")),
                 "--out", str(out)]) == 1
    assert f"error: {path}: container truncated" in capsys.readouterr().err
    assert not out.exists()


def test_canonical_csv_with_wrong_header_exits_one(tmp_path, capsys):
    data = tmp_path / "gait.csv"
    data.write_text("subject,session,recording,time,ax,ay,az\ns01,1,r1,0.0,1,1,1\n")
    out = tmp_path / "f.csv"
    assert main(["extract", "--raw", "--data", str(data), "--out", str(out)]) == 1
    assert (f"error: {data}: expected header subject,session,recording,t,ax,ay,az"
            in capsys.readouterr().err)
    assert not out.exists()


def test_feature_csv_with_wrong_header_exits_one(features, tmp_path, capsys):
    bad = tmp_path / "features.csv"
    bad.write_text(features.read_text().replace("frame,f0,", "frame,x0,", 1))
    out = tmp_path / "report.csv"
    assert evaluate(bad, out, "1", "--protocol", "sd1") == 1
    assert f"error: {bad}: not a feature CSV" in capsys.readouterr().err
    assert not out.exists()


def test_canonical_csv_not_utf8_exits_one_at_its_line(tmp_path, capsys):
    data = tmp_path / "gait.csv"
    data.write_bytes(b"subject,session,recording,t,ax,ay,az\ns\xff1,1,r1,0.0,1,1,1\n")
    out = tmp_path / "f.csv"
    assert main(["extract", "--raw", "--data", str(data), "--out", str(out)]) == 1
    assert f"error: {data}:2: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_feature_csv_not_utf8_exits_one_at_its_line(features, tmp_path, capsys):
    lines = features.read_bytes().split(b"\n")
    lines[3] = b"\xe9" + lines[3]
    bad = tmp_path / "features.csv"
    bad.write_bytes(b"\n".join(lines))
    out = tmp_path / "report.csv"
    assert evaluate(bad, out, "1", "--protocol", "sd1") == 1
    assert f"error: {bad}:4: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_non_monotonic_timestamps_exit_one_at_their_line(tmp_path, capsys):
    rows = recording_rows("r1", 200) + recording_rows("r2", 200)
    rows[300] = rows[300][:3] + (rows[299][3],) + rows[300][4:]
    data = canonical_csv(tmp_path / "gait.csv", rows)
    out = tmp_path / "f.csv"
    assert main(["extract", "--raw", "--data", str(data), "--out", str(out)]) == 1
    assert (f"error: {data}:302: non-monotonic timestamps in recording (s01, 1, r2)"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    src = str(Path(gaitverify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, gaitverify.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("command", [
    ["synth", "--subjects", "3", "--seconds", "8"],
    ["train", "--mode", "ae", "--epochs", "1", "--data", "GAIT"],
    ["train", "--mode", "e2e", "--epochs", "1", "--data", "GAIT"],
    ["extract", "--raw", "--data", "GAIT"],
    ["evaluate", "--features", "FEATURES", "--protocol", "sd1"],
])
def test_missing_output_directory_exits_one_before_any_work(features, tmp_path, capsys,
                                                            command):
    paths = {"GAIT": str(features.with_name("gait.csv")), "FEATURES": str(features)}
    out = tmp_path / "missing" / "out.csv"
    argv = [paths.get(arg, arg) for arg in command] + ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {out}: directory {out.parent} does not exist\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_train_hashes_its_data_once(features, tmp_path, monkeypatch):
    hashed = []

    def sha256(path):
        hashed.append(str(path))
        return real(path)

    real = cli._sha256
    monkeypatch.setattr(cli, "_sha256", sha256)
    data, out = features.with_name("gait.csv"), tmp_path / "m.gvf"
    assert main(["train", "--mode", "ae", "--epochs", "1", "--data", str(data),
                 "--out", str(out)]) == 0
    assert hashed == [str(data)]
    assert manifest(out)["input_digests"] == {
        str(data): hashlib.sha256(data.read_bytes()).hexdigest()}


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n"])
def test_canonical_csv_with_a_byte_order_mark_exits_one_naming_it(tmp_path, capsys, line_end):
    data = tmp_path / "bom.csv"
    text = canonical_csv(data, recording_rows("r1", 200)).read_bytes()
    data.write_bytes(BOM + text.replace(b"\n", line_end))
    out = tmp_path / "f.csv"
    assert main(["extract", "--raw", "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {data}:1: starts with a UTF-8 byte-order mark\n"
    assert list(tmp_path.iterdir()) == [data]


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n"])
def test_feature_csv_with_a_byte_order_mark_exits_one_naming_it(features, tmp_path, capsys,
                                                                 line_end):
    bad = tmp_path / "features.csv"
    bad.write_bytes(BOM + features.read_bytes().replace(b"\n", line_end))
    out = tmp_path / "report.csv"
    assert evaluate(bad, out, "1", "--protocol", "sd1") == 1
    assert capsys.readouterr().err == f"error: {bad}:1: starts with a UTF-8 byte-order mark\n"
    assert list(tmp_path.iterdir()) == [bad]


# --- container mutation guard ---------------------------------------------
# Seeded mutants of a small saved encoder, each run through extract: the
# reader and from_container must answer every one with exit 0 or a located
# exit 1, never a traceback, exit 2 or an allocation larger than the arrays read.
# Values are set only at limits that no machine could allocate, never in a
# band a machine could (about 1e4 to 1e9), so no mutant allocates much
# whatever the code under test does.

U32_LIMITS = (2**31 - 1, 2**32 - 1)


def container_fields(raw):
    """(offsets of every u32 count, length and dim, offset of the first payload byte)."""
    def u32(at):
        return struct.unpack_from("<I", raw, at)[0]

    fields, pos = [8], 12
    for _ in range(2 * u32(8)):  # metadata keys and values
        fields.append(pos)
        pos += 4 + u32(pos)
    fields.append(pos)
    n_entries, pos = u32(pos), pos + 4
    for _ in range(n_entries):
        fields.append(pos)
        pos += 4 + u32(pos)
        ndim = u32(pos)
        fields += range(pos, pos + 4 * (ndim + 1), 4)
        pos += 4 * (ndim + 1)
    return fields, pos


def byte_mutants(raw, seed, count):
    """Deletions anywhere; random bytes and spliced runs in the header the reader parses.

    The payloads are floats the reader checks only for nan and inf;
    payload_mutants writes the finite values that reach extract's arithmetic.
    """
    rng = random.Random(seed)
    header = container_fields(raw)[1]
    for _ in range(count):
        kind, data = rng.choice(["delete", "bytes", "splice"]), bytearray(raw)
        at = rng.randrange(header)
        if kind == "delete":
            at = rng.randrange(len(data))
            del data[at:at + rng.randint(1, 8)]
        elif kind == "bytes":
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(header)] = rng.randrange(256)
        else:
            run = bytes(data[at:at + rng.randint(1, 16)])
            to = rng.randrange(header)
            data[to:to + (len(run) if rng.random() < 0.5 else 0)] = run
        yield f"{kind}@{at}", bytes(data)


def payload_mutants(path, raw, seed, count):
    """Seeded float32 values written into payload slots: negative running variances
    (magnitude 1e-30 to 1e30), and convolution or batch-norm weights of magnitude 1e30 to 3e38."""
    rng = random.Random(seed)
    _, arrays = load_model(path)
    offsets, at = {}, container_fields(raw)[1]
    for name, a in arrays.items():
        offsets[name], at = at, at + a.nbytes
    variances = [name for name in arrays if name.endswith(".running_var")]
    weights = [name for name in arrays if name.endswith((".w", ".gamma"))]
    for i in range(count):
        if i % 2:
            name, value = rng.choice(variances), -10 ** rng.uniform(-30, 30)
        else:
            name = rng.choice(weights)
            value = rng.choice((-1, 1)) * 10 ** rng.uniform(30, np.log10(3e38))
        data = bytearray(raw)
        slots = rng.sample(range(arrays[name].size), rng.randint(1, arrays[name].size))
        for slot in slots:
            struct.pack_into("<f", data, offsets[name] + 4 * slot, value)
        yield f"{name}[{len(slots)} slots]={value:.3g}", bytes(data)


def size_mutants(raw):
    """Each count, length and dim set to a limit."""
    for at in container_fields(raw)[0]:
        for value in U32_LIMITS:
            yield f"u32@{at}={value}", raw[:at] + struct.pack("<I", value) + raw[at + 4:]


def test_container_mutants_exit_zero_or_one_naming_the_file(tmp_path, capsys):
    data, path, out = tmp_path / "gait.csv", tmp_path / "m.gvf", tmp_path / "f.csv"
    assert main(["synth", "--subjects", "1", "--seconds", "1.28", "--sessions", "1",
                 "--out", str(data)]) == 0
    fcn = models.FCNClassifier(3, seed=0, filters=(4, 8, 4), kernels=(3, 3, 3))
    fcn.body.forward(np.random.default_rng(0).standard_normal((4, 128, 3)), train=True)
    save_model(path, *models.to_container(models.strip_classifier(fcn)))
    raw = path.read_bytes()
    mutants = [*byte_mutants(raw, 0, 150), *byte_mutants(raw, 1, 150),
               *payload_mutants(path, raw, 2, 60), *size_mutants(raw)]
    assert len(mutants) > 360
    capsys.readouterr()
    codes = []
    for name, mutant in mutants:
        path.write_bytes(mutant)
        codes.append(main(["extract", "--model", str(path), "--data", str(data),
                           "--out", str(out)]))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 1), (name, err)
        assert codes[-1] == 0 or err.startswith(f"error: {path}: "), (name, err)
    assert codes.count(1) > len(mutants) // 2, codes.count(1)


# --- canonical CSV mutation guard -----------------------------------------
# Seeded mutants of a small canonical CSV, each run through extract --raw and
# train: loading, framing and training must answer every one with exit 0 or
# a located exit 1, never a traceback or exit 2. Timestamps and samples are
# set only at limits that no machine could allocate for (a recording of
# 1e16 s or more), never in a band a machine could.

CSV_TOKENS = (b"nan", b"1e309", b"1e300", b'"', b"\r", b"\xff", b"\x00", b",", b"\n", b"-")
CSV_LIMITS = ("1e300", "1.7976931348623157e308", "9223372036854775807",
              "18446744073709551615", "5e-324")


def gait_rows(seed):
    """Two subjects, one recording each, of five frames at 100 Hz with short values."""
    rng = random.Random(seed)
    return [(subject, "1", "r1", i / 100.0, *(round(rng.gauss(0, 1), 3) for _ in range(3)))
            for subject in ("s01", "s02") for i in range(640)]


def csv_byte_mutants(raw, seed, count, tokens=CSV_TOKENS):
    """Deletions, random bytes, spliced runs and inserted tokens anywhere in the file."""
    rng = random.Random(seed)
    for _ in range(count):
        kind, data = rng.choice(["delete", "bytes", "splice", "token"]), bytearray(raw)
        at = rng.randrange(len(data))
        if kind == "delete":
            del data[at:at + rng.randint(1, 8)]
        elif kind == "bytes":
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
        elif kind == "splice":
            run = bytes(data[at:at + rng.randint(1, 16)])
            to = rng.randrange(len(data))
            data[to:to + (len(run) if rng.random() < 0.5 else 0)] = run
        else:
            data[at:at] = rng.choice(tokens)
        yield f"{kind}@{at}", bytes(data)


def csv_size_mutants(path, rows):
    """Each recording's first timestamp set to minus a limit and its last to a limit,
    and one sample of each recording set to plus and minus each limit."""
    for first in (0, len(rows) // 2):
        last, middle = first + len(rows) // 2 - 1, first + 100
        for limit in CSV_LIMITS:
            for row, col, value in [(first, 3, "-" + limit), (last, 3, limit),
                                    (middle, 4, limit), (middle, 5, "-" + limit)]:
                changed = list(rows)
                changed[row] = rows[row][:col] + (value,) + rows[row][col + 1:]
                yield f"line {row + 2} field {col}={value}", canonical_csv(
                    path, changed).read_bytes()


def test_canonical_csv_mutants_exit_zero_or_one_naming_the_file(tmp_path, capsys, monkeypatch):
    # small networks: the guard is about the input, not the training arithmetic
    monkeypatch.setattr(models, "FCNClassifier", functools.partial(
        models.FCNClassifier, filters=(4, 8, 4), kernels=(3, 3, 3)))
    data, out, model = tmp_path / "gait.csv", tmp_path / "f.csv", tmp_path / "m.gvf"
    rows = gait_rows(0)
    raw = canonical_csv(data, rows).read_bytes()
    mutants = [*csv_byte_mutants(raw, 0, 120), *csv_byte_mutants(raw, 1, 120),
               *csv_size_mutants(data, rows)]
    assert len(mutants) == 280
    commands = [["extract", "--raw", "--data", str(data), "--out", str(out)],
                ["train", "--mode", "e2e", "--epochs", "1", "--data", str(data),
                 "--out", str(model)]]
    capsys.readouterr()
    codes = []
    for name, mutant in mutants:
        data.write_bytes(mutant)
        for command in commands:
            try:
                codes.append(main(command))
            except Exception as exc:  # a traceback, run from the shell
                pytest.fail(f"{name}: {command[0]} raised {exc!r}")
            err = capsys.readouterr().err
            assert codes[-1] in (0, 1), (name, command[0], err)
            assert codes[-1] == 0 or err.startswith(f"error: {data}"), (name, command[0], err)
    # some mutants still read as recordings and reach training
    assert codes[1::2].count(0) >= 20, codes[1::2].count(0)


# --- feature CSV and --config mutation guards -----------------------------
# Seeded mutants of a small raw feature CSV, each evaluated under the
# cross-day and same-day protocols, and of one --config file that serves
# every command. Each must give exit 0, or exit 1 naming the mutated file
# (or, for a config that lost a required option, the option); never a
# traceback, a numpy warning (pyproject makes RuntimeWarning an error) or a
# report next to an error.

FEATURE_LIMITS = ("1e155", "1e200", "1e300", "1.7e308", "-1.7e308", "5e-324")


def feature_csv(path, rows):
    dim = len(rows[0]) - 4
    path.write_text(",".join(["subject", "session", "recording", "frame"]
                             + [f"f{i}" for i in range(dim)]) + "\n"
                    + "".join(",".join(map(str, row)) + "\n" for row in rows))
    return path


def feature_rows(seed, dim=384):
    """Four subjects, two sessions of one five-frame recording each: 40 rows."""
    rng = random.Random(seed)
    return [(subject, session, "r1", frame, *(round(rng.gauss(0, 1), 3) for _ in range(dim)))
            for subject in ("s01", "s02", "s03", "s04") for session in ("1", "2")
            for frame in range(5)]


def feature_size_mutants(path, rows):
    """One value of a session-1 and of a session-2 row, in three columns, set to each limit."""
    for row in (7, 16):
        for col in (4, 100, len(rows[0]) - 1):
            for limit in FEATURE_LIMITS:
                changed = list(rows)
                changed[row] = rows[row][:col] + (limit,) + rows[row][col + 1:]
                yield f"line {row + 2} field {col}={limit}", feature_csv(
                    path, changed).read_bytes()


def test_feature_csv_mutants_exit_zero_or_one_naming_the_file(tmp_path, capsys):
    path, out = tmp_path / "f.csv", tmp_path / "report.csv"
    rows = feature_rows(0)
    raw = feature_csv(path, rows).read_bytes()
    mutants = [*csv_byte_mutants(raw, 2, 132), *csv_byte_mutants(raw, 3, 132),
               *feature_size_mutants(path, rows)]
    assert len(mutants) == 300
    capsys.readouterr()
    codes = []
    for name, mutant in mutants:
        path.write_bytes(mutant)
        for protocol in ("cd", "sd1"):
            try:
                codes.append(evaluate(path, out, "1..2", "--protocol", protocol))
            except Exception as exc:  # a traceback, run from the shell
                pytest.fail(f"{name}: evaluate --protocol {protocol} raised {exc!r}")
            err = capsys.readouterr().err
            assert codes[-1] in (0, 1), (name, protocol, err)
            if codes[-1] == 1:
                assert err.startswith(f"error: {path}"), (name, protocol, err)
                assert not list(tmp_path.glob("report*")), (name, protocol)
            for written in tmp_path.glob("report*"):
                written.unlink()
    # some mutants still load and are evaluated
    assert codes.count(0) >= 100, codes.count(0)


CONFIG = """# one file for every command; paths are given as flags
subjects = 2
seconds = 7.68
sessions = 2
recordings = 1
drift = 0.2
seed = 3
mode = e2e
augment = cshift
epochs = 1
batch-size = 16
raw = yes
protocol = cd
window = 1..2
nu = 0.1
gamma = auto
label_features = raw
label-augment = none
"""
CONFIG_TOKENS = (b"=", b"#", b"\n", b"-", b"_", b" ", b"0", b"9", b".", b"..", b"nan",
                 b"1e300", b"\xff", b"\x00", b"\r")


def test_config_mutants_exit_zero_or_one_naming_the_file(tmp_path, capsys, monkeypatch):
    # small networks, and gradcheck stubbed after its options are parsed: the
    # guard is about the config file, not the training arithmetic
    for name in ("FCNClassifier", "Autoencoder"):
        monkeypatch.setattr(models, name, functools.partial(
            getattr(models, name), filters=(4, 8, 4), kernels=(3, 3, 3)))
    monkeypatch.setattr(cli, "cmd_gradcheck", lambda args, argv: 0)
    config, data, feats = tmp_path / "run.cfg", tmp_path / "gait.csv", tmp_path / "f.csv"
    raw = CONFIG.encode()
    config.write_bytes(raw)
    out = str(tmp_path / "out")
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    assert main(["extract", "--config", str(config), "--data", str(data),
                 "--out", str(feats)]) == 0
    commands = {"synth": ["--out", out], "train": ["--data", str(data), "--out", out],
                "extract": ["--data", str(data), "--out", out],
                "evaluate": ["--features", str(feats), "--out", out], "gradcheck": []}
    capsys.readouterr()
    codes = []
    for seed, (command, flags) in enumerate(commands.items()):
        for name, mutant in csv_byte_mutants(raw, seed, 60, CONFIG_TOKENS):
            config.write_bytes(mutant)
            try:
                codes.append(main([command, "--config", str(config), *flags]))
            except Exception as exc:  # a traceback, run from the shell
                pytest.fail(f"{name}: {command} raised {exc!r}")
            err = capsys.readouterr().err
            assert codes[-1] in (0, 1), (name, command, err)
            assert codes[-1] == 0 or err.startswith(f"error: {config}") or err.startswith(
                "error: the following arguments are required"), (name, command, err)
    assert len(codes) == 300
    # some mutants still parse and run their command
    assert codes.count(0) >= 75, codes.count(0)
