"""End-to-end CLI runs: exit codes, byte-identical outputs, manifests, located errors."""

import csv
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
from gaitverify import cli, models
from gaitverify.cli import main
from gaitverify.data.container import ModelContainer, save_model

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
    assert "duplicate aggregation window" in capsys.readouterr().err
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
    save_model(models.to_container(encoder), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:16] + b"\xff" + raw[17:])
    data = features.with_name("gait.csv")
    assert main(["extract", "--model", str(path), "--data", str(data),
                 "--out", str(tmp_path / "f.csv")]) == 1
    assert f"error: {path}: string at byte 12 is not valid UTF-8" in capsys.readouterr().err


def test_extract_with_container_missing_filters_exits_one(features, tmp_path, capsys):
    container = models.to_container(models.strip_classifier(models.FCNClassifier(3, seed=0)))
    del container.metadata["filters"]
    path = tmp_path / "nofilters.gvf"
    save_model(container, path)
    data = features.with_name("gait.csv")
    assert main(["extract", "--model", str(path), "--data", str(data),
                 "--out", str(tmp_path / "f.csv")]) == 1
    assert "error: container metadata lacks 'filters'" in capsys.readouterr().err


def three_block_container():
    fcn = models.FCNClassifier(3, seed=0)
    fcn.body.forward(np.random.default_rng(0).standard_normal((4, 128, 3)), train=True)
    return models.to_container(models.strip_classifier(fcn))


def modified(container, tensors=(), **metadata):
    """A copy of ``container`` with tensors replaced or added, and metadata changed."""
    tensors = dict(tensors)
    out = ModelContainer({**container.metadata, **metadata})
    for name in container.names():
        out.add(name, tensors.pop(name, container.get(name)))
    for name, values in tensors.items():
        out.add(name, values)
    return out


@pytest.mark.parametrize("tensors, metadata, message", [
    ({"block1.bn.gamma": np.ones(1)}, {},
     "container tensor 'block1.bn.gamma' has shape (1,), expected (128,)"),
    ({"block2.bn.running_mean": np.zeros(1)}, {},
     "container tensor 'block2.bn.running_mean' has shape (1,), expected (256,)"),
    ({"block1.conv.w": np.zeros((8, 3, 64))}, {},
     "container tensor 'block1.conv.w' has shape (8, 3, 64), expected (8, 3, 128)"),
    ({"head.w": np.zeros((128, 3))}, {},
     "container tensor 'head.w' is not part of a 3-block encoder"),
    ({}, {"filters": "128,256", "kernels": "8,5", "feature_dim": "256"},
     "container tensor 'block3.conv.w' is not part of a 2-block encoder"),
    ({}, {"feature_dim": "256"},
     "container metadata 'feature_dim' '256' is not the last filter count 128"),
    ({}, {"arch": "autoencoder"},
     "container metadata 'arch' is 'autoencoder', expected 'fcn-encoder'"),
    ({}, {"kernels": "8,5"}, "container metadata 'filters' '128,256,128' and 'kernels' '8,5' "
                             "must be equally many positive integers"),
    ({}, {"filters": "128,0,128"}, "container metadata 'filters' '128,0,128' and 'kernels' "
                                   "'8,5,3' must be equally many positive integers"),
], ids=["gamma-shape", "running-mean-shape", "conv-shape", "extra-tensor", "dropped-block",
        "feature-dim", "arch", "kernel-count", "zero-filters"])
def test_extract_with_malformed_container_exits_one_naming_it(features, tmp_path, capsys,
                                                             tensors, metadata, message):
    path, out = tmp_path / "bad.gvf", tmp_path / "f.csv"
    save_model(modified(three_block_container(), tensors, **metadata), path)
    assert main(["extract", "--model", str(path), "--data", str(features.with_name("gait.csv")),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.gvf"]


def corrupted_container(tmp_path, edit):
    """Path of a saved three-block container whose bytes ``edit`` has rewritten."""
    path = tmp_path / "bad.gvf"
    save_model(three_block_container(), path)
    path.write_bytes(edit(path.read_bytes()))
    return path


@pytest.mark.parametrize("edit, message", [
    # the last payload float is the last entry of block3.bn.running_var
    (lambda raw: raw[:-4] + np.float32(np.nan).tobytes(),
     "tensor 'block3.bn.running_var' holds non-finite values"),
    (lambda raw: raw[:-4] + np.float32(-np.inf).tobytes(),
     "tensor 'block3.bn.running_var' holds non-finite values"),
    # the second metadata key renamed to the first's name, both 7 bytes long
    (lambda raw: raw.replace(b"\x07\x00\x00\x00kernels", b"\x07\x00\x00\x00filters", 1),
     "duplicate metadata key 'filters'"),
], ids=["nan-payload", "inf-payload", "repeated-metadata-key"])
def test_extract_with_corrupted_container_exits_one_writing_nothing(features, tmp_path, capsys,
                                                                   edit, message):
    path = corrupted_container(tmp_path, edit)
    out = tmp_path / "f.csv"
    assert main(["extract", "--model", str(path), "--data", str(features.with_name("gait.csv")),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {message}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.gvf"]


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
    assert capsys.readouterr().err == f"error: gamma must be positive and finite, got {gamma}\n"
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


@pytest.mark.parametrize("key", ["protocl", "windw"])
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


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
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


def test_extract_with_truncated_container_exits_one(features, tmp_path, capsys):
    path = tmp_path / "trunc.gvf"
    save_model(models.to_container(models.strip_classifier(models.FCNClassifier(3, seed=0))),
               path)
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
