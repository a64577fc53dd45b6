"""End-to-end CLI runs: exit codes, byte-identical outputs, manifests, located errors."""

import json

import pytest

from gaitverify import models
from gaitverify.cli import main
from gaitverify.data.container import save_model

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
    encoder = models.strip_classifier(models.build_fcn(3, seed=0))
    path = tmp_path / "bad.gvf"
    save_model(models.to_container(encoder), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:16] + b"\xff" + raw[17:])
    data = features.with_name("gait.csv")
    assert main(["extract", "--model", str(path), "--data", str(data),
                 "--out", str(tmp_path / "f.csv")]) == 1
    assert f"error: {path}: string at byte 12 is not valid UTF-8" in capsys.readouterr().err


def test_extract_with_container_missing_filters_exits_one(features, tmp_path, capsys):
    container = models.to_container(models.strip_classifier(models.build_fcn(3, seed=0)))
    del container.metadata["filters"]
    path = tmp_path / "nofilters.gvf"
    save_model(container, path)
    data = features.with_name("gait.csv")
    assert main(["extract", "--model", str(path), "--data", str(data),
                 "--out", str(tmp_path / "f.csv")]) == 1
    assert "error: container metadata lacks 'filters'" in capsys.readouterr().err


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


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    assert "gradient check passed" in capsys.readouterr().out


def test_gradcheck_with_corrupted_gradient_exits_two(capsys):
    assert main(["gradcheck", "--corrupt", "dec.out.w"]) == 2
    assert "FAILED" in capsys.readouterr().out
