"""The benchmark's layer tracer still sees every layer of a training step."""

import re
import sys
from pathlib import Path

import numpy as np

from gaitverify import models

# gvbench lives at the repository root, next to src/
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from gvbench import spans  # noqa: E402


def test_every_traced_layer_instance_gets_spans_inside_a_training_step():
    x = np.random.default_rng(0).standard_normal((4, 128, 3)).astype(np.float32)
    cases = [("autoencoder", models.Autoencoder(seed=0), None, 11),
             ("fcn", models.FCNClassifier(3, seed=0), np.arange(4) % 3, 6)]
    for name, model, y, count in cases:
        layers = {p.name.rsplit(".", 1)[0] for p in model.parameters()}
        instances = [inst for inst in spans.NN_INSTANCES if inst in layers]
        assert len(instances) == count, name
        recorder = spans.Recorder()
        with spans.traced(recorder):
            model.loss_and_backward(x, y)
        in_step = {s.name for i, s in enumerate(recorder.spans)
                   if recorder.has_ancestor(i, "models.loss_and_backward")}
        metrics = spans.layer_metrics(recorder)
        for inst in instances:
            for phase in ("fwd", "bwd"):
                assert f"nn.{inst}.{phase}" in in_step, f"{name}: {inst}.{phase}"
                assert metrics[f"nn.{inst}.{phase}_ms"] > 0, f"{name}: {inst}.{phase}"
        # each block's ReLU runs forward, forward again on the output backward
        # recomputes, and backward; pooling, the head or latent broadcast
        # (forward and backward) and the loss are the other five nn.other spans
        other = sum(1 for i, s in enumerate(recorder.spans) if s.tag == "nn.other"
                    and recorder.has_ancestor(i, "models.loss_and_backward"))
        assert other == 3 * len(model.blocks()) + 5, name


def test_count_hooks_match_the_frames_framed_augmented_and_transformed(tmp_path, capsys):
    from gaitverify.cli import main
    from gaitverify.pipeline import load_normalized_frames

    data, model, feats = tmp_path / "gait.csv", tmp_path / "m.gvf", tmp_path / "f.csv"
    assert main(["synth", "--subjects", "3", "--seconds", "8", "--seed", "4",
                 "--out", str(data)]) == 0
    n_frames = len(load_normalized_frames(data))
    capsys.readouterr()
    recorder = spans.Recorder()
    with spans.traced(recorder):
        assert main(["train", "--mode", "e2e", "--augment", "cshift", "--epochs", "1",
                     "--data", str(data), "--out", str(model)]) == 0
        assert main(["extract", "--model", str(model), "--data", str(data),
                     "--out", str(feats)]) == 0
    trained, augmented_from = map(int, re.match(r"training frames: (\d+) \(augmented from (\d+)\)",
                                                capsys.readouterr().out).groups())
    n_vectors = feats.read_text().count("\n") - 1
    assert recorder.counts["signal.frames.count"] == 2 * n_frames  # train, then extract
    assert recorder.counts["augment.frames"] == trained - augmented_from == augmented_from
    assert recorder.counts["models.transform.frames"] == n_vectors == n_frames
