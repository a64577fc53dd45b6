import functools

import numpy as np
import numpy.testing as npt
import pytest

from gaitverify import models
from gaitverify.cli import VAL_FRACTION
from gaitverify.errors import InvalidInputError
from gaitverify.nn import training
from gaitverify.nn.optim import Adam, PlateauScheduler
from gaitverify.nn.training import TrainConfig, evaluate_loss, train


def tiny_fcn(num_classes=2, seed=0):
    return models.FCNClassifier(num_classes, seed=seed, filters=(4, 6, 4), kernels=(3, 3, 3))


def separable_dataset(n_per_class=24, seed=0):
    """Two classes with different dominant frequencies; easy to separate."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    t = np.arange(128) / 100.0
    for label, freq in enumerate((2.0, 3.5)):
        for _ in range(n_per_class):
            phase = rng.uniform(0, 2 * np.pi)
            sig = np.sin(2 * np.pi * freq * t + phase)
            frame = np.stack([sig, sig, sig], axis=1)
            frame += 0.1 * rng.standard_normal(frame.shape)
            xs.append(frame)
            ys.append(label)
    x = np.stack(xs).astype(np.float32)
    y = np.array(ys)
    order = rng.permutation(len(ys))
    return x[order], y[order]


class TestTrain:
    def test_loss_decreases_on_separable_data(self):
        x, y = separable_dataset()
        model = tiny_fcn(seed=3)
        config = TrainConfig(epochs=12, batch_size=16, seed=3)
        model, history = train(model, (x[:32], y[:32]), (x[32:], y[32:]), config)
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss
        assert len(history.epochs) == 12

    def test_checkpoint_is_first_val_minimum(self):
        x, y = separable_dataset(10, seed=5)
        model = tiny_fcn(seed=5)
        config = TrainConfig(epochs=6, batch_size=8, seed=5)
        model, history = train(model, (x[:16], y[:16]), (x[16:], y[16:]), config)
        vals = history.val_losses
        assert history.best_epoch == int(np.argmin(vals)) + 1
        # restored model reproduces the recorded minimum validation loss
        reloaded = evaluate_loss(model, x[16:], y[16:], config.batch_size)
        assert reloaded == pytest.approx(min(vals), rel=1e-5)

    def test_bit_reproducible_with_fixed_seed(self):
        x, y = separable_dataset(8, seed=6)
        config = TrainConfig(epochs=3, batch_size=8, seed=7)
        results = []
        for _ in range(2):
            model = tiny_fcn(seed=7)
            model, history = train(model, (x[:12], y[:12]), (x[12:], y[12:]), config)
            results.append(({p.name: p.value.copy() for p in model.parameters()},
                            [e.train_loss for e in history.epochs]))
        assert results[0][1] == results[1][1]
        for name in results[0][0]:
            npt.assert_array_equal(results[0][0][name], results[1][0][name])

    def test_lr_follows_plateau_schedule_in_history(self, monkeypatch):
        monkeypatch.setattr(training, "PlateauScheduler",
                            functools.partial(PlateauScheduler, patience=1))
        x, y = separable_dataset(6, seed=8)
        config = TrainConfig(epochs=4, batch_size=8, seed=8)
        model, history = train(tiny_fcn(seed=8), (x[:8], y[:8]), (x[8:], y[8:]), config)
        lrs = [e.lr for e in history.epochs]
        assert lrs[0] == 0.001
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_empty_dataset_rejected(self):
        x, y = separable_dataset(4)
        with pytest.raises(InvalidInputError):
            train(tiny_fcn(), (x[:0], y[:0]), (x, y), TrainConfig(epochs=1, seed=0))

    def test_out_of_range_labels_rejected(self):
        x, _ = separable_dataset(4)
        bad = np.full(x.shape[0], 5)
        with pytest.raises(InvalidInputError):
            train(tiny_fcn(), (x, bad), (x, bad), TrainConfig(epochs=1, seed=0))

    def test_autoencoder_reconstruction_path(self):
        x, _ = separable_dataset(20, seed=9)
        model = models.Autoencoder(seed=9, filters=(4, 6, 4), kernels=(3, 3, 3))
        config = TrainConfig(epochs=8, batch_size=16, seed=9)
        model, history = train(model, (x[:24], None), (x[24:], None), config)
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(epochs=0)
        with pytest.raises(InvalidInputError):
            TrainConfig(batch_size=0)

    def test_defaults_match_training_recipe(self):
        config = TrainConfig()
        assert config.epochs == 100
        assert config.batch_size == 32
        optimizer = Adam([])
        assert optimizer.lr == 0.001
        scheduler = PlateauScheduler(optimizer.lr)
        assert scheduler.factor == 0.5
        assert scheduler.patience == 50
        assert scheduler.min_lr == 0.0001
        assert VAL_FRACTION == 0.4
