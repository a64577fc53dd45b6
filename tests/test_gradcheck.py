import numpy as np
import pytest

from gaitverify import models
from gaitverify.nn import ops
from gaitverify.nn.gradcheck import gradient_check
from gaitverify.nn.layers import Conv1d, Dense, Sequential


class LinearModel:
    """Closed-form check target: loss = mean((Wx+b - y)^2)."""

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.net = Dense(4, 3, rng, name="lin")
        self.net.cast(np.float64)

    def parameters(self):
        return self.net.parameters()

    def loss_only(self, x, y, train=False):
        d = self.net.forward(x, train) - y
        return float(np.mean(d * d))

    def loss_and_backward(self, x, y):
        for p in self.parameters():
            p.grad[...] = 0
        out = self.net.forward(x, train=True)
        d = out - y
        self.net.backward(2.0 * d / d.size)
        return float(np.mean(d * d))


class TestGradientCheck:
    def test_linear_model_closed_form(self):
        rng = np.random.default_rng(1)
        model = LinearModel()
        x = rng.standard_normal((5, 4))
        y = rng.standard_normal((5, 3))
        report = gradient_check(model, x, y)
        assert report.max_relative_error < 1e-8
        # analytic closed form: dL/dW = 2 x^T (xW + b - y) / N
        model.loss_and_backward(x, y)
        w, b = model.parameters()
        residual = x @ w.value + b.value - y
        np.testing.assert_allclose(w.grad, 2 * x.T @ residual / residual.size, rtol=1e-12)

    def test_full_fcn_small_batch(self):
        rng = np.random.default_rng(2)
        model = models.FCNClassifier(3, seed=2, filters=(5, 7, 5), kernels=(8, 5, 3))
        model.cast(np.float64)
        x = rng.standard_normal((2, 128, 3))
        y = rng.integers(0, 3, size=2)
        report = gradient_check(model, x, y, max_exhaustive=100000)
        assert all(t.method == "exhaustive" for t in report.tensors)
        assert report.max_relative_error < 1e-4

    def test_autoencoder_mse_path(self):
        rng = np.random.default_rng(3)
        model = models.Autoencoder(seed=3, filters=(5, 7, 5), kernels=(8, 5, 3))
        model.cast(np.float64)
        x = rng.standard_normal((2, 128, 3))
        report = gradient_check(model, x, None, max_exhaustive=100000)
        assert report.max_relative_error < 1e-4
        names = {t.name for t in report.tensors}
        assert "dec.expand.scale" in names  # inverse-GAP path included

    def test_autoencoder_even_kernels_path(self):
        # even K pads one step more on the right; block3 and dec.out (Cout < Cin)
        # take the output-side convolution, the other layers the input side
        rng = np.random.default_rng(4)
        model = models.Autoencoder(seed=4, filters=(4, 6, 4), kernels=(4, 2, 6))
        model.cast(np.float64)
        x = rng.standard_normal((2, 128, 3))
        report = gradient_check(model, x, None, max_exhaustive=100000)
        assert report.max_relative_error < 1e-4

    @pytest.mark.parametrize("kind", ["fcn", "autoencoder"])
    def test_convolutions_split_into_blocks(self, monkeypatch, kind):
        # at this budget each float64 conv of these models runs a batch of 4
        # in 4 blocks of one sample, or in a block of 3 and a ragged one of 1
        monkeypatch.setattr(ops, "BLOCK_BYTES", 48000)
        rng = np.random.default_rng(9)
        if kind == "fcn":
            model = models.FCNClassifier(3, seed=9, filters=(5, 7, 5), kernels=(8, 5, 3))
            y = rng.integers(0, 3, size=4)
        else:
            model = models.Autoencoder(seed=9, filters=(5, 7, 5), kernels=(8, 5, 3))
            y = None
        model.cast(np.float64)
        convs = [layer for net in model._nets() for layer in
                 getattr(net, "layers", []) if isinstance(layer, Conv1d)]
        convs += [block.conv for block in model.blocks()]
        for conv in convs:
            _, blocks = ops._blocks(4, 128, conv.kernel_size,
                                    min(conv.in_channels, conv.out_channels), np.float64)
            assert len(blocks) > 1, conv.name
        x = rng.standard_normal((4, 128, 3))
        report = gradient_check(model, x, y, max_exhaustive=100000)
        assert report.max_relative_error < 1e-4

    def test_directional_probes_on_large_tensors(self):
        rng = np.random.default_rng(5)
        model = models.FCNClassifier(3, seed=5, filters=(6, 8, 6), kernels=(3, 3, 3))
        model.cast(np.float64)
        x = rng.standard_normal((2, 128, 3))
        y = rng.integers(0, 3, size=2)
        report = gradient_check(model, x, y, max_exhaustive=16, probes=4)
        methods = {t.name: t.method for t in report.tensors}
        assert methods["block2.conv.w"] == "directional"
        assert report.max_relative_error < 1e-4

    def test_detects_corrupted_gradient(self):
        rng = np.random.default_rng(6)
        model = LinearModel(seed=6)
        x = rng.standard_normal((4, 4))
        y = rng.standard_normal((4, 3))

        original = model.loss_and_backward

        def corrupted(*args, **kwargs):
            loss = original(*args, **kwargs)
            model.parameters()[0].grad *= 1.05
            return loss

        model.loss_and_backward = corrupted
        report = gradient_check(model, x, y)
        assert report.max_relative_error > 1e-3

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        model = models.FCNClassifier(2, seed=7, filters=(4, 4, 4), kernels=(3, 3, 3))
        model.cast(np.float64)
        x = rng.standard_normal((2, 128, 3))
        y = rng.integers(0, 2, size=2)
        a = gradient_check(model, x, y, max_exhaustive=8, probes=3, seed=11)
        b = gradient_check(model, x, y, max_exhaustive=8, probes=3, seed=11)
        assert [t.max_relative_error for t in a.tensors] == \
               [t.max_relative_error for t in b.tensors]
