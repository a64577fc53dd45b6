import copy
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from gaitverify import models
from gaitverify.data.container import load_model, save_model
from gaitverify.errors import FormatError, InvalidInputError
from gaitverify.nn import ops
from gaitverify.nn.layers import Conv1d, ConvBlock, Sequential
from gaitverify.nn.optim import Adam
from gaitverify.nn.training import TrainConfig, evaluate_loss, train


def random_frames(n, seed=0):
    """An (n, 128, 3) array of frame values."""
    return np.random.default_rng(seed).standard_normal((n, 128, 3))


def extract(encoder, frames, batch_size=256):
    """Learned features of a batch, as the extract command computes them."""
    return encoder.transform(models.frames_to_array(frames), batch_size=batch_size)


def flat_layers(net):
    """A net's layers, each ConvBlock replaced by its conv, batch norm and ReLU."""
    layers = net.layers if isinstance(net, Sequential) else [net]
    return [m for layer in layers
            for m in (layer.layers if isinstance(layer, ConvBlock) else [layer])]


def blocks(model):
    """The model's conv blocks, from its nets' layers in order."""
    return [layer for net in model._nets() for layer in getattr(net, "layers", [])
            if isinstance(layer, ConvBlock)]


def fit_batchnorm(model, x, batches=3):
    """Push a few train-mode batches through so running stats exist."""
    for _ in range(batches):
        model.forward(x, train=True)
    return model


# Hand count of the default layer spec (conv K*Cin*Cout + bias + gamma/beta):
#   block1:   8*3*128 + 128 + 2*128 =   3456
#   block2:  5*128*256 + 256 + 2*256 = 164608
#   block3:  3*256*128 + 128 + 2*128 =  98688
#   encoder total                    = 266752
ENCODER_PARAMS = 266752
#   head: 128*K + K = 129*K
HEAD_PARAMS_PER_CLASS = 129
#   decoder: expand 2*128*128 + (3*128*128+128+256) + (5*128*256+256+512)
#            + (8*256*3+3)    = 32768 + 49536 + 164608 + 6147 = 253059
DECODER_PARAMS = 253059


class TestBuildFcn:
    def test_head_dimension_for_50_subjects(self):
        fcn = models.FCNClassifier(50, seed=0)
        assert fcn.head.w.value.shape == (128, 50)
        x = np.random.default_rng(0).standard_normal((3, 128, 3)).astype(np.float32)
        assert fcn.forward(x, train=True).shape == (3, 50)

    def test_softmax_rows_sum_to_one(self):
        fcn = models.FCNClassifier(5, seed=1)
        x = np.random.default_rng(1).standard_normal((4, 128, 3)).astype(np.float32)
        labels = np.arange(4)
        _, grad = ops.softmax_crossentropy(fcn.forward(x, train=True), labels)
        # the gradient is (softmax - onehot) / B, so its sign shows softmax >= 0
        onehot = np.eye(5, dtype=bool)[labels]
        assert np.all(grad[~onehot] >= 0) and np.all(grad[onehot] <= 0)
        npt.assert_allclose((4 * grad + onehot).sum(axis=1), 1.0, atol=1e-6)

    def test_parameter_count_closed_form(self):
        for k in (2, 10, 50):
            fcn = models.FCNClassifier(k, seed=0)
            assert sum(p.size for p in fcn.parameters()) == (ENCODER_PARAMS
                                                            + HEAD_PARAMS_PER_CLASS * k)

    def test_block_spec(self):
        fcn = models.FCNClassifier(2, seed=0)
        convs = [l for l in flat_layers(fcn.body) if isinstance(l, Conv1d)]
        assert [c.w.value.shape[::2] for c in convs] == [(8, 128), (5, 256), (3, 128)]

    def test_too_few_classes(self):
        with pytest.raises(InvalidInputError):
            models.FCNClassifier(1, seed=0)

    def test_head_permutation_equivariance(self):
        fcn = models.FCNClassifier(6, seed=2)
        x = np.random.default_rng(2).standard_normal((3, 128, 3)).astype(np.float32)
        fit_batchnorm(fcn, x)
        logits = fcn.forward(x, train=False)
        perm = np.random.default_rng(3).permutation(6)
        fcn.head.w.value = fcn.head.w.value[:, perm]
        fcn.head.b.value = fcn.head.b.value[perm]
        # equal up to float32 round-off (BLAS may regroup the accumulation)
        npt.assert_allclose(fcn.forward(x, train=False), logits[:, perm], atol=1e-6)


class TestAutoencoder:
    def test_round_trip_shape(self):
        ae = models.Autoencoder(seed=0)
        x = np.random.default_rng(0).standard_normal((2, 128, 3)).astype(np.float32)
        assert ae.forward(x, train=True).shape == (2, 128, 3)

    def test_untrained_mse_has_order_one_magnitude(self):
        ae = models.Autoencoder(seed=0)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((16, 128, 3)).astype(np.float32)
        x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
        assert ae.loss_only(x, train=True) > 0.1

    def test_training_halves_reconstruction_error(self):
        # 50 epochs on small synthetic waveforms must reach < 0.5x initial MSE
        rng = np.random.default_rng(5)
        t = np.arange(128) / 100.0
        xs = []
        for _ in range(96):
            freq = rng.uniform(1.6, 2.4)
            phase = rng.uniform(0, 2 * np.pi)
            sig = np.stack([np.sin(2 * np.pi * freq * t + phase + c) for c in range(3)], axis=1)
            sig += 0.1 * rng.standard_normal(sig.shape)
            sig = (sig - sig.mean(axis=0)) / sig.std(axis=0)
            xs.append(sig)
        x = np.stack(xs).astype(np.float32)
        ae = models.Autoencoder(seed=5)
        initial = ae.loss_only(x[:64], train=True)
        config = TrainConfig(epochs=50, batch_size=32, seed=5)
        ae, history = train(ae, (x[:64], None), (x[64:], None), config)
        final = min(e.train_loss for e in history.epochs)
        assert final < 0.5 * initial

    def test_decoder_mirrors_block_spec(self):
        ae = models.Autoencoder(seed=0)
        convs = [l for l in flat_layers(ae.decoder) if isinstance(l, Conv1d)]
        assert [c.w.value.shape[::2] for c in convs] == [(3, 128), (5, 256), (8, 3)]

    def test_parameter_count_closed_form(self):
        ae = models.Autoencoder(seed=0)
        assert sum(p.size for p in ae.parameters()) == ENCODER_PARAMS + DECODER_PARAMS


def cached_arrays(model):
    """Distinct base arrays that the model's layers keep between calls."""
    bases = {}
    for net in model._nets():
        for layer in flat_layers(net):
            for name, value in vars(layer).items():
                if not name.startswith("_"):
                    continue
                for a in value if isinstance(value, tuple) else (value,):
                    if isinstance(a, np.ndarray):
                        while isinstance(a.base, np.ndarray):
                            a = a.base
                        bases[id(a)] = a
    return list(bases.values())


def holds_array(layer):
    return any(isinstance(v, np.ndarray) for v in vars(layer).values())


class TestTrainingCaches:
    """One cached array per block, recomputed outputs, no activation kept after a step."""

    X = np.random.default_rng(30).standard_normal((32, 128, 3)).astype(np.float32)

    @staticmethod
    def cases():
        # (name, model, labels, cache MiB after one step at batch 32): only the
        # small head/latent inputs (B, 128) remain
        return [("autoencoder", models.Autoencoder(seed=31), None, 0.05),
                ("fcn", models.FCNClassifier(5, seed=32), np.arange(32) % 5, 0.05)]

    def test_cached_bytes_after_one_step(self):
        for name, model, y, mib in self.cases():
            model.loss_and_backward(self.X, y)
            held = sum(a.nbytes for a in cached_arrays(model))
            assert held <= mib * 2**20, f"{name}: {held / 2**20:.2f} MiB"

    def test_warm_step_peak_memory(self):
        # traced peak of a second step above the memory held before the
        # first, so an array a layer keeps between steps counts as well: at
        # most the forward's caches (one activation per block), one more
        # activation of the widest block (a recomputed output), one
        # convolution block buffer, 2 MiB of smaller arrays and the
        # parameter gradients, which every step allocates anew
        for name, model, y, _ in self.cases():
            widths = [b.conv.b.value.size for b in blocks(model)]
            grads = sum(p.value.nbytes for p in model.parameters())
            bound = ((sum(widths) + max(widths)) * self.X[..., 0].nbytes + ops.BLOCK_BYTES
                     + 2 * 2**20 + grads)  # FCN 17 MiB, autoencoder 24 MiB
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                model.loss_and_backward(self.X, y)
                tracemalloc.reset_peak()
                model.loss_and_backward(self.X, y)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= bound, f"{name}: {peak / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB"

    def test_validation_peak_memory(self):
        # evaluate_loss right after a step: no block cache outlives the step,
        # so the traced peak is the inference working set alone, plus the
        # parameter gradients that the traced step allocated
        for name, model, y, _ in self.cases():
            grads = sum(p.value.nbytes for p in model.parameters())
            model.loss_and_backward(self.X, y)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                model.loss_and_backward(self.X, y)
                tracemalloc.reset_peak()
                evaluate_loss(model, self.X, y, 32)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= 9.5 * 2**20 + grads, f"{name}: {peak / 2**20:.2f} MiB"

    def test_blocks_keep_only_their_batch_norm_cache(self):
        for dtype in (np.float32, np.float64):
            for (name, model, y, _), count in zip(self.cases(), (5, 3)):
                name = f"{name} {np.dtype(dtype).name}"
                model.cast(dtype)
                x = self.X.astype(dtype)
                convblocks = blocks(model)
                assert len(convblocks) == count, name
                returned = {}
                for block in convblocks:
                    def record(a, train, forward=block.relu.forward, key=block.name):
                        out = forward(a, train)
                        returned[key] = out.copy()
                        return out
                    block.relu.forward = record
                model.forward(x, train=True)
                for block in convblocks:
                    del block.relu.forward
                for block in convblocks:
                    # after a training forward: the batch norm's (xhat, inv_std), nothing
                    # else; backward is handed each convolution's input
                    where = f"{name}: {block.name}"
                    xhat, inv_std = block.bn._cache
                    assert xhat.shape == returned[block.name].shape, where
                    assert inv_std.shape == (xhat.shape[-1],), where
                    assert block.relu._x is None, where
                    assert not holds_array(block.conv), where
                    # the recomputed output is what the ReLU returned, bit for bit
                    assert block.output().tobytes() == returned[block.name].tobytes(), where
                model.loss_and_backward(x, y)
                for block in convblocks:
                    assert block.bn._cache is block.relu._x is None, name
                    assert not holds_array(block.conv), name

    def test_a_step_leaves_no_activation_sized_array_in_any_layer(self):
        def held(layer):
            """Every array an attribute of the layer or of a member of it holds."""
            for value in vars(layer).values():
                for a in value if isinstance(value, tuple) else (value,):
                    if isinstance(a, np.ndarray):
                        yield a
            for member in getattr(layer, "layers", []):
                yield from held(member)

        for name, model, y, _ in self.cases():
            smallest = min(b.conv.b.value.size for b in blocks(model)) * 20 * 128
            runs = [("step", lambda: model.loss_and_backward(self.X, y)),
                    ("validation", lambda: evaluate_loss(model, self.X, y, 32)),
                    ("short step", lambda: model.loss_and_backward(
                        self.X[:20], y if y is None else y[:20])),
                    ("float64 step", lambda: model.cast(np.float64).loss_and_backward(
                        self.X.astype(np.float64), y))]
            for run, call in runs:
                call()
                sizes = [a.size for net in model._nets() for a in held(net)]
                assert max(sizes) < smallest, f"{name}: {run}"

    def test_skipping_the_first_input_gradient_keeps_parameter_gradients(self):
        _, model, y, _ = self.cases()[1]
        model.loss_and_backward(self.X, y)
        skipped = {p.name: p.grad.copy() for p in model.parameters()}
        feats = model.body.forward(self.X, train=True)
        _, dlogits = ops.softmax_crossentropy(model.head.forward(feats, train=True), y)
        grad_x = model.body.backward(model.head.backward(dlogits, feats), self.X)
        assert grad_x.shape == self.X.shape
        for p in model.parameters():
            assert p.grad.tobytes() == skipped[p.name].tobytes(), p.name

    def test_repeated_steps_equal_a_fresh_copy(self):
        for name, model, y, _ in self.cases():
            fresh = copy.deepcopy(model)
            runs = []
            for m in (model, model, fresh):
                loss = m.loss_and_backward(self.X, y)
                runs.append((loss, {p.name: p.grad.copy() for p in m.parameters()}))
            for loss, grads in runs[1:]:
                assert loss == runs[0][0], name
                for key, g in grads.items():
                    assert g.tobytes() == runs[0][1][key].tobytes(), f"{name}: {key}"

    def test_a_step_writes_every_parameter_gradient(self):
        # a gradient left from before the step, here nan, must not survive it
        for name, model, y, _ in self.cases():
            for p in model.parameters():
                p.grad = np.full_like(p.value, np.nan)
            model.loss_and_backward(self.X, y)
            for p in model.parameters():
                assert p.grad.shape == p.value.shape, f"{name}: {p.name}"
                assert not np.isnan(p.grad).any(), f"{name}: {p.name}"

    def test_inputs_are_left_unchanged(self):
        x = self.X.copy()
        for name, model, y, _ in self.cases():
            calls = [lambda: model.forward(x, train=True),
                     lambda: model.forward(x, train=False),
                     lambda: model.loss_only(x, y),
                     lambda: model.loss_only(x, y, train=True),
                     lambda: model.loss_and_backward(x, y)]
            for i, call in enumerate(calls):
                call()
                assert x.tobytes() == self.X.tobytes(), f"{name}: call {i}"
            encoder = (model.get_encoder() if isinstance(model, models.Autoencoder)
                       else models.strip_classifier(model))
            encoder.transform(x)
            assert x.tobytes() == self.X.tobytes(), f"{name}: transform"


class TestStripClassifier:
    def test_outputs_equal_gap_activations_exactly(self):
        fcn = models.FCNClassifier(7, seed=6)
        x = np.random.default_rng(6).standard_normal((4, 128, 3)).astype(np.float32)
        fit_batchnorm(fcn, x)
        encoder = models.strip_classifier(fcn)
        npt.assert_array_equal(encoder.net.forward(x, train=False),
                               fcn.body.forward(x, train=False))

    def test_output_dim_independent_of_classes(self):
        for k in (2, 9, 50):
            fcn = models.FCNClassifier(k, seed=1)
            x = np.random.default_rng(1).standard_normal((2, 128, 3)).astype(np.float32)
            fit_batchnorm(fcn, x)
            assert models.strip_classifier(fcn).transform(x).shape == (2, 128)

    def test_strip_then_serialize_round_trip(self, tmp_path):
        fcn = models.FCNClassifier(4, seed=7)
        x = np.random.default_rng(7).standard_normal((3, 128, 3)).astype(np.float32)
        fit_batchnorm(fcn, x)
        encoder = models.strip_classifier(fcn)
        path = tmp_path / "encoder.gvf"
        save_model(path, *models.to_container(encoder))
        reloaded = models.from_container(*load_model(path))
        npt.assert_array_equal(reloaded.transform(x), encoder.transform(x))

    def test_stripping_is_a_copy(self):
        fcn = models.FCNClassifier(3, seed=8)
        encoder = models.strip_classifier(fcn)
        encoder.parameters()[0].value[...] = 0
        assert fcn.parameters()[0].value.any()

    def test_detached_encoder_holds_no_training_cache(self, tmp_path):
        x = np.random.default_rng(9).standard_normal((8, 128, 3)).astype(np.float32)
        fcn, ae = models.FCNClassifier(3, seed=9), models.Autoencoder(seed=9)
        for model, y, detach, net in [(fcn, np.arange(8) % 3, models.strip_classifier, fcn.body),
                                      (ae, None, models.Autoencoder.get_encoder, ae.encoder)]:
            model.loss_and_backward(x, y)
            model.forward(x, train=True)  # a step leaves no block cache; a forward does
            encoder, deep = detach(model), models.Encoder(copy.deepcopy(net))

            def cached(enc):
                return [f"{m.name}.{k}" for m in flat_layers(enc.net) + blocks(enc)
                        for k, v in vars(m).items() if k.startswith("_") and v is not None]

            assert cached(deep) and not cached(encoder), net.name
            encoder.transform(x)
            assert not cached(encoder), net.name  # nor does inference keep anything
            paths = tmp_path / f"{net.name}.gvf", tmp_path / f"{net.name}.deep.gvf"
            save_model(paths[0], *models.to_container(encoder))
            save_model(paths[1], *models.to_container(deep))
            assert paths[0].read_bytes() == paths[1].read_bytes(), net.name


class TestExtractFeatures:
    def test_duplicate_frames_get_identical_vectors(self):
        frames = random_frames(1, seed=9)[np.zeros(3, dtype=int)]
        ae = models.Autoencoder(seed=9)
        fit_batchnorm(ae, models.frames_to_array(random_frames(8, seed=10)))
        encoder = ae.get_encoder()
        feats = extract(encoder, frames)
        assert len(feats) == 3
        npt.assert_array_equal(feats[0], feats[1])
        npt.assert_array_equal(feats[0], feats[2])

    def test_batch_equals_single(self):
        frames = random_frames(7, seed=11)
        fcn = models.FCNClassifier(3, seed=11)
        fit_batchnorm(fcn, models.frames_to_array(frames))
        encoder = models.strip_classifier(fcn)
        batched = extract(encoder, frames, batch_size=7)
        singles = [extract(encoder, frames[np.array([i])])[0] for i in range(len(frames))]
        for b, s in zip(batched, singles):
            npt.assert_allclose(b, s, atol=1e-6)

    def test_feature_dimension_is_128(self):
        fcn = models.FCNClassifier(2, seed=13)
        frames = random_frames(4, seed=13)
        fit_batchnorm(fcn, models.frames_to_array(frames))
        assert extract(models.strip_classifier(fcn), frames).shape == (4, 128)

    def test_circular_shift_changes_features(self):
        # sensitivity measured, not asserted as a hard bound
        from gaitverify.augment import circular_shift
        frames = random_frames(1, seed=14)
        fcn = models.FCNClassifier(2, seed=14)
        fit_batchnorm(fcn, models.frames_to_array(random_frames(8, seed=15)))
        encoder = models.strip_classifier(fcn)
        base = extract(encoder, frames)[0]
        shifted = encoder.transform(
            circular_shift(frames, np.array([40])).astype(np.float32))[0]
        assert np.linalg.norm(base - shifted) > 0


def randomize_batchnorm(model, seed):
    """Running statistics and affine parameters far from their defaults."""
    rng = np.random.default_rng(seed)
    for layer in model._nets()[0].layers:
        if isinstance(layer, ConvBlock):
            layer = layer.bn
            c = layer.running_mean.size
            dtype = layer.running_mean.dtype
            layer.running_mean = rng.standard_normal(c).astype(dtype)
            layer.running_var = rng.uniform(0.2, 3.0, c).astype(dtype)
            layer.gamma.value = rng.standard_normal(c).astype(dtype)
            layer.beta.value = rng.standard_normal(c).astype(dtype)
    return model


def unfolded_forward(encoder, x):
    """The encoder's inference pass in float64 without the fold.

    Each block runs conv, then batch norm with the running statistics as
    its own step, then ReLU: the inference path before batch norm was
    folded into the convolution.
    """
    h = np.asarray(x, dtype=np.float64)
    for block in blocks(encoder):
        conv, bn = block.conv, block.bn
        w, b, gamma, beta, mean, var = (a.astype(np.float64) for a in (
            conv.w.value, conv.b.value, bn.gamma.value, bn.beta.value,
            bn.running_mean, bn.running_var))
        h = ops.conv1d_forward(h, w, b)
        h = np.maximum((h - mean) / np.sqrt(var + 1e-3) * gamma + beta, 0)
    return h.mean(axis=1)


class TestFoldedTransform:
    """transform folds each batch norm into its conv; the reference does not."""

    @staticmethod
    def encoders(dtype):
        fcn = models.FCNClassifier(3, seed=20).cast(dtype)
        ae = models.Autoencoder(seed=21).cast(dtype)
        small = models.FCNClassifier(4, seed=22, filters=(16, 6), kernels=(4, 2)).cast(dtype)
        return [("strip_classifier", models.strip_classifier(randomize_batchnorm(fcn, 1))),
                ("get_encoder", randomize_batchnorm(ae, 2).get_encoder()),
                ("filters (16, 6), kernels (4, 2)",
                 models.strip_classifier(randomize_batchnorm(small, 3)))]

    def test_equals_unfolded_forward_float32(self):
        x = np.random.default_rng(23).standard_normal((10, 128, 3)).astype(np.float32)
        for name, encoder in self.encoders(np.float32):
            got = encoder.transform(x, batch_size=4)
            assert got.dtype == np.float32, name
            npt.assert_allclose(got, unfolded_forward(encoder, x),
                                rtol=1e-5, atol=1e-6, err_msg=name)

    def test_equals_unfolded_forward_float64(self):
        x = np.random.default_rng(24).standard_normal((10, 128, 3))
        for name, encoder in self.encoders(np.float64):
            npt.assert_allclose(encoder.transform(x, batch_size=4),
                                unfolded_forward(encoder, x),
                                rtol=1e-12, atol=1e-12, err_msg=name)

    def test_leaves_parameters_and_running_statistics_unchanged(self):
        x = np.random.default_rng(25).standard_normal((5, 128, 3)).astype(np.float32)
        for name, encoder in self.encoders(np.float32):
            before = encoder.snapshot()
            first = encoder.transform(x)
            after = encoder.snapshot()
            assert before.keys() == after.keys(), name
            for key in before:
                npt.assert_array_equal(after[key], before[key], err_msg=f"{name}: {key}")
            npt.assert_array_equal(encoder.transform(x), first, err_msg=name)

    def test_empty_input(self):
        for dtype in (np.float32, np.float64):
            _, encoder = self.encoders(dtype)[0]
            got = encoder.transform(np.empty((0, 128, 3), dtype))
            assert got.shape == (0, 128)
            assert got.dtype == dtype

    def test_batch_size_changes_only_rounding(self):
        x = np.random.default_rng(28).standard_normal((45, 128, 3)).astype(np.float32)
        for name, encoder in self.encoders(np.float32):
            default = encoder.transform(x)
            npt.assert_array_equal(default, encoder.transform(x, batch_size=32), err_msg=name)
            for batch_size in (1, 7, len(x)):
                npt.assert_allclose(encoder.transform(x, batch_size=batch_size), default,
                                    rtol=1e-6, atol=1e-7, err_msg=f"{name}: {batch_size}")

    def test_working_set_does_not_grow_with_frames(self):
        _, encoder = self.encoders(np.float32)[0]

        def peak(n):
            x = np.random.default_rng(29).standard_normal((n, 128, 3)).astype(np.float32)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = encoder.transform(x)
                return tracemalloc.get_traced_memory()[1] - base, out.nbytes
            finally:
                tracemalloc.stop()

        small, _ = peak(64)
        large, out_bytes = peak(930)
        assert large - small <= out_bytes + 2 * 2**20


class TestRawFeatures:
    def test_zero_frame(self):
        npt.assert_array_equal(models.raw_features(np.zeros((1, 128, 3))), np.zeros((1, 384)))

    def test_channel_major_order(self):
        values = np.stack([np.full(128, 1.0), np.full(128, 2.0), np.full(128, 3.0)], axis=1)
        expected = np.concatenate([np.full(128, 1.0), np.full(128, 2.0), np.full(128, 3.0)])
        npt.assert_array_equal(models.raw_features(values[None]), expected[None])

    def test_round_trip_reshape(self):
        values = random_frames(5, seed=16)
        vecs = models.raw_features(values)
        assert vecs.shape == (5, 384)
        for vec, v in zip(vecs, values):
            npt.assert_array_equal(vec, v.T.reshape(-1))
            npt.assert_array_equal(vec.reshape(3, 128).T, v)


class TestContainerRoundTrip:
    @staticmethod
    def encoder(seed):
        fcn = models.FCNClassifier(3, seed=seed)
        x = np.random.default_rng(seed).standard_normal((4, 128, 3)).astype(np.float32)
        return models.strip_classifier(fit_batchnorm(fcn, x))

    def test_reload_and_resave_is_byte_identical(self, tmp_path):
        path, again = tmp_path / "encoder.gvf", tmp_path / "again.gvf"
        save_model(path, *models.to_container(self.encoder(17)))
        save_model(again, *models.to_container(models.from_container(*load_model(path))))
        assert again.read_bytes() == path.read_bytes()

    def test_arrays_fix_the_tensor_order(self):
        encoder = self.encoder(18)
        metadata, arrays = models.to_container(encoder, {"mode": "e2e"})
        names = [p.name for p in encoder.parameters()]
        names += [f"block{i}.bn.{s}" for i in (1, 2, 3) for s in ("running_mean", "running_var")]
        assert list(arrays) == list(encoder.arrays()) == names
        assert metadata == {"arch": "fcn-encoder", "mode": "e2e"}

    def test_missing_metadata_is_a_format_error(self):
        encoder = models.strip_classifier(models.FCNClassifier(3, seed=19))
        metadata, arrays = models.to_container(encoder)
        del metadata["arch"]
        with pytest.raises(FormatError, match="'arch' is None, expected 'fcn-encoder'"):
            models.from_container(metadata, arrays)

    def test_malformed_metadata_is_a_format_error(self):
        encoder = models.strip_classifier(models.FCNClassifier(3, seed=20))
        metadata, arrays = models.to_container(encoder)
        metadata["arch"] = "fcn-encoder,128,256"
        with pytest.raises(FormatError, match="'arch' is 'fcn-encoder,128,256'"):
            models.from_container(metadata, arrays)

    def test_missing_tensor_is_a_format_error(self):
        encoder = models.strip_classifier(models.FCNClassifier(3, seed=21))
        metadata, arrays = models.to_container(encoder)
        first, *rest = arrays
        with pytest.raises(FormatError, match=f"lacks tensor '{first}'"):
            models.from_container(metadata, {name: arrays[name] for name in rest})

    @pytest.mark.parametrize("filters, kernels", [((16, 6), (4, 2)), ((4, 8, 4, 2), (3, 3, 3, 5))])
    def test_architecture_comes_from_the_convolution_weights(self, filters, kernels):
        fcn = models.FCNClassifier(3, seed=23, filters=filters, kernels=kernels)
        x = np.random.default_rng(23).standard_normal((4, 128, 3)).astype(np.float32)
        encoder = models.strip_classifier(fit_batchnorm(fcn, x))
        reloaded = models.from_container({"arch": "fcn-encoder"}, encoder.snapshot())
        assert [b.conv.w.value.shape for b in blocks(reloaded)] == [
            b.conv.w.value.shape for b in blocks(encoder)]
        npt.assert_array_equal(reloaded.transform(x), encoder.transform(x))

    @pytest.mark.parametrize("filters", ["4000,256,128", "1000000000000,256,128",
                                         "128,4000,128", "128,256,4000"])
    def test_architecture_metadata_sizes_nothing(self, filters):
        encoder = self.encoder(22)
        metadata, arrays = models.to_container(encoder)
        metadata.update(filters=filters, kernels="8,5,3", feature_dim=filters.rsplit(",", 1)[1],
                        batches_tracked="0")
        tracemalloc.start()
        try:
            reloaded = models.from_container(metadata, arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak  # the encoder and the arrays it copies are 2 MiB
        assert reloaded.snapshot().keys() == arrays.keys()
        assert all(a.tobytes() == arrays[k].tobytes() for k, a in reloaded.snapshot().items())

    def test_weights_are_checked_before_anything_is_built(self):
        # block2 built as (1, 4000, 4000) would be 122 MiB float64 from 64 KiB of arrays
        arrays = {"block1.conv.w": np.zeros((1, 3, 4000), np.float32),
                  "block2.conv.w": np.zeros((1, 1, 4000), np.float32)}
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"'block2.conv.w' has shape \(1, 1, 4000\), "
                                                  r"expected \(kernel, 4000, filters\)"):
                models.from_container({"arch": "fcn-encoder"}, arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


class TestSnapshot:
    X = np.random.default_rng(33).standard_normal((16, 128, 3)).astype(np.float32)

    def test_restore_after_training_steps_is_bit_exact_and_in_place(self):
        for name, model, y in [("autoencoder", models.Autoencoder(seed=34), None),
                               ("fcn", models.FCNClassifier(4, seed=35), np.arange(16) % 4)]:
            optimizer = Adam(model.parameters())

            def step():
                model.loss_and_backward(self.X, y)
                optimizer.step()

            step()
            live = model.arrays()
            snap = model.snapshot()
            assert all(snap[k] is not a for k, a in live.items()), name
            step()
            step()
            assert any(snap[k].tobytes() != a.tobytes() for k, a in live.items()), name
            model.load_snapshot(snap)
            restored = model.arrays()
            assert list(restored) == list(snap), name
            for key, a in restored.items():
                assert a is live[key], f"{name}: {key}"
                assert a.dtype == snap[key].dtype and a.tobytes() == snap[key].tobytes(), \
                    f"{name}: {key}"
            assert all(p.value is live[p.name] for p in optimizer.params), name
