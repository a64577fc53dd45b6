import copy
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from gaitverify import models
from gaitverify.data.container import ModelContainer, load_model, save_model
from gaitverify.errors import FormatError, InvalidInputError, InvalidStateError
from gaitverify.nn import ops
from gaitverify.nn.layers import Conv1d, ConvBlock, Sequential
from gaitverify.nn.optim import Adam
from gaitverify.nn.training import TrainConfig, evaluate_loss, train
from gaitverify.signal import Frames


def random_frames(n, seed=0):
    rng = np.random.default_rng(seed)
    return Frames(rng.standard_normal((n, 128, 3)), [("s01", "1", "r1", i) for i in range(n)])


def extract(encoder, frames, batch_size=256):
    """Learned features of a batch, as the extract command computes them."""
    return encoder.transform(models.frames_to_array(frames), batch_size=batch_size)


def flat_layers(net):
    """A net's layers, each ConvBlock replaced by its conv, batch norm and ReLU."""
    layers = net.layers if isinstance(net, Sequential) else [net]
    return [m for layer in layers
            for m in (layer.layers if isinstance(layer, ConvBlock) else [layer])]


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
        assert [(c.kernel_size, c.out_channels) for c in convs] == [(8, 128), (5, 256), (3, 128)]

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
        assert [(c.kernel_size, c.out_channels) for c in convs] == [(3, 128), (5, 256), (8, 3)]

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


class TestTrainingCaches:
    """One cached array per block, recomputed outputs, only the block's own buffer after a step."""

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
        # traced peak of a second step above the memory held at its start:
        # a block's backward must not keep a second activation-sized gradient
        for (name, model, y, _), mib in zip(self.cases(), (14.0, 14.0)):
            model.loss_and_backward(self.X, y)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                model.loss_and_backward(self.X, y)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= mib * 2**20, f"{name}: {peak / 2**20:.2f} MiB"

    def test_validation_peak_memory(self):
        # evaluate_loss right after a step: no block cache outlives the step,
        # so the traced peak is the inference working set alone
        for name, model, y, _ in self.cases():
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
            assert peak <= 9.5 * 2**20, f"{name}: {peak / 2**20:.2f} MiB"

    def test_blocks_keep_only_their_batch_norm_cache(self):
        for dtype in (np.float32, np.float64):
            for (name, model, y, _), count in zip(self.cases(), (5, 3)):
                name = f"{name} {np.dtype(dtype).name}"
                model.cast(dtype)
                x = self.X.astype(dtype)
                blocks = model.blocks()
                assert len(blocks) == count, name
                returned = {}
                for block in blocks:
                    def record(a, train, forward=block.relu.forward, key=block.name):
                        out = forward(a, train)
                        returned[key] = out.copy()
                        return out
                    block.relu.forward = record
                model.forward(x, train=True)
                for block in blocks:
                    del block.relu.forward
                for block in blocks:
                    # after a training forward: the batch norm's (xhat, inv_std), and
                    # the network input for the first convolution, nothing else
                    where = f"{name}: {block.name}"
                    xhat, inv_std = block.bn._cache
                    assert xhat.shape == returned[block.name].shape, where
                    assert inv_std.shape == (xhat.shape[-1],), where
                    assert block.relu._x is None, where
                    assert block.conv._x is (x if block is blocks[0] else None), where
                    # the recomputed output is what the ReLU returned, bit for bit
                    assert block.output().tobytes() == returned[block.name].tobytes(), where
                model.loss_and_backward(x, y)
                for block in blocks:
                    assert block.conv._x is block.bn._cache is block.relu._x is None, name

    def test_a_block_owns_one_buffer_across_steps(self):
        rng = np.random.default_rng(33)
        block = ConvBlock(5, 3, 8, np.random.default_rng(34), name="b")
        fresh = copy.deepcopy(block)
        x = rng.standard_normal((8, 16, 3)).astype(np.float32)
        gy = rng.standard_normal((8, 16, 8)).astype(np.float32)
        block.forward(x, train=False)
        assert block._buffer is None  # inference holds none
        block.forward(x, train=True)
        block.backward(gy.copy())
        buffer = block._buffer
        assert buffer.shape == (8, 16, 8) and buffer.dtype == np.float32
        # a second step, then a short last batch in a leading slice of the buffer
        for n in (8, 5):
            for b in (block, fresh):
                for p in b.parameters():
                    p.grad[...] = 0
            y = block.forward(x[:n], train=True)
            assert block._buffer is buffer
            xhat = block.bn._cache[0]
            assert xhat.shape == (n, 16, 8)
            assert xhat.ctypes.data == buffer.ctypes.data
            grad_x = block.backward(gy[:n].copy())
            want_y = fresh.forward(x[:n], train=True)
            want_x = fresh.backward(gy[:n].copy())
            assert y.tobytes() == want_y.tobytes() and grad_x.tobytes() == want_x.tobytes(), n
            for p, q in zip(block.parameters(), fresh.parameters()):
                assert p.grad.tobytes() == q.grad.tobytes(), f"{n}: {p.name}"
        block.cast(np.float64)
        assert block._buffer is None
        block.forward(x.astype(np.float64), train=True)
        assert block._buffer.dtype == np.float64

    def test_a_step_leaves_each_block_its_buffer_and_validation_none_more(self):
        for name, model, y, _ in self.cases():
            model.loss_and_backward(self.X, y)
            buffers = [block._buffer for block in model.blocks()]
            assert [b.shape for b in buffers] == [
                (32, 128, block.conv.out_channels) for block in model.blocks()], name
            evaluate_loss(model, self.X, y, 32)
            model.loss_and_backward(self.X[:20], y if y is None else y[:20])
            assert all(block._buffer is b for block, b in zip(model.blocks(), buffers)), name

    def test_skipping_the_first_input_gradient_keeps_parameter_gradients(self):
        _, model, y, _ = self.cases()[1]
        model.loss_and_backward(self.X, y)
        skipped = {p.name: p.grad.copy() for p in model.parameters()}
        model.zero_grads()
        _, dlogits = ops.softmax_crossentropy(model.forward(self.X, train=True), y)
        grad_x = model.body.backward(model.head.backward(dlogits))
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
        save_model(models.to_container(encoder), path)
        reloaded = models.from_container(load_model(path))
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
                return [f"{m.name}.{k}" for m in flat_layers(enc.net) + enc.blocks()
                        for k, v in vars(m).items() if k.startswith("_") and v is not None]

            assert cached(deep) and not cached(encoder), net.name
            assert all(block._buffer is not None for block in deep.blocks()), net.name
            encoder.transform(x)
            assert all(block._buffer is None for block in encoder.blocks()), net.name
            paths = tmp_path / f"{net.name}.gvf", tmp_path / f"{net.name}.deep.gvf"
            save_model(models.to_container(encoder), paths[0])
            save_model(models.to_container(deep), paths[1])
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

    def test_untrained_encoder_rejected(self):
        encoder = models.strip_classifier(models.FCNClassifier(3, seed=12))
        with pytest.raises(InvalidStateError):
            extract(encoder, random_frames(2))

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
            circular_shift(frames.values, np.array([40])).astype(np.float32))[0]
        assert np.linalg.norm(base - shifted) > 0


def randomize_batchnorm(model, seed):
    """Running statistics and affine parameters far from their defaults."""
    rng = np.random.default_rng(seed)
    for layer in model._nets()[0].layers:
        if isinstance(layer, ConvBlock):
            layer = layer.bn
            c = layer.channels
            dtype = layer.running_mean.dtype
            layer.running_mean = rng.standard_normal(c).astype(dtype)
            layer.running_var = rng.uniform(0.2, 3.0, c).astype(dtype)
            layer.gamma.value = rng.standard_normal(c).astype(dtype)
            layer.beta.value = rng.standard_normal(c).astype(dtype)
            layer.batches_tracked = 1
    return model


def unfolded_forward(encoder, x):
    """The encoder's inference pass in float64 without the fold.

    Each block runs conv, then batch norm with the running statistics as
    its own step, then ReLU: the inference path before batch norm was
    folded into the convolution.
    """
    h = np.asarray(x, dtype=np.float64)
    for block in encoder.blocks():
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
            tracked = encoder.batches_tracked
            first = encoder.transform(x)
            after = encoder.snapshot()
            assert before.keys() == after.keys(), name
            for key in before:
                npt.assert_array_equal(after[key], before[key], err_msg=f"{name}: {key}")
            assert encoder.batches_tracked == tracked
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

    def test_untrained_encoder_raises(self):
        encoder = models.strip_classifier(models.FCNClassifier(3, seed=26))
        with pytest.raises(InvalidStateError):
            encoder.transform(np.zeros((2, 128, 3), np.float32))


class TestRawFeatures:
    def test_zero_frame(self):
        npt.assert_array_equal(models.raw_features(np.zeros((1, 128, 3))), np.zeros((1, 384)))

    def test_channel_major_order(self):
        values = np.stack([np.full(128, 1.0), np.full(128, 2.0), np.full(128, 3.0)], axis=1)
        expected = np.concatenate([np.full(128, 1.0), np.full(128, 2.0), np.full(128, 3.0)])
        npt.assert_array_equal(models.raw_features(values[None]), expected[None])

    def test_round_trip_reshape(self):
        values = random_frames(5, seed=16).values
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
        save_model(models.to_container(self.encoder(17)), path)
        save_model(models.to_container(models.from_container(load_model(path))), again)
        assert again.read_bytes() == path.read_bytes()

    def test_arrays_fix_the_tensor_order(self):
        encoder = self.encoder(18)
        container = models.to_container(encoder, {"mode": "e2e"})
        names = [p.name for p in encoder.parameters()]
        names += [f"block{i}.bn.{s}" for i in (1, 2, 3) for s in ("running_mean", "running_var")]
        assert container.names() == list(encoder.arrays()) == names
        assert list(container.metadata) == ["arch", "filters", "kernels", "feature_dim",
                                            "mode", "batches_tracked"]

    def test_missing_metadata_is_a_format_error(self):
        encoder = models.strip_classifier(models.FCNClassifier(3, seed=19))
        for key in ("filters", "kernels"):
            container = models.to_container(encoder)
            del container.metadata[key]
            with pytest.raises(FormatError, match=f"lacks '{key}'"):
                models.from_container(container)

    def test_malformed_metadata_is_a_format_error(self):
        container = models.to_container(models.strip_classifier(models.FCNClassifier(3, seed=20)))
        container.metadata["filters"] = "128,256,many"
        with pytest.raises(FormatError, match="'filters' is not integers"):
            models.from_container(container)

    def test_missing_tensor_is_a_format_error(self):
        full = models.to_container(models.strip_classifier(models.FCNClassifier(3, seed=21)))
        container = ModelContainer(full.metadata)
        for name in full.names()[1:]:
            container.add(name, full.get(name))
        with pytest.raises(FormatError, match=f"lacks tensor '{full.names()[0]}'"):
            models.from_container(container)


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
