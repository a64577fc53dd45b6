import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gaitverify.errors import InvalidInputError
from gaitverify.nn import ops


def central_diff(f, x, eps=1e-6):
    """Finite-difference gradient of scalar f w.r.t. array x (independent oracle)."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


class TestConv1dForward:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 16, 4))
        w = np.eye(4)[None, :, :]  # K=1, delta_{ci,co}
        y = ops.conv1d_forward(x, w, np.zeros(4))
        npt.assert_allclose(y, x, rtol=1e-12)

    def test_hand_convolution_oracle(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
        w = np.ones((3, 1, 1))
        y = ops.conv1d_forward(x, w, np.zeros(1))
        npt.assert_allclose(y[0, :, 0], [3.0, 6.0, 9.0, 7.0])

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_length_preserved(self, k):
        rng = np.random.default_rng(k)
        x = rng.standard_normal((2, 128, 3))
        w = rng.standard_normal((k, 3, 6))
        assert ops.conv1d_forward(x, w, np.zeros(6)).shape == (2, 128, 6)

    def test_even_kernel_padding_split(self):
        # K=2: left pad 0, right pad 1 -> y[t] = x[t]*w0 + x[t+1]*w1, last uses 0
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1)
        w = np.array([10.0, 1.0]).reshape(2, 1, 1)
        y = ops.conv1d_forward(x, w, np.zeros(1))
        npt.assert_allclose(y[0, :, 0], [12.0, 23.0, 30.0])

    def test_bias_added(self):
        x = np.zeros((1, 4, 2))
        w = np.zeros((3, 2, 5))
        y = ops.conv1d_forward(x, w, np.arange(5.0))
        npt.assert_allclose(y[0, 0], np.arange(5.0))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            ops.conv1d_forward(np.zeros((1, 4, 2)), np.zeros((3, 3, 5)), np.zeros(5))


class TestConv1dBackward:
    def test_zero_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 6, 3))
        w = rng.standard_normal((3, 3, 4))
        gx, gw, gb = ops.conv1d_backward(x, w, np.zeros((2, 6, 4)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_identity_kernel_passes_gradient(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 6, 4))
        w = np.eye(4)[None, :, :]
        gy = rng.standard_normal((2, 6, 4))
        gx, _, _ = ops.conv1d_backward(x, w, gy)
        npt.assert_allclose(gx, gy, rtol=1e-12)

    @pytest.mark.parametrize("k,t", [(3, 5), (5, 9), (8, 12)])
    def test_matches_finite_differences(self, k, t):
        rng = np.random.default_rng(k + t)
        x = rng.standard_normal((2, t, 3))
        w = rng.standard_normal((k, 3, 4))
        b = rng.standard_normal(4)
        gy = rng.standard_normal((2, t, 4))

        def loss():
            return float(np.sum(ops.conv1d_forward(x, w, b) * gy))

        gx, gw, gb = ops.conv1d_backward(x, w, gy)
        npt.assert_allclose(gx, central_diff(loss, x), rtol=1e-6, atol=1e-8)
        npt.assert_allclose(gw, central_diff(loss, w), rtol=1e-6, atol=1e-8)
        npt.assert_allclose(gb, central_diff(loss, b), rtol=1e-6, atol=1e-8)


class TestBatchNorm:
    def test_gamma_one_beta_zero_on_standardized_input(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 16, 4))
        x = (x - x.mean(axis=(0, 1))) / x.std(axis=(0, 1))
        y, _, _, _ = ops.batchnorm_forward(
            x, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4), train=True)
        var = x.var(axis=(0, 1))
        npt.assert_allclose(y, x * np.sqrt(var / (var + 1e-3)), rtol=1e-10)

    def test_gamma_zero_gives_beta(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 8, 3))
        beta = np.array([1.0, -2.0, 0.5])
        y, _, _, _ = ops.batchnorm_forward(
            x, np.zeros(3), beta, np.zeros(3), np.ones(3), train=True)
        npt.assert_allclose(y, np.broadcast_to(beta, y.shape), atol=1e-12)

    def test_train_statistics_against_direct_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 10, 5)) * 3.0 + 1.0
        gamma = rng.standard_normal(5)
        beta = rng.standard_normal(5)
        y, _, _, _ = ops.batchnorm_forward(
            x, gamma, beta, np.zeros(5), np.ones(5), train=True)
        mean = x.reshape(-1, 5).mean(axis=0)
        var = x.reshape(-1, 5).var(axis=0)
        expected = gamma * (x - mean) / np.sqrt(var + 1e-3) + beta
        npt.assert_allclose(y, expected, rtol=1e-6)

    def test_running_statistics_update(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 8, 2)) + 5.0
        rm, rv = np.zeros(2), np.ones(2)
        _, _, new_rm, new_rv = ops.batchnorm_forward(
            x, np.ones(2), np.zeros(2), rm, rv, train=True, momentum=0.9)
        npt.assert_allclose(new_rm, 0.1 * x.mean(axis=(0, 1)), rtol=1e-12)
        npt.assert_allclose(new_rv, 0.9 + 0.1 * x.var(axis=(0, 1)), rtol=1e-12)

    def test_infer_mode_uses_running_stats(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 4, 3))
        rm = np.array([1.0, 2.0, 3.0])
        rv = np.array([4.0, 9.0, 16.0])
        y, _, _, _ = ops.batchnorm_forward(
            x, np.ones(3), np.zeros(3), rm, rv, train=False)
        npt.assert_allclose(y, (x - rm) / np.sqrt(rv + 1e-3), rtol=1e-12)

    def test_train_needs_two_values(self):
        with pytest.raises(InvalidInputError):
            ops.batchnorm_forward(np.zeros((1, 1, 3)), np.ones(3), np.zeros(3),
                                  np.zeros(3), np.ones(3), train=True)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 7, 4))
        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        gy = rng.standard_normal((3, 7, 4))

        def loss():
            y, _, _, _ = ops.batchnorm_forward(
                x, gamma, beta, np.zeros(4), np.ones(4), train=True)
            return float(np.sum(y * gy))

        _, cache, _, _ = ops.batchnorm_forward(
            x, gamma, beta, np.zeros(4), np.ones(4), train=True)
        gx, ggamma, gbeta = ops.batchnorm_backward(gy, cache)
        npt.assert_allclose(gx, central_diff(loss, x), rtol=1e-5, atol=1e-8)
        npt.assert_allclose(ggamma, central_diff(loss, gamma), rtol=1e-6, atol=1e-8)
        npt.assert_allclose(gbeta, central_diff(loss, beta), rtol=1e-6, atol=1e-8)

    def test_backward_zero_grad(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 5, 3))
        _, cache, _, _ = ops.batchnorm_forward(
            x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), train=True)
        gx, ggamma, gbeta = ops.batchnorm_backward(np.zeros_like(x), cache)
        assert not gx.any() and not ggamma.any() and not gbeta.any()


# --- oracles: the direct implementations the BLAS-shaped ops replaced -------

def ref_conv1d_forward(x, w, b):
    kk = w.shape[0]
    pad_l, pad_r = (kk - 1) // 2, kk - (kk - 1) // 2 - 1
    v = sliding_window_view(np.pad(x, ((0, 0), (pad_l, pad_r), (0, 0))), kk, axis=1)
    return np.tensordot(v, w, axes=([3, 2], [0, 1])) + b


def ref_conv1d_backward(x, w, grad_y):
    kk, cin, cout = w.shape
    bsz, t, _ = x.shape
    pad_l, pad_r = (kk - 1) // 2, kk - (kk - 1) // 2 - 1
    v = sliding_window_view(np.pad(x, ((0, 0), (pad_l, pad_r), (0, 0))), kk, axis=1)
    grad_b = grad_y.sum(axis=(0, 1))
    grad_w = np.tensordot(v, grad_y, axes=([0, 1], [0, 1])).transpose(1, 0, 2)
    grad_xp = np.zeros((bsz, t + pad_l + pad_r, cin), dtype=x.dtype)
    for k in range(kk):
        grad_xp[:, k:k + t, :] += grad_y @ w[k].T
    return grad_xp[:, pad_l:pad_l + t, :], grad_w, grad_b


def ref_batchnorm_forward(x, gamma, beta, running_mean, running_var, train,
                          momentum=0.99, eps=1e-3):
    axes = tuple(range(x.ndim - 1))
    if train:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        new_rm = momentum * running_mean + (1.0 - momentum) * mean
        new_rv = momentum * running_var + (1.0 - momentum) * var
    else:
        mean, var = running_mean, running_var
        new_rm, new_rv = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    return gamma * xhat + beta, (xhat, inv_std, gamma, train), new_rm, new_rv


def ref_batchnorm_backward(grad_y, cache):
    xhat, inv_std, gamma, train = cache
    axes = tuple(range(grad_y.ndim - 1))
    grad_gamma = (grad_y * xhat).sum(axis=axes)
    grad_beta = grad_y.sum(axis=axes)
    gxhat = grad_y * gamma
    if train:
        n = float(np.prod([grad_y.shape[a] for a in axes]))
        grad_x = (inv_std / n) * (
            n * gxhat - gxhat.sum(axis=axes) - xhat * (gxhat * xhat).sum(axis=axes))
    else:
        grad_x = gxhat * inv_std
    return grad_x, grad_gamma, grad_beta


def assert_close(actual, expected):
    """Equal up to float64 rounding: rtol 1e-10, atol 1e-12 of the largest entry."""
    assert actual.shape == expected.shape
    npt.assert_allclose(actual, expected, rtol=1e-10, atol=1e-12 * np.abs(expected).max())


# (K, Cin, Cout) of the six convolutions: block1..3, dec.block1, dec.block2, dec.out
MODEL_CONV_SHAPES = [(8, 3, 128), (5, 128, 256), (3, 256, 128),
                     (3, 128, 128), (5, 128, 256), (8, 256, 3)]
# even kernels, and sequences shorter than the kernel (every tap partly in the padding)
EDGE_CONV_SHAPES = [(2, 3, 4), (4, 5, 3), (6, 2, 2), (1, 3, 2)]


class TestConv1dAgainstReference:
    @pytest.mark.parametrize("k,cin,cout,t", [s + (32,) for s in MODEL_CONV_SHAPES]
                             + [s + (9,) for s in EDGE_CONV_SHAPES]
                             + [(8, 3, 4, 3), (8, 2, 3, 1), (5, 4, 2, 2), (4, 3, 3, 2)]
                             # either side of the Cin <= Cout branch, and T < K on the output side
                             + [(3, 129, 128, 32), (3, 128, 129, 32), (8, 256, 3, 5)])
    def test_forward_and_backward_match_reference(self, k, cin, cout, t):
        rng = np.random.default_rng(k * 1000 + cin + cout + t)
        x = rng.standard_normal((3, t, cin))
        w = rng.standard_normal((k, cin, cout))
        b = rng.standard_normal(cout)
        gy = rng.standard_normal((3, t, cout))
        assert_close(ops.conv1d_forward(x, w, b), ref_conv1d_forward(x, w, b))
        for got, want in zip(ops.conv1d_backward(x, w, gy), ref_conv1d_backward(x, w, gy)):
            assert_close(got, want)

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(17)
        for cin, cout in [(3, 4), (6, 2)]:
            x = rng.standard_normal((2, 10, cin)).astype(np.float32)
            w = rng.standard_normal((8, cin, cout)).astype(np.float32)
            gy = rng.standard_normal((2, 10, cout)).astype(np.float32)
            assert ops.conv1d_forward(x, w, np.zeros(cout, np.float32)).dtype == np.float32
            grads = ops.conv1d_backward(x, w, gy)
            assert [g.dtype for g in grads] == [np.float32] * 3, (cin, cout)

    def test_narrow_output_copies_no_wide_im2col(self):
        # dec.out at the training batch: a (B*T, K*Cin) im2col of x would take 8x its size
        rng = np.random.default_rng(18)
        x = rng.standard_normal((32, 128, 256)).astype(np.float32)
        w = rng.standard_normal((8, 256, 3)).astype(np.float32)
        b = np.zeros(3, np.float32)
        gy = rng.standard_normal((32, 128, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ops.conv1d_forward(x, w, b)
            ops.conv1d_backward(x, w, gy)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.nbytes


class TestBatchNormAgainstReference:
    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("cout", sorted({s[2] for s in MODEL_CONV_SHAPES}))
    def test_forward_and_backward_match_reference(self, train, cout):
        rng = np.random.default_rng(cout + train)
        x = rng.standard_normal((3, 32, cout)) * 2.0 + 0.5
        gamma = rng.standard_normal(cout)
        beta = rng.standard_normal(cout)
        rm = rng.standard_normal(cout)
        rv = rng.uniform(0.5, 2.0, cout)
        gy = rng.standard_normal(x.shape)
        x_before = x.copy()
        got = ops.batchnorm_forward(x, gamma, beta, rm, rv, train=train)
        want = ref_batchnorm_forward(x, gamma, beta, rm, rv, train=train)
        npt.assert_array_equal(x, x_before)
        for a, e in [(got[0], want[0]), (got[2], want[2]), (got[3], want[3]),
                     (got[1][0], want[1][0]), (got[1][1], want[1][1])]:
            assert_close(a, e)
        assert got[1][3] is train
        for a, e in zip(ops.batchnorm_backward(gy, got[1]),
                        ref_batchnorm_backward(gy, want[1])):
            assert_close(a, e)

    def test_backward_shape_mismatch(self):
        _, cache, _, _ = ops.batchnorm_forward(
            np.ones((2, 4, 3)), np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), train=True)
        with pytest.raises(InvalidInputError):
            ops.batchnorm_backward(np.zeros((2, 4, 2)), cache)


class TestReluAndGap:
    def test_relu_cases(self):
        npt.assert_array_equal(ops.relu_forward(np.array([2.0, 0.5])), [2.0, 0.5])
        npt.assert_array_equal(ops.relu_forward(np.array([-2.0, -0.1])), [0.0, 0.0])
        npt.assert_array_equal(ops.relu_forward(np.array([-1.0, 2.0])), [0.0, 2.0])
        g = ops.relu_backward(np.array([-1.0, 2.0]), np.array([3.0, 4.0]))
        npt.assert_array_equal(g, [0.0, 4.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_forward_writes_into_its_argument(self, dtype):
        x = np.random.default_rng(11).standard_normal((4, 9, 5)).astype(dtype)
        x[0, :3] = 0.0
        x[1, 0, 0] = -0.0
        want = np.where(x > 0, x, 0).astype(dtype)
        got = ops.relu_forward(x)
        assert got is x
        assert got.dtype == dtype
        npt.assert_array_equal(got, want)
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_backward_masks_grad_y_in_place(self, dtype):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 9, 5)).astype(dtype)
        x[0, :3] = 0.0
        grad_y = rng.standard_normal(x.shape).astype(dtype)
        want = grad_y * (x > 0)
        x_before = x.copy()
        got = ops.relu_backward(x, grad_y)
        assert got is grad_y
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert (got[0, :3] == 0).all()
        npt.assert_array_equal(x, x_before)
        # the mask of the output equals the mask of the input, zeros included
        grad_y = rng.standard_normal(x.shape).astype(dtype)
        want = grad_y * (x > 0)
        assert ops.relu_backward(ops.relu_forward(x), grad_y).tobytes() == want.tobytes()

    def test_gap_constant_in_time(self):
        x = np.ones((2, 10, 3)) * np.array([1.0, 2.0, 3.0])
        npt.assert_allclose(ops.gap_forward(x), [[1, 2, 3], [1, 2, 3]])

    def test_gap_two_sample_mean(self):
        x = np.array([1.0, 3.0]).reshape(1, 2, 1)
        npt.assert_allclose(ops.gap_forward(x), [[2.0]])

    def test_gap_against_mean_oracle_and_backward(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 12, 5))
        npt.assert_allclose(ops.gap_forward(x), x.mean(axis=1), rtol=1e-12)
        gy = rng.standard_normal((3, 5))
        gx = ops.gap_backward(gy, 12)

        def loss():
            return float(np.sum(ops.gap_forward(x) * gy))

        npt.assert_allclose(gx, central_diff(loss, x), rtol=1e-6, atol=1e-9)


class TestDense:
    def test_identity_weights(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 5))
        npt.assert_allclose(ops.dense_forward(x, np.eye(5), np.zeros(5)), x)

    def test_zero_weights_broadcast_bias(self):
        b = np.array([1.0, 2.0])
        y = ops.dense_forward(np.ones((4, 3)), np.zeros((3, 2)), b)
        npt.assert_allclose(y, np.broadcast_to(b, (4, 2)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((6, 3))
        b = rng.standard_normal(3)
        gy = rng.standard_normal((4, 3))

        def loss():
            return float(np.sum(ops.dense_forward(x, w, b) * gy))

        gx, gw, gb = ops.dense_backward(x, w, gy)
        npt.assert_allclose(gx, central_diff(loss, x), rtol=1e-6, atol=1e-9)
        npt.assert_allclose(gw, central_diff(loss, w), rtol=1e-6, atol=1e-9)
        npt.assert_allclose(gb, central_diff(loss, b), rtol=1e-6, atol=1e-9)


class TestSoftmaxCrossentropy:
    def test_uniform_logits_gives_log_k(self):
        for k in (2, 3, 10):
            loss, _ = ops.softmax_crossentropy(np.zeros((4, k)), np.zeros(4, dtype=int))
            assert loss == pytest.approx(np.log(k), rel=1e-12)

    def test_confident_correct_logit_drives_loss_down(self):
        losses = []
        for scale in (0.0, 2.0, 5.0, 20.0):
            logits = np.zeros((1, 3))
            logits[0, 1] = scale
            loss, _ = ops.softmax_crossentropy(logits, np.array([1]))
            losses.append(loss)
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-8

    def test_against_direct_formula_oracle(self):
        rng = np.random.default_rng(14)
        logits = rng.standard_normal((2, 3))
        labels = np.array([2, 0])
        loss, grad = ops.softmax_crossentropy(logits.copy(), labels)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected_loss = -np.mean([np.log(p[0, 2]), np.log(p[1, 0])])
        onehot = np.zeros((2, 3))
        onehot[0, 2] = onehot[1, 0] = 1.0
        npt.assert_allclose(loss, expected_loss, rtol=1e-10)
        npt.assert_allclose(grad, (p - onehot) / 2, rtol=1e-10)

    def test_softmax_rows_form_simplex(self):
        rng = np.random.default_rng(15)
        p = ops.softmax(rng.standard_normal((50, 7)) * 30)
        assert np.all(p >= 0)
        npt.assert_allclose(p.sum(axis=1), np.ones(50), atol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(InvalidInputError):
            ops.softmax_crossentropy(np.zeros((2, 3)), np.array([0, 3]))


class TestMseLoss:
    def test_equal_inputs(self):
        x = np.arange(6.0).reshape(2, 3)
        loss, grad = ops.mse_loss(x, x.copy())
        assert loss == 0.0
        assert not grad.any()

    def test_unit_offset(self):
        loss, _ = ops.mse_loss(np.zeros((3, 4)), np.ones((3, 4)))
        assert loss == pytest.approx(1.0)

    def test_against_direct_oracle(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 5, 3))
        xh = rng.standard_normal((2, 5, 3))
        loss, grad = ops.mse_loss(x, xh)
        npt.assert_allclose(loss, np.mean((x - xh) ** 2), rtol=1e-12)

        def loss_fn():
            return ops.mse_loss(x, xh)[0]

        npt.assert_allclose(grad, central_diff(loss_fn, xh), rtol=1e-5, atol=1e-9)
