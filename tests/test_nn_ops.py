import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gaitverify.errors import InvalidInputError
from gaitverify.nn import ops
from gaitverify.nn.layers import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNorm,
    ConvBlock,
    Dense,
    GlobalAveragePool,
    ReLU,
)


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


def batchnorm(gamma, beta, running_mean=None, running_var=None):
    """A float64 BatchNorm layer holding these parameters and running statistics."""
    bn = BatchNorm(len(gamma))
    bn.cast(np.float64)
    bn.gamma.value[...] = gamma
    bn.beta.value[...] = beta
    if running_mean is not None:
        bn.running_mean[...] = running_mean
        bn.running_var[...] = running_var
    return bn


class TestBatchNorm:
    def test_gamma_one_beta_zero_on_standardized_input(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 16, 4))
        x = (x - x.mean(axis=(0, 1))) / x.std(axis=(0, 1))
        y = batchnorm(np.ones(4), np.zeros(4)).forward(x.copy(), train=True)
        var = x.var(axis=(0, 1))
        npt.assert_allclose(y, x * np.sqrt(var / (var + 1e-3)), rtol=1e-10)

    def test_gamma_zero_gives_beta(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 8, 3))
        beta = np.array([1.0, -2.0, 0.5])
        y = batchnorm(np.zeros(3), beta).forward(x, train=True)
        npt.assert_allclose(y, np.broadcast_to(beta, y.shape), atol=1e-12)

    def test_train_statistics_against_direct_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 10, 5)) * 3.0 + 1.0
        gamma = rng.standard_normal(5)
        beta = rng.standard_normal(5)
        y = batchnorm(gamma, beta).forward(x.copy(), train=True)
        mean = x.reshape(-1, 5).mean(axis=0)
        var = x.reshape(-1, 5).var(axis=0)
        expected = gamma * (x - mean) / np.sqrt(var + 1e-3) + beta
        npt.assert_allclose(y, expected, rtol=1e-6)

    def test_running_statistics_update(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 8, 2)) + 5.0
        bn = batchnorm(np.ones(2), np.zeros(2))
        live_mean = bn.running_mean
        bn.forward(x.copy(), train=True)
        m = BN_MOMENTUM
        npt.assert_allclose(bn.running_mean, (1 - m) * x.mean(axis=(0, 1)), rtol=1e-12)
        npt.assert_allclose(bn.running_var, m + (1 - m) * x.var(axis=(0, 1)), rtol=1e-12)
        assert bn.running_mean is live_mean and bn.batches_tracked == 1

    def test_infer_mode_uses_running_stats(self):
        # inference runs through the block's fold: relu(BN(conv(x))) with running stats
        rng = np.random.default_rng(7)
        block = ConvBlock(1, 3, 3, rng, name="b")
        block.cast(np.float64)
        block.conv.w.value[...] = np.eye(3)[None]
        block.conv.b.value[...] = [0.5, -0.5, 0.0]
        block.bn.running_mean[...] = [1.0, 2.0, 3.0]
        block.bn.running_var[...] = [4.0, 9.0, 16.0]
        x = rng.standard_normal((2, 4, 3)) + 2.0
        pre = (x + block.conv.b.value - block.bn.running_mean) / np.sqrt(
            block.bn.running_var + 1e-3)
        npt.assert_allclose(block.forward(x, train=False), np.maximum(pre, 0), rtol=1e-12)
        assert block.bn.batches_tracked == 0 and block.bn._cache is None

    def test_train_needs_two_values(self):
        with pytest.raises(InvalidInputError):
            batchnorm(np.ones(3), np.zeros(3)).forward(np.zeros((1, 1, 3)), train=True)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 7, 4))
        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        gy = rng.standard_normal((3, 7, 4))
        bn = batchnorm(gamma, beta)

        def loss():
            return float(np.sum(bn.forward(x.copy(), train=True) * gy))

        gx = central_diff(loss, x)
        ggamma = central_diff(loss, bn.gamma.value)
        gbeta = central_diff(loss, bn.beta.value)
        bn.forward(x.copy(), train=True)
        npt.assert_allclose(bn.backward(gy.copy()), gx, rtol=1e-5, atol=1e-8)
        npt.assert_allclose(bn.gamma.grad, ggamma, rtol=1e-6, atol=1e-8)
        npt.assert_allclose(bn.beta.grad, gbeta, rtol=1e-6, atol=1e-8)

    def test_backward_zero_grad(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 5, 3))
        bn = batchnorm(np.ones(3), np.zeros(3))
        bn.forward(x, train=True)
        gx = bn.backward(np.zeros_like(x))
        assert not gx.any() and not bn.gamma.grad.any() and not bn.beta.grad.any()

    def test_backward_writes_into_grad_y(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 5, 3))
        bn = batchnorm(np.ones(3), np.zeros(3))
        bn.forward(x, train=True)
        gy = rng.standard_normal(x.shape)
        want = bn.backward(gy.copy())
        got = bn.backward(gy)
        assert got is gy
        npt.assert_array_equal(got, want)


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


def ref_batchnorm_forward(x, gamma, beta, running_mean, running_var,
                          momentum=0.99, eps=1e-3):
    axes = tuple(range(x.ndim - 1))
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    new_rm = momentum * running_mean + (1.0 - momentum) * mean
    new_rv = momentum * running_var + (1.0 - momentum) * var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    return gamma * xhat + beta, (xhat, inv_std, gamma), new_rm, new_rv


def ref_batchnorm_backward(grad_y, cache):
    xhat, inv_std, gamma = cache
    axes = tuple(range(grad_y.ndim - 1))
    grad_gamma = (grad_y * xhat).sum(axis=axes)
    grad_beta = grad_y.sum(axis=axes)
    gxhat = grad_y * gamma
    n = float(np.prod([grad_y.shape[a] for a in axes]))
    grad_x = (inv_std / n) * (
        n * gxhat - gxhat.sum(axis=axes) - xhat * (gxhat * xhat).sum(axis=axes))
    return grad_x, grad_gamma, grad_beta


# --- oracles: the op functions the layers took over, in float64 --------------

def op_batchnorm_forward(x, gamma, beta, running_mean, running_var):
    axes = tuple(range(x.ndim - 1))
    mean = x.mean(axis=axes)
    xhat = x - mean
    y = np.square(xhat)
    var = y.mean(axis=axes)
    new_rm = BN_MOMENTUM * running_mean + (1.0 - BN_MOMENTUM) * mean
    new_rv = BN_MOMENTUM * running_var + (1.0 - BN_MOMENTUM) * var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y, (xhat, inv_std, gamma), new_rm, new_rv


def op_batchnorm_backward(grad_y, cache):
    xhat, inv_std, gamma = cache
    axes = tuple(range(grad_y.ndim - 1))
    tmp = grad_y * xhat
    grad_gamma = tmp.sum(axis=axes)
    grad_beta = grad_y.sum(axis=axes)
    n = float(np.prod([grad_y.shape[a] for a in axes]))
    grad_y -= np.multiply(xhat, grad_gamma / n, out=tmp)
    grad_y -= grad_beta / n
    grad_y *= gamma * inv_std
    return grad_y, grad_gamma, grad_beta


def op_relu_backward(x, grad_y):
    return np.multiply(grad_y, x > 0, out=grad_y)


def op_gap_backward(grad_y, t):
    return np.repeat(grad_y[:, None, :], t, axis=1) / t


def op_dense_backward(x, w, grad_y):
    return grad_y @ w.T, x.T @ grad_y, grad_y.sum(axis=0)


def op_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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

    @pytest.mark.parametrize("k,cin,cout", [(8, 3, 128), (3, 256, 128), (8, 256, 3)])
    def test_skipped_input_gradient_keeps_parameter_gradients(self, k, cin, cout):
        rng = np.random.default_rng(k + cin + cout)
        x = rng.standard_normal((4, 32, cin)).astype(np.float32)
        w = rng.standard_normal((k, cin, cout)).astype(np.float32)
        gy = rng.standard_normal((4, 32, cout)).astype(np.float32)
        _, grad_w, grad_b = ops.conv1d_backward(x, w, gy)
        skipped = ops.conv1d_backward(x, w, gy, input_grad=False)
        assert skipped[0] is None
        assert skipped[1].tobytes() == grad_w.tobytes()
        assert skipped[2].tobytes() == grad_b.tobytes()

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


# --- oracles: the whole-batch convolution the block-tiled ops replaced --------

def parent_im2col(x, k, pad):
    xp = np.pad(x, ((0, 0), pad, (0, 0)))
    return sliding_window_view(xp, k, axis=1).transpose(0, 1, 3, 2).reshape(-1, k * x.shape[2])


def parent_fold_taps(cols, start):
    bsz, t, kk, c = cols.shape
    out = np.zeros((bsz, t, c), dtype=cols.dtype)
    for k in range(kk):
        d = start - k
        lo, hi = max(0, -d), min(t, t - d)
        if lo < hi:
            out[:, lo:hi] += cols[:, lo + d:hi + d, k]
    return out


def parent_conv1d_forward(x, w, b):
    kk, cin, cout = w.shape
    bsz, t, _ = x.shape
    pad_l, pad_r = (kk - 1) // 2, kk - (kk - 1) // 2 - 1
    if cin <= cout:
        y = (parent_im2col(x, kk, (pad_l, pad_r)) @ w.reshape(kk * cin, cout)).reshape(
            bsz, t, cout)
    else:
        w_rev = w[::-1].transpose(1, 0, 2).reshape(cin, kk * cout)
        y = parent_fold_taps((x.reshape(bsz * t, cin) @ w_rev).reshape(bsz, t, kk, cout), pad_r)
    y += b
    return y


def parent_conv1d_backward(x, w, grad_y):
    kk, cin, cout = w.shape
    bsz, t, _ = x.shape
    grad_b = grad_y.sum(axis=(0, 1))
    pad_l, pad_r = (kk - 1) // 2, kk - (kk - 1) // 2 - 1
    if cin <= cout:
        gy = grad_y.reshape(bsz * t, cout)
        grad_w = (parent_im2col(x, kk, (pad_l, pad_r)).T @ gy).reshape(kk, cin, cout)
        grad_cols = (gy @ w.reshape(kk * cin, cout).T).reshape(bsz, t, kk, cin)
        return parent_fold_taps(grad_cols, pad_l), grad_w, grad_b
    tp = t + kk - 1
    gcols = parent_im2col(grad_y, kk, (kk - 1, kk - 1))
    xpad = np.pad(x, ((0, 0), (pad_l, pad_r), (0, 0))).reshape(bsz * tp, cin)
    grad_w = (xpad.T @ gcols).reshape(cin, kk, cout)[:, ::-1].transpose(1, 0, 2)
    w_rev = w[::-1].transpose(0, 2, 1).reshape(kk * cout, cin)
    grad_x = (gcols @ w_rev).reshape(bsz, tp, cin)
    return grad_x[:, pad_l:pad_l + t].copy(), grad_w, grad_b


def samples_per_block(monkeypatch, n, t, k, cin, cout, itemsize=8):
    """Shrink ops.BLOCK_BYTES so that a block of this convolution holds n samples."""
    monkeypatch.setattr(ops, "BLOCK_BYTES", n * t * k * min(cin, cout) * itemsize)


def conv_case(seed, bsz, t, k, cin, cout, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((bsz, t, cin)).astype(dtype),
            rng.standard_normal((k, cin, cout)).astype(dtype),
            rng.standard_normal(cout).astype(dtype),
            rng.standard_normal((bsz, t, cout)).astype(dtype))


class TestConv1dBlocks:
    @pytest.mark.parametrize("k,cin,cout,t", [
        (5, 4, 6, 16), (3, 6, 4, 16),  # either side of the Cin <= Cout branch
        (4, 3, 5, 12), (2, 5, 3, 9),   # even K
        (8, 3, 4, 3), (6, 4, 2, 2),    # T < K
        (1, 3, 2, 7)])
    def test_blocks_with_a_ragged_last_one_match_reference(self, monkeypatch, k, cin, cout, t):
        # 7 samples, 2 per block: four blocks, the last one holding one sample
        samples_per_block(monkeypatch, 2, t, k, cin, cout)
        x, w, b, gy = conv_case(k * 100 + cin * 10 + cout, 7, t, k, cin, cout)
        assert_close(ops.conv1d_forward(x, w, b), ref_conv1d_forward(x, w, b))
        want = ref_conv1d_backward(x, w, gy)
        for got, e in zip(ops.conv1d_backward(x, w, gy), want):
            assert_close(got, e)
        skipped = ops.conv1d_backward(x, w, gy, input_grad=False)
        assert skipped[0] is None
        assert_close(skipped[1], want[1])
        assert_close(skipped[2], want[2])

    def test_forward_writes_into_out(self, monkeypatch):
        samples_per_block(monkeypatch, 2, 16, 5, 4, 6)
        x, w, b, _ = conv_case(1, 5, 16, 5, 4, 6)
        out = np.full((5, 16, 6), np.nan)
        assert ops.conv1d_forward(x, w, b, out=out) is out
        assert out.tobytes() == ops.conv1d_forward(x, w, b).tobytes()
        for bad in (np.empty((5, 16, 5)), np.empty((5, 16, 6), np.float32),
                    np.empty((5, 6, 16)).transpose(0, 2, 1)):
            with pytest.raises(InvalidInputError):
                ops.conv1d_forward(x, w, b, out=bad)

    @pytest.mark.parametrize("bsz", [32, 28])
    @pytest.mark.parametrize("k,cin,cout", MODEL_CONV_SHAPES)
    def test_float32_matches_the_whole_batch_ops_bit_for_bit(self, bsz, k, cin, cout):
        # only the weight gradient, summed block by block, may round differently
        x, w, b, gy = conv_case(k + cin + cout + bsz, bsz, 128, k, cin, cout, np.float32)
        w *= np.float32(1 / np.sqrt(k * cin))
        assert ops.conv1d_forward(x, w, b).tobytes() == parent_conv1d_forward(x, w, b).tobytes()
        grad_x, grad_w, grad_b = ops.conv1d_backward(x, w, gy)
        want_x, want_w, want_b = parent_conv1d_backward(x, w, gy)
        assert grad_x.flags.c_contiguous and grad_x.tobytes() == want_x.tobytes()
        assert grad_b.tobytes() == want_b.tobytes()
        assert grad_w.dtype == np.float32
        npt.assert_allclose(grad_w, want_w, rtol=0, atol=2e-6 * np.abs(want_w).max())
        skipped = ops.conv1d_backward(x, w, gy, input_grad=False)
        assert skipped[1].tobytes() == grad_w.tobytes()

    @pytest.mark.parametrize("k,cin,cout", [(5, 32, 64), (3, 64, 32)])
    def test_working_set_is_bounded_by_the_block_budget(self, k, cin, cout):
        # what one forward and backward allocate beyond their results: the
        # block buffer plus weight-sized temporaries, at any batch size
        slack = 4 * k * cin * cout * 4 + 2**17
        for bsz in (8, 256):
            x, w, b, gy = conv_case(bsz, bsz, 128, k, cin, cout, np.float32)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                results = [ops.conv1d_forward(x, w, b), *ops.conv1d_backward(x, w, gy)]
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            extra = peak - sum(r.nbytes for r in results)
            assert extra <= ops.BLOCK_BYTES + slack, f"B={bsz}: {extra / 2**20:.2f} MiB"


class TestBatchNormAgainstReference:
    @pytest.mark.parametrize("cout", sorted({s[2] for s in MODEL_CONV_SHAPES}))
    def test_forward_and_backward_match_reference(self, cout):
        rng = np.random.default_rng(cout + 1)
        x = rng.standard_normal((3, 32, cout)) * 2.0 + 0.5
        gamma = rng.standard_normal(cout)
        beta = rng.standard_normal(cout)
        rm = rng.standard_normal(cout)
        rv = rng.uniform(0.5, 2.0, cout)
        gy = rng.standard_normal(x.shape)
        x_in = x.copy()
        bn = batchnorm(gamma, beta, rm, rv)
        got = [bn.forward(x_in, train=True), *bn._cache, bn.running_mean, bn.running_var]
        # the layer normalizes its input in place and caches it as xhat
        assert bn._cache[0] is x_in
        grads = [bn.backward(gy.copy()), bn.gamma.grad, bn.beta.grad]
        for forward, backward in [(ref_batchnorm_forward, ref_batchnorm_backward),
                                  (op_batchnorm_forward, op_batchnorm_backward)]:
            y, cache, new_rm, new_rv = forward(x, gamma, beta, rm, rv)
            for a, e in zip(got, [y, cache[0], cache[1], new_rm, new_rv]):
                assert_close(a, e)
            for a, e in zip(grads, backward(gy.copy(), cache)):
                assert_close(a, e)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_forward_equals_the_squares_buffer_op_bit_for_bit(self, dtype):
        # the one-pass variance adds the squares in the order np.square(xhat).mean() does
        for cout in sorted({s[2] for s in MODEL_CONV_SHAPES}):
            rng = np.random.default_rng(cout + 2)
            x = (rng.standard_normal((32, 128, cout)) * 2.0 + 0.5).astype(dtype)
            bn = BatchNorm(cout)
            bn.cast(dtype)
            bn.gamma.value[...] = rng.standard_normal(cout)
            bn.beta.value[...] = rng.standard_normal(cout)
            rm, rv = bn.running_mean.copy(), bn.running_var.copy()
            got = [bn.forward(x.copy(), train=True), *bn._cache, bn.running_mean, bn.running_var]
            y, (xhat, inv_std, _), new_rm, new_rv = op_batchnorm_forward(
                x, bn.gamma.value, bn.beta.value, rm, rv)
            for a, e in zip(got, [y, xhat, inv_std, new_rm, new_rv]):
                assert a.dtype == dtype and a.tobytes() == e.tobytes(), cout
            assert bn.output().tobytes() == y.tobytes(), cout

    def test_backward_shape_mismatch(self):
        bn = batchnorm(np.ones(3), np.zeros(3))
        bn.forward(np.ones((2, 4, 3)), train=True)
        with pytest.raises(InvalidInputError):
            bn.backward(np.zeros((2, 4, 2)))


class TestReluAndGap:
    def test_relu_cases(self):
        for x, want in [([2.0, 0.5], [2.0, 0.5]), ([-2.0, -0.1], [0.0, 0.0]),
                        ([-1.0, 2.0], [0.0, 2.0])]:
            npt.assert_array_equal(ReLU().forward(np.array(x), train=True), want)
        relu = ReLU()
        relu.forward(np.array([-1.0, 2.0]), train=True)
        npt.assert_array_equal(relu.backward(np.array([3.0, 4.0])), [0.0, 4.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_forward_writes_into_its_argument(self, dtype):
        x = np.random.default_rng(11).standard_normal((4, 9, 5)).astype(dtype)
        x[0, :3] = 0.0
        x[1, 0, 0] = -0.0
        want = np.where(x > 0, x, 0).astype(dtype)
        got = ReLU().forward(x, train=True)
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
        # the layer masks with its output, the op it replaced with its input
        want = op_relu_backward(x, grad_y.copy())
        relu = ReLU()
        y = relu.forward(x.copy(), train=True)
        y_before = y.copy()
        got = relu.backward(grad_y)
        assert got is grad_y
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert (got[0, :3] == 0).all()
        npt.assert_array_equal(y, y_before)

    def test_gap_constant_in_time(self):
        x = np.ones((2, 10, 3)) * np.array([1.0, 2.0, 3.0])
        npt.assert_allclose(GlobalAveragePool().forward(x, train=True), [[1, 2, 3], [1, 2, 3]])

    def test_gap_two_sample_mean(self):
        x = np.array([1.0, 3.0]).reshape(1, 2, 1)
        npt.assert_allclose(GlobalAveragePool().forward(x, train=True), [[2.0]])

    def test_gap_against_mean_oracle_and_backward(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 12, 5))
        gap = GlobalAveragePool()
        npt.assert_allclose(gap.forward(x, train=True), x.mean(axis=1), rtol=1e-12)
        gy = rng.standard_normal((3, 5))
        gx = gap.backward(gy)
        assert_close(gx, op_gap_backward(gy, 12))

        def loss():
            return float(np.sum(gap.forward(x, train=True) * gy))

        npt.assert_allclose(gx, central_diff(loss, x), rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t", [128, 125, 3])
    def test_gap_backward_divides_before_repeating_bit_for_bit(self, dtype, t):
        # dividing the (B, C) gradient once gives the values of dividing
        # its (B, T, C) repeat: each element is the same one division
        gy = (np.random.default_rng(t).standard_normal((32, 128)) * 1e3).astype(dtype)
        gap = GlobalAveragePool()
        gap.forward(np.zeros((32, t, 128), dtype=dtype), train=True)
        got = gap.backward(gy)
        want = op_gap_backward(gy, t)
        assert got.dtype == want.dtype == dtype
        assert got.shape == (32, t, 128)
        assert got.tobytes() == want.tobytes()

    def test_gap_shape_check(self):
        with pytest.raises(InvalidInputError):
            GlobalAveragePool().forward(np.zeros((2, 3)), train=True)


def dense(w, b):
    """A float64 Dense layer holding these weights."""
    layer = Dense(*w.shape, np.random.default_rng(0))
    layer.cast(np.float64)
    layer.w.value[...] = w
    layer.b.value[...] = b
    return layer


class TestDense:
    def test_identity_weights(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 5))
        npt.assert_allclose(dense(np.eye(5), np.zeros(5)).forward(x, train=True), x)

    def test_zero_weights_broadcast_bias(self):
        b = np.array([1.0, 2.0])
        y = dense(np.zeros((3, 2)), b).forward(np.ones((4, 3)), train=True)
        npt.assert_allclose(y, np.broadcast_to(b, (4, 2)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((6, 3))
        b = rng.standard_normal(3)
        gy = rng.standard_normal((4, 3))
        layer = dense(w, b)

        def loss():
            return float(np.sum(layer.forward(x, train=True) * gy))

        gw, gb = central_diff(loss, layer.w.value), central_diff(loss, layer.b.value)
        gx = central_diff(loss, x)
        layer.forward(x, train=True)
        grads = [layer.backward(gy), layer.w.grad, layer.b.grad]
        for got, want in zip(grads, op_dense_backward(x, w, gy)):
            assert_close(got, want)
        npt.assert_allclose(grads[0], gx, rtol=1e-6, atol=1e-9)
        npt.assert_allclose(grads[1], gw, rtol=1e-6, atol=1e-9)
        npt.assert_allclose(grads[2], gb, rtol=1e-6, atol=1e-9)

    def test_shape_checks(self):
        layer = dense(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(InvalidInputError):
            layer.forward(np.zeros((4, 5)), train=True)
        layer.forward(np.zeros((4, 3)), train=True)
        with pytest.raises(InvalidInputError):
            layer.backward(np.zeros((4, 3)))


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
        # the gradient is (softmax - onehot) / B
        rng = np.random.default_rng(15)
        logits = rng.standard_normal((50, 7)) * 30
        labels = rng.integers(0, 7, 50)
        _, grad = ops.softmax_crossentropy(logits, labels)
        p = op_softmax(logits)
        assert np.all(p >= 0)
        npt.assert_allclose(p.sum(axis=1), np.ones(50), atol=1e-6)
        assert_close(grad, (p - np.eye(7)[labels]) / 50)

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
