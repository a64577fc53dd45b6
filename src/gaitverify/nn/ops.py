"""Forward/backward primitives for the fixed layer set.

All arrays are row-major numpy tensors. Time-series activations are
(B, T, C); convolution kernels are (K, Cin, Cout). Convolutions are
length-preserving ("same" zero padding, stride 1): for kernel size K the
left pad is floor((K-1)/2) and the right pad is ceil((K-1)/2), which
also covers even K.

Convolution runs on BLAS and copies only the narrow side of the layer
into an im2col matrix. ``_im2col`` turns a padded (B, T, C) array into one
contiguous (B*T', K*C) matrix whose row b*T'+t holds the K rows that
window t sees, k-major then channel (cols[b*T'+t, k*C+c] = xpad[b, t+k, c]).
``_fold_taps`` is its adjoint: it sums a (B, T, K, C) array of per-tap
products back onto the time axis with K shifted adds.

- Cin <= Cout (the input side is narrow): the forward pass is
  im2col(x) @ w with the kernel flattened to (K*Cin, Cout), the weight
  gradient im2col(x).T @ grad_y, and the input gradient grad_y @ w.T
  reshaped to (B, T, K, Cin) and folded back by the shifted adds (col2im).
- Cout < Cin (the output side is narrow): the forward pass multiplies
  first, x (B*T, Cin) by the tap-reversed kernel laid out as
  (Cin, K*Cout), and folds the (B, T, K, Cout) products with the same
  shifted adds. The backward pass runs im2col on grad_y, padded by K-1
  on both sides, so the weight gradient is xpad.T @ gcols and the input
  gradient gcols @ w, cropped to the T unpadded rows. The crop is copied,
  so either branch returns a contiguous input gradient.

Either way the copied matrix has K*min(Cin, Cout) columns, so a layer
such as 256 -> 3 channels never copies its wide input K times.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import InvalidInputError


def _pad_lr(k: int) -> tuple[int, int]:
    return (k - 1) // 2, k - (k - 1) // 2 - 1


def _im2col(x: np.ndarray, k: int, pad: tuple[int, int]) -> np.ndarray:
    """Contiguous (B*T', K*C) im2col matrix of x (B, T, C) zero-padded by ``pad``.

    T' = T + pad[0] + pad[1] - K + 1 windows per sequence.
    """
    xp = np.pad(x, ((0, 0), pad, (0, 0)))
    windows = sliding_window_view(xp, k, axis=1)  # (B, T', C, K) view
    return windows.transpose(0, 1, 3, 2).reshape(-1, k * x.shape[2])


def _fold_taps(cols: np.ndarray, start: int) -> np.ndarray:
    """(B, T, C) array out[:, t] = sum_k cols[:, t + start - k, k] over in-range rows."""
    bsz, t, kk, c = cols.shape
    out = np.zeros((bsz, t, c), dtype=cols.dtype)
    for k in range(kk):
        d = start - k
        lo, hi = max(0, -d), min(t, t - d)
        if lo < hi:
            out[:, lo:hi] += cols[:, lo + d:hi + d, k]
    return out


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-convolution: y[b,t,co] = b[co] + sum_{k,ci} xpad[b,t+k,ci] w[k,ci,co]."""
    if x.ndim != 3 or w.ndim != 3 or b.ndim != 1:
        raise InvalidInputError("conv1d expects x (B,T,Cin), w (K,Cin,Cout), b (Cout,)")
    kk, cin, cout = w.shape
    if x.shape[2] != cin or b.shape[0] != cout:
        raise InvalidInputError(
            f"conv1d shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    bsz, t, _ = x.shape
    pad_l, pad_r = _pad_lr(kk)
    if cin <= cout:
        y = (_im2col(x, kk, (pad_l, pad_r)) @ w.reshape(kk * cin, cout)).reshape(bsz, t, cout)
    else:
        # taps reversed, so y[t] = sum_j taps[t + pad_r - j, j] is a shifted add
        w_rev = w[::-1].transpose(1, 0, 2).reshape(cin, kk * cout)
        y = _fold_taps((x.reshape(bsz * t, cin) @ w_rev).reshape(bsz, t, kk, cout), pad_r)
    y += b
    return y


def conv1d_backward(x: np.ndarray, w: np.ndarray, grad_y: np.ndarray):
    """Gradients of sum(grad_y * y) w.r.t. x, w, b."""
    kk, cin, cout = w.shape
    bsz, t, _ = x.shape
    if grad_y.shape != (bsz, t, cout):
        raise InvalidInputError(
            f"conv1d backward shape mismatch: grad_y {grad_y.shape}, expected {(bsz, t, cout)}")
    grad_b = grad_y.sum(axis=(0, 1))
    pad_l, pad_r = _pad_lr(kk)
    if cin <= cout:
        gy = grad_y.reshape(bsz * t, cout)
        grad_w = (_im2col(x, kk, (pad_l, pad_r)).T @ gy).reshape(kk, cin, cout)
        grad_cols = (gy @ w.reshape(kk * cin, cout).T).reshape(bsz, t, kk, cin)
        # col2im: input row t collects tap k of output row t + pad_l - k
        return _fold_taps(grad_cols, pad_l), grad_w, grad_b
    # gcols[b*tp+u, j*Cout+co] = grad_y[b, u+j-(K-1), co]: tap K-1-j of padded input row u
    tp = t + kk - 1
    gcols = _im2col(grad_y, kk, (kk - 1, kk - 1))
    xpad = np.pad(x, ((0, 0), (pad_l, pad_r), (0, 0))).reshape(bsz * tp, cin)
    grad_w = (xpad.T @ gcols).reshape(cin, kk, cout)[:, ::-1].transpose(1, 0, 2)
    w_rev = w[::-1].transpose(0, 2, 1).reshape(kk * cout, cin)
    grad_x = (gcols @ w_rev).reshape(bsz, tp, cin)
    del gcols, xpad  # freed before the contiguous copy of the crop
    return grad_x[:, pad_l:pad_l + t].copy(), grad_w, grad_b


BN_MOMENTUM, BN_EPS = 0.99, 1e-3


def batchnorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      running_mean: np.ndarray, running_var: np.ndarray,
                      momentum: float = BN_MOMENTUM, eps: float = BN_EPS):
    """Per-channel batch normalization over the batch and time axes.

    Normalizes with batch statistics (population variance) and returns
    (y, cache, new_running_mean, new_running_var), running <- momentum*
    running + (1-momentum)*batch, without mutating the running statistics.
    Inference reads them through the fold in ``layers.ConvBlock``.

    x is left unchanged. The cache holds ``xhat``, the normalized input,
    and y is a separate fresh array, the buffer of the squared deviations,
    that the caller may overwrite (the ReLU after it does).
    """
    axes = tuple(range(x.ndim - 1))
    n = int(np.prod([x.shape[a] for a in axes]))
    if n < 2:
        raise InvalidInputError("batchnorm needs at least 2 values per channel")
    mean = x.mean(axis=axes)
    xhat = x - mean
    y = np.square(xhat)
    var = y.mean(axis=axes)
    new_rm = momentum * running_mean + (1.0 - momentum) * mean
    new_rv = momentum * running_var + (1.0 - momentum) * var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y, (xhat, inv_std, gamma), new_rm, new_rv


def batchnorm_backward(grad_y: np.ndarray, cache):
    """Gradients for x, gamma, beta given the forward cache.

    grad_x is written into grad_y, which is returned as grad_x: pass a
    gradient nothing else reads, such as the one a ReLU has just masked.
    """
    xhat, inv_std, gamma = cache
    if grad_y.shape != xhat.shape:
        raise InvalidInputError(
            f"batchnorm backward shape mismatch: grad_y {grad_y.shape}, x {xhat.shape}")
    axes = tuple(range(grad_y.ndim - 1))
    tmp = grad_y * xhat
    grad_gamma = tmp.sum(axis=axes)
    grad_beta = grad_y.sum(axis=axes)
    # Batch statistics depend on x, so the mean/variance terms feed back:
    # grad_x = gamma*inv_std * (grad_y - grad_beta/n - xhat*grad_gamma/n),
    # where grad_beta and grad_gamma are the sums the parameter gradients need.
    n = float(np.prod([grad_y.shape[a] for a in axes]))
    grad_y -= np.multiply(xhat, grad_gamma / n, out=tmp)
    grad_y -= grad_beta / n
    grad_y *= gamma * inv_std
    return grad_y, grad_gamma, grad_beta


def relu_forward(x: np.ndarray) -> np.ndarray:
    """max(x, 0), written into x; returns x itself.

    The caller gives up x: only pass an array nothing else reads as the
    pre-activation, such as the fresh output of the layer before.
    """
    return np.maximum(x, 0, out=x)


def relu_backward(y: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
    """grad_y * (y > 0), written into grad_y; returns grad_y itself.

    y may be the ReLU's input or its output: both are positive at the same
    places, and the gradient at 0 is 0.
    """
    return np.multiply(grad_y, y > 0, out=grad_y)


def gap_forward(x: np.ndarray) -> np.ndarray:
    """Global average pooling over time: (B,T,C) -> (B,C)."""
    if x.ndim != 3:
        raise InvalidInputError(f"gap expects (B,T,C), got {x.shape}")
    return x.mean(axis=1)


def gap_backward(grad_y: np.ndarray, t: int) -> np.ndarray:
    return np.repeat(grad_y[:, None, :], t, axis=1) / t


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != w.shape[0] or b.shape[0] != w.shape[1]:
        raise InvalidInputError(
            f"dense shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    return x @ w + b


def dense_backward(x: np.ndarray, w: np.ndarray, grad_y: np.ndarray):
    if grad_y.shape != (x.shape[0], w.shape[1]):
        raise InvalidInputError(
            f"dense backward shape mismatch: grad_y {grad_y.shape}")
    return grad_y @ w.T, x.T @ grad_y, grad_y.sum(axis=0)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_crossentropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. the logits."""
    if logits.ndim != 2:
        raise InvalidInputError(f"logits must be (B,K), got {logits.shape}")
    labels = np.asarray(labels)
    bsz, k = logits.shape
    if labels.shape != (bsz,):
        raise InvalidInputError(f"labels must be ({bsz},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise InvalidInputError(f"label out of range [0, {k})")
    p = softmax(logits)
    rows = np.arange(bsz)
    # log via the shifted logits to avoid log(exp) cancellation
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-logp[rows, labels].mean())
    grad = p
    grad[rows, labels] -= 1.0
    grad /= bsz
    return loss, grad.astype(logits.dtype, copy=False)


def mse_loss(x: np.ndarray, x_hat: np.ndarray):
    """Mean squared error over all elements, gradient w.r.t. x_hat."""
    if x.shape != x_hat.shape:
        raise InvalidInputError(f"mse shape mismatch: {x.shape} vs {x_hat.shape}")
    diff = x_hat - x
    loss = float(np.mean(diff * diff))
    grad = (2.0 / diff.size) * diff
    return loss, grad.astype(x_hat.dtype, copy=False)
