"""Forward/backward primitives for the fixed layer set.

All arrays are row-major numpy tensors. Time-series activations are
(B, T, C); convolution kernels are (K, Cin, Cout). Convolutions are
length-preserving ("same" zero padding, stride 1): for kernel size K the
left pad is floor((K-1)/2) and the right pad is ceil((K-1)/2), which
also covers even K.

Convolution runs on BLAS through im2col: ``_im2col`` copies the padded
input into one contiguous (B*T, K*Cin) matrix whose row b*T+t holds the
K input rows that output step t sees, k-major then channel
(cols[b*T+t, k*Cin+ci] = xpad[b, t+k, ci]). The kernel flattens the same
way to (K*Cin, Cout), so the forward pass is cols @ w, the weight
gradient cols.T @ grad_y, and the input gradient grad_y @ w.T reshaped to
(B, T, K, Cin), folded back onto the input by K shifted adds (col2im).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import InvalidInputError


def _pad_lr(k: int) -> tuple[int, int]:
    return (k - 1) // 2, k - (k - 1) // 2 - 1


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Contiguous (B*T, K*Cin) im2col matrix of x (B, T, Cin), zero-padded."""
    pad_l, pad_r = _pad_lr(k)
    xp = np.pad(x, ((0, 0), (pad_l, pad_r), (0, 0)))
    windows = sliding_window_view(xp, k, axis=1)  # (B, T, Cin, K) view
    return windows.transpose(0, 1, 3, 2).reshape(x.shape[0] * x.shape[1], -1)


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-convolution: y[b,t,co] = b[co] + sum_{k,ci} xpad[b,t+k,ci] w[k,ci,co]."""
    if x.ndim != 3 or w.ndim != 3 or b.ndim != 1:
        raise InvalidInputError("conv1d expects x (B,T,Cin), w (K,Cin,Cout), b (Cout,)")
    kk, cin, cout = w.shape
    if x.shape[2] != cin or b.shape[0] != cout:
        raise InvalidInputError(
            f"conv1d shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    y = _im2col(x, kk) @ w.reshape(kk * cin, cout)
    y += b
    return y.reshape(x.shape[0], x.shape[1], cout)


def conv1d_backward(x: np.ndarray, w: np.ndarray, grad_y: np.ndarray):
    """Gradients of sum(grad_y * y) w.r.t. x, w, b."""
    kk, cin, cout = w.shape
    bsz, t, _ = x.shape
    if grad_y.shape != (bsz, t, cout):
        raise InvalidInputError(
            f"conv1d backward shape mismatch: grad_y {grad_y.shape}, expected {(bsz, t, cout)}")
    gy = grad_y.reshape(bsz * t, cout)
    grad_b = grad_y.sum(axis=(0, 1))
    grad_w = (_im2col(x, kk).T @ gy).reshape(kk, cin, cout)
    grad_cols = (gy @ w.reshape(kk * cin, cout).T).reshape(bsz, t, kk, cin)
    # col2im: input row t+k-pad_l collects tap k of output row t
    pad_l, pad_r = _pad_lr(kk)
    grad_xp = np.zeros((bsz, t + pad_l + pad_r, cin), dtype=x.dtype)
    for k in range(kk):
        grad_xp[:, k:k + t, :] += grad_cols[:, :, k, :]
    grad_x = grad_xp[:, pad_l:pad_l + t, :]
    return grad_x, grad_w, grad_b


def batchnorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      running_mean: np.ndarray, running_var: np.ndarray,
                      train: bool, momentum: float = 0.99, eps: float = 1e-3):
    """Per-channel batch normalization over the batch and time axes.

    Returns (y, cache, new_running_mean, new_running_var). Running
    statistics are returned rather than mutated so a forward pass has no
    side effects; train mode uses batch statistics (population variance)
    and updates running ones as running <- momentum*running + (1-momentum)*batch.
    """
    axes = tuple(range(x.ndim - 1))
    if train:
        n = int(np.prod([x.shape[a] for a in axes]))
        if n < 2:
            raise InvalidInputError("batchnorm train mode needs at least 2 values per channel")
        mean = x.mean(axis=axes)
        xhat = x - mean
        var = np.square(xhat).mean(axis=axes)
        new_rm = momentum * running_mean + (1.0 - momentum) * mean
        new_rv = momentum * running_var + (1.0 - momentum) * var
    else:
        mean, var = running_mean, running_var
        new_rm, new_rv = running_mean, running_var
        xhat = x - mean
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    y = xhat * gamma
    y += beta
    cache = (xhat, inv_std, gamma, train)
    return y, cache, new_rm, new_rv


def batchnorm_backward(grad_y: np.ndarray, cache):
    """Gradients for x, gamma, beta given the forward cache."""
    xhat, inv_std, gamma, train = cache
    if grad_y.shape != xhat.shape:
        raise InvalidInputError(
            f"batchnorm backward shape mismatch: grad_y {grad_y.shape}, x {xhat.shape}")
    axes = tuple(range(grad_y.ndim - 1))
    grad_gamma = (grad_y * xhat).sum(axis=axes)
    grad_beta = grad_y.sum(axis=axes)
    if not train:
        return grad_y * (gamma * inv_std), grad_gamma, grad_beta
    # Batch statistics depend on x, so the mean/variance terms feed back:
    # grad_x = gamma*inv_std * (grad_y - grad_beta/n - xhat*grad_gamma/n),
    # where grad_beta and grad_gamma are the sums the parameter gradients need.
    n = float(np.prod([grad_y.shape[a] for a in axes]))
    grad_x = xhat * (grad_gamma / n)
    np.subtract(grad_y, grad_x, out=grad_x)
    grad_x -= grad_beta / n
    grad_x *= gamma * inv_std
    return grad_x, grad_gamma, grad_beta


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
    return grad_y * (x > 0)


def gap_forward(x: np.ndarray) -> np.ndarray:
    """Global average pooling over time: (B,T,C) -> (B,C)."""
    if x.ndim != 3:
        raise InvalidInputError(f"gap expects (B,T,C), got {x.shape}")
    return x.mean(axis=1)


def gap_backward(grad_y: np.ndarray, t: int) -> np.ndarray:
    return np.repeat(grad_y[:, None, :], t, axis=1) / t


def broadcast_forward(z: np.ndarray, t: int) -> np.ndarray:
    """Tile a latent (B,C) across t time steps: the adjoint-style GAP inverse."""
    if z.ndim != 2:
        raise InvalidInputError(f"broadcast expects (B,C), got {z.shape}")
    return np.repeat(z[:, None, :], t, axis=1)


def broadcast_backward(grad_y: np.ndarray) -> np.ndarray:
    return grad_y.sum(axis=1)


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
