"""The convolution and the two losses: the math more than one caller shares.

``conv1d_forward`` runs in ``layers.Conv1d`` and in the batch-norm fold
of ``layers.ConvBlock``; the losses run in ``models``. Every other layer
(batch norm, ReLU, pooling, dense) keeps its math in its own class in
``layers``.

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
  so either branch returns a contiguous input gradient, or none at all
  when the caller passes ``input_grad=False`` (a network's first layer,
  whose input gradient nothing reads).

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


def conv1d_backward(x: np.ndarray, w: np.ndarray, grad_y: np.ndarray, input_grad: bool = True):
    """Gradients of sum(grad_y * y) w.r.t. x, w, b; the x gradient is None unless ``input_grad``."""
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
        if not input_grad:
            return None, grad_w, grad_b
        grad_cols = (gy @ w.reshape(kk * cin, cout).T).reshape(bsz, t, kk, cin)
        # col2im: input row t collects tap k of output row t + pad_l - k
        return _fold_taps(grad_cols, pad_l), grad_w, grad_b
    # gcols[b*tp+u, j*Cout+co] = grad_y[b, u+j-(K-1), co]: tap K-1-j of padded input row u
    tp = t + kk - 1
    gcols = _im2col(grad_y, kk, (kk - 1, kk - 1))
    xpad = np.pad(x, ((0, 0), (pad_l, pad_r), (0, 0))).reshape(bsz * tp, cin)
    grad_w = (xpad.T @ gcols).reshape(cin, kk, cout)[:, ::-1].transpose(1, 0, 2)
    del xpad  # freed before the input-gradient GEMM
    if not input_grad:
        return None, grad_w, grad_b
    w_rev = w[::-1].transpose(0, 2, 1).reshape(kk * cout, cin)
    grad_x = (gcols @ w_rev).reshape(bsz, tp, cin)
    del gcols  # freed before the contiguous copy of the crop
    return grad_x[:, pad_l:pad_l + t].copy(), grad_w, grad_b


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
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(bsz)
    # log via the shifted logits to avoid log(exp) cancellation
    logp = shifted - np.log(total)
    loss = float(-logp[rows, labels].mean())
    grad = e / total  # the softmax
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
