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
into an im2col matrix. ``_im2col`` fills a (B, T, K, C) buffer from a
(B, T, C) array and returns it as the (B*T, K*C) matrix whose row b*T+t
holds the K rows that window t sees, k-major then channel
(cols[b*T+t, k*C+c] = x[b, t+k-start, c], zero outside x); the zero
padding is written there, never as a padded copy of x. ``_fold_taps`` is
its adjoint: it sums a (B, T, K, C) array of per-tap products back onto
the time axis with K shifted adds.

- Cin <= Cout (the input side is narrow): the forward pass is
  im2col(x) @ w with the kernel flattened to (K*Cin, Cout), the weight
  gradient im2col(x).T @ grad_y, and the input gradient grad_y @ w.T
  reshaped to (B, T, K, Cin) and folded back by the shifted adds (col2im).
- Cout < Cin (the output side is narrow): the forward pass multiplies
  first, x (B*T, Cin) by the tap-reversed kernel laid out as
  (Cin, K*Cout), and folds the (B, T, K, Cout) products with the same
  shifted adds. The backward pass runs im2col on grad_y, so the weight
  gradient is x.T @ gcols and the input gradient gcols @ w, both with the
  taps reversed. Either branch returns a contiguous input gradient, or
  none at all when the caller passes ``input_grad=False`` (a network's
  first layer, whose input gradient nothing reads). With ``relu_x`` the
  input gradient is written over x itself, a ReLU output nothing reads
  afterwards, and masked by it.

Either way the copied matrix has K*min(Cin, Cout) columns, so a layer
such as 256 -> 3 channels never copies its wide input K times. Nor does
it grow with the batch: both passes walk the batch in blocks of the most
samples whose matrix fits ``BLOCK_BYTES`` (at least one), and reuse one
buffer for every block of a call. Each block's GEMM writes straight into
its rows of the output or input gradient, and the weight gradient is
summed block by block. BLAS computes each row of a GEMM the same way
however many rows the call has (the tests compare float32 results bit for
bit with whole-batch GEMMs), so the output and the input and bias
gradients do not depend on the block size; the weight gradient's
summation order does.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError

# Bytes the copied matrix of one block of samples may take. The convolutions
# walk the batch in blocks of the most samples whose matrix fits (at least
# one), so their working set does not grow with the batch.
BLOCK_BYTES = 2 << 20


def _pad_lr(k: int) -> tuple[int, int]:
    return (k - 1) // 2, k - (k - 1) // 2 - 1


def _blocks(bsz: int, t: int, kk: int, c: int, dtype):
    """One (n, T, K, C) copy buffer and the (start, stop) sample ranges it serves in turn.

    n is the most samples whose (n*T, K*C) matrix fits BLOCK_BYTES, at
    least one and at most the batch; the last block may hold fewer.
    """
    sample_bytes = t * kk * c * np.dtype(dtype).itemsize
    n = max(1, min(bsz, BLOCK_BYTES // max(1, sample_bytes)))
    return np.empty((n, t, kk, c), dtype), [(s, min(s + n, bsz)) for s in range(0, bsz, n)]


def _shift_rows(t: int, d: int) -> tuple[int, int]:
    """Rows lo:hi of range(t) whose row + d is in range(t) too; lo == hi if none is."""
    lo = min(max(0, -d), t)
    return lo, max(lo, min(t, t - d))


def _im2col(cols: np.ndarray, x: np.ndarray, start: int) -> np.ndarray:
    """Fill the (B, T, K, C) buffer ``cols`` from x (B, T, C) and return it as (B*T, K*C).

    cols[:, s, k] = x[:, s + k - start], zero where that row is outside x.
    """
    bsz, t, kk, c = cols.shape
    for k in range(kk):
        lo, hi = _shift_rows(t, k - start)
        cols[:, :lo, k] = 0
        cols[:, lo:hi, k] = x[:, lo + k - start:hi + k - start]
        cols[:, hi:, k] = 0
    return cols.reshape(bsz * t, kk * c)


def _fold_taps(cols: np.ndarray, start: int, out: np.ndarray) -> None:
    """(B, T, C) out[:, t] = sum_k cols[:, t + start - k, k] over in-range rows: the adjoint of _im2col."""
    out[...] = 0
    for k in range(cols.shape[2]):
        lo, hi = _shift_rows(cols.shape[1], start - k)
        out[:, lo:hi] += cols[:, lo + start - k:hi + start - k, k]


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-convolution: y[b,t,co] = b[co] + sum_{k,ci} xpad[b,t+k,ci] w[k,ci,co], a new array."""
    if x.ndim != 3 or w.ndim != 3 or b.ndim != 1:
        raise InvalidInputError("conv1d expects x (B,T,Cin), w (K,Cin,Cout), b (Cout,)")
    kk, cin, cout = w.shape
    if x.shape[2] != cin or b.shape[0] != cout:
        raise InvalidInputError(
            f"conv1d shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    bsz, t, _ = x.shape
    dtype = np.result_type(x, w)
    out = np.empty((bsz, t, cout), dtype)
    pad_l, pad_r = _pad_lr(kk)
    buf, blocks = _blocks(bsz, t, kk, min(cin, cout), dtype)
    y = out.reshape(bsz * t, cout)
    if cin <= cout:
        w2 = w.reshape(kk * cin, cout)
        for s, e in blocks:
            np.matmul(_im2col(buf[:e - s], x[s:e], pad_l), w2, out=y[s * t:e * t])
    else:
        # taps reversed, so y[t] = sum_j taps[t + pad_r - j, j] is a shifted add
        w_rev = w[::-1].transpose(1, 0, 2).reshape(cin, kk * cout)
        x2 = x.reshape(bsz * t, cin)
        for s, e in blocks:
            taps = buf[:e - s]
            np.matmul(x2[s * t:e * t], w_rev, out=taps.reshape((e - s) * t, kk * cout))
            _fold_taps(taps, pad_r, out[s:e])
    out += b
    return out


def conv1d_backward(x: np.ndarray, w: np.ndarray, grad_y: np.ndarray, input_grad: bool = True,
                    relu_x: bool = False):
    """Gradients of sum(grad_y * y) w.r.t. x, w, b; the x gradient is None unless ``input_grad``.

    The input gradient is a new contiguous array unless ``relu_x`` is set.
    ``relu_x`` says that x is a ReLU's output that nothing reads after this
    call, such as the output a ``ConvBlock`` recomputes for the next layer's
    backward. The input gradient is then written over x, one block of
    samples at a time once that block has been read, and zeroed where x is
    0: the ReLU's own backward, so its caller must not mask it again. x
    must then be contiguous and of the gradient's dtype. Either way the
    values are those of the new array times (x > 0), bit for bit.
    """
    kk, cin, cout = w.shape
    bsz, t, _ = x.shape
    if grad_y.shape != (bsz, t, cout):
        raise InvalidInputError(
            f"conv1d backward shape mismatch: grad_y {grad_y.shape}, expected {(bsz, t, cout)}")
    grad_b = grad_y.sum(axis=(0, 1))
    pad_l, pad_r = _pad_lr(kk)
    dtype = np.result_type(x, w, grad_y)
    buf, blocks = _blocks(bsz, t, kk, min(cin, cout), dtype)
    gy = grad_y.reshape(bsz * t, cout)
    if relu_x:
        if not input_grad or x.dtype != dtype or not x.flags.c_contiguous:
            raise InvalidInputError(f"conv1d backward over x needs a contiguous {dtype} x "
                                    f"and the input gradient, got {x.dtype} x")
        grad_x, keep = x, np.empty((len(buf), t, cin), bool)
    else:
        grad_x = np.empty((bsz, t, cin), dtype) if input_grad else None
    if cin <= cout:
        # grad_w = im2col(x).T @ grad_y; the input gradient folds grad_y @ w.T
        # back (col2im), input row t collecting tap k of output row t + pad_l - k
        w2 = w.reshape(kk * cin, cout)
        grad_w = np.zeros((kk * cin, cout), dtype)
        part = np.empty_like(grad_w)
        for s, e in blocks:
            cols = _im2col(buf[:e - s], x[s:e], pad_l)
            grad_w += np.matmul(cols.T, gy[s * t:e * t], out=part)
            if input_grad:
                if relu_x:
                    np.greater(x[s:e], 0, out=keep[:e - s])
                np.matmul(gy[s * t:e * t], w2.T, out=cols)
                _fold_taps(buf[:e - s], pad_l, grad_x[s:e])
                if relu_x:
                    np.multiply(grad_x[s:e], keep[:e - s], out=grad_x[s:e])
        return grad_x, grad_w.reshape(kk, cin, cout), grad_b
    # gcols[b*T+t, j*Cout+co] = grad_y[b, t+j-pad_r, co]: tap K-1-j of output
    # row t+j-pad_r reads input row t, so grad_w = x.T @ gcols (taps reversed)
    # and the input gradient is gcols @ w with the taps reversed
    x2 = x.reshape(bsz * t, cin)
    w_rev = w[::-1].transpose(0, 2, 1).reshape(kk * cout, cin)
    grad_w = np.zeros((cin, kk * cout), dtype)
    part = np.empty_like(grad_w)
    for s, e in blocks:
        gcols = _im2col(buf[:e - s], grad_y[s:e], pad_r)
        grad_w += np.matmul(x2[s * t:e * t].T, gcols, out=part)
        if input_grad:
            if relu_x:
                np.greater(x[s:e], 0, out=keep[:e - s])
            np.matmul(gcols, w_rev, out=grad_x[s:e].reshape((e - s) * t, cin))
            if relu_x:
                np.multiply(grad_x[s:e], keep[:e - s], out=grad_x[s:e])
    return grad_x, grad_w.reshape(cin, kk, cout)[:, ::-1].transpose(1, 0, 2), grad_b


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
