"""The layers: each owns its parameters, its caches and its own math.

Batch norm, ReLU, pooling and the dense head compute in their own
forward() and backward(); only the convolution, shared by ``Conv1d`` and
the fold in ``ConvBlock``, lives in ``ops``. Parameters are created in
float32 (cast() is the one precision switch); forward() stores whatever
backward() needs. A training-mode pass commits each batch norm's running
statistics. An inference-mode pass (validation, feature extraction) runs
each ConvBlock as one convolution with its batch norm folded in and
moves no statistic.

Cache rules, which keep one activation-sized array per conv block, the
block's own across training steps:

- Conv1d, Dense, pooling and the latent broadcast never write into their
  input. They return a fresh array from forward(), except the
  convolution of a training ConvBlock, which writes into the block's
  own array.
- BatchNorm normalizes its input in place: the convolution's output
  becomes ``xhat``, which it caches with the per-channel
  ``1/sqrt(var + eps)``, and it returns gamma*xhat + beta as a fresh
  array. ReLU overwrites that array with max(x, 0). So each may only
  follow a layer whose output nothing else reads.
- A block's output is not kept. ConvBlock drops its ReLU's reference,
  and Sequential drops the next layer's once that layer's forward() has
  run. In backward, just before the next layer's backward(), Sequential
  hands that layer ``ConvBlock.output()``: relu(xhat*gamma + beta),
  recomputed from the batch norm's cache. It is bit-identical to the
  forward's output, since no parameter changes within a step, and the
  block's ReLU reads it again for its mask. The latent broadcast's
  output, the first decoder block's input, is recomputed the same way
  from the latent (``recomputes_output`` marks both layers).
- ConvBlock.backward drops its ReLU's and batch norm's caches as soon as
  each member's backward() has read them, and Sequential drops a layer's
  input (a ConvBlock's is its convolution's) after the layer's
  backward(). A decoder's recomputed outputs are therefore gone before
  the encoder's convolutions run their backward.
- What a block keeps between steps is its own (B, T, Cout) array, the
  one its convolution writes and its batch norm normalizes into
  ``xhat``. Every training step reuses it, a shorter batch in a leading
  slice, so a step does not hand the heap back for the next one to fault
  in again. cast() drops it; an inference pass neither writes nor makes
  one, so a block that never trained (a detached encoder) holds none.
- ReLU.backward masks ``grad_y`` in place and BatchNorm.backward writes
  its input gradient into it, so a block holds no second gradient of its
  output's size: pass BatchNorm.backward a gradient nothing else reads,
  such as the one the ReLU has just masked. Every input gradient is
  contiguous; a first layer told that nothing reads it
  (``input_grad=False``) skips it.
- BatchNorm writes its running statistics in place, so an array once
  handed out by state() stays the live statistic until cast() replaces it.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from . import ops

BN_MOMENTUM, BN_EPS = 0.99, 1e-3


class Parameter:
    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)

    @property
    def size(self) -> int:
        return self.value.size

    def cast(self, dtype):
        self.value = self.value.astype(dtype)
        self.grad = np.zeros_like(self.value)


def glorot_uniform(shape, fan_in, fan_out, rng):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class Layer:
    """Minimal interface: forward/backward plus parameter and state access."""

    name = "layer"
    # True where output() recomputes the last training forward's output, bit
    # for bit, from the layer's own cache; Sequential then keeps no reference to it
    recomputes_output = False

    def forward(self, x, train: bool):
        raise NotImplementedError

    def backward(self, grad_y):
        raise NotImplementedError

    # Replace the input that forward() cached for backward(); None drops it.
    # A layer that caches no input ignores the call.
    def cache_input(self, x):
        pass

    def parameters(self) -> list[Parameter]:
        return []

    # (name, array) pairs of non-trainable state, e.g. running statistics
    def state(self) -> list[tuple[str, np.ndarray]]:
        return []

    def cast(self, dtype):
        for p in self.parameters():
            p.cast(dtype)


class Conv1d(Layer):
    def __init__(self, kernel_size: int, in_channels: int, out_channels: int,
                 rng: np.random.Generator, name: str = "conv"):
        self.name = name
        self.kernel_size = kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        fan_in = kernel_size * in_channels
        fan_out = kernel_size * out_channels
        self.w = Parameter(f"{name}.w", glorot_uniform(
            (kernel_size, in_channels, out_channels), fan_in, fan_out, rng))
        self.b = Parameter(f"{name}.b", np.zeros(out_channels, dtype=np.float32))
        self._x = None

    def forward(self, x, train, out=None):
        """The convolution of x, written into ``out`` when given (see ops.conv1d_forward)."""
        self._x = x
        return ops.conv1d_forward(x, self.w.value, self.b.value, out)

    def backward(self, grad_y, input_grad=True):
        """The input gradient, or None if ``input_grad`` is False; accumulates w and b gradients."""
        grad_x, grad_w, grad_b = ops.conv1d_backward(self._x, self.w.value, grad_y, input_grad)
        self.w.grad += grad_w
        self.b.grad += grad_b
        return grad_x

    def cache_input(self, x):
        self._x = x

    def parameters(self):
        return [self.w, self.b]


class BatchNorm(Layer):
    """Per-channel batch normalization over the batch and time axes.

    forward() normalizes with the batch statistics (population variance)
    and commits running <- BN_MOMENTUM*running + (1-BN_MOMENTUM)*batch.
    It overwrites its input with the normalized values: pass only an array
    nothing else reads, such as a convolution's output. Inference reads the
    running statistics through the fold in ConvBlock.
    """

    def __init__(self, channels: int, name: str = "bn"):
        self.name = name
        self.channels = channels
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels, dtype=np.float32))
        self.beta = Parameter(f"{name}.beta", np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self.batches_tracked = 0
        self._cache = None

    def forward(self, x, train):
        self._cache = None
        axes = tuple(range(x.ndim - 1))
        n = int(np.prod([x.shape[a] for a in axes]))
        if n < 2:
            raise InvalidInputError("batchnorm needs at least 2 values per channel")
        mean = x.mean(axis=axes)
        xhat = np.subtract(x, mean, out=x)
        # one pass over the centred values, no squares buffer: einsum adds the
        # squares row by row, the order np.square(xhat).mean(axes) adds them in
        flat = xhat.reshape(-1, x.shape[-1])
        var = np.einsum("nc,nc->c", flat, flat) / n
        self.running_mean[...] = BN_MOMENTUM * self.running_mean + (1.0 - BN_MOMENTUM) * mean
        self.running_var[...] = BN_MOMENTUM * self.running_var + (1.0 - BN_MOMENTUM) * var
        self.batches_tracked += 1
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std
        self._cache = (xhat, inv_std)
        return self.output()

    def output(self):
        """gamma*xhat + beta of the last training forward, as a fresh array."""
        y = self._cache[0] * self.gamma.value
        y += self.beta.value
        return y

    def backward(self, grad_y):
        """grad_x, written into grad_y, with the gamma and beta gradients accumulated."""
        xhat, inv_std = self._cache
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
        grad_y *= self.gamma.value * inv_std
        self.gamma.grad += grad_gamma
        self.beta.grad += grad_beta
        return grad_y

    def parameters(self):
        return [self.gamma, self.beta]

    def state(self):
        return [(f"{self.name}.running_mean", self.running_mean),
                (f"{self.name}.running_var", self.running_var)]

    def cast(self, dtype):
        super().cast(dtype)
        self.running_mean = self.running_mean.astype(dtype)
        self.running_var = self.running_var.astype(dtype)


class ReLU(Layer):
    """max(x, 0), written into x: pass only an array nothing else reads."""

    def __init__(self, name: str = "relu"):
        self.name = name
        self._x = None

    def forward(self, x, train):
        self._x = np.maximum(x, 0, out=x)
        return self._x

    def backward(self, grad_y):
        # the output is positive where the input is, and the gradient at 0 is 0
        return np.multiply(grad_y, self._x > 0, out=grad_y)


class GlobalAveragePool(Layer):
    """Mean over time: (B,T,C) -> (B,C)."""

    def __init__(self, name: str = "gap"):
        self.name = name
        self._t = None

    def forward(self, x, train):
        if x.ndim != 3:
            raise InvalidInputError(f"gap expects (B,T,C), got {x.shape}")
        self._t = x.shape[1]
        return x.mean(axis=1)

    def backward(self, grad_y):
        return np.repeat(grad_y[:, None, :] / self._t, self._t, axis=1)


class LatentBroadcast(Layer):
    """Expand a latent (B,C) to (B,T,C) for the decoder.

    Each time step applies a learnable affine, y[b,t,c] = z[b,c]*scale[t,c]
    + shift[t,c], initialized to the plain tile (scale=1, shift=0). A plain
    tile makes every decoder output time-constant away from the padding
    edges, which starves the encoder of gradient; the learned affine
    restores a usable reconstruction path while starting from that tile.
    """

    recomputes_output = True

    def __init__(self, t: int, channels: int, name: str = "expand"):
        self.name = name
        self.channels = channels
        self.scale = Parameter(f"{name}.scale", np.ones((t, channels), dtype=np.float32))
        self.shift = Parameter(f"{name}.shift", np.zeros((t, channels), dtype=np.float32))
        self._z = None

    def forward(self, z, train):
        if z.ndim != 2 or z.shape[1] != self.channels:
            raise InvalidInputError(f"expected latent (B,{self.channels}), got {z.shape}")
        self._z = z
        return self.output()

    def output(self):
        return self._z[:, None, :] * self.scale.value + self.shift.value

    def backward(self, grad_y):
        self.scale.grad += (grad_y * self._z[:, None, :]).sum(axis=0)
        self.shift.grad += grad_y.sum(axis=0)
        return (grad_y * self.scale.value).sum(axis=1)

    def parameters(self):
        return [self.scale, self.shift]


class Dense(Layer):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 name: str = "dense"):
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.w = Parameter(f"{name}.w", glorot_uniform(
            (in_dim, out_dim), in_dim, out_dim, rng))
        self.b = Parameter(f"{name}.b", np.zeros(out_dim, dtype=np.float32))
        self._x = None

    def forward(self, x, train):
        w, b = self.w.value, self.b.value
        if x.ndim != 2 or x.shape[1] != w.shape[0] or b.shape[0] != w.shape[1]:
            raise InvalidInputError(
                f"dense shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
        self._x = x
        return x @ w + b

    def backward(self, grad_y):
        x, w = self._x, self.w.value
        if grad_y.shape != (x.shape[0], w.shape[1]):
            raise InvalidInputError(
                f"dense backward shape mismatch: grad_y {grad_y.shape}")
        grad_x = grad_y @ w.T
        self.w.grad += x.T @ grad_y
        self.b.grad += grad_y.sum(axis=0)
        return grad_x

    def parameters(self):
        return [self.w, self.b]


class Sequential(Layer):
    def __init__(self, layers: list[Layer], name: str = "net"):
        self.name = name
        self.layers = layers

    def forward(self, x, train):
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, train)
            if train and i and self.layers[i - 1].recomputes_output:
                layer.cache_input(None)  # backward() recomputes it
        return x

    def backward(self, grad_y, input_grad=True):
        """The input gradient; with ``input_grad`` False the first layer may skip it.

        That first layer must then accept ``input_grad`` (a Conv1d, a
        ConvBlock or a Sequential), and the result may be None.
        """
        for i, layer in reversed(list(enumerate(self.layers))):
            if i and self.layers[i - 1].recomputes_output:
                layer.cache_input(self.layers[i - 1].output())
            if i or input_grad:
                grad_y = layer.backward(grad_y)
            else:
                grad_y = layer.backward(grad_y, input_grad=False)
            layer.cache_input(None)
        return grad_y

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def state(self):
        return [s for layer in self.layers for s in layer.state()]

    def cast(self, dtype):
        for layer in self.layers:
            layer.cast(dtype)


class ConvBlock(Sequential):
    """Conv1d -> BatchNorm -> ReLU, the repeating unit of all models here.

    A training pass runs the members' own forward() and backward() in
    order and keeps only the batch norm's cache between them: output()
    recomputes what the ReLU returned. That cache lives in the block's
    own array (see ``_activation``). An inference pass folds the batch
    norm into the convolution: with s = gamma / sqrt(running_var + eps),
    BN(conv(x)) = conv(x; w*s, (b - running_mean)*s + beta), rebuilt on
    every call, then an in-place ReLU. It touches no cache and no
    statistic.
    """

    recomputes_output = True

    def __init__(self, kernel_size: int, in_channels: int, out_channels: int,
                 rng: np.random.Generator, name: str):
        self.conv = Conv1d(kernel_size, in_channels, out_channels, rng, name=f"{name}.conv")
        self.bn = BatchNorm(out_channels, name=f"{name}.bn")
        self.relu = ReLU(name=f"{name}.relu")
        super().__init__([self.conv, self.bn, self.relu], name)
        self._buffer = None

    def _activation(self, x):
        """The block's (B, T, Cout) training array for input x: the convolution writes
        it, the batch norm normalizes it into ``xhat``.

        One array serves every step: a batch of at most the largest size seen
        so far takes a leading slice of it, a larger one (or another T or
        dtype) replaces it.
        """
        bsz, t, _ = x.shape
        dtype = np.result_type(x, self.conv.w.value)
        buf = self._buffer
        if buf is None or len(buf) < bsz or buf.shape[1] != t or buf.dtype != dtype:
            buf = self._buffer = np.empty((bsz, t, self.conv.out_channels), dtype)
        return buf[:bsz]

    def forward(self, x, train):
        if train:
            y = self.conv.forward(x, train, out=self._activation(x))
            y = self.relu.forward(self.bn.forward(y, train), train)
            self.relu._x = None  # output() recomputes it
            return y
        conv, bn = self.conv, self.bn
        scale = bn.gamma.value / np.sqrt(bn.running_var + BN_EPS)
        bias = (conv.b.value - bn.running_mean) * scale + bn.beta.value
        y = ops.conv1d_forward(x, conv.w.value * scale, bias)
        return np.maximum(y, 0, out=y)

    def output(self):
        """The last training forward's output, recomputed bit for bit from the batch norm's cache.

        The ReLU caches it again, for the mask its backward() applies.
        """
        return self.relu.forward(self.bn.output(), True)

    def backward(self, grad_y, input_grad=True):
        if self.relu._x is None:
            self.output()
        grad_y = self.relu.backward(grad_y)
        self.relu._x = None
        grad_y = self.bn.backward(grad_y)
        self.bn._cache = None
        return self.conv.backward(grad_y, input_grad)

    def cache_input(self, x):
        self.conv.cache_input(x)

    def cast(self, dtype):
        super().cast(dtype)
        self._buffer = None
