"""The layers: each owns its parameters, its caches and its own math.

Batch norm, ReLU, pooling and the dense head compute in their own
forward() and backward(); only the convolution, shared by ``Conv1d`` and
the fold in ``ConvBlock``, lives in ``ops``. Parameters are created in
float32 (cast() is the one precision switch). A training-mode pass
commits each batch norm's running statistics, in place. An
inference-mode pass (validation, feature extraction) runs each ConvBlock
as one convolution with its batch norm folded in and moves no statistic.

backward(grad_y, x) is handed x, the layer's input in the last training
forward, so Conv1d, Dense and pooling cache no input. Sequential hands a
layer the previous one's output(), recomputed bit for bit (no parameter
changes within a step); a ConvBlock gets the output method and calls it
when its convolution needs x.

Between a ConvBlock's training forward and its backward, three arrays of
its output's size take turns, and none outlives the step. This is what
each holds and who may overwrite it:

- The convolution's output, a new array each training forward.
  BatchNorm normalizes it in place into ``xhat``, which only the batch
  norm's cache holds. BatchNorm.backward overwrites it with a term of
  the input gradient and clears the cache, so backward consumes the
  cache and frees the array.
- The block's output. forward() returns it to the next layer and keeps no
  reference. output() recomputes it from ``xhat`` as a new array, once per
  step, when backward reaches the next layer; a next ConvBlock calls it
  only after its own batch norm's backward has freed its ``xhat``. The
  block's ReLU holds it for its mask. A next layer that is a convolution
  (Conv1d or ConvBlock) owns it from then on: its backward reads each
  block of samples, then writes its input gradient over it, zeroed where
  the output was 0. That is the ReLU's backward, so the block does not
  mask it again. Before any other next layer (pooling) the ReLU masks the
  gradient in place.
- The gradient of the output, handed to the block's backward: the ReLU
  mask and BatchNorm.backward rewrite it in place into the batch norm's
  input gradient, so a block holds no second gradient of its output's
  size. Only the convolution's input gradient is a new array, and none
  when it writes over the previous block's output.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError, InvalidStateError
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

    def forward(self, x, train: bool):
        raise NotImplementedError

    # x is the input of the last training forward; BatchNorm and ReLU, which
    # overwrite theirs, take none and read their own caches
    def backward(self, grad_y, x):
        raise NotImplementedError

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

    def forward(self, x, train):
        return ops.conv1d_forward(x, self.w.value, self.b.value)

    def backward(self, grad_y, x, input_grad=True, relu_x=False):
        """The input gradient, or None if ``input_grad`` is False; accumulates w and b gradients.

        With ``relu_x`` (passed by Sequential alone) the gradient is written
        over x, a ReLU output, and masked by it (see ops.conv1d_backward).
        """
        grad_x, grad_w, grad_b = ops.conv1d_backward(x, self.w.value, grad_y, input_grad,
                                                     relu_x)
        self.w.grad += grad_w
        self.b.grad += grad_b
        return grad_x

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
        """grad_x, written into grad_y, with the gamma and beta gradients accumulated.

        It consumes the cache: ``xhat`` is overwritten, and a second backward
        needs a new training forward first.
        """
        if self._cache is None:
            raise InvalidStateError("batchnorm backward needs a training forward after "
                                    "the last backward")
        xhat, inv_std = self._cache
        if grad_y.shape != xhat.shape:
            raise InvalidInputError(
                f"batchnorm backward shape mismatch: grad_y {grad_y.shape}, x {xhat.shape}")
        self._cache = None
        axes = tuple(range(grad_y.ndim - 1))
        # no product buffer: einsum adds the products row by row, the order
        # (grad_y * xhat).sum(axes) adds them in
        c = grad_y.shape[-1]
        grad_gamma = np.einsum("nc,nc->c", grad_y.reshape(-1, c), xhat.reshape(-1, c))
        grad_beta = grad_y.sum(axis=axes)
        # Batch statistics depend on x, so the mean/variance terms feed back:
        # grad_x = gamma*inv_std * (grad_y - grad_beta/n - xhat*grad_gamma/n),
        # where grad_beta and grad_gamma are the sums the parameter gradients need.
        n = float(np.prod([grad_y.shape[a] for a in axes]))
        grad_y -= np.multiply(xhat, grad_gamma / n, out=xhat)
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

    def forward(self, x, train):
        if x.ndim != 3:
            raise InvalidInputError(f"gap expects (B,T,C), got {x.shape}")
        return x.mean(axis=1)

    def backward(self, grad_y, x):
        t = x.shape[1]
        return np.repeat(grad_y[:, None, :] / t, t, axis=1)


class LatentBroadcast(Layer):
    """Expand a latent (B,C) to (B,T,C) for the decoder.

    Each time step applies a learnable affine, y[b,t,c] = z[b,c]*scale[t,c]
    + shift[t,c], initialized to the plain tile (scale=1, shift=0). A plain
    tile makes every decoder output time-constant away from the padding
    edges, which starves the encoder of gradient; the learned affine
    restores a usable reconstruction path while starting from that tile.
    """

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
        """The last training forward's output, recomputed from its latent."""
        return self._z[:, None, :] * self.scale.value + self.shift.value

    def backward(self, grad_y, z):
        self.scale.grad += (grad_y * z[:, None, :]).sum(axis=0)
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

    def forward(self, x, train):
        w, b = self.w.value, self.b.value
        if x.ndim != 2 or x.shape[1] != w.shape[0] or b.shape[0] != w.shape[1]:
            raise InvalidInputError(
                f"dense shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
        return x @ w + b

    def backward(self, grad_y, x):
        w = self.w.value
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
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, grad_y, x, input_grad=True):
        """The input gradient; with ``input_grad`` False the first layer may skip it.

        Each layer after the first is handed the previous one's output(),
        so every layer but the last needs one; a ConvBlock is handed the
        output method instead and builds its input only after its own batch
        norm's backward. A convolution (Conv1d or ConvBlock) handed a
        ConvBlock's output writes its input gradient over it, masked by
        that block's ReLU, which then skips its own mask. The first layer
        gets x and, with ``input_grad`` False, must accept it (a Conv1d, a
        ConvBlock or a Sequential); the result may then be None.
        """
        for i, layer in reversed(list(enumerate(self.layers))):
            if i:
                prev = self.layers[i - 1]
                x_prev = prev.output if isinstance(layer, ConvBlock) else prev.output()
                if isinstance(prev, ConvBlock) and isinstance(layer, (Conv1d, ConvBlock)):
                    grad_y = layer.backward(grad_y, x_prev, relu_x=True)
                else:
                    grad_y = layer.backward(grad_y, x_prev)
            elif input_grad:
                grad_y = layer.backward(grad_y, x)
            else:
                grad_y = layer.backward(grad_y, x, input_grad=False)
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
    recomputes what the ReLU returned. The convolution's output is a new
    array each step that only that cache holds, and the batch norm's
    backward frees it. An inference pass folds the batch norm into the
    convolution: with s = gamma / sqrt(running_var + eps),
    BN(conv(x)) = conv(x; w*s, (b - running_mean)*s + beta), rebuilt on
    every call, then an in-place ReLU. It touches no cache and no
    statistic.
    """

    def __init__(self, kernel_size: int, in_channels: int, out_channels: int,
                 rng: np.random.Generator, name: str):
        self.conv = Conv1d(kernel_size, in_channels, out_channels, rng, name=f"{name}.conv")
        self.bn = BatchNorm(out_channels, name=f"{name}.bn")
        self.relu = ReLU(name=f"{name}.relu")
        super().__init__([self.conv, self.bn, self.relu], name)

    def forward(self, x, train):
        if train:
            y = self.relu.forward(self.bn.forward(self.conv.forward(x, train), train), train)
            self.relu._x = None  # output() recomputes it
            return y
        conv, bn = self.conv, self.bn
        scale = bn.gamma.value / np.sqrt(bn.running_var + BN_EPS)
        bias = (conv.b.value - bn.running_mean) * scale + bn.beta.value
        y = ops.conv1d_forward(x, conv.w.value * scale, bias)
        return np.maximum(y, 0, out=y)

    def output(self):
        """The last training forward's output, recomputed bit for bit from the batch norm's cache.

        The ReLU caches it again, for the mask its backward() applies unless
        the next convolution has written the masked gradient over it.
        """
        return self.relu.forward(self.bn.output(), True)

    def backward(self, grad_y, x, input_grad=True, relu_x=False):
        """The input gradient (see Conv1d.backward); accumulates every member's gradients.

        x may instead be a function that returns it, such as the previous
        block's output method: it is called once the batch norm's backward
        has freed this block's cache. A grad_y that is the output() array
        itself was written there by the next convolution, already masked,
        so the ReLU's backward is skipped.
        """
        if self.relu._x is None:
            self.output()
        if grad_y is not self.relu._x:
            grad_y = self.relu.backward(grad_y)
        self.relu._x = None
        grad_y = self.bn.backward(grad_y)
        return self.conv.backward(grad_y, x() if callable(x) else x, input_grad, relu_x)
