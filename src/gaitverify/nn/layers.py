"""Layer objects wrapping the functional ops with parameters and caches.

A layer owns its Parameter objects; forward() stores whatever backward()
needs. Batch-norm running statistics are only committed when the forward
pass is invoked with update_stats=True, so loss evaluations (validation,
finite differences) are side-effect free.

Cache rules, which keep one stored activation per block boundary:

- Every layer except ReLU returns a fresh array from forward() and never
  writes into its input.
- ReLU overwrites its input with max(x, 0) and caches that array, so it
  may only follow a layer that returns a fresh array (here always a
  BatchNorm). The Conv1d, GlobalAveragePool or Dense after it caches or
  reads the same object; nothing writes into it until the next forward.
- BatchNorm caches only its normalized input ``xhat``; its output is the
  array the ReLU then overwrites. ReLU.backward masks ``grad_y`` in place,
  which is the fresh gradient returned by the layer after it.
- BatchNorm drops the previous step's cache before it computes the new
  one (ReLU allocates nothing). Caches stay alive after backward(), so
  the next forward pass reuses memory the heap already holds instead of
  faulting in new pages.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from . import ops


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


def glorot_uniform(shape, fan_in, fan_out, rng, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Layer:
    """Minimal interface: forward/backward plus parameter and state access."""

    name = "layer"

    def forward(self, x, train: bool, update_stats: bool = True):
        raise NotImplementedError

    def backward(self, grad_y):
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        return []

    # (name, array) pairs of non-trainable state, e.g. running statistics
    def state(self) -> list[tuple[str, np.ndarray]]:
        return []

    def set_state(self, name: str, value: np.ndarray):
        raise KeyError(name)

    def cast(self, dtype):
        for p in self.parameters():
            p.cast(dtype)


class Conv1d(Layer):
    def __init__(self, kernel_size: int, in_channels: int, out_channels: int,
                 rng: np.random.Generator, name: str = "conv", dtype=np.float32):
        self.name = name
        self.kernel_size = kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        fan_in = kernel_size * in_channels
        fan_out = kernel_size * out_channels
        self.w = Parameter(f"{name}.w", glorot_uniform(
            (kernel_size, in_channels, out_channels), fan_in, fan_out, rng, dtype))
        self.b = Parameter(f"{name}.b", np.zeros(out_channels, dtype=dtype))
        self._x = None

    def forward(self, x, train, update_stats=True):
        self._x = x
        return ops.conv1d_forward(x, self.w.value, self.b.value)

    def backward(self, grad_y):
        grad_x, grad_w, grad_b = ops.conv1d_backward(self._x, self.w.value, grad_y)
        self.w.grad += grad_w
        self.b.grad += grad_b
        return grad_x

    def parameters(self):
        return [self.w, self.b]


class BatchNorm(Layer):
    def __init__(self, channels: int, name: str = "bn", momentum: float = 0.99,
                 eps: float = 1e-3, dtype=np.float32):
        self.name = name
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels, dtype=dtype))
        self.beta = Parameter(f"{name}.beta", np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.batches_tracked = 0
        self._cache = None

    def forward(self, x, train, update_stats=True):
        self._cache = None
        y, cache, new_rm, new_rv = ops.batchnorm_forward(
            x, self.gamma.value, self.beta.value,
            self.running_mean, self.running_var,
            train=train, momentum=self.momentum, eps=self.eps)
        self._cache = cache
        if train and update_stats:
            self.running_mean = new_rm.astype(self.running_mean.dtype)
            self.running_var = new_rv.astype(self.running_var.dtype)
            self.batches_tracked += 1
        return y

    def backward(self, grad_y):
        grad_x, grad_gamma, grad_beta = ops.batchnorm_backward(grad_y, self._cache)
        self.gamma.grad += grad_gamma
        self.beta.grad += grad_beta
        return grad_x

    def parameters(self):
        return [self.gamma, self.beta]

    def state(self):
        return [(f"{self.name}.running_mean", self.running_mean),
                (f"{self.name}.running_var", self.running_var)]

    def set_state(self, name, value):
        if name.endswith("running_mean"):
            self.running_mean = value.astype(self.running_mean.dtype)
        elif name.endswith("running_var"):
            self.running_var = value.astype(self.running_var.dtype)
        else:
            raise KeyError(name)

    def cast(self, dtype):
        super().cast(dtype)
        self.running_mean = self.running_mean.astype(dtype)
        self.running_var = self.running_var.astype(dtype)


class ReLU(Layer):
    def __init__(self, name: str = "relu"):
        self.name = name
        self._x = None

    def forward(self, x, train, update_stats=True):
        self._x = ops.relu_forward(x)
        return self._x

    def backward(self, grad_y):
        return ops.relu_backward(self._x, grad_y)


class GlobalAveragePool(Layer):
    def __init__(self, name: str = "gap"):
        self.name = name
        self._t = None

    def forward(self, x, train, update_stats=True):
        self._t = x.shape[1]
        return ops.gap_forward(x)

    def backward(self, grad_y):
        return ops.gap_backward(grad_y, self._t)


class LatentBroadcast(Layer):
    """Expand a latent (B,C) to (B,T,C) for the decoder.

    Each time step applies a learnable affine, y[b,t,c] = z[b,c]*scale[t,c]
    + shift[t,c], initialized to the plain tile (scale=1, shift=0). A plain
    tile makes every decoder output time-constant away from the padding
    edges, which starves the encoder of gradient; the learned affine
    restores a usable reconstruction path while starting from that tile.
    """

    def __init__(self, t: int, channels: int, name: str = "expand", dtype=np.float32):
        self.name = name
        self.channels = channels
        self.scale = Parameter(f"{name}.scale", np.ones((t, channels), dtype=dtype))
        self.shift = Parameter(f"{name}.shift", np.zeros((t, channels), dtype=dtype))
        self._z = None

    def forward(self, z, train, update_stats=True):
        if z.ndim != 2 or z.shape[1] != self.channels:
            raise InvalidInputError(f"expected latent (B,{self.channels}), got {z.shape}")
        self._z = z
        return z[:, None, :] * self.scale.value + self.shift.value

    def backward(self, grad_y):
        self.scale.grad += (grad_y * self._z[:, None, :]).sum(axis=0)
        self.shift.grad += grad_y.sum(axis=0)
        return (grad_y * self.scale.value).sum(axis=1)

    def parameters(self):
        return [self.scale, self.shift]


class Dense(Layer):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 name: str = "dense", dtype=np.float32):
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.w = Parameter(f"{name}.w", glorot_uniform(
            (in_dim, out_dim), in_dim, out_dim, rng, dtype))
        self.b = Parameter(f"{name}.b", np.zeros(out_dim, dtype=dtype))
        self._x = None

    def forward(self, x, train, update_stats=True):
        self._x = x
        return ops.dense_forward(x, self.w.value, self.b.value)

    def backward(self, grad_y):
        grad_x, grad_w, grad_b = ops.dense_backward(self._x, self.w.value, grad_y)
        self.w.grad += grad_w
        self.b.grad += grad_b
        return grad_x

    def parameters(self):
        return [self.w, self.b]


class Sequential(Layer):
    def __init__(self, layers: list[Layer], name: str = "net"):
        self.name = name
        self.layers = layers

    def forward(self, x, train, update_stats=True):
        for layer in self.layers:
            x = layer.forward(x, train, update_stats)
        return x

    def backward(self, grad_y):
        for layer in reversed(self.layers):
            grad_y = layer.backward(grad_y)
        return grad_y

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def state(self):
        return [s for layer in self.layers for s in layer.state()]

    def set_state(self, name, value):
        for layer in self.layers:
            for sname, _ in layer.state():
                if sname == name:
                    layer.set_state(name, value)
                    return
        raise KeyError(name)

    def cast(self, dtype):
        for layer in self.layers:
            layer.cast(dtype)


def conv_block(kernel_size: int, in_channels: int, out_channels: int,
               rng: np.random.Generator, name: str, dtype=np.float32) -> list[Layer]:
    """Convolution + batch norm + ReLU, the repeating unit of all models here."""
    return [
        Conv1d(kernel_size, in_channels, out_channels, rng, name=f"{name}.conv", dtype=dtype),
        BatchNorm(out_channels, name=f"{name}.bn", dtype=dtype),
        ReLU(name=f"{name}.relu"),
    ]


def zero_grads(params: list[Parameter]):
    for p in params:
        p.grad[...] = 0
