"""Adam optimizer and reduce-on-plateau learning-rate schedule."""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from .layers import Parameter

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction, updating Parameter values in place."""

    def __init__(self, params: list[Parameter], lr: float = 0.001):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self):
        for p in self.params:
            if p.grad.shape != p.value.shape:
                raise InvalidInputError(
                    f"shape mismatch in Adam.step: {p.name} {p.value.shape} vs grad {p.grad.shape}")
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            # m = BETA1*m + (1-BETA1)*g; v = BETA2*v + (1-BETA2)*g^2
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            # p -= (lr/bc1)*m / (sqrt(v/bc2) + eps)
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += EPS
            update = (self.lr / bc1) * m
            update /= denom
            p.value -= update


class PlateauScheduler:
    """Reduce-on-plateau learning rate, one step() per epoch.

    An epoch improves when its loss is strictly below the best loss seen so
    far. After `patience` consecutive non-improving epochs the rate is
    multiplied by `factor` (floored at min_lr) and the patience counter
    resets. The rate never increases.
    """

    def __init__(self, lr: float, patience: int = 50, factor: float = 0.5,
                 min_lr: float = 1e-4):
        if not 0 < factor < 1:
            raise InvalidInputError(f"factor must be in (0,1), got {factor}")
        if min_lr <= 0 or patience < 1:
            raise InvalidInputError("min_lr must be positive and patience >= 1")
        self.lr = lr
        self.patience = patience
        self.factor = factor
        self.min_lr = min_lr
        self.best = np.inf
        self.stale = 0

    def step(self, loss: float) -> float:
        if loss < self.best:
            self.best = loss
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= self.patience:
                self.lr = max(self.lr * self.factor, self.min_lr)
                self.stale = 0
        return self.lr
