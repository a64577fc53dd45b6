"""Finite-difference validation of every backward pass.

Losses are evaluated in train mode (batch statistics); no train-mode loss
reads the running statistics it moves, so repeated evaluations of the
same point are identical. Small parameter tensors are checked coordinate
by coordinate with central differences; large tensors are checked with
dense random direction probes, where the derivative along each probe
involves every coordinate of the tensor. Everything runs in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TensorCheck:
    name: str
    size: int
    method: str  # "exhaustive" | "directional"
    max_relative_error: float


@dataclass
class GradCheckReport:
    tensors: list[TensorCheck] = field(default_factory=list)

    @property
    def max_relative_error(self) -> float:
        return max((t.max_relative_error for t in self.tensors), default=0.0)


def _rel_err(a: float, b: float) -> float:
    # The 1e-4 floor turns the test absolute for near-zero derivatives
    # (e.g. conv biases that batch norm cancels exactly), where central
    # differences only measure rounding noise. Losses here are O(1), so
    # anything below the floor is immaterial.
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


def gradient_check(model, x: np.ndarray, y=None, epsilon: float = 1e-5,
                   max_exhaustive: int = 4096, probes: int = 8,
                   seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of the total loss against central differences.

    The model must already be in double precision (model.cast(np.float64)).
    Tensors with at most `max_exhaustive` elements get an exhaustive
    per-coordinate check; larger ones get `probes` random-direction checks.
    """
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)

    model.loss_and_backward(x, y)
    analytic = {p.name: p.grad.copy() for p in model.parameters()}

    def loss_at() -> float:
        return model.loss_only(x, y, train=True)

    report = GradCheckReport()
    for p in model.parameters():
        grad = analytic[p.name]
        worst = 0.0
        flat = p.value.reshape(-1)
        if p.size <= max_exhaustive:
            method = "exhaustive"
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                lp = loss_at()
                flat[i] = orig - epsilon
                lm = loss_at()
                flat[i] = orig
                fd = (lp - lm) / (2.0 * epsilon)
                worst = max(worst, _rel_err(fd, gflat[i]))
        else:
            method = "directional"
            for _ in range(probes):
                v = rng.standard_normal(p.value.shape)
                v /= np.linalg.norm(v)
                backup = p.value.copy()
                p.value += epsilon * v
                lp = loss_at()
                p.value[...] = backup - epsilon * v
                lm = loss_at()
                p.value[...] = backup
                fd = (lp - lm) / (2.0 * epsilon)
                an = float(np.sum(grad * v))
                worst = max(worst, _rel_err(fd, an))
        report.tensors.append(TensorCheck(p.name, p.size, method, worst))
    return report
