"""Per-user one-class SVM (RBF kernel) trained by pairwise coordinate descent.

Solves the nu-parameterized one-class dual

    minimize   1/2 sum_ij alpha_i alpha_j K(x_i, x_j)
    subject to 0 <= alpha_i <= 1/(nu*n),  sum_i alpha_i = 1

by repeatedly optimizing the maximally KKT-violating pair, libsvm style.
Training points are sorted into a canonical (lexicographic) order first,
so the solution is exactly invariant to the order of the input rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError

DEFAULT_NU = 0.1
KKT_TOL = 1e-4


@dataclass
class OCSVMModel:
    support_vectors: np.ndarray  # (m, d)
    alphas: np.ndarray           # (m,), all > 0, sum to 1
    rho: float
    gamma: float
    nu: float
    iterations: int = 0
    residual: float = 0.0

    @property
    def n_support(self) -> int:
        return self.alphas.size


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """K[i,j] = exp(-gamma * ||a_i - b_j||^2)."""
    sq = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
          - 2.0 * (a @ b.T))
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def auto_gamma(x: np.ndarray) -> float:
    """1 / (d * mean per-coordinate variance); falls back to 1/d if degenerate."""
    d = x.shape[1]
    var = float(x.var(axis=0).mean())
    return 1.0 / (d * var) if var > 0 else 1.0 / d


def train_ocsvm(x, nu: float = DEFAULT_NU, gamma="auto",
                tol: float = KKT_TOL, max_iter: int | None = None) -> OCSVMModel:
    """Fit a one-class model; raises ConvergenceError past the iteration cap."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidInputError("one-class SVM needs at least 2 training vectors")
    if not 0.0 < nu <= 1.0:
        raise InvalidInputError(f"nu must be in (0, 1], got {nu}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("training vectors contain non-finite values")
    if gamma == "auto":
        gamma = auto_gamma(x)
    gamma = float(gamma)
    if not (np.isfinite(gamma) and gamma > 0):
        raise InvalidInputError(f"gamma must be positive and finite, got {gamma}")

    # Canonical row order makes the solver order-independent.
    order = np.lexsort(x.T[::-1])
    x = x[order]
    n = x.shape[0]
    cap = 1.0 / (nu * n)
    if max_iter is None:
        max_iter = max(20000, 200 * n)

    q = rbf_kernel(x, x, gamma)
    alpha = np.zeros(n)
    n_full = int(np.floor(nu * n))
    alpha[:n_full] = cap
    if n_full < n:
        alpha[n_full] = 1.0 - n_full * cap
    grad = q @ alpha

    iterations = 0
    residual = np.inf
    while iterations < max_iter:
        up = alpha < cap
        low = alpha > 0.0
        if not up.any() or not low.any():
            residual = 0.0
            break
        i = int(np.flatnonzero(up)[np.argmin(grad[up])])
        j = int(np.flatnonzero(low)[np.argmax(grad[low])])
        residual = grad[j] - grad[i]
        if residual < tol:
            break
        eta = max(q[i, i] + q[j, j] - 2.0 * q[i, j], 1e-12)
        delta = min((grad[j] - grad[i]) / eta, cap - alpha[i], alpha[j])
        # Assign bounds exactly when the step is clipped, so support-vector
        # sets stay crisp under float arithmetic.
        if delta == cap - alpha[i]:
            alpha[i] = cap
        else:
            alpha[i] += delta
        if delta == alpha[j]:
            alpha[j] = 0.0
        else:
            alpha[j] -= delta
        grad += delta * (q[:, i] - q[:, j])
        iterations += 1
    else:
        raise ConvergenceError(
            f"one-class SVM did not converge in {max_iter} iterations "
            f"(KKT residual {residual:.3e})", residual=float(residual))

    free = (alpha > 0.0) & (alpha < cap)
    if free.any():
        rho = float(grad[free].mean())
    else:
        upper = grad[alpha >= cap]
        lower = grad[alpha <= 0.0]
        if upper.size and lower.size:
            rho = float((upper.max() + lower.min()) / 2.0)
        else:
            rho = float(upper.max() if upper.size else lower.min())

    keep = alpha > 0.0
    return OCSVMModel(
        support_vectors=x[keep].copy(),
        alphas=alpha[keep].copy(),
        rho=rho,
        gamma=gamma,
        nu=nu,
        iterations=iterations,
        residual=float(max(residual, 0.0)),
    )


def scores(model: OCSVMModel, x: np.ndarray) -> np.ndarray:
    """Decision values sum_i alpha_i K(sv_i, x) - rho for rows of x; higher is more genuine."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.support_vectors.shape[1]:
        raise InvalidInputError(
            f"vector dimension {x.shape[1]} != model dimension {model.support_vectors.shape[1]}")
    k = rbf_kernel(x, model.support_vectors, model.gamma)
    return k @ model.alphas - model.rho
