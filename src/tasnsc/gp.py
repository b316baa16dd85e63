"""Exact Gaussian-process regression for 2-D velocity flow fields.

Each motion pattern is a pair of independent GPs mapping position to the x
and y velocity components. The kernel is an axis-separable squared
exponential; fits cache a Cholesky factorization of the regularized Gram
matrix, so posterior queries are cheap and the model is immutable. The two
GPs of a pattern share their inputs, and with them one factorization
(:meth:`GPModel.with_targets`).
"""

import copy
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

__all__ = [
    "GPFitError",
    "Kernel",
    "GPModel",
    "MotionPattern",
    "kernel_matrix",
    "fit",
    "posterior",
    "pattern_log_likelihood",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


class GPFitError(ValueError):
    """Raised when the regularized kernel matrix is not positive definite."""


@dataclass(frozen=True)
class Kernel:
    """Squared-exponential kernel with per-axis length scales.

    k(p, q) = signal_sd^2 * exp(-dx^2 / (2 lx^2) - dy^2 / (2 ly^2))
    """

    length_x: float = 2.0
    length_y: float = 2.0
    signal_sd: float = 1.0
    noise_sd: float = 0.1

    def __post_init__(self):
        for name in ("length_x", "length_y", "signal_sd", "noise_sd"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"kernel parameter {name} must be positive and finite")


def kernel_matrix(kernel: Kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix between position sets ``a`` (n, 2) and ``b`` (m, 2)."""
    dx = (a[:, 0, None] - b[None, :, 0]) / kernel.length_x
    dy = (a[:, 1, None] - b[None, :, 1]) / kernel.length_y
    return kernel.signal_sd**2 * np.exp(-0.5 * (dx * dx + dy * dy))


class GPModel:
    """Exact GP posterior over a scalar velocity component.

    Immutable after construction; ``posterior`` queries are read-only.
    """

    def __init__(self, inputs, targets, kernel: Kernel):
        inputs = np.asarray(inputs, dtype=float).reshape(-1, 2)
        if len(inputs) == 0:
            raise GPFitError("GP fit needs at least one training point")
        if not np.all(np.isfinite(inputs)):
            raise ValueError("GP training data contains non-finite values")
        targets = _checked_targets(targets, len(inputs))
        gram = kernel_matrix(kernel, inputs, inputs)
        gram[np.diag_indices_from(gram)] += kernel.noise_sd**2
        try:
            chol = cho_factor(gram, lower=True)
        except LinAlgError as exc:
            raise GPFitError(
                "kernel matrix is not positive definite (duplicate inputs with "
                "near-zero noise?)"
            ) from exc
        self.inputs = inputs
        self.targets = targets
        self.kernel = kernel
        self._chol = chol
        self._alpha = cho_solve(chol, targets)

    def with_targets(self, targets) -> "GPModel":
        """The GP on the same inputs and kernel fit to other targets.

        Shares this model's Cholesky factor; only the weights are solved.
        """
        twin = copy.copy(self)
        twin.targets = _checked_targets(targets, len(self.inputs))
        twin._alpha = cho_solve(self._chol, twin.targets)
        return twin

    def __len__(self) -> int:
        return len(self.targets)


def _checked_targets(targets, n: int) -> np.ndarray:
    targets = np.asarray(targets, dtype=float).ravel()
    if len(targets) != n:
        raise ValueError("inputs and targets lengths differ")
    if not np.all(np.isfinite(targets)):
        raise ValueError("GP training data contains non-finite values")
    return targets


def fit(inputs, targets, kernel: Kernel) -> GPModel:
    """Fit an exact GP; raises :class:`GPFitError` if the Gram matrix is not SPD."""
    return GPModel(inputs, targets, kernel)


def posterior(model: GPModel, query) -> tuple:
    """Posterior mean and variance at one query point (2,) or a batch (m, 2).

    The variance is the latent function variance (no observation noise),
    clamped at zero against the tiny negatives Cholesky round-off can leave.
    """
    q = np.asarray(query, dtype=float)
    single = q.ndim == 1
    q = q.reshape(-1, 2)
    k_star = kernel_matrix(model.kernel, model.inputs, q)
    mean = k_star.T @ model._alpha
    solved = cho_solve(model._chol, k_star)
    var = model.kernel.signal_sd**2 - np.sum(k_star * solved, axis=0)
    var = np.maximum(var, 0.0)
    if single:
        return float(mean[0]), float(var[0])
    return mean, var


@dataclass(frozen=True, eq=False)
class MotionPattern:
    """One atom-pair transition modeled as a 2-D GP flow field.

    ``prior_weight`` is the pattern's transition count normalized over all
    patterns, in (0, 1].
    """

    atoms: tuple
    gp_x: GPModel
    gp_y: GPModel
    prior_weight: float

    def __post_init__(self):
        if not 0.0 < self.prior_weight <= 1.0:
            raise ValueError(f"prior weight {self.prior_weight} outside (0, 1]")


def _gaussian_loglik(value: np.ndarray, mean: np.ndarray, var: np.ndarray) -> float:
    return float(np.sum(-0.5 * (_LOG_2PI + np.log(var)) - (value - mean) ** 2 / (2.0 * var)))


def pattern_log_likelihood(pattern: MotionPattern, observed) -> float:
    """Log-likelihood of observed (x, y, vx, vy) samples under the pattern.

    The velocity components are scored independently under the two GP
    posteriors at each position, using the predictive variance for a noisy
    observation (posterior variance plus noise variance); the log prior
    weight of the pattern is added.
    """
    samples = np.asarray(observed, dtype=float).reshape(-1, 4)
    total = float(np.log(pattern.prior_weight))
    if len(samples) == 0:
        return total
    pos = samples[:, :2]
    mean_x, var_x = posterior(pattern.gp_x, pos)
    mean_y, var_y = posterior(pattern.gp_y, pos)
    total += _gaussian_loglik(samples[:, 2], mean_x, var_x + pattern.gp_x.kernel.noise_sd**2)
    total += _gaussian_loglik(samples[:, 3], mean_y, var_y + pattern.gp_y.kernel.noise_sd**2)
    return total
