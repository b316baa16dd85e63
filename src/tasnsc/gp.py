"""Exact Gaussian-process regression for 2-D velocity flow fields.

A GP maps position to one velocity component, or to several at once: the
targets are a vector (n,) or a matrix (n, d) whose columns share the inputs,
the kernel and hence the posterior variance. The kernel is an axis-separable
squared exponential; fits keep the lower Cholesky factor ``L`` of the
regularized Gram matrix, so posterior queries are cheap and the model is
immutable. Every query is a batch of points (m, 2) and gets arrays back;
it computes ``k*`` once, the mean is ``k*ᵀα`` and the variance
``s² − |L⁻¹k*|²`` (Rasmussen & Williams, *GPML* Alg. 2.1).
``posterior_mean`` is the mean alone, with no triangular solve; ``posterior``
solves ``L⁻¹k*`` with one direct call of LAPACK's ``dtrtrs``, the routine
``scipy.linalg.solve_triangular`` wraps, so it skips that wrapper's per-call
checks and gives the same bits.

Each motion pattern is the flow field (vx, vy): one GP with two target
columns, fit once, so both share one Cholesky factor and one variance.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dtrtrs

__all__ = [
    "GPFitError",
    "Kernel",
    "GPModel",
    "MotionPattern",
    "kernel_matrix",
    "fit",
    "posterior",
    "posterior_mean",
    "pattern_log_likelihood",
]

_LOG_2PI = float(np.log(2.0 * np.pi))
# The largest float whose square is finite: the kernel squares its scales.
_MAX_ROOT = float(np.sqrt(np.finfo(float).max))


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
            if not 0 < getattr(self, name) <= _MAX_ROOT:
                raise ValueError(
                    f"kernel parameter {name} must be positive and finite, and so must its square"
                )


def kernel_matrix(kernel: Kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix between position sets ``a`` (n, 2) and ``b`` (m, 2)."""
    # In place on two (n, m) buffers: the Gram matrices of a fit are the
    # largest arrays the program holds.
    k = a[:, 0, None] - b[None, :, 0]
    k /= kernel.length_x
    k *= k
    dy = a[:, 1, None] - b[None, :, 1]
    dy /= kernel.length_y
    dy *= dy
    k += dy
    del dy
    k *= -0.5
    np.exp(k, out=k)
    k *= kernel.signal_sd**2
    return k


class GPModel:
    """Exact GP posterior over one velocity component (n,) or several (n, d).

    Immutable after construction; ``posterior`` queries are read-only.
    """

    def __init__(self, inputs, targets, kernel: Kernel):
        inputs = np.asarray(inputs, dtype=float).reshape(-1, 2)
        if len(inputs) == 0:
            raise GPFitError("GP fit needs at least one training point")
        if not np.all(np.isfinite(inputs)):
            raise ValueError("GP training data contains non-finite values")
        targets = np.atleast_1d(np.asarray(targets, dtype=float))
        if targets.ndim > 2:
            raise ValueError(f"GP targets must be (n,) or (n, d), got shape {targets.shape}")
        if len(targets) != len(inputs):
            raise ValueError("inputs and targets lengths differ")
        if not np.all(np.isfinite(targets)):
            raise ValueError("GP training data contains non-finite values")
        gram = kernel_matrix(kernel, inputs, inputs)
        gram[np.diag_indices_from(gram)] += kernel.noise_sd**2
        try:
            # The Gram matrix is symmetric, so its transpose is the same
            # matrix in Fortran order, which LAPACK factors in place.
            chol, _ = cho_factor(gram.T, lower=True, overwrite_a=True, check_finite=False)
        except LinAlgError as exc:
            raise GPFitError(
                "kernel matrix is not positive definite (duplicate inputs with "
                "near-zero noise?)"
            ) from exc
        self.inputs = inputs
        self.targets = targets
        self.kernel = kernel
        self._chol = chol  # L in the lower triangle; the upper one is not read
        self._alpha = cho_solve((chol, True), targets, check_finite=False)

    def __len__(self) -> int:
        return len(self.targets)


def fit(inputs, targets, kernel: Kernel) -> GPModel:
    """Fit an exact GP; raises :class:`GPFitError` if the Gram matrix is not SPD."""
    return GPModel(inputs, targets, kernel)


def _cross_covariance(model: GPModel, query) -> np.ndarray:
    """k(q, x) (m, n) for a batch of query points (m, 2)."""
    q = np.asarray(query, dtype=float)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ValueError(f"GP posterior query must be a batch of points (m, 2), got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("GP posterior query contains non-finite values")
    return kernel_matrix(model.kernel, q, model.inputs)


def posterior_mean(model: GPModel, query) -> np.ndarray:
    """Posterior mean at a batch of query points (m, 2): ``posterior``'s mean, bitwise.

    Needs no triangular solve. Raises :class:`ValueError` on a query that is
    not (m, 2) or not finite.
    """
    return _cross_covariance(model, query) @ model._alpha


def posterior(model: GPModel, query) -> tuple:
    """Posterior mean and variance at a batch of query points (m, 2).

    The mean is (m,) for a scalar GP and (m, d) for one with d target
    columns. The variance (m,) is the latent function variance (no
    observation noise), shared by all target columns, clamped at zero
    against the tiny negatives Cholesky round-off can leave. Raises
    :class:`ValueError` on a query that is not (m, 2) or not finite.
    """
    k_star_t = _cross_covariance(model, query)
    mean = k_star_t @ model._alpha
    # k(q, x) is k*ᵀ (m, n) in C order, so its transpose is k* in Fortran
    # order, which the triangular solve overwrites in place.
    v, info = dtrtrs(model._chol, k_star_t.T, lower=1, overwrite_b=1)
    if info:
        raise LinAlgError(f"triangular solve failed: dtrtrs info {info}")
    var = model.kernel.signal_sd**2 - np.einsum("ij,ij->j", v, v)
    return mean, np.maximum(var, 0.0)


# One velocity component of a pattern: the flow's inputs and one target column.
_Component = namedtuple("_Component", "inputs targets")


@dataclass(frozen=True, eq=False)
class MotionPattern:
    """One atom-pair transition modeled as a 2-D GP flow field.

    ``atoms`` is the (i, j) atom pair, ``flow`` the GP from position to
    velocity with (n, 2) targets (vx, vy), and ``prior_weight`` the
    pattern's transition count normalized over all patterns, in (0, 1].
    """

    atoms: tuple
    flow: GPModel
    prior_weight: float

    def __post_init__(self):
        atoms = self.atoms
        # ``type(a) is int`` keeps out bool, which is an int subclass.
        if not (isinstance(atoms, tuple) and len(atoms) == 2
                and all(type(a) is int or isinstance(a, np.integer) for a in atoms)):
            raise ValueError(f"pattern atoms must be a pair of integers, got {atoms!r}")
        if not 0.0 < self.prior_weight <= 1.0:
            raise ValueError(f"prior weight {self.prior_weight} outside (0, 1]")
        if self.flow.targets.shape[1:] != (2,):
            raise ValueError(f"a pattern's flow targets must be (n, 2), got shape {self.flow.targets.shape}")

    # Read-only (inputs, targets) views of one velocity component: no GP and
    # no solve. Their only reader is the benchmark's ``model_key``; they go
    # when it reads ``flow``.
    gp_x = property(lambda self: _Component(self.flow.inputs, self.flow.targets[:, 0]))
    gp_y = property(lambda self: _Component(self.flow.inputs, self.flow.targets[:, 1]))


def pattern_log_likelihood(pattern: MotionPattern, samples, counts) -> np.ndarray:
    """Log-likelihoods of stacked observations under the pattern, one per observation.

    ``samples`` (N, 4) stacks the (x, y, vx, vy) samples of observations of
    ``counts`` samples each, in order, scored with one posterior query. The
    velocity components are scored independently under the flow's
    posterior, with the variance of a noisy observation (posterior plus
    noise variance), and the log prior weight of the pattern is added.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 4:
        raise ValueError(f"observed samples must be (N, 4), got shape {samples.shape}")
    owner = np.repeat(np.arange(len(counts)), counts)
    if len(owner) != len(samples):
        raise ValueError(f"counts sum to {len(owner)}, got {len(samples)} samples")
    total = np.full(len(counts), np.log(pattern.prior_weight))
    if len(samples):
        mean, var = posterior(pattern.flow, samples[:, :2])
        var += pattern.flow.kernel.noise_sd**2
        resid = samples[:, 2:] - mean
        per_sample = -(_LOG_2PI + np.log(var)) - np.einsum("ij,ij->i", resid, resid) / (2.0 * var)
        total += np.bincount(owner, weights=per_sample, minlength=len(counts))
    return total
