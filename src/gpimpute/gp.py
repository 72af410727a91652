"""Zero-mean SE-kernel GP fitting by profiled maximum likelihood and posterior
prediction.

Predictive equations, with r(x0) the kernel vector against the training inputs
and R the correlation matrix with nugget:

    mean      mu0    = r(x0)^T R^-1 y
    variance  sigma0 = sigma^2 (1 + eta - r(x0)^T R^-1 r(x0))

The scale sigma^2 is profiled out of the marginal likelihood analytically
(sigma_hat^2 = y^T R^-1 y / N); lengthscales and nugget are optimized in log
space with deterministic multi-start. With q = y^T R^-1 y, alpha = R^-1 y and
theta any log hyperparameter, the profiled negative log likelihood and its
gradient are

    nll              = N/2 log(q / N) + 1/2 log det R
    d nll / d theta  = 1/2 tr(W dR/dtheta),   W = R^-1 - (N / q) alpha alpha^T

so every gradient entry is an elementwise sum over W and dR/dtheta. The full
Gaussian log density (:func:`log_marginal_likelihood`, and the ESS likelihood in
``dgp``) comes from one helper over a Cholesky factor of R. Factors and solves
go through ``kernels._cholesky_with_jitter``, ``kernels.chol_solve`` and
``kernels.chol_inverse``, which call LAPACK directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .kernels import (
    CorrelationMatrix,
    DimensionMismatchError,
    KernelSpec,
    _cholesky_with_jitter,
    build_correlation,
    chol_inverse,
    chol_solve,
    cross_correlation,
)

NUGGET_FLOOR = 1e-8
_VARIANCE_CLAMP_TOL = 1e-10


class DegenerateDataError(ValueError):
    pass


class FitFailureError(RuntimeError):
    def __init__(self, msg, best_so_far=None):
        super().__init__(msg)
        self.best_so_far = best_so_far


@dataclass(frozen=True)
class GPHyperparams:
    kernel: KernelSpec
    scale: float  # sigma^2
    nugget: float  # eta

    def __post_init__(self):
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")
        if not (self.nugget >= 0 and np.isfinite(self.nugget)):
            raise ValueError("nugget must be non-negative and finite")


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameter-estimation settings, loadable from the CLI config file."""

    n_starts: int = 5
    seed: int = 0
    max_iter: int = 200
    # multipliers of the per-dimension input range for lengthscale bounds/inits
    lengthscale_range: tuple[float, float] = (0.01, 10.0)
    nugget_bounds: tuple[float, float] = (NUGGET_FLOOR, 1.0)

    def __post_init__(self):
        for name in ("n_starts", "max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.lengthscale_range[0] < self.lengthscale_range[1]:
            raise ValueError("lengthscale_range must satisfy 0 < low < high")
        if not 0 < self.nugget_bounds[0] <= self.nugget_bounds[1]:
            raise ValueError("nugget_bounds must satisfy 0 < low <= high")


@dataclass(frozen=True)
class TrainingSet:
    X: np.ndarray  # (N, D)
    y: np.ndarray  # (N,), or (N, S) for S output columns

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float)
        y = y if y.ndim == 2 else y.ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have matching first dimension")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("training data must be finite (complete cases only)")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class PredictiveGaussian:
    mean: float
    variance: float


@dataclass(frozen=True)
class FittedGP:
    training: TrainingSet
    hyper: GPHyperparams
    corr: CorrelationMatrix
    alpha: np.ndarray  # R^-1 y, cached; (N,) or (N, S) like training.y

    @property
    def n(self) -> int:
        return self.training.n


def make_fitted_gp(X, y, hyper: GPHyperparams) -> FittedGP:
    """Assemble a FittedGP from explicit hyperparameters (no estimation); a
    ``y`` of shape (N, S) solves its S columns against one factor."""
    training = TrainingSet(X, y)
    corr = build_correlation(hyper.kernel, hyper.nugget, training.X)
    alpha = corr.solve(training.y)
    return FittedGP(training=training, hyper=hyper, corr=corr, alpha=alpha)


def _single_output(X, y) -> TrainingSet:
    """TrainingSet of one output column; an (N, 1) ``y`` is flattened."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 2 and y.shape[1] != 1:
        raise DimensionMismatchError(f"y must be one output column, got shape {y.shape}")
    return TrainingSet(X, y.ravel())


def _gaussian_logpdf(y: np.ndarray, chol: np.ndarray, scale: float) -> float:
    """Zero-mean normal log density of y under scale * R, with chol the lower
    Cholesky factor of R."""
    n = y.shape[0]
    alpha = chol_solve(chol, y)
    quad = float(y @ alpha) / scale
    logdet = n * np.log(scale) + 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (n * np.log(2.0 * np.pi) + logdet + quad)


def log_marginal_likelihood(X, y, hyper: GPHyperparams) -> float:
    """Zero-mean multivariate normal log density of y under sigma^2 R."""
    training = _single_output(X, y)
    corr = build_correlation(hyper.kernel, hyper.nugget, training.X)
    return _gaussian_logpdf(training.y, corr.chol, hyper.scale)


class _PreparedSEObjective:
    """Profiled negative log ML for the SE kernel with analytic gradients in
    log space. Squared distances per dimension and the identical-row indicator
    are precomputed once per (X, y) pair."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.X = X
        self.y = y
        self.n = X.shape[0]
        self.d = X.shape[1]
        self.d2 = np.stack([(X[:, k, None] - X[None, :, k]) ** 2 for k in range(self.d)])
        # identical rows are those at distance exactly 0, as in build_correlation;
        # flat indices into an (N, N) array
        self.same = np.flatnonzero(np.sum(self.d2, axis=0) == 0)

    def __call__(self, theta: np.ndarray):
        # Everything over N^2 elements is elementwise or a non-BLAS einsum:
        # OpenBLAS threads even small products (a D-term tensordot, D + 1 gemv
        # calls), and that cost the N = 115 SEM refits about 4x on two cores.
        inv_ls2 = np.exp(-2.0 * theta[:-1])
        nugget = np.exp(theta[-1])
        R = np.exp(-np.einsum("k,kij->ij", inv_ls2, self.d2))
        R.flat[self.same] += nugget
        try:
            L, _ = _cholesky_with_jitter(R)
        except np.linalg.LinAlgError:
            return np.inf, np.zeros_like(theta)
        alpha = chol_solve(L, self.y)
        quad = float(self.y @ alpha)
        if quad <= 0:
            return np.inf, np.zeros_like(theta)
        nll = 0.5 * self.n * np.log(quad / self.n) + float(np.sum(np.log(np.diag(L))))
        W = chol_inverse(L)
        W -= (self.n / quad) * np.outer(alpha, alpha)
        grad = np.empty_like(theta)
        grad[-1] = 0.5 * nugget * float(np.sum(W.flat[self.same]))
        # R is the kernel matrix plus the nugget where every d2 is 0, so it
        # weighs the d2 terms as the kernel matrix does
        W *= R
        grad[:-1] = inv_ls2 * np.einsum("kij,ij->k", self.d2, W)
        return nll, grad


def _minimize_nll(X, y, theta0, bounds, max_iter: int):
    return minimize(_PreparedSEObjective(X, y), theta0, jac=True, method="L-BFGS-B",
                    bounds=bounds, options={"maxiter": max_iter})


def _log_bounds(X: np.ndarray, config: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper L-BFGS-B bounds on theta = log lengthscales + [log nugget].

    Lengthscale bounds are ``config.lengthscale_range`` times each input
    dimension's range (1 where a dimension is constant).
    """
    ranges = np.ptp(X, axis=0)
    ranges = np.where(ranges > 0, ranges, 1.0)
    lo = np.append(np.log(config.lengthscale_range[0] * ranges), np.log(config.nugget_bounds[0]))
    hi = np.append(np.log(config.lengthscale_range[1] * ranges), np.log(config.nugget_bounds[1]))
    return lo, hi


def _fitted_at(training: TrainingSet, theta: np.ndarray) -> FittedGP:
    """FittedGP at log hyperparameters theta, with the scale sigma^2 profiled out."""
    spec = KernelSpec(np.exp(theta[:-1]))
    nugget = float(np.exp(theta[-1]))
    corr = build_correlation(spec, nugget, training.X)
    alpha = corr.solve(training.y)
    scale = float(training.y @ alpha) / training.n
    hyper = GPHyperparams(kernel=spec, scale=scale, nugget=nugget)
    return FittedGP(training=training, hyper=hyper, corr=corr, alpha=alpha)


def fit_gp(X, y, config: FitConfig = FitConfig()) -> FittedGP:
    """Estimate lengthscales and nugget by multi-start profiled ML.

    Deterministic given ``config.seed``: starts are drawn from a seeded RNG and
    the best objective wins, ties broken by lowest start index.
    """
    training = _single_output(X, y)
    if training.n < 2:
        raise ValueError("fitting requires at least 2 data points")
    if np.ptp(training.y) == 0:
        raise DegenerateDataError("all outputs identical; cannot fit a GP scale")

    X_, y_ = training.X, training.y
    lo, hi = _log_bounds(X_, config)

    rng = np.random.default_rng(config.seed)
    starts = []
    for _ in range(config.n_starts):
        t = np.concatenate(
            [rng.uniform(lo[:-1], hi[:-1]), [rng.uniform(lo[-1], max(lo[-1], np.log(1e-1)))]]
        )
        starts.append(t)

    best = None
    best_val = np.inf
    for t0 in starts:
        res = _minimize_nll(X_, y_, t0, list(zip(lo, hi)), config.max_iter)
        if np.isfinite(res.fun) and res.fun < best_val:
            best_val = res.fun
            best = res.x
    if best is None:
        raise FitFailureError("optimizer produced no finite objective value")

    return _fitted_at(training, best)


def refit_gp(model_X, model_y, init: GPHyperparams, max_iter: int = 50,
             config: FitConfig = FitConfig()) -> FittedGP:
    """Single warm-started local refit, in :func:`fit_gp`'s search box for ``config``."""
    training = _single_output(model_X, model_y)
    t0 = np.concatenate([np.log(init.kernel.lengthscales), [np.log(max(init.nugget, NUGGET_FLOOR))]])
    lo, hi = _log_bounds(training.X, config)
    t0 = np.clip(t0, lo, hi)
    res = _minimize_nll(training.X, training.y, t0, list(zip(lo, hi)), max_iter)
    return _fitted_at(training, res.x if np.isfinite(res.fun) else t0)


def _clamp_variance(var: np.ndarray) -> np.ndarray:
    bad = var < -_VARIANCE_CLAMP_TOL
    if np.any(bad):
        warnings.warn(
            f"clamped {int(np.sum(bad))} predictive variance(s) below -{_VARIANCE_CLAMP_TOL:g}",
            RuntimeWarning,
            stacklevel=3,
        )
    return np.maximum(var, 0.0)


def predict_batch(model: FittedGP, X0) -> tuple[np.ndarray, np.ndarray]:
    """Posterior predictive mean and variance at each row of X0: (M, S) means for
    a model on S output columns, and one (M,) variance, which does not depend on y.
    A non-finite query row raises ValueError."""
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    bad = ~np.all(np.isfinite(X0), axis=1)
    if np.any(bad):
        raise ValueError(f"query inputs must be finite; rows {np.flatnonzero(bad).tolist()} "
                         "are not")
    r = cross_correlation(model.hyper.kernel, X0, model.training.X)  # (M, N)
    mean = r @ model.alpha
    Rinv_r = model.corr.solve(r.T)  # (N, M)
    var = model.hyper.scale * (
        1.0 + model.hyper.nugget - np.sum(r * Rinv_r.T, axis=1)
    )
    return mean, _clamp_variance(var)


def predict(model: FittedGP, x0) -> PredictiveGaussian:
    """Posterior predictive distribution at a single input."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    mean, var = predict_batch(model, x0[None, :])
    return PredictiveGaussian(mean=float(mean[0]), variance=float(var[0]))
