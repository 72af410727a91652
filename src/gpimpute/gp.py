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

:func:`fit_gp` (multi-start) and :func:`refit_gp` (one warm start) minimise the
NLL over theta with one optimizer, :func:`_projected_bfgs`: BFGS on the D + 1
log hyperparameters, projected onto the box of :func:`_log_bounds`, called
through ``scipy.optimize.minimize``. Its final inverse Hessian is kept on the
fitted model, so a refit of the same node can start from the curvature of the
last one. A fitted model is assembled from the factor of the lowest NLL the
optimizer evaluated; R is not built again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeResult, minimize

from .data import require_ints
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
    pass


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
        require_ints(self, "n_starts", "seed", "max_iter")
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
    # the optimizer's final inverse Hessian over log hyperparameters, for a
    # warm refit; None when the hyperparameters were given
    hess_inv: np.ndarray | None = field(default=None, repr=False, compare=False)

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
    are precomputed once per (X, y) pair. ``best`` holds the NLL, theta, the
    correlation matrix, R^-1 y and q of the lowest NLL returned so far, so the
    fitted model needs no second factorisation."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.y = y
        self.n = X.shape[0]
        self.d2 = np.stack([(X[:, k, None] - X[None, :, k]) ** 2 for k in range(X.shape[1])])
        # identical rows are those at distance exactly 0, as in build_correlation;
        # flat indices into an (N, N) array
        self.same = np.flatnonzero(np.sum(self.d2, axis=0) == 0)
        self.best = None

    def __call__(self, theta: np.ndarray):
        # Everything over N^2 elements is elementwise or a non-BLAS einsum:
        # OpenBLAS threads even small products (a D-term tensordot, D + 1 gemv
        # calls), and that cost the N = 115 SEM refits about 4x on two cores.
        inv_ls2 = np.exp(-2.0 * theta[:-1])
        nugget = np.exp(theta[-1])
        R = np.exp(-np.einsum("k,kij->ij", inv_ls2, self.d2))
        R.flat[self.same] += nugget
        try:
            L, jitter = _cholesky_with_jitter(R)
        except np.linalg.LinAlgError:
            return np.inf, np.zeros_like(theta)
        alpha = chol_solve(L, self.y)
        quad = float(self.y @ alpha)
        if quad <= 0:
            return np.inf, np.zeros_like(theta)
        nll = 0.5 * self.n * np.log(quad / self.n) + float(np.sum(np.log(np.diag(L))))
        if self.best is None or nll < self.best[0]:
            corr = CorrelationMatrix(values=R, chol=L, jitter_applied=jitter)
            self.best = (nll, theta.copy(), corr, alpha, quad)
        W = chol_inverse(L)
        W -= (self.n / quad) * np.outer(alpha, alpha)
        grad = np.empty_like(theta)
        grad[-1] = 0.5 * nugget * float(np.sum(W.flat[self.same]))
        # R is the kernel matrix plus the nugget where every d2 is 0, so it
        # weighs the d2 terms as the kernel matrix does
        W *= R
        grad[:-1] = inv_ls2 * np.einsum("kij,ij->k", self.d2, W)
        return nll, grad


# scipy's L-BFGS-B defaults: stop when the largest projected-gradient entry, or
# the reduction of the objective in one iteration relative to max(|f|, 1), is
# this small
_PGTOL = 1e-5
_EPS = np.finfo(float).eps
_FTOL = 1e7 * _EPS
_ARMIJO = 1e-4
_MAX_TRIALS = 20  # objective evaluations per line search


def _box_direction(H: np.ndarray, g: np.ndarray, x, lo, hi) -> np.ndarray:
    """-H g restricted to the free variables. A variable at a bound is fixed
    (step 0) where the gradient, or else the step, points out of the box."""
    at_lo, at_hi = x <= lo, x >= hi
    if not (at_lo.any() or at_hi.any()):
        return -(H * g).sum(axis=1)
    free = ~((at_lo & (g > 0)) | (at_hi & (g < 0)))
    while True:
        p = -(free * (H * (free * g)).sum(axis=1))
        out = (at_lo & (p < 0)) | (at_hi & (p > 0))
        if not out.any():
            return p
        free &= ~out


def _projected_bfgs(fun, x0, args=(), jac=None, bounds=None, maxiter=200, hess_inv0=None,
                    **_):
    """Minimise ``fun`` over the box ``bounds``, a sequence of (low, high) pairs,
    by BFGS projected onto the box: a ``scipy.optimize.minimize`` method for a
    few variables, with ``jac`` the gradient.

    Each iteration steps along :func:`_box_direction`, cut short at the first
    bound it meets, and backtracks until the Armijo condition holds, taking the
    minimiser of the quadratic through f(x), the slope and the failed trial,
    kept within [0.1, 0.5] of the failed step. A non-finite value fails a
    trial and cuts the step tenfold. ``hess_inv0``, a previous result's
    ``hess_inv``, is the starting inverse Hessian H; without one H starts as the
    identity, the first step is at most 1 long, and H is rescaled by s'y / y'y
    before its first update. A failed line search restarts once from the
    identity. The run stops at scipy L-BFGS-B's default tolerances, or after
    ``maxiter`` iterations, which like L-BFGS-B it reports as no success. The
    arithmetic on H is elementwise, so no BLAS call (threaded or not) is made.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in zip(*bounds))
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g = fun(x, *args), jac(x, *args)
    nfev, nit = 1, 0
    fresh = hess_inv0 is None
    H = np.eye(x.size) if fresh else np.array(hess_inv0, dtype=float)

    def result(status, message):
        return OptimizeResult(x=x, fun=f, jac=g, hess_inv=H, nfev=nfev, njev=nfev, nit=nit,
                              status=status, success=status == 0, message=message)

    if not np.isfinite(f):
        return result(2, "objective not finite at the start")
    while True:
        if np.abs(np.minimum(np.maximum(x - g, lo), hi) - x).max() <= _PGTOL:
            return result(0, "projected gradient below tolerance")
        if nit >= maxiter:
            return result(1, "iteration limit reached")
        p = _box_direction(H, g, x, lo, hi)
        slope = float((g * p).sum())
        # the step length that takes each variable to the bound it moves toward
        edge = np.where(p > 0, hi, lo)
        moves = p != 0
        to_bound = np.where(moves, (edge - x) / np.where(moves, p, 1.0), np.inf)
        alpha = min(1.0, float(to_bound.min()))
        if fresh:
            alpha = min(alpha, 1.0 / float(np.sqrt((p * p).sum())))
        for _ in range(_MAX_TRIALS if slope < 0 else 0):
            x_new = np.minimum(np.maximum(np.where(to_bound <= alpha, edge, x + alpha * p), lo), hi)
            f_new = fun(x_new, *args)
            nfev += 1
            if f_new <= f + _ARMIJO * alpha * slope:
                break
            if np.isfinite(f_new):
                a = -0.5 * slope * alpha**2 / (f_new - f - slope * alpha)
                alpha = min(max(a, 0.1 * alpha), 0.5 * alpha)
            else:
                alpha *= 0.1
        else:
            if fresh:
                return result(2, "line search failed")
            H, fresh = np.eye(x.size), True
            continue
        g_new = jac(x_new, *args)
        s, yv = x_new - x, g_new - g
        sy = float((s * yv).sum())
        # skip the update where the curvature s'y is not positive
        if sy > _EPS * -float((g * s).sum()):
            if fresh:
                H *= sy / float((yv * yv).sum())
                fresh = False
            Hy = (H * yv).sum(axis=1)
            rho = 1.0 / sy
            H += (rho + rho**2 * float((yv * Hy).sum())) * (s[:, None] * s)
            H -= rho * (Hy[:, None] * s + s[:, None] * Hy)
        nit += 1
        reduction = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if reduction <= _FTOL:
            return result(0, "relative reduction below tolerance")


def _minimize_nll(objective: _PreparedSEObjective, theta0, bounds, max_iter: int,
                  hess_inv0=None):
    return minimize(objective, theta0, jac=True, method=_projected_bfgs, bounds=bounds,
                    options={"maxiter": max_iter, "hess_inv0": hess_inv0})


def _log_bounds(X: np.ndarray, config: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on theta = log lengthscales + [log nugget].

    Lengthscale bounds are ``config.lengthscale_range`` times each input
    dimension's range (1 where a dimension is constant).
    """
    ranges = np.ptp(X, axis=0)
    ranges = np.where(ranges > 0, ranges, 1.0)
    lo = np.append(np.log(config.lengthscale_range[0] * ranges), np.log(config.nugget_bounds[0]))
    hi = np.append(np.log(config.lengthscale_range[1] * ranges), np.log(config.nugget_bounds[1]))
    return lo, hi


def _fitted_from(training: TrainingSet, objective: _PreparedSEObjective,
                 hess_inv: np.ndarray | None) -> FittedGP:
    """FittedGP at the lowest NLL ``objective`` has returned, from that
    evaluation's factor, with the scale sigma^2 profiled out as q / N."""
    if objective.best is None:
        raise FitFailureError("optimizer produced no finite objective value")
    _, theta, corr, alpha, quad = objective.best
    hyper = GPHyperparams(kernel=KernelSpec(np.exp(theta[:-1])), scale=quad / training.n,
                          nugget=float(np.exp(theta[-1])))
    return FittedGP(training=training, hyper=hyper, corr=corr, alpha=alpha, hess_inv=hess_inv)


def fit_gp(X, y, config: FitConfig = FitConfig()) -> FittedGP:
    """Estimate lengthscales and nugget by multi-start profiled ML.

    Deterministic given ``config.seed``: starts are drawn from a seeded RNG and
    the lowest objective wins, ties broken by lowest start index.
    """
    training = _single_output(X, y)
    if training.n < 2:
        raise ValueError("fitting requires at least 2 data points")
    if np.ptp(training.y) == 0:
        raise DegenerateDataError("all outputs identical; cannot fit a GP scale")

    lo, hi = _log_bounds(training.X, config)
    rng = np.random.default_rng(config.seed)
    starts = []
    for _ in range(config.n_starts):
        t = np.concatenate(
            [rng.uniform(lo[:-1], hi[:-1]), [rng.uniform(lo[-1], max(lo[-1], np.log(1e-1)))]]
        )
        starts.append(t)

    objective = _PreparedSEObjective(training.X, training.y)
    hess_inv = None
    best_val = np.inf
    for t0 in starts:
        res = _minimize_nll(objective, t0, list(zip(lo, hi)), config.max_iter)
        if res.fun < best_val:
            best_val = res.fun
            hess_inv = res.hess_inv
    return _fitted_from(training, objective, hess_inv)


def refit_gp(model_X, model_y, init: GPHyperparams, max_iter: int = 50,
             config: FitConfig = FitConfig(), hess_inv0: np.ndarray | None = None) -> FittedGP:
    """Single warm-started local refit, in :func:`fit_gp`'s search box for ``config``.
    ``hess_inv0``, the ``hess_inv`` of an earlier fit of the same node, starts the
    optimizer from that fit's curvature."""
    training = _single_output(model_X, model_y)
    t0 = np.concatenate([np.log(init.kernel.lengthscales), [np.log(max(init.nugget, NUGGET_FLOOR))]])
    lo, hi = _log_bounds(training.X, config)
    objective = _PreparedSEObjective(training.X, training.y)
    res = _minimize_nll(objective, t0, list(zip(lo, hi)), max_iter, hess_inv0)
    return _fitted_from(training, objective, res.hess_inv)


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
