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
NLL over theta with one optimizer, :func:`minimize`: BFGS on the D + 1 log
hyperparameters, projected onto the box of :func:`_log_bounds`. It calls the
objective directly and keeps its own bookkeeping in Python floats, so an
iteration costs little more than its objective evaluations. Its final inverse
Hessian is kept on the fitted model, so a refit of the same node can start from
the curvature of the last one. A fitted model is assembled from the factor of
the lowest NLL the optimizer evaluated; R is not built again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import require_ints
from .kernels import (
    CorrelationMatrix,
    DimensionMismatchError,
    KernelSpec,
    _cholesky_with_jitter,
    _correlation_values,
    _sq_diffs,
    build_correlation,
    chol_inverse,
    chol_solve,
    cross_correlation,
)

NUGGET_FLOOR = 1e-8
_EPS = np.finfo(float).eps
_LOG_2PI = np.log(2.0 * np.pi)
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
        for name, low in (("n_starts", 1), ("seed", 0), ("max_iter", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if not 0 < self.lengthscale_range[0] < self.lengthscale_range[1]:
            raise ValueError("lengthscale_range must satisfy 0 < low < high")
        # below the spacing of doubles at 1, 1 + nugget can round to 1: the fit
        # has no nugget, and identical input rows make R singular
        if not _EPS <= self.nugget_bounds[0] <= self.nugget_bounds[1]:
            raise ValueError(f"nugget_bounds must satisfy {_EPS:.3g} <= low <= high, "
                             f"got {tuple(self.nugget_bounds)}")


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
    logdet = n * np.log(scale) + 2.0 * float(np.log(chol.diagonal()).sum())
    return -0.5 * (n * _LOG_2PI + logdet + quad)


def log_marginal_likelihood(X, y, hyper: GPHyperparams) -> float:
    """Zero-mean multivariate normal log density of y under sigma^2 R."""
    training = _single_output(X, y)
    corr = build_correlation(hyper.kernel, hyper.nugget, training.X)
    return _gaussian_logpdf(training.y, corr.chol, hyper.scale)


class _PreparedSEObjective:
    """Profiled negative log ML for the SE kernel with analytic gradients in
    log space. Squared distances per dimension are precomputed once per (X, y)
    pair. ``best`` holds the NLL, theta, the correlation matrix, R^-1 y and q of
    the lowest NLL returned so far, so the fitted model needs no second
    factorisation."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.y = y
        self.n = X.shape[0]
        self.d2 = np.stack([_sq_diffs(X[:, k], X[:, k]) for k in range(X.shape[1])])
        self.best = None

    def __call__(self, theta: np.ndarray):
        # Everything over N^2 elements is elementwise or a non-BLAS einsum:
        # OpenBLAS threads even small products (a D-term tensordot, D + 1 gemv
        # calls), and that cost the N = 115 SEM refits about 4x on two cores.
        inv_ls2 = np.exp(-2.0 * theta[:-1])
        nugget = np.exp(theta[-1])
        R = _correlation_values(np.einsum("k,kij->ij", inv_ls2, self.d2), nugget)
        try:
            L, jitter = _cholesky_with_jitter(R)
        except np.linalg.LinAlgError:
            return np.inf, np.zeros_like(theta)
        alpha = chol_solve(L, self.y)
        quad = float(self.y @ alpha)
        if quad <= 0:
            return np.inf, np.zeros_like(theta)
        nll = 0.5 * self.n * np.log(quad / self.n) + float(np.log(L.diagonal()).sum())
        if self.best is None or nll < self.best[0]:
            corr = CorrelationMatrix(chol=L, jitter_applied=jitter)
            self.best = (nll, theta.copy(), corr, alpha, quad)
        W = chol_inverse(L)
        aa = np.multiply.outer(alpha, alpha)
        aa *= self.n / quad
        W -= aa
        grad = np.empty_like(theta)
        grad[-1] = 0.5 * nugget * float(np.trace(W))  # dR/dtheta_eta = nugget * I
        # R is the kernel matrix off the diagonal, and every d2 is 0 on it, so R
        # weighs the d2 terms as the kernel matrix does
        W *= R
        grad[:-1] = inv_ls2 * np.einsum("kij,ij->k", self.d2, W)
        return nll, grad


# scipy's L-BFGS-B defaults: stop when the largest projected-gradient entry, or
# the reduction of the objective in one iteration relative to max(|f|, 1), is
# this small
_PGTOL = 1e-5
_FTOL = 1e7 * _EPS
_ARMIJO = 1e-4
_MAX_TRIALS = 20  # objective evaluations per line search


@dataclass(frozen=True)
class MinimizeResult:
    """The last accepted point of :func:`minimize` and its value, the final inverse
    Hessian, the objective evaluations and iterations made, and whether the run
    stopped at a tolerance (``success``) rather than at a non-finite start,
    ``maxiter`` or a failed line search."""

    x: np.ndarray
    fun: float
    hess_inv: np.ndarray
    nfev: int
    nit: int
    success: bool


def _dot(u, v) -> float:
    """sum_i u_i v_i, added in order from 0.0 as numpy sums fewer than 8 terms."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def _box_direction(H, g, x, lo, hi) -> list[float]:
    """-H g restricted to the free variables. A variable at a bound is fixed
    (step 0) where the gradient, or else the step, points out of the box."""
    at_lo = [xi <= l for xi, l in zip(x, lo)]
    at_hi = [xi >= h for xi, h in zip(x, hi)]
    if not (any(at_lo) or any(at_hi)):
        return [-_dot(row, g) for row in H]
    free = [not ((al and gi > 0) or (ah and gi < 0)) for al, ah, gi in zip(at_lo, at_hi, g)]
    while True:
        g_free = [gi if fr else 0.0 for gi, fr in zip(g, free)]
        p = [-_dot(row, g_free) if fr else 0.0 for row, fr in zip(H, free)]
        out = [(al and pi < 0) or (ah and pi > 0) for al, ah, pi in zip(at_lo, at_hi, p)]
        if not any(out):
            return p
        free = [fr and not o for fr, o in zip(free, out)]


def minimize(objective, x0, lo, hi, maxiter: int = 200, hess_inv0=None) -> MinimizeResult:
    """Minimise ``objective`` over the box [lo, hi] by BFGS projected onto the
    box. ``objective(x)`` returns the value and the gradient at an array x.

    Each iteration steps along :func:`_box_direction`, cut short at the first
    bound it meets, and backtracks until the Armijo condition holds, taking the
    minimiser of the quadratic through f(x), the slope and the failed trial,
    kept within [0.1, 0.5] of the failed step. A non-finite value fails a
    trial and cuts the step tenfold. ``hess_inv0``, a previous result's
    ``hess_inv``, is the starting inverse Hessian H; without one H starts as the
    identity, the first step is at most 1 long, and H is rescaled by s'y / y'y
    before its first update. A failed line search restarts once from the
    identity. The run stops at scipy L-BFGS-B's default tolerances, or after
    ``maxiter`` iterations, which like L-BFGS-B it reports as no success.

    Only the objective touches arrays: the bookkeeping on the few variables is
    in Python floats, which cost less per operation than numpy calls on arrays
    this short, and it sums as numpy does, term by term from 0.0.
    """
    lo, hi = [float(v) for v in lo], [float(v) for v in hi]
    n = len(lo)

    def identity():
        return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]

    def evaluate(point):
        value, grad = objective(np.array(point))
        return float(value), grad.tolist()

    x = [min(max(float(v), l), h) for v, l, h in zip(x0, lo, hi)]
    f, g = evaluate(x)
    nfev, nit = 1, 0
    fresh = hess_inv0 is None
    H = identity() if fresh else np.asarray(hess_inv0, dtype=float).tolist()

    def result(success):
        return MinimizeResult(x=np.array(x), fun=f, hess_inv=np.array(H), nfev=nfev, nit=nit,
                              success=success)

    if not math.isfinite(f):
        return result(False)
    while True:
        if all(abs(min(max(xi - gi, l), h) - xi) <= _PGTOL
               for xi, gi, l, h in zip(x, g, lo, hi)):
            return result(True)
        if nit >= maxiter:
            return result(False)
        p = _box_direction(H, g, x, lo, hi)
        slope = _dot(g, p)
        # the step length that takes each variable to the bound it moves toward
        edge = [h if pi > 0 else l for pi, l, h in zip(p, lo, hi)]
        to_bound = [(e - xi) / pi if pi != 0 else math.inf for e, xi, pi in zip(edge, x, p)]
        alpha = min(1.0, min(to_bound))
        if fresh:
            alpha = min(alpha, 1.0 / math.sqrt(_dot(p, p)))
        for _ in range(_MAX_TRIALS if slope < 0 else 0):
            x_new = [min(max(e if tb <= alpha else xi + alpha * pi, l), h)
                     for e, tb, xi, pi, l, h in zip(edge, to_bound, x, p, lo, hi)]
            f_new, g_new = evaluate(x_new)
            nfev += 1
            if f_new <= f + _ARMIJO * alpha * slope:
                break
            if math.isfinite(f_new):
                curv = f_new - f - slope * alpha
                # a zero curvature term divides to an infinity, signed as the zero
                a = -0.5 * slope * alpha**2 / curv if curv else math.copysign(math.inf, curv)
                alpha = min(max(a, 0.1 * alpha), 0.5 * alpha)
            else:
                alpha *= 0.1
        else:
            if fresh:
                return result(False)
            H, fresh = identity(), True
            continue
        s = [a - b for a, b in zip(x_new, x)]
        yv = [a - b for a, b in zip(g_new, g)]
        sy = _dot(s, yv)
        # skip the update where the curvature s'y is not positive
        if sy > _EPS * -_dot(g, s):
            if fresh:
                c = sy / _dot(yv, yv)
                H = [[v * c for v in row] for row in H]
                fresh = False
            Hy = [_dot(row, yv) for row in H]
            rho = 1.0 / sy
            c = rho + rho**2 * _dot(yv, Hy)
            H = [[h + c * (si * sj) - rho * (hyi * sj + si * hyj)
                  for sj, hyj, h in zip(s, Hy, row)]
                 for si, hyi, row in zip(s, Hy, H)]
        nit += 1
        reduction = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if reduction <= _FTOL:
            return result(True)


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
        res = minimize(objective, t0, lo, hi, config.max_iter)
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
    t0 = np.concatenate([np.log(init.kernel.lengthscales),
                         [np.log(np.clip(init.nugget, *config.nugget_bounds))]])
    lo, hi = _log_bounds(training.X, config)
    objective = _PreparedSEObjective(training.X, training.y)
    res = minimize(objective, t0, lo, hi, max_iter, hess_inv0)
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
    A non-finite query row raises ValueError.

    Each mean is summed over the N training rows in one order that does not
    depend on M, S or the entry's place in the batch, so a batch is bitwise its
    one-row calls and equal output columns give equal means."""
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    bad = ~np.all(np.isfinite(X0), axis=1)
    if np.any(bad):
        raise ValueError(f"query inputs must be finite; rows {np.flatnonzero(bad).tolist()} "
                         "are not")
    r = cross_correlation(model.hyper.kernel, X0, model.training.X)  # (M, N)
    # not r @ alpha: BLAS rounds a row or column by where it sits in the product;
    # einsum without optimize calls no BLAS
    mean = np.einsum("mn,n...->m...", r, model.alpha)
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
