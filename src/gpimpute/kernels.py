"""Squared-exponential product kernel, correlation matrices, and Gaussian kernel
expectations.

The squared exponential (SE) is the package's only kernel, because the linked-GP
moments below are closed-form for it. Convention:

    k(r) = exp(-r^2 / l^2)

i.e. no factor of 2 in the denominator. Every kernel matrix comes from one
distance, :func:`scaled_sq_dist`, and every correlation matrix K + nugget * I
(ESS likelihood, fitted GPs, the likelihood objective in ``gp``, SEM priors)
from :func:`_correlation_values`. The distance is numpy's, one dimension at a
time, (a_d - b_d)^2 summed in dimension order (:func:`_sum_sq_diffs`): that is
bitwise what ``scipy.spatial.distance.cdist(..., "sqeuclidean")`` returns, and
importing ``scipy.spatial`` for it cost every process about 9 MB of memory and
0.1 s of start-up. The per-dimension terms also let the ESS sampler keep the
terms of the latent columns a proposal does not change. Every Cholesky factor
comes from :func:`_cholesky_with_jitter` and every solve against one from
:func:`chol_solve`; both call LAPACK (``dpotrf``/``dpotrs``) directly, because
the numpy and scipy wrappers cost more per call than the routine at the sizes
SEM factors many thousands of times. ``lapack`` and ``blas`` are scipy's
compiled ``scipy.linalg._flapack`` and ``_fblas`` modules, loaded from their
files by :func:`_scipy_linalg_extension` (or taken from ``sys.modules`` when
``scipy.linalg`` has loaded them): the ``scipy.linalg`` package imports scipy's
array-API shim, which clones the numpy namespace and about 300 modules with
it, and that cost every process about 23 MB of memory and 0.3 s of start-up
for four routines. They are the very function objects ``scipy.linalg.lapack``
and ``scipy.linalg.blas`` export. :func:`chol_solve` and :func:`chol_inverse`
split their work into calls small enough that OpenBLAS runs them on the calling
thread (see ``SERIAL_SOLVE_SIZE``). The closed-form expectations in :func:`expect_k` and
:func:`expect_kk` are derived for this convention and are validated against
Gauss-Hermite quadrature and Monte Carlo in the test suite.
:func:`expect_kk_pairwise`, the all-pairs J that linked prediction uses, sums
the exponents of every dimension and both kernels before one exponential:

    J_ij = prod_d (1 + 4 v_d / l_d^2)^(-1/2) * exp(-d2(W_i, W_j) / 2 - ||u_i + u_j||^2)

with u = (m - W) / sqrt(2 (l^2 + 4 v)) and d2 the same scaled distance R is
built from: a caller that has d2 passes it to both :func:`build_correlation`
(which overwrites it, so it gets a copy) and :func:`expect_kk_pairwise` (which
only reads it), so the distance is computed once per W.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from importlib import machinery

import numpy as np
import scipy


def _scipy_linalg_extension(name: str):
    """scipy's compiled ``scipy.linalg.<name>`` module, loaded from its file
    without importing the ``scipy.linalg`` package."""
    qualname = f"scipy.linalg.{name}"
    if qualname in sys.modules:
        return sys.modules[qualname]
    directory = os.path.join(scipy.__path__[0], "linalg")
    for suffix in machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            loader = machinery.ExtensionFileLoader(qualname, path)
            module = loader.create_module(machinery.ModuleSpec(qualname, loader, origin=path))
            loader.exec_module(module)
            # single-phase init registers the module; left there, a later
            # `import scipy.linalg` would find it and never bind the attribute
            sys.modules.pop(qualname, None)
            return module
    raise ImportError(f"no {name} extension module in {directory}")


lapack = _scipy_linalg_extension("_flapack")
blas = _scipy_linalg_extension("_fblas")

JITTER_START = 1e-10
JITTER_MAX = 1e-4


class DimensionMismatchError(ValueError):
    pass


class SingularMatrixError(np.linalg.LinAlgError):
    pass


@dataclass(frozen=True)
class KernelSpec:
    """Product-form SE correlation kernel with per-dimension lengthscales."""

    lengthscales: np.ndarray  # shape (D,), strictly positive

    def __post_init__(self):
        ls = np.array(self.lengthscales, dtype=float, ndmin=1)
        if ls.ndim != 1 or ls.size == 0:
            raise ValueError("lengthscales must be a non-empty 1-D array")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise ValueError("lengthscales must be strictly positive and finite")
        ls.flags.writeable = False  # a read-only copy: no model built from it goes stale
        object.__setattr__(self, "lengthscales", ls)

    @property
    def ndim(self) -> int:
        return self.lengthscales.shape[0]


def kernel_value(spec: KernelSpec, a, b) -> float:
    """Product over dimensions of exp(-((a_d - b_d) / l_d)^2).

    Kept as the scalar reference the tests check ``build_correlation`` against."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (spec.ndim,) or b.shape != (spec.ndim,):
        raise DimensionMismatchError(
            f"expected {spec.ndim}-vectors, got shapes {a.shape} and {b.shape}"
        )
    vals = np.exp(-((a - b) / spec.lengthscales) ** 2)
    return float(np.prod(vals))


def scaled_sq_dist(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances sum_d ((A_id - B_jd) / l_d)^2, shape (len(A), len(B)).

    Exactly symmetric, with an exactly 0 diagonal, when A is B; the inputs are
    then scaled once.
    """
    b_is_a = B is A
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = A if b_is_a else np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != spec.ndim or B.shape[1] != spec.ndim:
        raise DimensionMismatchError(
            f"expected {spec.ndim} columns, got {A.shape[1]} and {B.shape[1]}"
        )
    As = A / spec.lengthscales
    return _sum_sq_diffs(As, As if b_is_a else B / spec.lengthscales)


def _sq_diffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a_i - b_j)^2 for vectors a and b, shape (len(a), len(b)): one dimension's
    term of :func:`_sum_sq_diffs`."""
    t = np.subtract.outer(a, b)
    return np.multiply(t, t, out=t)


def _sum_sq_diffs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_d (A_id - B_jd)^2, shape (len(A), len(B)), with the terms added in
    dimension order: bitwise what cdist(A, B, "sqeuclidean") returns."""
    d2 = _sq_diffs(A[:, 0], B[:, 0])
    for d in range(1, A.shape[1]):
        d2 += _sq_diffs(A[:, d], B[:, d])
    return d2


def cross_correlation(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel matrix k(A_i, B_j), shape (len(A), len(B))."""
    return np.exp(-scaled_sq_dist(spec, A, B))


@dataclass
class CorrelationMatrix:
    """A correlation matrix R = K + nugget * I, kept as its lower Cholesky factor
    ``chol``, of R + jitter_applied * I; R itself is not kept."""

    chol: np.ndarray = field(repr=False)
    jitter_applied: float = 0.0

    def solve(self, b: np.ndarray) -> np.ndarray:
        return chol_solve(self.chol, b)

    def inverse(self) -> np.ndarray:
        return chol_inverse(self.chol)


# OpenBLAS, the BLAS of numpy's and scipy's wheels (0.3.31 and 0.3.30 measured),
# hands a call to its worker threads once it is this big: a triangular solve
# once rows x right-hand sides reach 1024, a matrix product once m n k reaches
# 2**19 (it gives each thread at least 2**18). SEM makes thousands of such calls
# per window; threaded, each one waits on a worker thread, which a loaded host
# may not be running. Below these sizes a call runs on the calling thread.
SERIAL_SOLVE_SIZE = 1024
SERIAL_PRODUCT_SIZE = 2**19


def chol_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b for x, with ``chol`` = L lower triangular; ``b`` is
    (N,) or (N, K). No finiteness scan. Columns of b are solved in blocks below
    SERIAL_SOLVE_SIZE."""
    step = max(1, (SERIAL_SOLVE_SIZE - 1) // max(chol.shape[0], 1))
    if b.ndim == 1 or b.shape[1] <= step:
        return lapack.dpotrs(chol, b, lower=1)[0]
    x = np.empty(b.shape)
    for j in range(0, b.shape[1], step):
        x[:, j:j + step] = lapack.dpotrs(chol, b[:, j:j + step], lower=1)[0]
    return x


def chol_inverse(chol: np.ndarray) -> np.ndarray:
    """R^-1 = L^-T L^-1 for ``chol`` = L, the lower Cholesky factor of R: one
    triangular inverse, then the product in column blocks below
    SERIAL_PRODUCT_SIZE. Column j of L^-1 is 0 above row j, so block j0 sums
    over rows j0 onwards only."""
    n = chol.shape[0]
    Linv = lapack.dtrtri(chol, lower=1)[0]
    step = max(1, (SERIAL_PRODUCT_SIZE - 1) // max(n * n, 1))
    inv = np.empty((n, n))
    for j in range(0, n, step):
        # dgemm, not `@`: numpy sends Linv.T @ Linv to dsyrk, which OpenBLAS
        # threads at far smaller sizes
        inv[:, j:j + step] = blas.dgemm(1.0, Linv[j:], Linv[j:, j:j + step], trans_a=1)
    return inv


def _cholesky_with_jitter(R: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor L of the symmetric R + jitter * I, with an exactly
    zero upper triangle, and the jitter: 0 if R factors, else the first of 1e-10,
    1e-9, ... up to JITTER_MAX that does."""
    jitter = 0.0
    while True:
        A = R if jitter == 0.0 else R + jitter * np.eye(len(R))
        # A is symmetric, so A.T is A in the column-major order LAPACK reads,
        # which f2py copies without transposing
        L, info = lapack.dpotrf(A.T, lower=1, clean=1)
        if info == 0:
            return L, jitter
        jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
        if jitter > JITTER_MAX:
            raise SingularMatrixError(
                f"correlation matrix not positive definite even at jitter {JITTER_MAX:g}"
            )


def _correlation_values(d2: np.ndarray, nugget: float) -> np.ndarray:
    """exp(-d2) + nugget * I, in place over the (N, N) squared distances d2."""
    R = np.exp(np.negative(d2, out=d2), out=d2)
    R.flat[::R.shape[0] + 1] += nugget
    return R


def build_correlation(spec: KernelSpec, nugget: float, X: np.ndarray,
                      d2: np.ndarray | None = None) -> CorrelationMatrix:
    """Correlation matrix k(X_i, X_j) + nugget * I with factorization.

    The nugget is on the diagonal only, so identical rows of X leave R positive
    definite for any positive nugget. The SEM sampler's likelihood and every
    fitted GP use this matrix. Non-finite inputs raise ValueError: LAPACK would
    factor their NaN rows without reporting a failure. ``d2``, when given, is
    ``scaled_sq_dist(spec, X, X)`` made by the caller, and is overwritten.
    """
    if not (nugget >= 0 and math.isfinite(nugget)):
        raise ValueError("nugget must be finite and non-negative")
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise ValueError("correlation inputs are not finite")
    R = _correlation_values(scaled_sq_dist(spec, X, X) if d2 is None else d2, nugget)
    L, jitter = _cholesky_with_jitter(R)
    return CorrelationMatrix(chol=L, jitter_applied=jitter)


def expect_k(spec: KernelSpec, m, v, w) -> np.ndarray | float:
    """E[k(W, w)] for W ~ Normal(m, diag(v)), product over dimensions.

    For the SE convention k(r) = exp(-r^2/l^2):

        E[k_d] = (1 + 2 v_d / l_d^2)^(-1/2) * exp(-(m_d - w_d)^2 / (l_d^2 + 2 v_d))

    ``m`` and ``v`` have shape (D,); ``w`` may be (D,) or (N, D), in which case
    an (N,) vector is returned.
    """
    m = np.atleast_1d(np.asarray(m, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(v < 0):
        raise ValueError("variance must be non-negative")
    w = np.asarray(w, dtype=float)
    scalar = w.ndim <= 1
    w2 = np.atleast_2d(w)
    l2 = spec.lengthscales**2
    denom = l2 + 2.0 * v
    pref = np.sqrt(l2 / denom)
    vals = pref * np.exp(-((m - w2) ** 2) / denom)
    out = np.prod(vals, axis=1)
    return float(out[0]) if scalar else out


def expect_kk_pairwise(spec: KernelSpec, m, v, W: np.ndarray,
                       d2: np.ndarray | None = None) -> np.ndarray:
    """All-pairs version of :func:`expect_kk`: entry (i, j) is E[k(W0, W_i) k(W0, W_j)].

    ``W`` has shape (N, D); returns an (N, N) matrix. The product over dimensions
    of :func:`expect_kk` is taken as one exponential of one summed exponent:

        J_ij = prod_d (1 + 4 v_d / l_d^2)^(-1/2)
               * exp(-d2(W_i, W_j) / 2 - ||u_i + u_j||^2),
        u = (m - W) / sqrt(2 (l^2 + 4 v)),

    with d2 = :func:`scaled_sq_dist`. Both terms are exactly symmetric, so J is.
    ``d2``, when given, is ``scaled_sq_dist(spec, W, W)`` made by the caller, and
    is only read: one d2 serves every query on the same W, and J is bitwise the
    same either way.
    """
    m = np.atleast_1d(np.asarray(m, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(v < 0):
        raise ValueError("variance must be non-negative")
    W = np.atleast_2d(np.asarray(W, dtype=float))
    l2 = spec.lengthscales**2
    denom = l2 + 4.0 * v
    u = (m - W) / np.sqrt(2.0 * denom)
    # u_i - (-u_j) is u_i + u_j, bitwise symmetric in i, j
    exponent = -0.5 * (scaled_sq_dist(spec, W, W) if d2 is None else d2)
    exponent -= _sum_sq_diffs(u, -u)
    J = np.exp(exponent, out=exponent)
    J *= np.prod(np.sqrt(l2 / denom))
    return J


def expect_kk(spec: KernelSpec, m, v, w_i, w_j) -> np.ndarray | float:
    """E[k(W, w_i) k(W, w_j)] for W ~ Normal(m, diag(v)), product over dimensions.

    For the SE convention, with wbar = (w_i + w_j)/2:

        E[k_d k_d] = exp(-(w_i - w_j)^2 / (2 l^2))
                     * (1 + 4 v / l^2)^(-1/2)
                     * exp(-2 (m - wbar)^2 / (l^2 + 4 v))

    ``w_i`` / ``w_j`` may be (D,) or (N, D); shapes must broadcast.
    """
    m = np.atleast_1d(np.asarray(m, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(v < 0):
        raise ValueError("variance must be non-negative")
    wi = np.asarray(w_i, dtype=float)
    wj = np.asarray(w_j, dtype=float)
    scalar = wi.ndim <= 1 and wj.ndim <= 1
    wi2 = np.atleast_2d(wi)
    wj2 = np.atleast_2d(wj)
    l2 = spec.lengthscales**2
    wbar = 0.5 * (wi2 + wj2)
    denom = l2 + 4.0 * v
    pref = np.sqrt(l2 / denom)
    vals = (
        np.exp(-((wi2 - wj2) ** 2) / (2.0 * l2))
        * pref
        * np.exp(-2.0 * (m - wbar) ** 2 / denom)
    )
    out = np.prod(vals, axis=1)
    return float(out[0]) if scalar else out
