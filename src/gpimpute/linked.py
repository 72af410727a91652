"""Closed-form mean/variance propagation through a feed-forward two-layer GP stack.

Given first-layer predictive Gaussians (m_p, v_p) at a query point and
second-layer training latents w (N x P), the propagated moments are

    mu    = I^T R(w)^-1 y
    var   = y^T R(w)^-1 J R(w)^-1 y - mu^2
            + sigma^2 (1 + eta - tr[R(w)^-1 J])

with I_i = prod_p E[k_p(W_p, w_ip)] and J_ij = prod_p E[k_p(W_p, w_ip) k_p(W_p, w_jp)],
the expectations taken under W_p ~ Normal(m_p, v_p). J is built with one
exponential of one summed exponent (:func:`kernels.expect_kk_pairwise`):

    J_ij = prod_p (1 + 4 v_p / l_p^2)^(-1/2) * exp(-d2(w_i, w_j) / 2 - ||u_i + u_j||^2)

where d2 is the lengthscale-scaled squared distance R(w) is built from and
u_i = (m - w_i) / sqrt(2 (l^2 + 4 v)). The trace term is computed as the
elementwise sum of R^-1 * J, never as an explicit matrix product.

:func:`propagate_moments` reads only the second layer's hyperparameters, its
training latents w, alpha = R(w)^-1 y and R(w)^-1, and optionally d2(w, w),
and returns the variance unclamped. The ensemble in ``dgp`` keeps none of
these: each output prediction call predicts the first layer of all its queries
in one :func:`_latent_predictions` call, builds d2, alpha and R^-1 per draw,
propagates every query through them, drops them, and clamps the variances it
collected at 0. :func:`link_predict` passes those of a fitted GP and clamps its
one variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp import FittedGP, GPHyperparams, PredictiveGaussian, predict_batch
from .kernels import expect_k, expect_kk_pairwise


@dataclass(frozen=True)
class LayerArchitecture:
    """Feed-forward topology: inputs -> P named latent nodes -> one output node.
    The names are the data columns each node is trained on."""

    latent_nodes: tuple[str, ...]
    output_node: str

    def __post_init__(self):
        if len(self.latent_nodes) < 1:
            raise ValueError("need at least one latent node")
        if len(set(self.latent_nodes)) != len(self.latent_nodes):
            raise ValueError("latent node names must be unique")

    @property
    def n_latent(self) -> int:
        return len(self.latent_nodes)

    def latent_index(self, name: str) -> int:
        if name not in self.latent_nodes:
            raise KeyError(f"unknown latent node: {name!r}")
        return self.latent_nodes.index(name)


@dataclass(frozen=True)
class LinkedEmulator:
    """One set of first-layer GPs linked to one second-layer GP. Kept, with
    :func:`link_predict`, as the per-draw reference the tests check
    ``predict_ensemble`` against."""

    first_layer: list[FittedGP]  # one per latent node, shared training inputs
    second_layer: FittedGP  # latents -> output, trained on the (N, P) latent values


def _latent_predictions(first_layer: list[FittedGP],
                        X0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-layer means (M, P), or (M, P, S) for nodes on S output columns, and
    variances (M, P) at each row of X0."""
    preds = [predict_batch(model, X0) for model in first_layer]
    return np.stack([m for m, _ in preds], axis=1), np.stack([v for _, v in preds], axis=1)


def propagate_moments(hyper: GPHyperparams, W: np.ndarray, alpha: np.ndarray,
                      Rinv: np.ndarray, m: np.ndarray, v: np.ndarray,
                      d2: np.ndarray | None = None) -> tuple[float, float]:
    """Push a Gaussian input N(m, diag(v)) through the posterior of a GP with
    hyperparameters ``hyper`` on training inputs W (N, P), given alpha = R^-1 y
    and R^-1. ``d2``, when given, is the ``scaled_sq_dist`` of W that R was
    built from; it is only read (see :func:`kernels.expect_kk_pairwise`).

    Returns the exact mean/variance of the predictive mixture; the variance may
    be slightly negative in floating point (caller clamps). Applying this
    repeatedly layer by layer evaluates deeper feed-forward chains.
    """
    kernel = hyper.kernel
    I = expect_k(kernel, m, v, W)
    J = expect_kk_pairwise(kernel, m, v, W, d2)
    mu = float(I @ alpha)
    var = (
        float(alpha @ J @ alpha)
        - mu**2
        + hyper.scale * (1.0 + hyper.nugget - float(np.sum(Rinv * J)))
    )
    return mu, var


def link_predict(em: LinkedEmulator, x0) -> PredictiveGaussian:
    """Propagated predictive distribution of the output at global input x0.

    Kept as the per-draw reference the tests check ``predict_ensemble`` against;
    the benchmark tracer also looks it up by name."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    means, variances = _latent_predictions(em.first_layer, x0[None, :])
    gp = em.second_layer
    mu, var = propagate_moments(gp.hyper, gp.training.X, gp.alpha, gp.corr.inverse(),
                                means[0], variances[0])
    return PredictiveGaussian(mean=mu, variance=max(var, 0.0))  # round-off below 0 is 0
