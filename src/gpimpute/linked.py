"""Closed-form mean/variance propagation through a feed-forward two-layer GP stack.

Given first-layer predictive Gaussians (m_p, v_p) at a query point and
second-layer training latents w (N x P), the propagated moments are

    mu    = I^T R(w)^-1 y
    var   = y^T R(w)^-1 J R(w)^-1 y - mu^2
            + sigma^2 (1 + eta - tr[R(w)^-1 J])

with I_i = prod_p E[k_p(W_p, w_ip)] and J_ij = prod_p E[k_p(W_p, w_ip) k_p(W_p, w_jp)],
the expectations taken under W_p ~ Normal(m_p, v_p). The trace term is computed
as the elementwise sum of R^-1 * J, never as an explicit matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp import FitConfig, FittedGP, PredictiveGaussian, fit_gp, predict_batch
from .kernels import KernelSpec, expect_k, expect_kk_pairwise


class SequentialFitError(ValueError):
    pass


@dataclass(frozen=True)
class NodeSpec:
    name: str
    kernel: KernelSpec


@dataclass(frozen=True)
class LayerArchitecture:
    """Feed-forward topology: D inputs -> P latent nodes -> one output node."""

    input_dims: int
    latent_nodes: tuple[NodeSpec, ...]
    output_node: NodeSpec

    def __post_init__(self):
        names = [n.name for n in self.latent_nodes]
        if len(self.latent_nodes) < 1:
            raise ValueError("need at least one latent node")
        if len(set(names)) != len(names):
            raise ValueError("latent node names must be unique")
        if self.output_node.kernel.ndim != len(self.latent_nodes):
            raise ValueError("output node kernel must consume exactly the latent outputs")

    @property
    def n_latent(self) -> int:
        return len(self.latent_nodes)

    def latent_index(self, name: str) -> int:
        for i, node in enumerate(self.latent_nodes):
            if node.name == name:
                return i
        raise KeyError(f"unknown latent node: {name!r}")


@dataclass(frozen=True)
class LinkedEmulator:
    first_layer: list[FittedGP]  # one per latent node, shared training inputs
    second_layer: FittedGP  # latents -> output, trained on the (N, P) latent values

    def manifest(self) -> dict:
        """Reproducibility record: hyperparameters, sizes, jitter."""

        def node_entry(m: FittedGP) -> dict:
            return {
                "lengthscales": m.hyper.kernel.lengthscales.tolist(),
                "scale": m.hyper.scale,
                "nugget": m.hyper.nugget,
                "n_train": m.n,
                "jitter_applied": m.corr.jitter_applied,
            }

        return {
            "first_layer": [node_entry(m) for m in self.first_layer],
            "second_layer": node_entry(self.second_layer),
        }


def _latent_predictions(first_layer: list[FittedGP],
                        X0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-layer means (M, P), or (M, P, S) for nodes on S output columns, and
    variances (M, P) at each row of X0."""
    preds = [predict_batch(model, X0) for model in first_layer]
    return np.stack([m for m, _ in preds], axis=1), np.stack([v for _, v in preds], axis=1)


def propagate_moments(
    model: FittedGP, m: np.ndarray, v: np.ndarray, Rinv: np.ndarray | None = None
) -> tuple[float, float]:
    """Push a Gaussian input N(m, diag(v)) through a fitted GP's posterior.

    Returns the exact mean/variance of the predictive mixture; the variance may
    be slightly negative in floating point (caller clamps). Applying this
    repeatedly layer by layer evaluates deeper feed-forward chains.
    """
    kernel = model.hyper.kernel
    W = model.training.X
    I = expect_k(kernel, m, v, W)
    J = expect_kk_pairwise(kernel, m, v, W)
    alpha = model.alpha
    if Rinv is None:
        Rinv = model.corr.inverse()
    mu = float(I @ alpha)
    var = (
        float(alpha @ J @ alpha)
        - mu**2
        + model.hyper.scale * (1.0 + model.hyper.nugget - float(np.sum(Rinv * J)))
    )
    return mu, var


def _propagated_gaussian(model: FittedGP, m: np.ndarray, v: np.ndarray,
                         Rinv: np.ndarray | None = None) -> PredictiveGaussian:
    """:func:`propagate_moments` with a negative (round-off) variance clamped to 0."""
    mu, var = propagate_moments(model, m, v, Rinv)
    return PredictiveGaussian(mean=mu, variance=max(var, 0.0))


def link_predict(em: LinkedEmulator, x0) -> PredictiveGaussian:
    """Propagated predictive distribution of the output at global input x0."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    means, variances = _latent_predictions(em.first_layer, x0[None, :])
    return _propagated_gaussian(em.second_layer, means[0], variances[0])


def link_predict_batch(em: LinkedEmulator, X0) -> tuple[np.ndarray, np.ndarray]:
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    means, variances = _latent_predictions(em.first_layer, X0)
    Rinv = em.second_layer.corr.inverse()
    preds = [_propagated_gaussian(em.second_layer, means[i], variances[i], Rinv)
             for i in range(X0.shape[0])]
    return np.array([p.mean for p in preds]), np.array([p.variance for p in preds])


def fit_sequential_lgp(
    X,
    latent_obs: np.ndarray,
    latent_mask: np.ndarray,
    y,
    arch: LayerArchitecture,
    config: FitConfig = FitConfig(),
    y_mask=None,
) -> LinkedEmulator:
    """Complete-case sequential fit: each latent column on its observed rows,
    then the output GP on rows where every latent (and the output) is observed.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    latent_obs = np.asarray(latent_obs, dtype=float)
    latent_mask = np.asarray(latent_mask, dtype=bool)
    y = np.asarray(y, dtype=float).ravel()
    P = arch.n_latent
    if latent_obs.shape != (X.shape[0], P) or latent_mask.shape != latent_obs.shape:
        raise ValueError("latent observations/mask must be (N, P)")

    first_layer = []
    for p in range(P):
        obs = latent_mask[:, p]
        if np.sum(obs) < 2:
            raise SequentialFitError(
                f"latent column {arch.latent_nodes[p].name!r} has fewer than 2 observed values"
            )
        first_layer.append(fit_gp(X[obs], latent_obs[obs, p], config))

    complete = np.all(latent_mask, axis=1)
    if y_mask is not None:
        complete &= np.asarray(y_mask, dtype=bool)
    if np.sum(complete) < 2:
        raise SequentialFitError("fewer than 2 complete rows for the output layer")
    second = fit_gp(latent_obs[complete], y[complete], config)
    return LinkedEmulator(first_layer=first_layer, second_layer=second)
