"""Reference imputation methods: last-observation-carried-forward, normal-model
chained equations (MICE-lite), and independent per-variable GP interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EmptyColumnError, ObservationTable, require_ints
from .gp import FitConfig, fit_gp, predict_batch


@dataclass
class ImputationMethodResult:
    filled: ObservationTable  # mask-complete on the imputed columns
    variance: np.ndarray | None  # (N, D) per-cell variance, NaN where unavailable


@dataclass(frozen=True)
class MICEConfig:
    n_imputations: int = 5  # m
    cycles: int = 10
    seed: int = 0
    ridge: float = 1e-6

    def __post_init__(self):
        require_ints(self, "n_imputations", "cycles", "seed")
        for name, low in (("n_imputations", 1), ("cycles", 0), ("seed", 0), ("ridge", 0)):
            if not getattr(self, name) >= low:  # `not >=` also refuses a NaN ridge
                raise ValueError(f"{name} must be >= {low}")


def locf_impute(table: ObservationTable, columns) -> ImputationMethodResult:
    """Fill each of ``columns`` by carrying its most recent observation forward;
    leading gaps back-fill from the first observation so the output is complete."""
    filled = table.copy()
    for c in columns:
        vals, mask = table.column(c)
        if not mask.any():
            raise EmptyColumnError(f"column {c!r} has no observed values")
        j = table.col_index(c)
        last = None
        for i in range(table.n):
            if mask[i]:
                last = vals[i]
            elif last is not None:
                filled.values[i, j] = last
        first = vals[np.argmax(mask)]
        for i in range(table.n):
            if mask[i]:
                break
            filled.values[i, j] = first
        filled.mask[:, j] = True
    return ImputationMethodResult(filled=filled, variance=None)


def _bayes_linear_draw(Z, t, Zq, ridge, rng):
    """Draw imputations for rows Zq from a Bayesian linear model t ~ Z.

    Falls back to ridge regularisation when the normal equations are
    ill-conditioned.
    """
    k = Z.shape[1]
    G = Z.T @ Z
    lam = 0.0
    if np.linalg.cond(G) > 1e10:
        lam = ridge * max(np.trace(G) / k, 1.0)
    A = G + lam * np.eye(k)
    beta_hat = np.linalg.solve(A, Z.T @ t)
    resid = t - Z @ beta_hat
    dof = max(len(t) - k, 1)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(A)
    cov = 0.5 * (cov + cov.T)
    try:
        L = np.linalg.cholesky(cov + 1e-12 * np.eye(k))
    except np.linalg.LinAlgError:
        L = np.zeros((k, k))
    beta = beta_hat + L @ rng.standard_normal(k)
    mean = Zq @ beta
    return mean + np.sqrt(s2) * rng.standard_normal(Zq.shape[0])


def mice_impute(table: ObservationTable, config: MICEConfig = MICEConfig(),
                columns=None) -> ImputationMethodResult:
    """Chained-equations imputation with per-column Bayesian linear models.

    Rows are treated as exchangeable; time enters as a plain regressor column.
    ``columns`` restricts which variables participate (default: all). The point
    estimate averages the ``m`` imputed tables; the across-imputation variance
    is reported per cell.
    """
    names = list(columns) if columns is not None else list(table.names)
    idxs = [table.col_index(c) for c in names]
    if len(idxs) + 1 < 2:
        raise ValueError("MICE needs at least 2 columns including time")
    for c, j in zip(names, idxs):
        if table.mask[:, j].sum() < 3:
            raise ValueError(f"column {c!r} has fewer than 3 observed values")

    sub_mask = table.mask[:, idxs]
    missing_any = ~sub_mask
    filled = table.copy()
    if not missing_any.any():
        return ImputationMethodResult(filled=filled, variance=None)

    rng = np.random.default_rng(config.seed)
    stacks = []
    for _ in range(config.n_imputations):
        work = table.values[:, idxs].copy()
        for c in range(len(idxs)):
            obs = sub_mask[:, c]
            work[~obs, c] = np.mean(work[obs, c])
        for _ in range(config.cycles):
            for c in range(len(idxs)):
                miss = ~sub_mask[:, c]
                if not miss.any():
                    continue
                others = [k for k in range(len(idxs)) if k != c]
                Z_full = np.column_stack(
                    [np.ones(table.n), table.times] + [work[:, k] for k in others]
                )
                work[miss, c] = _bayes_linear_draw(
                    Z_full[~miss], work[~miss, c], Z_full[miss], config.ridge, rng
                )
        stacks.append(work)
    stacked = np.stack(stacks)  # (m, N, len(idxs))
    point = stacked.mean(axis=0)
    across_var = stacked.var(axis=0, ddof=1) if config.n_imputations > 1 else np.zeros_like(point)

    variance = np.full_like(table.values, np.nan)
    for c, j in enumerate(idxs):
        miss = ~table.mask[:, j]
        filled.values[miss, j] = point[miss, c]
        variance[miss, j] = across_var[miss, c]
        filled.mask[:, j] = True
    return ImputationMethodResult(filled=filled, variance=variance)


def independent_gp_impute(table: ObservationTable, columns, config: FitConfig = FitConfig(),
                          fit=fit_gp) -> ImputationMethodResult:
    """Single-GP smoothing of each of ``columns``: fit ``fit(X, y, config)`` on
    its (time, observed value) pairs, then predict the posterior mean and
    variance at its missing times."""
    filled = table.copy()
    variance = np.full_like(table.values, np.nan)
    for c in columns:
        vals, mask = table.column(c)
        if mask.sum() < 2:
            raise EmptyColumnError(f"column {c!r} has fewer than 2 observed values")
        j, miss = table.col_index(c), ~mask
        model = fit(table.times[mask, None], vals[mask], config)
        if miss.any():
            filled.values[miss, j], variance[miss, j] = predict_batch(
                model, table.times[miss, None])
        filled.mask[:, j] = True
    return ImputationMethodResult(filled=filled, variance=variance)
