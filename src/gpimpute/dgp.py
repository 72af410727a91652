"""Deep GP training by stochastic EM with elliptical-slice-sampled latent layers,
and ensemble prediction by mixing per-imputation linked emulators.

Each ensemble draw fixes the latent layer at one imputation, turning the deep GP
into a linked GP whose moments are closed-form; the mixture over draws gives

    mu    = mean_i(mu_i)
    var   = mean_i(mu_i^2 + var_i) - mu^2
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .data import ObservationTable, require_ints
from .gp import (
    FitConfig,
    FittedGP,
    GPHyperparams,
    PredictiveGaussian,
    _gaussian_logpdf,
    fit_gp,
    make_fitted_gp,
    predict_batch,
    refit_gp,
)
from .kernels import (
    KernelSpec,
    SingularMatrixError,
    _cholesky_with_jitter,
    _correlation_values,
    _sq_diffs,
    build_correlation,
    chol_inverse,
    chol_solve,
    scaled_sq_dist,
)
from .linked import LayerArchitecture, _latent_predictions, propagate_moments

ESS_BRACKET_MIN = 1e-12
# What a fit can raise on data it cannot model; anything else is a programming error.
FIT_ERRORS = (ValueError, RuntimeError, np.linalg.LinAlgError)


class ESSStallError(RuntimeError):
    pass


class SEMError(RuntimeError):
    pass


@dataclass(frozen=True)
class SEMConfig:
    """Stochastic-EM settings; defaults chosen for desk-scale runtime. The M-step is
    one warm quasi-Newton (generalized-EM) step per node: it has no iteration budget."""

    iterations: int = 500
    burn_in: int = 300
    ess_sweeps: int = 10  # ESS sweeps per SEM iteration and between final draws
    n_imputations: int = 50  # draws taken when a latent is missing; data with none is one draw
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        require_ints(self, "iterations", "burn_in", "ess_sweeps", "n_imputations")
        for name, low in (("burn_in", 0), ("ess_sweeps", 0), ("n_imputations", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.iterations < self.burn_in:
            raise ValueError("iterations must be >= burn_in")
        if not isinstance(self.fit, FitConfig):
            raise ValueError(f"fit must be a FitConfig, got {self.fit!r}")


@dataclass
class EnsemblePrediction:
    mixture: PredictiveGaussian
    components: list[PredictiveGaussian]


def _ensembles(means, variances) -> list[EnsemblePrediction]:
    """Row by row, the S equally weighted Gaussians of means (M, S) and variances
    (M, S), or of one (M,) variance per row, as the components, and their mixture.
    A negative (round-off) mixture variance is clamped to 0."""
    # a C-ordered row is reduced as one pairwise sum, as a 1-D array of S is
    means = np.ascontiguousarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    variances = np.broadcast_to(variances[:, None] if variances.ndim == 1 else variances,
                                means.shape)
    mus = np.mean(means, axis=1).tolist()
    second = np.mean(means**2 + variances, axis=1).tolist()
    # mu**2 is Python's float power, as it has always been: numpy's square (x * x)
    # differs from it in the last bit for about 1 value in 1,200
    return [EnsemblePrediction(
                mixture=PredictiveGaussian(mean=mu, variance=max(m2 - mu**2, 0.0)),
                components=[PredictiveGaussian(mean=m, variance=v) for m, v in zip(row, var)])
            for mu, m2, row, var in zip(mus, second, means.tolist(), variances.tolist())]


def ess_update(prior_mean, prior_chol, current, loglik, rng,
               current_loglik: float | None = None) -> np.ndarray:
    """One elliptical slice sampling transition for target prior x likelihood.

    ``prior_chol`` is the lower Cholesky factor of the prior covariance. The
    invariant distribution is proportional to N(prior_mean, LL^T) * exp(loglik).
    ``current_loglik``, when given, is ``loglik(current)`` and saves that call.
    The last ``loglik`` call before returning is the accepted proposal's.
    """
    current = np.asarray(current, dtype=float)
    if current.size == 0:
        return current
    mean = np.asarray(prior_mean, dtype=float)
    logy = loglik(current) if current_loglik is None else current_loglik
    if not np.isfinite(logy):
        raise ValueError("loglik must be finite at the current state")
    logy += np.log(rng.uniform())
    nu = prior_chol @ rng.standard_normal(current.size)
    delta = current - mean

    theta = rng.uniform(0.0, 2.0 * np.pi)
    theta_min, theta_max = theta - 2.0 * np.pi, theta
    while True:
        proposal = mean + delta * np.cos(theta) + nu * np.sin(theta)
        if loglik(proposal) > logy:
            return proposal
        if theta < 0:
            theta_min = theta
        else:
            theta_max = theta
        if theta_max - theta_min < ESS_BRACKET_MIN:
            raise ESSStallError(f"ESS bracket shrank below {ESS_BRACKET_MIN:g} radians")
        theta = rng.uniform(theta_min, theta_max)


@dataclass
class _ColumnPrior:
    """Conditional Gaussian over the missing entries of one latent column."""

    missing: np.ndarray  # row indices
    mean: np.ndarray
    chol: np.ndarray


class LatentState:
    """Working state of the SEM sampler: data, current hyperparameters, and the
    current latent matrix with observed entries pinned.

    Between proposals it keeps the likelihood of the current latents and each
    latent column's term of the second layer's squared distances, so a proposal,
    which changes one column, recomputes that column's term only. Both are
    dropped with the hyperparameters."""

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        latent_obs: np.ndarray,
        latent_mask: np.ndarray,
        first_hyper: list[GPHyperparams],
        second_hyper: GPHyperparams,
        initial_latents: np.ndarray,
    ):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.y = np.asarray(y, dtype=float).ravel()
        self.latent_obs = np.asarray(latent_obs, dtype=float)
        self.latent_mask = np.asarray(latent_mask, dtype=bool)
        self.w = np.asarray(initial_latents, dtype=float).copy()
        self.w[self.latent_mask] = self.latent_obs[self.latent_mask]
        self.set_hyperparams(first_hyper, second_hyper)

    @property
    def n_latent(self) -> int:
        return self.latent_mask.shape[1]

    def set_hyperparams(self, first_hyper, second_hyper):
        """Take new hyperparameters and the priors built from them, and drop the
        kept likelihood and terms; a build that raises leaves the state as it was."""
        first_hyper = list(first_hyper)
        self._priors: list[_ColumnPrior | None] = self._column_priors(first_hyper)
        self.first_hyper = first_hyper
        self.second_hyper = second_hyper
        self._loglik: float | None = None  # output_loglik(self.w), once a sweep has run
        self._d2_terms: list[np.ndarray] | None = None  # _d2_term(p, self.w[:, p]) per p

    def _column_priors(self, first_hyper) -> list[_ColumnPrior | None]:
        """Each latent column's conditional prior under ``first_hyper``; None for a
        column with no missing entry."""
        priors = []
        for p in range(self.n_latent):
            obs = self.latent_mask[:, p]
            miss = np.where(~obs)[0]
            if miss.size == 0:
                priors.append(None)
                continue
            hyper = first_hyper[p]
            cov = hyper.scale * _correlation_values(scaled_sq_dist(hyper.kernel, self.X, self.X),
                                                    hyper.nugget)
            oi = np.where(obs)[0]
            if oi.size == 0:
                mean = np.zeros(miss.size)
                cond = cov[np.ix_(miss, miss)]
            else:
                S_oo = cov[np.ix_(oi, oi)]
                S_mo = cov[np.ix_(miss, oi)]
                L_oo, _ = _cholesky_with_jitter(S_oo)
                sol = chol_solve(L_oo, S_mo.T)  # S_oo^-1 S_om
                mean = S_mo @ chol_solve(L_oo, self.latent_obs[oi, p])
                cond = cov[np.ix_(miss, miss)] - S_mo @ sol
                cond = 0.5 * (cond + cond.T)
            L, _ = _cholesky_with_jitter(cond)
            priors.append(_ColumnPrior(missing=miss, mean=mean, chol=L))
        return priors

    def output_loglik(self, w_full: np.ndarray, d2: np.ndarray | None = None) -> float:
        """Zero-mean Gaussian log density of y under the second-layer GP at latents
        w, with R from :func:`build_correlation` as the refit objective and
        prediction build it; -inf where R cannot be factored. ``d2``, when given,
        is the second layer's ``scaled_sq_dist`` of w, and is overwritten."""
        hyper = self.second_hyper
        try:
            corr = build_correlation(hyper.kernel, hyper.nugget, w_full, d2)
        except SingularMatrixError:
            return -np.inf
        return _gaussian_logpdf(self.y, corr.chol, hyper.scale)

    def _d2_term(self, p: int, column: np.ndarray) -> np.ndarray:
        """Latent column p's term of the second layer's squared distances, (N, N)."""
        a = column / self.second_hyper.kernel.lengthscales[p]
        return _sq_diffs(a, a)

    def _d2_with(self, p: int, term: np.ndarray) -> np.ndarray:
        """The second layer's squared distances with column p's term replaced: a
        new array, the terms added in column order as ``scaled_sq_dist`` adds
        them, so bitwise what it returns."""
        terms = self._d2_terms[:p] + [term] + self._d2_terms[p + 1:]
        d2 = terms[0] + terms[1] if len(terms) > 1 else terms[0].copy()
        for t in terms[2:]:
            d2 += t
        return d2

    def sweep(self, rng: np.random.Generator):
        """One ESS update of the missing entries of each latent column."""
        if self._d2_terms is None:
            self._d2_terms = [self._d2_term(p, self.w[:, p]) for p in range(self.n_latent)]
        for p in range(self.n_latent):
            prior = self._priors[p]
            if prior is None:
                continue
            w_work = self.w.copy()
            last = last_term = None

            def loglik(free):
                nonlocal last, last_term
                w_work[prior.missing, p] = free
                last_term = self._d2_term(p, w_work[:, p])
                last = self.output_loglik(w_work, self._d2_with(p, last_term))
                return last

            new = ess_update(prior.mean, prior.chol, self.w[prior.missing, p], loglik, rng,
                             current_loglik=self._loglik)
            # ess_update returns right after the accepting call, so `last` and
            # `last_term` belong to w_work, which is now self.w exactly
            self.w[prior.missing, p] = new
            self._loglik = last
            self._d2_terms[p] = last_term


def impute_latents(state: LatentState, rng: np.random.Generator, sweeps: int = 1) -> np.ndarray:
    """Advance the sampler and snapshot the (N, P) latent matrix as one imputation."""
    for _ in range(sweeps):
        state.sweep(rng)
    return state.w.copy()


@dataclass(frozen=True)
class DGPSIEmulator:
    """Ensemble of S latent draws: S imputations, or the data itself as the one
    draw when no latent is missing. The draws share the training inputs and
    first-layer hyperparameters, so each latent node has one GP whose column s
    is draw s. The second layer is not kept: each output prediction call
    (:func:`predict_output`) builds it per draw and drops it, so predicting adds
    nothing to the emulator.

    Frozen, with read-only copies of its arrays and lengthscales and a tuple of
    first-layer hyperparameters, so the layers built from them cannot go stale:
    :func:`dataclasses.replace` makes an emulator from new values.
    """

    architecture: LayerArchitecture
    first_hyper: tuple[GPHyperparams, ...]
    second_hyper: GPHyperparams
    draws: np.ndarray = field(repr=False)  # (S, N, P) latent imputations
    latent_mask: np.ndarray = field(repr=False)  # (N, P) bool, True where the latent is data
    rng_seed: int | None
    train_X: np.ndarray = field(repr=False)
    train_y: np.ndarray = field(repr=False)
    first_layer: list[FittedGP] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "first_hyper", tuple(self.first_hyper))
        for name, dtype in (("draws", float), ("latent_mask", bool), ("train_X", float),
                            ("train_y", float)):
            values = np.array(getattr(self, name), dtype=dtype)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.draws.ndim != 3 or len(self.draws) == 0:
            raise ValueError(f"draws must be an (S, N, P) array with S >= 1, "
                             f"got shape {self.draws.shape}")
        object.__setattr__(self, "first_layer", [
            make_fitted_gp(self.train_X, self.draws[:, :, p].T, h)
            for p, h in enumerate(self.first_hyper)])

    @property
    def n_imputations(self) -> int:
        return len(self.draws)

    def manifest(self) -> dict:
        def hyper_entry(h: GPHyperparams) -> dict:
            return {
                "lengthscales": h.kernel.lengthscales.tolist(),
                "scale": h.scale,
                "nugget": h.nugget,
            }

        return {
            "latent_nodes": list(self.architecture.latent_nodes),
            "output_node": self.architecture.output_node,
            "first_layer": [hyper_entry(h) for h in self.first_hyper],
            "second_layer": hyper_entry(self.second_hyper),
            "n_imputations": self.n_imputations,
            "n_train": int(self.train_X.shape[0]),
            "rng_seed": self.rng_seed,
        }


def _geometric_mean_hyper(trace: list[GPHyperparams]) -> GPHyperparams:
    """Arithmetic mean in log space of lengthscales, scale, and nugget."""
    ls = np.exp(np.mean([np.log(h.kernel.lengthscales) for h in trace], axis=0))
    scale = float(np.exp(np.mean([np.log(h.scale) for h in trace])))
    nugget = float(np.exp(np.mean([np.log(h.nugget) for h in trace])))
    return GPHyperparams(kernel=KernelSpec(ls), scale=scale, nugget=nugget)


def train_sem(
    data: ObservationTable,
    arch: LayerArchitecture,
    config: SEMConfig,
    rng,
    fit=None,
) -> DGPSIEmulator:
    """Fit the two-layer DGP by stochastic EM on rows where the output is observed.

    Alternates ESS sweeps over missing latent entries with a generalized-EM M-step,
    one warm quasi-Newton step per node that does not lower its likelihood; the
    final hyperparameters are the log-space average over post-burn-in iterations,
    then ``n_imputations`` latent draws populate the ensemble. With fully
    observed latents the E-step is a no-op: the result equals independent
    per-node ML fits, and its one draw is the data, whatever ``n_imputations``
    says.

    ``fit``, called as ``fit(X, y, config.fit)``, makes every initial fit (each
    latent node, then the second layer) in place of :func:`fit_gp`; it must
    return what ``fit_gp`` would, as a table of fits shared between callers does.
    """
    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(seed)

    out_j = data.col_index(data.output_name)
    rows = data.mask[:, out_j]
    X = data.times[rows, None]
    y = data.values[rows, out_j]
    latent_names = arch.latent_nodes
    latent_idx = [data.col_index(c) for c in latent_names]
    latent_obs = data.values[np.ix_(np.where(rows)[0], latent_idx)]
    latent_mask = data.mask[np.ix_(np.where(rows)[0], latent_idx)]
    P = arch.n_latent

    def guarded(stage, name, fit, *args) -> FittedGP:
        """``fit(*args)`` for one node; a fit error becomes an SEMError naming the node."""
        try:
            return fit(*args)
        except FIT_ERRORS as exc:
            raise SEMError(f"{stage} for node {name!r}: {exc}") from exc

    def fit_node(Xn, yn, name):
        return guarded("initial fit failed", name, fit or fit_gp, Xn, yn, config.fit)

    def first_fit(p, obs):
        return fit_node(X[obs], latent_obs[obs, p], latent_names[p])

    if latent_mask.all():
        # E-step is a no-op: independent per-node ML fits, and the data is the one draw
        first_hyper = [first_fit(p, latent_mask[:, p]).hyper for p in range(P)]
        second_hyper = fit_node(latent_obs, y, arch.output_node).hyper
        return DGPSIEmulator(
            architecture=arch, first_hyper=first_hyper, second_hyper=second_hyper,
            draws=latent_obs[None], latent_mask=latent_mask, rng_seed=seed, train_X=X,
            train_y=y,
        )

    # initial fill: per-column GP on observed entries, posterior mean at missing
    init_w = latent_obs.copy()
    models = []  # each latent node's fit, then the output node's
    for p in range(P):
        obs = latent_mask[:, p]
        if obs.sum() < 2:
            raise SEMError(f"latent column {latent_names[p]!r} has fewer than 2 observed values")
        m = first_fit(p, obs)
        models.append(m)
        miss = ~obs
        if miss.any():
            mean, _ = predict_batch(m, X[miss])
            init_w[miss, p] = mean
    models.append(fit_node(init_w, y, arch.output_node))

    state = LatentState(
        X=X, y=y, latent_obs=latent_obs, latent_mask=latent_mask,
        first_hyper=[m.hyper for m in models[:P]],
        second_hyper=models[P].hyper,
        initial_latents=init_w,
    )

    nodes = [*latent_names, arch.output_node]
    trace: list[list[GPHyperparams]] = [[] for _ in nodes]
    for it in range(config.iterations):
        for _ in range(config.ess_sweeps):
            state.sweep(rng)
        # one projected-BFGS iteration per node from its last fit's hyperparameters and
        # inverse Hessian: each latent node on time, then the output node on the latents
        node_data = [(X, state.w[:, p]) for p in range(P)] + [(state.w, y)]
        models = [guarded(f"refit failed at iteration {it}", name, refit_gp, Xn, yn, m.hyper, 1,
                          config.fit, m.hess_inv)
                  for name, (Xn, yn), m in zip(nodes, node_data, models)]
        state.set_hyperparams([m.hyper for m in models[:P]], models[P].hyper)
        if it >= config.burn_in:
            for t, m in zip(trace, models):
                t.append(m.hyper)

    final = ([_geometric_mean_hyper(t) for t in trace] if trace[P]
             else [*state.first_hyper, state.second_hyper])
    state.set_hyperparams(final[:P], final[P])

    draws = np.stack([impute_latents(state, rng, sweeps=config.ess_sweeps)
                      for _ in range(config.n_imputations)])
    return DGPSIEmulator(
        architecture=arch, first_hyper=final[:P], second_hyper=final[P], draws=draws,
        latent_mask=latent_mask, rng_seed=seed, train_X=X, train_y=y,
    )


def predict_output(em: DGPSIEmulator, query_times) -> list[EnsemblePrediction]:
    """Mixture of per-imputation linked-GP predictions of the output at each query
    time (M times, or an (M, D) array of global inputs).

    The first layer is predicted for all M rows in one call per latent node,
    bitwise what M one-row calls give (see :func:`gp.predict_batch`). Then, draw
    by draw, the second layer's scaled squared distances d2 of the draw are
    computed once, R, alpha = R^-1 y and R^-1 are built from them, every query is
    propagated with the same d2 (J reads it), and all of them are dropped before
    the next draw; nothing is kept on the emulator. So the second layer is paid
    for once per draw per call: predict a batch of times in one call, not one
    :func:`predict_ensemble` call per time. A non-finite query raises ValueError.
    """
    y = em.train_y
    n = em.draws.shape[1]
    if y.shape != (n,) or not np.isfinite(y).all():
        raise ValueError(f"train_y must be {n} finite outputs, one per training row")
    X0 = np.asarray(query_times, dtype=float)
    X0 = X0.reshape(-1, 1) if X0.ndim < 2 else X0
    latent_means, latent_vars = _latent_predictions(em.first_layer, X0)  # (M, P, S), (M, P)
    hyper = em.second_hyper
    means = np.empty((len(X0), len(em.draws)))
    variances = np.empty_like(means)
    for s, draw in enumerate(em.draws):
        d2 = scaled_sq_dist(hyper.kernel, draw, draw)
        chol = build_correlation(hyper.kernel, hyper.nugget, draw, d2.copy()).chol
        alpha, Rinv = chol_solve(chol, y), chol_inverse(chol)
        for i, v in enumerate(latent_vars):
            means[i, s], variances[i, s] = propagate_moments(
                hyper, draw, alpha, Rinv, latent_means[i, :, s], v, d2)
    return _ensembles(means, np.maximum(variances, 0.0))  # a round-off variance below 0 is 0


def predict_ensemble(em: DGPSIEmulator, x0) -> EnsemblePrediction:
    """Mixture of per-imputation linked-GP predictions at one global input: the
    one-row :func:`predict_output`, and bitwise that row of a batch. Each call
    builds the second layer of every draw again, so a loop of these over one
    emulator repeats that work per point; batch the points through
    :func:`predict_output` instead."""
    return predict_output(em, np.atleast_1d(np.asarray(x0, dtype=float))[None, :])[0]


def impute_covariates(em: DGPSIEmulator, query_times, target: str) -> list[EnsemblePrediction]:
    """Mixture over imputations of the target latent's first-layer posterior at
    each query time."""
    idx = em.architecture.latent_index(target)
    qt = np.asarray(query_times, dtype=float).reshape(-1, 1)
    return _ensembles(*predict_batch(em.first_layer[idx], qt))  # (M, S) means, (M,) variances


def _fixed_cells_agree(draws: np.ndarray, fixed: np.ndarray) -> bool:
    """Whether each fixed cell of the (S, N, P) draws holds the same float64 bits
    in every draw; ``==`` would let 0.0 and -0.0 pass as equal."""
    bits = draws[:, fixed].view(np.int64)
    return bool((bits == bits[:1]).all())


def save_emulator(em: DGPSIEmulator, directory: str):
    """Persist an emulator as ``manifest.json`` plus one ``np.save`` file per
    array: float64 ``training_inputs.npy`` (N, D), ``training_outputs.npy`` (N,)
    and ``imputations.npy`` (the (S, N, P) draws), and bool ``latent_mask.npy``
    (N, P). An emulator whose fixed (observed) latent cells differ between draws
    is refused, as :func:`load_emulator` would refuse its files."""
    if not _fixed_cells_agree(em.draws, em.latent_mask):
        raise ValueError("each fixed (observed) latent cell must hold the same value, "
                         "bit for bit, in every draw")
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(em.manifest(), fh, indent=2, sort_keys=True)
    for name, values in (("training_inputs", em.train_X), ("training_outputs", em.train_y),
                         ("imputations", em.draws), ("latent_mask", em.latent_mask)):
        np.save(os.path.join(directory, f"{name}.npy"), values)


def _saved_hyper(entry: dict) -> GPHyperparams:
    """Hyperparameters of one manifest entry. Older manifests name a kernel family;
    any family but the squared exponential is refused rather than read as SE."""
    family = entry.get("family", "squared_exponential")
    if family != "squared_exponential":
        raise ValueError(f"saved kernel family {family!r} is not supported; "
                         "only the squared exponential kernel is")
    return GPHyperparams(kernel=KernelSpec(np.array(entry["lengthscales"])),
                         scale=entry["scale"], nugget=entry["nugget"])


def _load_array(directory: str, name: str, dtype, shape: tuple) -> np.ndarray:
    """One saved array, refused unless it has this dtype and shape (None matches
    any length) and holds finite values only."""
    path = os.path.join(directory, name)
    try:
        values = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:  # not an .npy array, or an object array
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(values, np.ndarray):  # np.load opens a zip archive as an NpzFile
        values.close()
        raise ValueError(f"{path}: not an .npy array")
    if values.dtype != dtype or values.ndim != len(shape) or any(
            w not in (None, g) for w, g in zip(shape, values.shape)):
        raise ValueError(f"{path}: {values.dtype} array of shape {values.shape}, expected "
                         f"{np.dtype(dtype)} of shape {shape} (None: any length)")
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: holds a non-finite value")
    return values


def load_emulator(directory: str) -> DGPSIEmulator:
    """Rebuild an emulator from :func:`save_emulator`'s files. An array of another
    dtype or shape, a non-finite value, or a fixed cell whose bits differ between
    draws is a ``ValueError`` naming the file, as is a manifest that is not JSON,
    lacks a key or holds hyperparameters ``GPHyperparams`` or ``KernelSpec``
    refuses, a manifest without one first-layer entry per latent node, each with
    one lengthscale per input column, and one second-layer lengthscale per latent
    node, and training inputs or draws whose count is not the manifest's
    ``n_train`` or ``n_imputations`` (at least one draw). A directory in the older
    per-cell CSV layout raises ``FileNotFoundError`` for ``training_inputs.npy``."""
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
            arch = LayerArchitecture(tuple(manifest["latent_nodes"]), manifest["output_node"])
            first_hyper = [_saved_hyper(e) for e in manifest["first_layer"]]
            second_hyper = _saved_hyper(manifest["second_layer"])
            n_train, n_imputations = manifest["n_train"], manifest["n_imputations"]
        except KeyError as exc:
            raise ValueError(f"{manifest_path}: missing key {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{manifest_path}: {exc}") from exc
    X = _load_array(directory, "training_inputs.npy", float, (None, None))
    n, p = X.shape[0], arch.n_latent
    if n != n_train:
        raise ValueError(f"{os.path.join(directory, 'training_inputs.npy')}: {n} rows, but "
                         f"{manifest_path} reads n_train {n_train}")
    first_dims = [len(h.kernel.lengthscales) for h in first_hyper]
    if first_dims != [X.shape[1]] * p or len(second_hyper.kernel.lengthscales) != p:
        raise ValueError(
            f"{manifest_path}: expected {p} first-layer entries of {X.shape[1]} lengthscales "
            f"and {p} second-layer lengthscales, one per latent node; got entries of "
            f"{first_dims} and {len(second_hyper.kernel.lengthscales)}")
    y = _load_array(directory, "training_outputs.npy", float, (n,))
    draws = _load_array(directory, "imputations.npy", float, (None, n, p))
    if len(draws) == 0 or len(draws) != n_imputations:
        raise ValueError(f"{os.path.join(directory, 'imputations.npy')}: {len(draws)} draws; "
                         f"expected at least 1, and the n_imputations of {manifest_path}, "
                         f"{n_imputations}")
    mask = _load_array(directory, "latent_mask.npy", bool, (n, p))
    if not _fixed_cells_agree(draws, mask):
        raise ValueError(f"{os.path.join(directory, 'imputations.npy')}: the value of each "
                         "fixed (observed) cell must be the same, bit for bit, in every draw")
    return DGPSIEmulator(
        architecture=arch, first_hyper=first_hyper, second_hyper=second_hyper, draws=draws,
        latent_mask=mask, rng_seed=manifest.get("rng_seed"), train_X=X, train_y=y,
    )
