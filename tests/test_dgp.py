import json
import re
import zipfile
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from gpimpute import dgp, kernels
from gpimpute.data import (
    SyntheticConfig,
    generate_synthetic_window,
    make_mask_plan,
    apply_mask,
)
from gpimpute.dgp import (
    LatentState,
    SEMConfig,
    impute_covariates,
    impute_latents,
    load_emulator,
    mix_components,
    predict_ensemble,
    predict_output,
    save_emulator,
    train_sem,
)
from gpimpute.gp import (
    FitConfig,
    GPHyperparams,
    PredictiveGaussian,
    _gaussian_logpdf,
    _log_bounds,
    _PreparedSEObjective,
    fit_gp,
    log_marginal_likelihood,
    make_fitted_gp,
    predict_batch,
)
from gpimpute.kernels import (
    DimensionMismatchError,
    KernelSpec,
    build_correlation,
    kernel_value,
    scaled_sq_dist,
)
from gpimpute.linked import (
    LayerArchitecture,
    LinkedEmulator,
    _latent_predictions,
    _propagated_gaussian,
    link_predict,
)


def se_spec(*lengthscales):
    return KernelSpec(np.array(lengthscales, dtype=float))


def small_arch():
    return LayerArchitecture(("pco2", "sid", "lactate"), "ph")


# negative zero, the smallest subnormal, near-overflow and inexact decimals
EDGE_VALUES = np.array([-0.0, 5e-324, 1e308, 0.1, -1.5e-7])

FAST_SEM = SEMConfig(
    iterations=6, burn_in=3, ess_sweeps=2, n_imputations=5,
    fit=FitConfig(n_starts=2, seed=0),
)


def make_window(seed=0, max_length=30):
    cfg = SyntheticConfig(min_length=20, max_length=max_length)
    return generate_synthetic_window(cfg, np.random.default_rng(seed)).table


def masked_window(seed=0, proportion=0.3):
    table = make_window(seed)
    plan = make_mask_plan(table, proportion, table.covariate_names, seed=seed + 100)
    return apply_mask(table, plan)


class TestMixComponents:
    def test_single_component_collapse(self):
        c = PredictiveGaussian(mean=1.3, variance=0.7)
        mixed = mix_components([c])
        assert mixed.mixture.mean == 1.3
        assert mixed.mixture.variance == pytest.approx(0.7, abs=1e-15)

    def test_two_symmetric_components(self):
        # means +-a with shared variance v: mean 0, variance v + a^2
        a, v = 0.8, 0.3
        mixed = mix_components(
            [PredictiveGaussian(a, v), PredictiveGaussian(-a, v)]
        )
        assert abs(mixed.mixture.mean) < 1e-15
        assert mixed.mixture.variance == pytest.approx(v + a**2, abs=1e-12)

    def test_formula_reevaluation(self):
        rng = np.random.default_rng(0)
        comps = [
            PredictiveGaussian(rng.standard_normal(), rng.uniform(0.1, 1.0))
            for _ in range(17)
        ]
        mixed = mix_components(comps)
        means = np.array([c.mean for c in comps])
        variances = np.array([c.variance for c in comps])
        mu = means.mean()
        var = np.mean(means**2 + variances) - mu**2
        assert mixed.mixture.mean == pytest.approx(mu, abs=1e-12)
        assert mixed.mixture.variance == pytest.approx(var, abs=1e-12)
        assert len(mixed.components) == 17


def make_state(rng, n=20, flat_second=False, n_latent=2):
    X = np.linspace(0, 1, n)[:, None]
    latent_obs = np.column_stack([np.sin(4 * X[:, 0]), np.cos(5 * X[:, 0]),
                                  np.sin(7 * X[:, 0] + 1)][:n_latent])
    latent_mask = np.ones_like(latent_obs, dtype=bool)
    latent_mask[4:9, 0] = False
    latent_mask[12:15, 1] = False
    if n_latent == 3:
        latent_mask[16:19, 2] = False
    y = np.tanh(latent_obs[:, 0] + latent_obs[:, 1]) + 0.05 * rng.standard_normal(n)
    first_hyper = [
        GPHyperparams(kernel=se_spec(0.3), scale=1.0, nugget=1e-4) for _ in range(n_latent)
    ]
    if flat_second:
        # enormous nugget makes the output likelihood essentially constant in w
        second_hyper = GPHyperparams(kernel=se_spec(*[1.0] * n_latent), scale=1.0, nugget=1e8)
    else:
        second_hyper = GPHyperparams(kernel=se_spec(*[0.8] * n_latent), scale=1.0, nugget=0.05)
    return LatentState(
        X=X, y=y, latent_obs=latent_obs, latent_mask=latent_mask,
        first_hyper=first_hyper, second_hyper=second_hyper,
        initial_latents=latent_obs.copy(),
    )


class TestImputeLatents:
    def test_observed_entries_pinned(self):
        rng = np.random.default_rng(1)
        state = make_state(rng)
        before = state.latent_obs.copy()
        w = impute_latents(state, rng, sweeps=3)
        assert w.shape == before.shape and w is not state.w
        assert np.array_equal(w[state.latent_mask], before[state.latent_mask])

    def test_missing_entries_move(self):
        rng = np.random.default_rng(2)
        state = make_state(rng)
        before = state.w.copy()
        w = impute_latents(state, rng, sweeps=1)
        moved = w[~state.latent_mask] != before[~state.latent_mask]
        assert moved.all()

    def test_fully_observed_is_noop(self):
        rng = np.random.default_rng(3)
        state = make_state(rng)
        state.latent_mask[:] = True
        state.set_hyperparams(state.first_hyper, state.second_hyper)  # rebuilds the priors
        before = state.w.copy()
        w = impute_latents(state, rng, sweeps=5)
        assert np.array_equal(w, before)

    def test_flat_likelihood_recovers_conditional_prior(self):
        # with a flat second layer the stationary law of the missing entries is
        # the first-layer conditional prior
        rng = np.random.default_rng(4)
        state = make_state(rng, flat_second=True)
        prior = state._priors[0]
        draws = []
        for _ in range(4000):
            state.sweep(rng)
            draws.append(state.w[prior.missing, 0].copy())
        draws = np.asarray(draws)[500:]
        prior_sd = np.sqrt(np.diag(prior.chol @ prior.chol.T))
        assert np.all(np.abs(draws.mean(axis=0) - prior.mean) < 0.1 * prior_sd + 0.01)
        assert np.all(np.abs(draws.std(axis=0) / prior_sd - 1) < 0.1)

    @pytest.mark.parametrize("n", [40, 115])
    def test_output_loglik_matches_reference(self, n):
        # the ESS likelihood builds R with build_correlation, as the refit
        # objective does, so it equals the reference log density on distinct
        # latent rows and on two identical fully observed rows
        rng = np.random.default_rng(5)
        state = make_state(rng, n=n)
        impute_latents(state, rng, sweeps=2)
        duplicated = state.w.copy()
        assert state.latent_mask[:2].all()
        duplicated[1] = duplicated[0]
        for w in (state.w, rng.standard_normal((n, 2)), duplicated):
            ref = log_marginal_likelihood(w, state.y, state.second_hyper)
            assert state.output_loglik(w) == pytest.approx(ref, rel=1e-10)
        assert np.unique(duplicated, axis=0).shape[0] == n - 1

    @pytest.mark.parametrize("case", ["distinct", "duplicate-rows", "close-rows-no-nugget"])
    def test_output_loglik_is_the_reference_bitwise(self, case):
        # the ESS likelihood is the Gaussian log density over build_correlation's
        # factor, whatever jitter that call adds
        rng = np.random.default_rng(8)
        state = make_state(rng, n=40)
        w = rng.standard_normal((40, 2))
        if case == "duplicate-rows":
            # the nugget on the diagonal keeps R positive definite: no jitter
            w[[1, 7]] = w[[0, 3]]
        elif case == "close-rows-no-nugget":
            w[[1, 7]] = w[[0, 3]] + 1e-9
            state.set_hyperparams(state.first_hyper, replace(state.second_hyper, nugget=0.0))
        hyper = state.second_hyper
        corr = build_correlation(hyper.kernel, hyper.nugget, w)
        assert (corr.jitter_applied > 0) == (case == "close-rows-no-nugget")
        assert state.output_loglik(w) == _gaussian_logpdf(state.y, corr.chol, hyper.scale)

    def test_identical_latent_rows_score_k_plus_nugget_identity(self):
        # two identical latent rows: the ESS likelihood and log_marginal_likelihood
        # are the Gaussian log density of y under scale * (K + nugget * I), with K
        # built here entry by entry from kernel_value
        rng = np.random.default_rng(9)
        state = make_state(rng)
        w = state.w.copy()
        w[1] = w[0]
        hyper = state.second_hyper
        n = len(w)
        K = np.array([[kernel_value(hyper.kernel, w[i], w[j]) for j in range(n)]
                      for i in range(n)])
        cov = hyper.scale * (K + hyper.nugget * np.eye(n))
        sign, logdet = np.linalg.slogdet(cov)
        assert sign == 1
        ref = -0.5 * (n * np.log(2 * np.pi) + logdet + state.y @ np.linalg.solve(cov, state.y))
        assert state.output_loglik(w) == pytest.approx(ref, rel=1e-10)
        assert log_marginal_likelihood(w, state.y, hyper) == pytest.approx(ref, rel=1e-10)
        assert build_correlation(hyper.kernel, hyper.nugget, w).jitter_applied == 0


def reference_sweep(state, rng):
    """LatentState.sweep as it was before the likelihood reuse: every update
    recomputes the current state's likelihood."""
    for p, prior in enumerate(state._priors):
        if prior is None:
            continue
        w_work = state.w.copy()

        def loglik(free):
            w_work[prior.missing, p] = free
            return state.output_loglik(w_work)

        state.w[prior.missing, p] = dgp.ess_update(prior.mean, prior.chol,
                                                   state.w[prior.missing, p], loglik, rng)


class TestESSLikelihoodReuse:
    """The accepted proposal's likelihood is the next update's current one."""

    NEW_SECOND = GPHyperparams(kernel=se_spec(0.5, 1.2), scale=4.0, nugget=0.02)

    def run(self, sweep, monkeypatch, n_latent=2):
        """Three sweeps, a second-layer hyperparameter change, three more; the
        draws after every sweep, the output_loglik calls and the ess_update calls.
        ``d2_given`` counts the calls given the squared distances, and ``d2_wrong``
        those whose distances are not bitwise scaled_sq_dist's at w."""
        state = make_state(np.random.default_rng(6), n=30, n_latent=n_latent)
        new_second = replace(self.NEW_SECOND, kernel=se_spec(*[0.5, 1.2, 0.9][:n_latent]))
        rng = np.random.default_rng(7)
        counts = {"loglik": 0, "ess": 0, "d2_given": 0, "d2_wrong": 0}
        output_loglik, ess_update = state.output_loglik, dgp.ess_update

        def counting_loglik(w, *d2):
            counts["loglik"] += 1
            if d2:
                counts["d2_given"] += 1
                fresh = scaled_sq_dist(state.second_hyper.kernel, w, w)
                counts["d2_wrong"] += d2[0].tobytes() != fresh.tobytes()
            return output_loglik(w, *d2)

        def counting_ess(*args, **kwargs):
            counts["ess"] += 1
            return ess_update(*args, **kwargs)

        state.output_loglik = counting_loglik
        draws = []
        with monkeypatch.context() as patch:
            patch.setattr(dgp, "ess_update", counting_ess)
            for k in range(6):
                if k == 3:
                    state.set_hyperparams(state.first_hyper, new_second)
                sweep(state, rng)
                draws.append(state.w.copy())
        return draws, counts

    def test_draws_bitwise_equal_to_recomputing_reference(self, monkeypatch):
        draws, _ = self.run(LatentState.sweep, monkeypatch)
        ref, _ = self.run(reference_sweep, monkeypatch)
        for got, want in zip(draws, ref):
            assert np.array_equal(got, want)
        assert not np.array_equal(draws[0], draws[-1])

    @pytest.mark.parametrize("n_latent", [2, 3])
    def test_kept_column_terms_are_the_from_scratch_distances(self, monkeypatch, n_latent):
        # each proposal recomputes its own column's term and keeps the others'; a
        # term left stale by an accepted proposal or by the lengthscale change at
        # sweep 3, or terms added out of column order (three columns), would hand
        # output_loglik other distances
        _, counts = self.run(LatentState.sweep, monkeypatch, n_latent)
        assert counts["d2_given"] == counts["loglik"] > 0
        assert counts["d2_wrong"] == 0

    def test_set_hyperparams_that_raises_leaves_the_state_whole(self):
        # the priors are built before anything is assigned, so an update that
        # raises keeps the old hyperparameters, priors, kept terms and likelihood
        state = make_state(np.random.default_rng(6), n=30)
        state.sweep(np.random.default_rng(7))
        names = ("first_hyper", "second_hyper", "_priors", "_d2_terms", "_loglik")
        before = {name: getattr(state, name) for name in names}
        kept = [list(before[name]) for name in ("first_hyper", "_priors", "_d2_terms")]
        two_input_first = [GPHyperparams(kernel=se_spec(0.3, 0.3), scale=1.0, nugget=1e-4)] * 2
        with pytest.raises(DimensionMismatchError):
            state.set_hyperparams(two_input_first, self.NEW_SECOND)
        assert all(getattr(state, name) is before[name] for name in names)
        assert kept == [state.first_hyper, state._priors, state._d2_terms]
        for got, want in zip(state._priors, state._column_priors(state.first_hyper)):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.mean.tobytes() == want.mean.tobytes()
                assert got.chol.tobytes() == want.chol.tobytes()
        for p, term in enumerate(state._d2_terms):
            column = state.w[:, [p]]
            one_dim = KernelSpec(state.second_hyper.kernel.lengthscales[[p]])
            assert term.tobytes() == scaled_sq_dist(one_dim, column, column).tobytes()
        assert state._loglik == state.output_loglik(state.w)

    def test_one_loglik_call_fewer_per_update(self, monkeypatch):
        _, counts = self.run(LatentState.sweep, monkeypatch)
        _, ref = self.run(reference_sweep, monkeypatch)
        assert counts["ess"] == ref["ess"] == 6 * 2  # two columns with missing entries
        # fresh only on the first update and the first after set_hyperparams
        assert ref["loglik"] - counts["loglik"] == counts["ess"] - 2


class TestTrainSEM:
    def test_fully_observed_reduces_to_independent_fits(self):
        table = make_window(seed=5)
        arch = small_arch()
        em = train_sem(table, arch, FAST_SEM, 0)
        X = table.times[:, None]
        for p, name in enumerate(["pco2", "sid", "lactate"]):
            direct = fit_gp(X, table.column(name)[0], FAST_SEM.fit)
            assert np.array_equal(
                em.first_hyper[p].kernel.lengthscales, direct.hyper.kernel.lengthscales
            )
            assert em.first_hyper[p].scale == direct.hyper.scale
        latents = np.column_stack([table.column(c)[0] for c in ["pco2", "sid", "lactate"]])
        direct2 = fit_gp(latents, table.column("ph")[0], FAST_SEM.fit)
        assert np.array_equal(
            em.second_hyper.kernel.lengthscales, direct2.hyper.kernel.lengthscales
        )

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "fully-observed"])
    def test_given_fit_replaces_fit_gp(self, monkeypatch, masked):
        table = masked_window(seed=3) if masked else make_window(seed=3)
        ref = train_sem(table, small_arch(), FAST_SEM, 11)
        shapes = []

        def spy(X, y, config):
            shapes.append(np.shape(X))
            return fit_gp(X, y, config)

        def unused(*args):
            raise AssertionError("fit_gp called although a fit was given")

        monkeypatch.setattr(dgp, "fit_gp", unused)
        em = train_sem(table, small_arch(), FAST_SEM, 11, fit=spy)
        # each latent node's initial fit on its observed rows, then the second layer's
        nodes = [(int(table.column(c)[1].sum()), 1) for c in small_arch().latent_nodes]
        assert shapes == nodes + [(table.n, 3)]
        assert em.draws.tobytes() == ref.draws.tobytes()
        assert em.manifest() == ref.manifest()
        for got, want in zip([*em.first_hyper, em.second_hyper],
                             [*ref.first_hyper, ref.second_hyper]):
            assert got.kernel.lengthscales.tobytes() == want.kernel.lengthscales.tobytes()
            assert (got.scale, got.nugget) == (want.scale, want.nugget)

    def test_refits_honour_fit_config_bounds(self):
        # first-layer refits all see the full time grid, so every traced
        # lengthscale, and hence their average, lies in the configured box
        table = masked_window(seed=6)
        lo, hi = 2.0, 3.0
        config = replace(FAST_SEM, fit=FitConfig(n_starts=2, seed=0, lengthscale_range=(lo, hi)))
        em = train_sem(table, small_arch(), config, 0)
        span = np.ptp(em.train_X)
        for hyper in em.first_hyper:
            ls = hyper.kernel.lengthscales[0]
            assert lo * span * (1 - 1e-12) <= ls <= hi * span * (1 + 1e-12)

    @pytest.mark.parametrize("length", [40, 115])
    def test_refits_carry_curvature_and_match_lbfgsb(self, monkeypatch, lbfgsb, length):
        # the first-layer (D = 1) and second-layer (D = 3) refits SEM makes
        cfg = SyntheticConfig(min_length=length, max_length=length)
        table = generate_synthetic_window(cfg, np.random.default_rng(length)).table
        table = apply_mask(table, make_mask_plan(table, 0.3, table.covariate_names, seed=1))
        calls = []
        refit = dgp.refit_gp

        def spy(X, y, init, max_iter, config, hess_inv0):
            model = refit(X, y, init, max_iter, config, hess_inv0)
            calls.append((np.array(X), np.array(y), init, max_iter, config, hess_inv0, model))
            return model

        monkeypatch.setattr(dgp, "refit_gp", spy)
        train_sem(table, small_arch(), FAST_SEM, 0)
        nodes = 4  # three latent nodes, then the output node, per iteration
        assert len(calls) == FAST_SEM.iterations * nodes
        for k, (X, y, init, max_iter, config, hess_inv0, model) in enumerate(calls):
            # a node's first refit starts from its initial fit's curvature, later
            # ones from its previous refit's
            assert hess_inv0 is not None
            if k >= nodes:
                assert hess_inv0 is calls[k - nodes][6].hess_inv
            lo, hi = _log_bounds(X, config)
            t0 = np.clip(np.append(np.log(init.kernel.lengthscales),
                                   np.log(np.clip(init.nugget, *config.nugget_bounds))), lo, hi)
            oracle = lbfgsb(X, y, t0, lo, hi, max_iter)
            theta = np.append(np.log(model.hyper.kernel.lengthscales), np.log(model.hyper.nugget))
            nll = _PreparedSEObjective(X, y)(theta)[0]
            assert nll <= oracle.fun + 1e-8 * abs(oracle.fun)

    def test_manifest_deterministic(self):
        table = masked_window(seed=6)
        arch = small_arch()
        m1 = train_sem(table, arch, FAST_SEM, 42).manifest()
        m2 = train_sem(table, arch, FAST_SEM, 42).manifest()
        assert m1 == m2

    def test_iterations_below_burnin_rejected(self):
        with pytest.raises(ValueError):
            train_sem(make_window(), small_arch(),
                      SEMConfig(iterations=2, burn_in=5), 0)

    def test_fit_must_be_a_fit_config(self):
        with pytest.raises(ValueError, match="fit must be a FitConfig"):
            SEMConfig(fit={"n_starts": 1})

    def test_trains_only_on_observed_output_rows(self):
        table = make_window(seed=7)
        out_j = table.col_index("ph")
        table.mask[:4, out_j] = False
        em = train_sem(table, small_arch(), FAST_SEM, 0)
        assert em.train_X.shape[0] == table.n - 4

    def test_predict_ensemble_shapes(self):
        table = masked_window(seed=8)
        em = train_sem(table, small_arch(), FAST_SEM, 1)
        pred = predict_ensemble(em, [0.5])
        assert len(pred.components) == FAST_SEM.n_imputations
        assert np.isfinite(pred.mixture.mean)
        assert pred.mixture.variance >= 0

    def test_ensemble_mixture_consistent_with_components(self):
        table = masked_window(seed=9)
        em = train_sem(table, small_arch(), FAST_SEM, 2)
        pred = predict_ensemble(em, [0.3])
        redo = mix_components(pred.components)
        assert pred.mixture == redo.mixture

    def test_covariate_mixtures_are_the_mix_of_their_components(self):
        em = train_sem(masked_window(seed=9), small_arch(), FAST_SEM, 2)
        preds = impute_covariates(em, np.linspace(0.05, 0.95, 7), "lactate")
        assert all(len(p.components) == FAST_SEM.n_imputations for p in preds)
        assert [p.mixture for p in preds] == [mix_components(p.components).mixture
                                             for p in preds]

    def test_impute_covariates(self):
        table = masked_window(seed=10)
        em = train_sem(table, small_arch(), FAST_SEM, 3)
        times = [0.1, 0.4, 0.9]
        preds = impute_covariates(em, times, "sid")
        assert len(preds) == 3
        for p in preds:
            assert np.isfinite(p.mixture.mean)
            assert p.mixture.variance >= 0
        with pytest.raises(KeyError):
            impute_covariates(em, times, "nonexistent")

    def test_non_finite_query_refused(self):
        em = train_sem(masked_window(seed=10), small_arch(), FAST_SEM, 3)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                impute_covariates(em, [0.2, bad], "sid")
            with pytest.raises(ValueError, match="finite"):
                predict_ensemble(em, [bad])
            with pytest.raises(ValueError, match="finite"):
                predict_output(em, [0.2, 0.5, bad])

    def test_fully_observed_builds_one_second_layer(self, monkeypatch):
        # a fully observed emulator's one draw is the data, so each output
        # prediction call builds one second-layer R whatever n_imputations says,
        # and covariate imputation builds none
        built = []
        real = dgp.build_correlation
        monkeypatch.setattr(dgp, "build_correlation",
                            lambda spec, nugget, X, d2=None: built.append(np.shape(X))
                            or real(spec, nugget, X, d2))
        em = train_sem(make_window(seed=12), small_arch(),
                       replace(FAST_SEM, n_imputations=20), 5)
        n_second = lambda: sum(shape[1] == 3 for shape in built)  # noqa: E731
        impute_covariates(em, [0.2, 0.6], "sid")
        assert n_second() == 0
        preds = [predict_ensemble(em, [x]) for x in (0.3, 0.8)]
        assert n_second() == 2
        preds += predict_output(em, [0.1, 0.5, 0.9])
        assert n_second() == 3
        assert all(len(p.components) == 1 for p in preds)

    def test_fully_observed_is_one_draw_of_the_data(self, tmp_path):
        table = make_window(seed=12)
        em = train_sem(table, small_arch(), replace(FAST_SEM, n_imputations=20), 5)
        latents = np.column_stack([table.column(c)[0] for c in small_arch().latent_nodes])
        assert em.draws.shape == (1, *latents.shape)
        assert em.draws[0].tobytes() == latents.tobytes()
        assert em.n_imputations == em.manifest()["n_imputations"] == 1
        save_emulator(em, str(tmp_path / "em"))
        back = load_emulator(str(tmp_path / "em"))
        assert back.draws.tobytes() == em.draws.tobytes()
        for x0 in ([0.3], [0.8]):
            pred = predict_ensemble(em, x0)
            assert pred.mixture.mean == pred.components[0].mean
            assert predict_ensemble(back, x0) == pred

    def test_repeated_draws_load_and_predict(self, tmp_path):
        # emulators saved while a fully observed train_sem repeated the data per
        # draw still load, and give one component per copy
        em = train_sem(make_window(seed=12), small_arch(), FAST_SEM, 5)
        repeated = replace(em, draws=np.repeat(em.draws, 20, axis=0))
        save_emulator(repeated, str(tmp_path / "em"))
        back = load_emulator(str(tmp_path / "em"))
        assert back.draws.tobytes() == repeated.draws.tobytes()
        for x0 in ([0.3], [0.8]):
            pred = predict_ensemble(back, x0)
            assert len(pred.components) == 20 and len(set(pred.components)) == 1
            assert pred == predict_ensemble(repeated, x0)
        covariates = impute_covariates(back, [0.2, 0.6], "sid")
        assert all(len(p.components) == 20 and len(set(p.components)) == 1
                   for p in covariates)

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "fully-observed"])
    def test_second_layer_distances_once_per_draw_per_call(self, masked, monkeypatch):
        # each call computes one second-layer d2 per draw, in draw order, however
        # many times it predicts; R is built from a copy of it and J reads it
        table = masked_window(seed=12) if masked else make_window(seed=12)
        em = train_sem(table, small_arch(), FAST_SEM, 5)
        assert len(em.draws) == (FAST_SEM.n_imputations if masked else 1)
        seen = []
        for module in (dgp, kernels):
            real = module.scaled_sq_dist
            monkeypatch.setattr(module, "scaled_sq_dist",
                                lambda spec, A, B, real=real: seen.append(A)
                                or real(spec, A, B))
        second = lambda: [a for a in seen if np.shape(a)[1] == 3]  # noqa: E731
        predict_ensemble(em, [0.4])
        assert len(second()) == len(em.draws)
        seen.clear()
        predict_output(em, np.linspace(0.05, 0.95, 7))
        assert [a.tobytes() for a in second()] == [draw.tobytes() for draw in em.draws]

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "fully-observed"])
    def test_prediction_adds_nothing_to_the_emulator(self, masked):
        table = masked_window(seed=12) if masked else make_window(seed=12)
        em = train_sem(table, small_arch(), FAST_SEM, 5)
        before = dict(vars(em))
        predict_ensemble(em, [0.4])
        predict_output(em, [0.2, 0.6])
        impute_covariates(em, [0.2, 0.6], "sid")
        assert vars(em).keys() == before.keys()
        assert all(vars(em)[k] is v for k, v in before.items())

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "fully-observed"])
    def test_predict_output_is_predict_ensemble_per_time(self, masked):
        # the first layer is predicted one row at a time, so a batch is bitwise
        # the single-point predictions
        table = masked_window(seed=12) if masked else make_window(seed=12)
        em = train_sem(table, small_arch(), FAST_SEM, 5)
        times = np.linspace(0.0, 1.0, 11)
        assert predict_output(em, times) == [predict_ensemble(em, [t]) for t in times]
        assert predict_output(em, times[:, None]) == predict_output(em, times)
        assert predict_output(em, []) == []

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "fully-observed"])
    def test_ensemble_is_the_per_fitted_gp_reference_bitwise(self, masked):
        # each draw's alpha and R^-1 are those of its fitted GP, so the
        # propagated components, and their mixture, are the same floats
        table = masked_window(seed=12) if masked else make_window(seed=12)
        em = train_sem(table, small_arch(), FAST_SEM, 5)
        for x0 in ([0.15], [0.45], [0.9]):
            got = predict_ensemble(em, x0)
            means, variances = _latent_predictions(em.first_layer, np.array([x0]))
            components = []
            for s, draw in enumerate(em.draws):
                gp = make_fitted_gp(draw, em.train_y, em.second_hyper)
                components.append(_propagated_gaussian(
                    gp.hyper, gp.training.X, gp.alpha, gp.corr.inverse(),
                    means[0, :, s], variances[0]))
            want = mix_components(components)
            assert got.components == want.components
            assert got.mixture == want.mixture

    @pytest.mark.parametrize("bad", ["nan", "inf", "short", "long"])
    def test_bad_train_y_refused_at_first_output_prediction(self, bad):
        # nothing is kept between calls, so every output prediction refuses it
        em = train_sem(masked_window(seed=10), small_arch(), FAST_SEM, 3)
        y = em.train_y.copy()
        if bad == "nan":
            y[2] = np.nan
        elif bad == "inf":
            y[-1] = np.inf
        else:
            y = y[:-1] if bad == "short" else np.append(y, 0.5)
        broken = replace(em, train_y=y)
        impute_covariates(broken, [0.3], "sid")  # reads no output
        for _ in range(2):
            with pytest.raises(ValueError, match="train_y"):
                predict_ensemble(broken, [0.3])
            with pytest.raises(ValueError, match="train_y"):
                predict_output(broken, [0.3, 0.6])

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "fully-observed"])
    def test_components_match_per_draw_reference(self, masked):
        # the shared first-layer factor and the per-draw second layers give each
        # draw's linked GP, built here one draw at a time
        table = masked_window(seed=12) if masked else make_window(seed=12)
        em = train_sem(table, small_arch(), FAST_SEM, 5)
        x0, times = [0.45], np.array([0.1, 0.5, 0.8])
        ensemble = predict_ensemble(em, x0)
        covariates = impute_covariates(em, times, "sid")
        for s, draw in enumerate(em.draws):
            first = [make_fitted_gp(em.train_X, draw[:, p], h)
                     for p, h in enumerate(em.first_hyper)]
            second = make_fitted_gp(draw, em.train_y, em.second_hyper)
            ref = link_predict(LinkedEmulator(first, second), x0)
            got = ensemble.components[s]
            assert got.mean == pytest.approx(ref.mean, rel=0, abs=1e-10)
            assert got.variance == pytest.approx(ref.variance, rel=0, abs=1e-10)
            means, variances = predict_batch(first[1], times[:, None])
            for t, pred in enumerate(covariates):
                assert pred.components[s].mean == pytest.approx(means[t], rel=0, abs=1e-10)
                assert pred.components[s].variance == pytest.approx(variances[t], rel=0, abs=1e-10)


class TestFrozenEmulator:
    """An emulator's layers are built from its fields once, so the fields and
    arrays cannot change after construction."""

    def test_field_assignment_refused(self):
        em = train_sem(masked_window(seed=10), small_arch(), FAST_SEM, 3)
        with pytest.raises(FrozenInstanceError):
            em.train_y = 2.0 * em.train_y
        with pytest.raises(FrozenInstanceError):
            em.second_hyper = em.first_hyper[0]

    @pytest.mark.parametrize("name", ["draws", "latent_mask", "train_X", "train_y"])
    def test_arrays_are_read_only_copies(self, name):
        em = train_sem(masked_window(seed=10), small_arch(), FAST_SEM, 3)
        values = getattr(em, name)
        with pytest.raises(ValueError, match="read-only"):
            values[(0,) * values.ndim] = 1  # em.draws[0, 0, 0] = 1 for the draws
        held = np.array(values)  # an array its caller goes on writing to
        copy = replace(em, **{name: held})
        held[...] = 0
        assert getattr(copy, name).tobytes() == values.tobytes()

    def test_hyperparameters_cannot_go_stale(self):
        em = train_sem(masked_window(seed=10), small_arch(), FAST_SEM, 3)
        before = predict_ensemble(em, [0.4])
        assert isinstance(em.first_hyper, tuple)
        for hyper in (em.first_hyper[0], em.second_hyper):
            with pytest.raises(ValueError, match="read-only"):
                hyper.kernel.lengthscales[0] *= 3
        with pytest.raises(TypeError):
            em.first_hyper[0] = em.first_hyper[1]
        assert predict_ensemble(em, [0.4]) == before

    def test_emulator_without_draws_refused(self):
        em = train_sem(masked_window(seed=10), small_arch(), FAST_SEM, 3)
        with pytest.raises(ValueError, match="S >= 1"):
            replace(em, draws=em.draws[:0])

    def test_kernel_spec_keeps_its_own_lengthscales(self):
        held = np.array([0.5, 2.0])  # an array its caller goes on writing to
        spec = KernelSpec(held)
        held[0] = 7.0
        assert spec.lengthscales.tolist() == [0.5, 2.0]

    def test_replace_predicts_from_the_new_values(self):
        em = train_sem(masked_window(seed=10), small_arch(), FAST_SEM, 3)
        before = predict_ensemble(em, [0.4])
        doubled = predict_ensemble(replace(em, train_y=2.0 * em.train_y), [0.4])
        # alpha = R^-1 y, and so each component's mean, doubles exactly
        assert [c.mean for c in doubled.components] == [2.0 * c.mean for c in before.components]
        assert predict_ensemble(em, [0.4]) == before


def edge_draws(em):
    """Draws of em's shape cycling through EDGE_VALUES, each fixed (observed)
    cell holding one value in every draw."""
    k = np.arange(em.draws.size).reshape(em.draws.shape)
    k[:, em.latent_mask] = k[0, em.latent_mask]
    return EDGE_VALUES[k % EDGE_VALUES.size]


SAVED_FILES = ["imputations.npy", "latent_mask.npy", "manifest.json", "training_inputs.npy",
               "training_outputs.npy"]


class TestPersistence:
    @staticmethod
    def saved(tmp_path, em=None):
        if em is None:
            em = train_sem(masked_window(seed=11), small_arch(), FAST_SEM, 4)
        save_emulator(em, str(tmp_path / "em"))
        return em, tmp_path / "em"

    def test_round_trip(self, tmp_path):
        table = masked_window(seed=11)
        em, path = self.saved(tmp_path, train_sem(table, small_arch(), FAST_SEM, 4))
        assert sorted(p.name for p in path.iterdir()) == SAVED_FILES
        text = (path / "manifest.json").read_text()
        assert text == json.dumps(em.manifest(), indent=2, sort_keys=True)
        assert "architecture" not in json.loads(text)
        back = load_emulator(str(path))
        assert back.manifest() == em.manifest()
        assert back.architecture == em.architecture
        latent = [table.col_index(c) for c in small_arch().latent_nodes]
        assert np.array_equal(em.latent_mask, table.mask[:, latent])
        for name in ("draws", "latent_mask", "train_X", "train_y"):
            got, want = getattr(back, name), getattr(em, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for x0 in ([0.2], [0.7]):
            assert predict_ensemble(back, x0) == predict_ensemble(em, x0)
        assert impute_covariates(back, [0.1, 0.5], "sid") == \
            impute_covariates(em, [0.1, 0.5], "sid")

    @pytest.mark.parametrize("damage", ["truncated", "fixed-value-differs"])
    def test_incomplete_imputations_refused(self, tmp_path, damage):
        em, path = self.saved(tmp_path)
        draws = np.load(path / "imputations.npy")
        if damage == "truncated":  # each draw lost its last row
            draws = draws[:, :-1]
        else:  # draw 3 alone holds another value in its first observed cell
            r, c = np.argwhere(em.latent_mask)[0]
            draws[3, r, c] = 123.0
        np.save(path / "imputations.npy", draws)
        with pytest.raises(ValueError, match="imputations.npy"):
            load_emulator(str(path))

    @pytest.mark.parametrize("case", ["no-draws", "no-draws-anywhere", "one-fewer", "one-more"])
    def test_draw_count_other_than_manifest_refused(self, tmp_path, case):
        # imputations.npy cut to no draws under a manifest that reads 5 used to
        # load, and its output and covariate predictions were NaN
        _, path = self.saved(tmp_path)
        draws = np.load(path / "imputations.npy")
        if case == "no-draws-anywhere":
            man = json.loads((path / "manifest.json").read_text())
            man["n_imputations"] = 0
            (path / "manifest.json").write_text(json.dumps(man))
        draws = {"one-fewer": draws[:-1], "one-more": np.concatenate([draws, draws[:1]])}.get(
            case, draws[:0])
        np.save(path / "imputations.npy", draws)
        with pytest.raises(ValueError, match=re.escape(str(path / "imputations.npy"))):
            load_emulator(str(path))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_n_train_other_than_training_rows_refused(self, tmp_path, delta):
        _, path = self.saved(tmp_path)
        man = json.loads((path / "manifest.json").read_text())
        man["n_train"] += delta
        (path / "manifest.json").write_text(json.dumps(man))
        with pytest.raises(ValueError, match=re.escape(str(path / "training_inputs.npy"))):
            load_emulator(str(path))

    def test_training_outputs_of_other_length_refused(self, tmp_path):
        em, path = self.saved(tmp_path)
        np.save(path / "training_outputs.npy", em.train_y[:-1])
        with pytest.raises(ValueError, match="training_outputs.npy"):
            load_emulator(str(path))

    @pytest.mark.parametrize("name, change", [
        ("training_inputs.npy", lambda a: a.astype(np.float32)),
        ("training_inputs.npy", lambda a: a.astype(object)),
        ("training_outputs.npy", lambda a: np.round(a).astype(np.int64)),
        ("imputations.npy", lambda a: a.astype(np.float32)),
        ("latent_mask.npy", lambda a: a.astype(float)),
        ("training_inputs.npy", lambda a: a.ravel()),
        ("training_outputs.npy", lambda a: a[:, None]),
        ("imputations.npy", lambda a: a[0]),
        ("imputations.npy", lambda a: a[:, :, :-1]),
        ("latent_mask.npy", lambda a: a[:-1]),
        ("latent_mask.npy", lambda a: a[:, :-1]),
    ], ids=["inputs-float32", "inputs-object", "outputs-int64", "imputations-float32",
            "mask-float", "inputs-1d", "outputs-2d", "imputations-2d", "imputations-p-1",
            "mask-n-1", "mask-p-1"])
    def test_array_of_other_dtype_or_shape_refused(self, tmp_path, name, change):
        _, path = self.saved(tmp_path)
        np.save(path / name, change(np.load(path / name)))
        with pytest.raises(ValueError, match=re.escape(str(path / name))):
            load_emulator(str(path))

    @pytest.mark.parametrize("damage", ["truncated", "empty", "text"])
    def test_unreadable_array_refused(self, tmp_path, damage):
        _, path = self.saved(tmp_path)
        name = path / "imputations.npy"
        data = name.read_bytes()
        name.write_bytes({"truncated": data[:-100], "empty": b"",
                          "text": b"0,0,0,0.5,1\n"}[damage])
        with pytest.raises(ValueError, match=re.escape(str(name))):
            load_emulator(str(path))

    def test_zip_archive_refused(self, tmp_path):
        # np.load opens a zip archive at any path as an NpzFile, not an array
        em, path = self.saved(tmp_path)
        name = path / "imputations.npy"
        with zipfile.ZipFile(name, "w") as archive:
            with archive.open("draws.npy", "w") as member:
                np.save(member, em.draws)
        with pytest.raises(ValueError, match=re.escape(str(name))):
            load_emulator(str(path))

    def test_imputations_format_pinned_and_round_trips_bitwise(self, tmp_path):
        """imputations.npy is the bytes np.save writes for the draws, and edge
        values (negative zero, the smallest subnormal, near-overflow, inexact
        decimals) load back bitwise."""
        em = train_sem(masked_window(seed=11), small_arch(), FAST_SEM, 4)
        em, path = self.saved(tmp_path, replace(em, draws=edge_draws(em)))
        np.save(tmp_path / "reference.npy", em.draws)
        assert (path / "imputations.npy").read_bytes() == \
            (tmp_path / "reference.npy").read_bytes()
        back = load_emulator(str(path))
        assert back.draws.tobytes() == em.draws.tobytes()
        assert np.array_equal(back.latent_mask, em.latent_mask)

    @pytest.mark.parametrize("case", ["fully-observed", "one-draw"])
    def test_imputations_format_pinned_when_all_fixed_or_one_draw(self, tmp_path, case):
        if case == "fully-observed":
            em = train_sem(make_window(seed=12), small_arch(), FAST_SEM, 5)
            assert em.latent_mask.all()
        else:
            em = train_sem(masked_window(seed=11), small_arch(),
                           replace(FAST_SEM, n_imputations=1), 4)
        em, path = self.saved(tmp_path, replace(em, draws=edge_draws(em)))
        for name, values in (("imputations.npy", em.draws), ("latent_mask.npy", em.latent_mask)):
            np.save(tmp_path / name, values)
            assert (path / name).read_bytes() == (tmp_path / name).read_bytes()
        back = load_emulator(str(path))
        assert back.draws.tobytes() == em.draws.tobytes()
        assert np.array_equal(back.latent_mask, em.latent_mask)

    def test_training_arrays_round_trip_bitwise(self, tmp_path):
        em = train_sem(masked_window(seed=11), small_arch(), FAST_SEM, 4)
        edges = EDGE_VALUES[np.arange(len(em.train_y)) % EDGE_VALUES.size]
        # lengthscales so long that no scaled distance between edge values overflows
        two_inputs = [replace(h, kernel=se_spec(1e300, 1e300)) for h in em.first_hyper]
        em, path = self.saved(tmp_path, replace(
            em, first_hyper=two_inputs, train_X=np.column_stack([edges, edges[::-1]]),
            train_y=edges))
        back = load_emulator(str(path))
        assert back.train_X.shape == (len(edges), 2)
        assert back.train_X.tobytes() == em.train_X.tobytes()
        assert back.train_y.tobytes() == em.train_y.tobytes()

    def test_fixed_cell_of_other_sign_refused(self, tmp_path):
        # 0.0 == -0.0, but a fixed cell must hold the same bits in every draw
        em = train_sem(masked_window(seed=11), small_arch(), FAST_SEM, 4)
        r, c = np.argwhere(em.latent_mask)[0]
        draws = np.array(em.draws)
        draws[:, r, c] = 0.0
        _, path = self.saved(tmp_path, replace(em, draws=draws))
        draws[2, r, c] = -0.0
        with pytest.raises(ValueError, match="fixed"):
            save_emulator(replace(em, draws=draws), str(tmp_path / "other"))
        np.save(path / "imputations.npy", draws)
        with pytest.raises(ValueError, match="imputations.npy.*fixed"):
            load_emulator(str(path))

    @pytest.mark.parametrize("name, fixed, bad", [
        ("training_outputs.npy", None, np.nan),
        ("training_inputs.npy", None, np.inf),
        ("imputations.npy", False, np.nan),
        ("imputations.npy", True, np.nan),
    ], ids=["output-nan", "input-inf", "free-cell-nan", "fixed-cell-nan"])
    def test_non_finite_value_refused_by_file(self, tmp_path, name, fixed, bad):
        em, path = self.saved(tmp_path)
        values = np.load(path / name)
        if fixed is None:  # the last value
            values.flat[-1] = bad
        else:  # the first cell with this fixed flag, in every draw
            r, c = np.argwhere(em.latent_mask == fixed)[0]
            values[:, r, c] = bad
        np.save(path / name, values)
        with pytest.raises(ValueError, match=f"{name}: holds a non-finite value"):
            load_emulator(str(path))

    @pytest.mark.parametrize("case", ["first-layer-short", "first-layer-long",
                                      "first-layer-lengthscales", "second-layer-lengthscales"])
    def test_manifest_of_other_layer_sizes_refused(self, tmp_path, case):
        # three latent nodes on one input column: three first-layer entries of one
        # lengthscale each, and a second layer of three lengthscales
        _, path = self.saved(tmp_path)
        man = json.loads((path / "manifest.json").read_text())
        first = man["first_layer"]
        if case == "first-layer-short":
            man["first_layer"] = first[:2]
        elif case == "first-layer-long":
            man["first_layer"] = first + first[:1]
        elif case == "first-layer-lengthscales":
            first[1]["lengthscales"] *= 2
        else:
            man["second_layer"]["lengthscales"] = man["second_layer"]["lengthscales"][:2]
        (path / "manifest.json").write_text(json.dumps(man))
        with pytest.raises(ValueError, match=re.escape(str(path / "manifest.json"))):
            load_emulator(str(path))

    def test_older_csv_layout_refused(self, tmp_path):
        # a directory saved before the arrays were .npy files: its manifest
        # still parses, but no array is read from its CSV files
        em, path = self.saved(tmp_path)
        for name in SAVED_FILES:
            if name.endswith(".npy"):
                (path / name).unlink()
        np.savetxt(path / "training_inputs.csv", em.train_X, delimiter=",")
        np.savetxt(path / "training_outputs.csv", em.train_y, delimiter=",")
        cells = [f"{s},{r},{c},{em.draws[s, r, c]!r},{int(em.latent_mask[r, c])}\n"
                 for s, r, c in np.ndindex(em.draws.shape)]
        (path / "imputations.csv").write_text("".join(["draw,row,col,value,fixed\n"] + cells))
        with pytest.raises(FileNotFoundError, match="training_inputs.npy"):
            load_emulator(str(path))

    @staticmethod
    def legacy_save(tmp_path, first_family="squared_exponential",
                    output_family="squared_exponential"):
        """Save an emulator with keys that older manifests carried: per-entry
        kernel family keys, from when the package had a second kernel family,
        the linked-prediction clamp count, and an architecture section with
        per-node kernels that loading never read."""
        em = train_sem(masked_window(seed=11), small_arch(), FAST_SEM, 4)
        path = tmp_path / "em"
        save_emulator(em, str(path))
        man = json.loads((path / "manifest.json").read_text())
        man["architecture"] = {
            "input_dims": 1,
            "latent_kernels": [{"name": name, "lengthscales": [0.2]}
                               for name in man["latent_nodes"]],
            "output_kernel": {"name": man["output_node"],
                              "lengthscales": [1.0] * len(man["latent_nodes"])},
        }
        for entry in man["first_layer"] + man["architecture"]["latent_kernels"]:
            entry["family"] = first_family
        for entry in (man["second_layer"], man["architecture"]["output_kernel"]):
            entry["family"] = output_family
        man["clamp_count"] = 0
        (path / "manifest.json").write_text(json.dumps(man))
        return em, path

    def test_loads_legacy_se_manifest(self, tmp_path):
        em, path = self.legacy_save(tmp_path)
        back = load_emulator(str(path))
        assert back.manifest() == em.manifest()
        assert back.architecture == em.architecture
        assert predict_ensemble(back, [0.4]) == predict_ensemble(em, [0.4])

    @pytest.mark.parametrize("layer", ["first", "output"])
    def test_refuses_legacy_non_se_family(self, tmp_path, layer):
        _, path = self.legacy_save(tmp_path, **{f"{layer}_family": "matern_2_5"})
        with pytest.raises(ValueError, match="matern_2_5"):
            load_emulator(str(path))
