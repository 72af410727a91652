import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gpimpute import gp, kernels
from gpimpute.gp import (
    DegenerateDataError,
    FitConfig,
    FitFailureError,
    GPHyperparams,
    _log_bounds,
    _PreparedSEObjective,
    fit_gp,
    log_marginal_likelihood,
    make_fitted_gp,
    minimize,
    predict,
    predict_batch,
    refit_gp,
)
from gpimpute.kernels import DimensionMismatchError, KernelSpec, build_correlation


def se_hyper(l, scale=1.0, nugget=0.0):
    return GPHyperparams(kernel=KernelSpec(np.atleast_1d(l)), scale=scale, nugget=nugget)


def sample_gp(rng, X, l, scale, nugget):
    corr = build_correlation(KernelSpec(np.atleast_1d(l)), nugget, X)
    return np.sqrt(scale) * (corr.chol @ rng.standard_normal(len(X)))


def log_theta(hyper):
    return np.append(np.log(hyper.kernel.lengthscales), np.log(hyper.nugget))


def drifting_outputs(n, d, steps, seed):
    """Inputs and steps + 1 outputs, each the last plus a little noise: the
    problems that successive SEM refits of one node solve."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, d))
    ys = [sample_gp(rng, X, [0.4] * d, 1.0, 0.01)]
    for _ in range(steps):
        ys.append(ys[-1] + 0.05 * rng.standard_normal(n))
    return X, ys


class TestFit:
    def test_synthetic_recovery(self):
        # lengthscale recovered within factor 2 in at least 8/10 seeds
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.uniform(0, 1, (200, 1))
            y = sample_gp(rng, X, 0.5, 1.0, 0.01)
            model = fit_gp(X, y, FitConfig(seed=seed))
            l_hat = model.hyper.kernel.lengthscales[0]
            if 0.25 <= l_hat <= 1.0:
                hits += 1
        assert hits >= 8

    def test_scaled_output_profile_identity(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (50, 1))
        y = sample_gp(rng, X, 0.3, 1.0, 0.05)
        c = 3.7
        m1 = fit_gp(X, y, FitConfig(seed=2))
        m2 = fit_gp(X, c * y, FitConfig(seed=2))
        # the profiled objective is invariant to output scaling, so the fits
        # agree up to optimizer floating-point noise and the scale picks up c^2
        assert np.allclose(m2.hyper.kernel.lengthscales, m1.hyper.kernel.lengthscales, rtol=1e-4)
        assert m2.hyper.nugget == pytest.approx(m1.hyper.nugget, rel=1e-4)
        assert m2.hyper.scale == pytest.approx(c**2 * m1.hyper.scale, rel=1e-4)
        # at identical hyperparameters the profiled scale identity is exact
        corr = build_correlation(m1.hyper.kernel, m1.hyper.nugget, X)
        quad = y @ corr.solve(y)
        quad_scaled = (c * y) @ corr.solve(c * y)
        assert quad_scaled == pytest.approx(c**2 * quad, rel=1e-12)

    def test_two_point_smoke(self):
        model = fit_gp([[0.0], [1.0]], [0.0, 1.0], FitConfig(seed=0))
        for x, target in [(0.0, 0.0), (1.0, 1.0)]:
            pred = predict(model, [x])
            assert abs(pred.mean - target) < 0.3

    def test_all_constant_y(self):
        with pytest.raises(DegenerateDataError):
            fit_gp([[0.0], [1.0], [2.0]], [5.0, 5.0, 5.0])

    def test_determinism(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (30, 1))
        y = sample_gp(rng, X, 0.4, 1.0, 0.01)
        m1 = fit_gp(X, y, FitConfig(seed=5))
        m2 = fit_gp(X, y, FitConfig(seed=5))
        assert np.array_equal(m1.hyper.kernel.lengthscales, m2.hyper.kernel.lengthscales)
        assert m1.hyper.scale == m2.hyper.scale
        assert m1.hyper.nugget == m2.hyper.nugget

    @pytest.mark.parametrize(
        "n, d, theta, repeated",
        [
            (25, 2, [np.log(0.4), np.log(0.9), np.log(0.02)], False),
            # first-layer shape at the largest window length
            (115, 1, [np.log(0.1), np.log(0.02)], False),
            # second-layer shape: three latent inputs
            (40, 3, [np.log(0.6)] * 3 + [np.log(0.05)], False),
            # the same, with rows 1 and 7 repeating rows 0 and 3
            (40, 3, [np.log(0.6)] * 3 + [np.log(0.05)], True),
        ],
        ids=["n25-d2", "n115-d1", "n40-d3", "n40-d3-repeated-rows"],
    )
    def test_gradient_matches_finite_differences(self, n, d, theta, repeated):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (n, d))
        if repeated:
            X[[1, 7]] = X[[0, 3]]
        y = rng.standard_normal(n)
        obj = _PreparedSEObjective(X, y)
        theta = np.array(theta)
        value, grad = obj(theta)
        # the profiled NLL is -log ML at sigma^2 = q / N, less its constant
        ls, nugget = np.exp(theta[:-1]), np.exp(theta[-1])
        corr = build_correlation(KernelSpec(ls), nugget, X)
        assert corr.jitter_applied == 0
        hyper = GPHyperparams(kernel=KernelSpec(ls), scale=y @ corr.solve(y) / n, nugget=nugget)
        reference = -log_marginal_likelihood(X, y, hyper) - 0.5 * n * (1 + np.log(2 * np.pi))
        assert value == pytest.approx(reference, rel=1e-10)
        # and independently of the package: numpy's slogdet and solve of K + nugget * I
        R = np.exp(-np.sum(((X[:, None, :] - X[None, :, :]) / ls) ** 2, axis=-1))
        R += nugget * np.eye(n)
        sign, logdet = np.linalg.slogdet(R)
        assert sign == 1
        numpy_nll = 0.5 * n * np.log(y @ np.linalg.solve(R, y) / n) + 0.5 * logdet
        assert value == pytest.approx(numpy_nll, rel=1e-10)
        for k in range(len(theta)):
            e = np.zeros_like(theta)
            e[k] = 1e-6
            fd = (obj(theta + e)[0] - obj(theta - e)[0]) / 2e-6
            assert abs(grad[k] - fd) / max(abs(fd), 1e-12) < 1e-5

    def test_refit_honours_fit_config_bounds(self):
        # the data favour a lengthscale near 0.1 and a tiny nugget; the refit
        # must stay inside the narrower box the config asks for
        X = np.linspace(0, 1, 30)[:, None]
        y = np.sin(12.0 * X[:, 0])
        config = FitConfig(lengthscale_range=(0.5, 0.6), nugget_bounds=(1e-3, 1e-2))
        model = refit_gp(X, y, se_hyper(0.1, 1.0, 1e-6), max_iter=50, config=config)
        assert 0.5 * (1 - 1e-12) <= model.hyper.kernel.lengthscales[0] <= 0.6 * (1 + 1e-12)
        assert 1e-3 * (1 - 1e-12) <= model.hyper.nugget <= 1e-2 * (1 + 1e-12)

    @pytest.mark.parametrize("bounds, nugget, start", [
        ((1e-12, 1.0), 1e-10, 1e-10),
        ((1e-12, 1.0), 1e-14, 1e-12),
        ((1e-8, 1.0), 1e-10, 1e-8),
        ((1e-8, 1e-2), 0.5, 1e-2),
    ], ids=["inside-box-below-default-floor", "below-box", "below-default-box", "above-box"])
    def test_refit_starts_from_nugget_clipped_into_config_bounds(self, monkeypatch, bounds,
                                                                 nugget, start):
        starts = []
        real = gp.minimize

        def spy(objective, x0, *args):
            starts.append(np.array(x0))
            return real(objective, x0, *args)

        monkeypatch.setattr(gp, "minimize", spy)
        X = np.linspace(0, 1, 12)[:, None]
        refit_gp(X, np.sin(5.0 * X[:, 0]), se_hyper(0.3, 1.0, nugget), max_iter=3,
                 config=FitConfig(nugget_bounds=bounds))
        assert len(starts) == 1
        assert starts[0].tolist() == [np.log(0.3), np.log(start)]

    @pytest.mark.parametrize("low", [1e-300, 1e-17, np.finfo(float).eps / 2])
    def test_nugget_floor_below_double_spacing_refused(self, low):
        # below the spacing of doubles at 1, 1 + nugget can round to 1: no
        # nugget, and identical rows make R singular
        with pytest.raises(ValueError, match="nugget_bounds"):
            FitConfig(nugget_bounds=(low, 1.0))
        FitConfig(nugget_bounds=(np.finfo(float).eps, 1.0))


class TestOptimizer:
    """The projected BFGS behind fit_gp and refit_gp, against scipy's L-BFGS-B
    (the ``lbfgsb`` fixture)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n, d", [(40, 1), (30, 3)])
    def test_best_of_starts_matches_lbfgsb(self, monkeypatch, lbfgsb, n, d, seed):
        X, (y,) = drifting_outputs(n, d, 0, seed)
        starts = []
        def spy(objective, x0, lo, hi, maxiter, hess_inv0=None):
            starts.append((np.array(x0), np.array(lo), np.array(hi)))
            return minimize(objective, x0, lo, hi, maxiter, hess_inv0)

        monkeypatch.setattr(gp, "minimize", spy)
        config = FitConfig(seed=seed)
        model = fit_gp(X, y, config)
        assert len(starts) == config.n_starts
        oracle = min(lbfgsb(X, y, t0, lo, hi, config.max_iter).fun for t0, lo, hi in starts)
        nll = _PreparedSEObjective(X, y)(log_theta(model.hyper))[0]
        assert nll == pytest.approx(oracle, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("n, d", [(40, 1), (115, 1), (40, 3), (115, 3)])
    def test_carried_curvature_same_optimum_fewer_evaluations(self, lbfgsb, n, d):
        X, ys = drifting_outputs(n, d, 6, seed=n + d)
        config = FitConfig()
        lo, hi = _log_bounds(X, config)
        first = fit_gp(X, ys[0], config)
        theta, hess_inv = log_theta(first.hyper), first.hess_inv
        carried_evals = fresh_evals = 0
        for y in ys[1:]:
            carried = minimize(_PreparedSEObjective(X, y), theta, lo, hi, 50, hess_inv)
            fresh = minimize(_PreparedSEObjective(X, y), theta, lo, hi, 50)
            oracle = lbfgsb(X, y, theta, lo, hi, 50)
            assert carried.fun <= oracle.fun + 1e-8 * abs(oracle.fun)
            assert carried.fun == pytest.approx(fresh.fun, rel=1e-7)
            carried_evals += carried.nfev
            fresh_evals += fresh.nfev
            theta, hess_inv = carried.x, carried.hess_inv
        assert carried_evals < fresh_evals

    def test_refit_model_is_the_rebuilt_model(self):
        # the refit's model comes from the optimizer's own factor, not a rebuild
        X, (y0, y1) = drifting_outputs(40, 3, 1, seed=5)
        first = fit_gp(X, y0)
        model = refit_gp(X, y1, first.hyper, hess_inv0=first.hess_inv)
        ref = make_fitted_gp(X, y1, model.hyper)
        assert model.hyper.scale == pytest.approx(y1 @ ref.alpha / 40, rel=1e-10)
        # both factors are of R at the refit's hyperparameters
        R = kernels._correlation_values(
            kernels.scaled_sq_dist(model.hyper.kernel, X, X), model.hyper.nugget)
        for fitted in (model, ref):
            L = fitted.corr.chol
            np.testing.assert_allclose(L @ L.T, R, rtol=0, atol=1e-14)
        np.testing.assert_allclose(model.alpha, ref.alpha, rtol=1e-8)
        X0 = np.random.default_rng(6).uniform(0, 1, (5, 3))
        for got, want in zip(predict_batch(model, X0), predict_batch(ref, X0)):
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)

    def test_active_bounds_hold_exactly(self):
        # the data want a shorter lengthscale and a smaller nugget than the box allows
        X = np.linspace(0, 1, 30)[:, None]
        y = np.sin(12.0 * X[:, 0])
        lo, hi = _log_bounds(X, FitConfig(lengthscale_range=(0.5, 0.6), nugget_bounds=(1e-3, 1e-2)))
        res = minimize(_PreparedSEObjective(X, y), np.log([0.55, 3e-3]), lo, hi, 50)
        assert res.success
        assert np.array_equal(res.x, lo)

    def test_unfactorable_start_returns_without_error(self, monkeypatch):
        # identical rows, the jitter ladder capped and a nugget lost in 1's
        # round-off: R cannot be factored anywhere in the box, which no
        # FitConfig allows, so the box is given directly
        monkeypatch.setattr(kernels, "JITTER_MAX", 0.0)
        X = np.array([[0.2], [0.2], [0.7]])
        y = np.array([0.1, -0.4, 0.3])
        lo, hi = np.log([0.005, 1e-300]), np.log([5.0, 1e-300])
        res = minimize(_PreparedSEObjective(X, y), np.log([0.5, 1e-300]), lo, hi, 50)
        assert res.fun == np.inf and not res.success and res.nfev == 1
        # under a valid config, y = 0 has quadratic form 0 (a profiled scale of
        # 0), so every objective evaluation of the refit is inf
        with pytest.raises(FitFailureError, match="no finite objective"):
            refit_gp(X, np.zeros(3), se_hyper(0.5, nugget=1e-3), config=FitConfig())

    def test_non_finite_trial_is_a_failed_step(self):
        X, (y,) = drifting_outputs(40, 1, 0, seed=3)
        objective = _PreparedSEObjective(X, y)
        lo, hi = _log_bounds(X, FitConfig())
        start = np.log([0.05, 1e-2])
        free = minimize(objective, start, lo, hi, 50)
        cap = 0.5 * (start[0] + free.x[0])  # between the start and the optimum

        def capped(theta):
            return (np.inf, np.zeros_like(theta)) if theta[0] > cap else objective(theta)

        res = minimize(capped, start, lo, hi, 50)
        assert np.isfinite(res.fun) and res.x[0] <= cap
        assert res.fun < objective(start)[0]

    def test_bookkeeping_sums_as_numpy_does(self):
        # the optimizer's float sums over D + 1 <= 4 terms round as numpy's do,
        # so it steps as the array version it replaced did
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n = int(rng.integers(1, 5))
            u, v = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-6, 6, (2, n))
            assert gp._dot(u.tolist(), v.tolist()) == float((u * v).sum())

    def test_result_fields_read_by_the_tracer(self):
        X, (y,) = drifting_outputs(25, 2, 0, seed=7)
        lo, hi = _log_bounds(X, FitConfig())
        res = minimize(_PreparedSEObjective(X, y), np.log([0.3, 0.3, 1e-2]), lo, hi, 50)
        assert type(res.nfev) is int and type(res.nit) is int and type(res.success) is bool
        assert res.success and res.nfev > res.nit > 0
        assert res.hess_inv.shape == (3, 3)
        assert np.allclose(res.hess_inv, res.hess_inv.T)
        assert np.all(np.linalg.eigvalsh(res.hess_inv) > 0)


def scipy_modules_loaded_after(body: str, packages: tuple[str, ...]) -> list[str]:
    """The modules of ``packages`` loaded in a fresh interpreter after importing
    gpimpute and its CLI, then running ``body``."""
    import gpimpute

    src = os.path.dirname(os.path.dirname(os.path.abspath(gpimpute.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import gpimpute, gpimpute.cli\n"
            f"{body}\n"
            "import json\n"
            f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({packages!r}))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# the optimizer and the squared distances are the package's own, and LAPACK/BLAS
# come straight from scipy's compiled modules, so start-up need not pay for
# importing scipy.optimize, scipy.spatial or the scipy.linalg package (with its
# array-API shim)
UNUSED_SCIPY = ("scipy.optimize", "scipy.spatial", "scipy.linalg", "scipy._lib._array_api")


@pytest.mark.parametrize("package", UNUSED_SCIPY)
def test_import_leaves_scipy_module_unloaded(package):
    assert scipy_modules_loaded_after("", (package,)) == []


def test_train_predict_save_load_leave_unused_scipy_unloaded():
    # a lazy import anywhere on the train, predict and save/load path would bring
    # the memory and start-up cost back
    body = """
import tempfile
import numpy as np
from gpimpute import data, dgp, gp, linked
table = data.generate_synthetic_window(data.SyntheticConfig(min_length=20, max_length=25),
                                       np.random.default_rng(0)).table
plan = data.make_mask_plan(table, 0.3, table.covariate_names, seed=100)
config = dgp.SEMConfig(iterations=2, burn_in=1, ess_sweeps=1, n_imputations=3,
                       fit=gp.FitConfig(n_starts=1, seed=0))
arch = linked.LayerArchitecture(("pco2", "sid", "lactate"), "ph")
em = dgp.train_sem(data.apply_mask(table, plan), arch, config, 0)
with tempfile.TemporaryDirectory() as tmp:
    dgp.save_emulator(em, tmp)
    loaded = dgp.load_emulator(tmp)
for e in (em, loaded):
    dgp.predict_ensemble(e, [0.4])
    dgp.impute_covariates(e, [0.2, 0.6], "sid")
"""
    assert scipy_modules_loaded_after(body, UNUSED_SCIPY) == []


@pytest.mark.parametrize("scipy_linalg_first", [False, True],
                         ids=["gpimpute-first", "scipy-linalg-first"])
def test_kernels_call_the_routines_scipy_linalg_exports(scipy_linalg_first):
    # either import order gives one set of compiled routines, and scipy.linalg
    # still binds its extension modules as attributes
    import gpimpute

    src = os.path.dirname(os.path.dirname(os.path.abspath(gpimpute.__file__)))
    imports = ["from gpimpute import kernels", "import scipy.linalg"]
    if scipy_linalg_first:
        imports.reverse()
    code = "\n".join([f"import sys; sys.path.insert(0, {src!r})", *imports, """
checks = {f: getattr(kernels.lapack, f) is getattr(scipy.linalg.lapack, f)
          for f in ("dpotrf", "dpotrs", "dtrtri")}
checks["dgemm"] = kernels.blas.dgemm is scipy.linalg.blas.dgemm
checks["_flapack"] = scipy.linalg._flapack.dpotrf is kernels.lapack.dpotrf
checks["_fblas"] = scipy.linalg._fblas.dgemm is kernels.blas.dgemm
print(sorted(name for name, same in checks.items() if not same))"""])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestOutputColumns:
    @staticmethod
    def data(s):
        rng = np.random.default_rng(11)
        X = np.sort(rng.uniform(0, 1, (25, 1)), axis=0)
        return X, np.column_stack([np.sin(3 * X[:, 0] + k) for k in range(s)])

    def test_multi_column_y_matches_single_column_fits(self):
        X, Y = self.data(4)
        hyper = se_hyper(0.3, scale=1.3, nugget=1e-4)
        X0 = np.linspace(-0.2, 1.2, 7)[:, None]
        mean, var = predict_batch(make_fitted_gp(X, Y, hyper), X0)
        assert mean.shape == (7, 4) and var.shape == (7,)
        for s in range(4):
            m_s, v_s = predict_batch(make_fitted_gp(X, Y[:, s], hyper), X0)
            np.testing.assert_allclose(mean[:, s], m_s, rtol=0, atol=1e-12)
            np.testing.assert_allclose(var, v_s, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("s", [1, 3, 4, 5, 8, 20, 21])
    @pytest.mark.parametrize("n", [19, 40, 80, 115])
    def test_repeated_columns_give_bitwise_equal_means(self, n, s):
        # a BLAS product rounds a column by where it sits in its blocks
        rng = np.random.default_rng(n)
        X = np.sort(rng.uniform(0, 1, (n, 1)), axis=0)
        Y = np.repeat(rng.standard_normal((n, 1)), s, axis=1)
        model = make_fitted_gp(X, Y, se_hyper(0.2, scale=1.3, nugget=1e-4))
        for m in (1, 2, 13, 46):
            mean, _ = predict_batch(model, rng.uniform(0, 1, (m, 1)))
            bits = mean.view(np.int64)
            assert (bits == bits[:, :1]).all(), (m, s)

    @pytest.mark.parametrize("n", [19, 40, 80, 115])
    def test_batch_is_bitwise_its_one_row_calls(self, n):
        rng = np.random.default_rng(n)
        X = np.sort(rng.uniform(0, 1, (n, 1)), axis=0)
        for Y in (rng.standard_normal(n), rng.standard_normal((n, 5)),
                  rng.standard_normal((n, 21))):
            model = make_fitted_gp(X, Y, se_hyper(0.2, scale=1.3, nugget=1e-4))
            for m in (2, 13, 46, 115):
                X0 = rng.uniform(0, 1, (m, 1))
                mean, var = predict_batch(model, X0)
                rows = [predict_batch(model, x[None, :]) for x in X0]
                assert mean.tobytes() == np.concatenate([r[0] for r in rows]).tobytes()
                assert var.tobytes() == np.concatenate([r[1] for r in rows]).tobytes()

    @pytest.mark.parametrize("fit", [
        lambda X, y: fit_gp(X, y, FitConfig(n_starts=1)),
        lambda X, y: refit_gp(X, y, se_hyper(0.3, nugget=1e-4)),
        lambda X, y: log_marginal_likelihood(X, y, se_hyper(0.3, nugget=1e-4)),
    ], ids=["fit_gp", "refit_gp", "log_marginal_likelihood"])
    def test_two_column_y_rejected(self, fit):
        X, Y = self.data(2)
        with pytest.raises(DimensionMismatchError, match=r"one output column.*\(25, 2\)"):
            fit(X, Y)

    def test_column_vector_y_flattened(self):
        X, Y = self.data(1)
        config = FitConfig(n_starts=2, seed=0)
        model = fit_gp(X, Y, config)
        assert model.training.y.shape == (25,)
        ref = fit_gp(X, Y[:, 0], config).hyper
        assert np.array_equal(model.hyper.kernel.lengthscales, ref.kernel.lengthscales)
        assert (model.hyper.scale, model.hyper.nugget) == (ref.scale, ref.nugget)


class TestPredict:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(0)
        # well-separated inputs keep R's condition number small enough that the
        # tiny nugget stays a true interpolation regime
        X = np.linspace(0, 1, 8)[:, None]
        y = rng.standard_normal(8)
        model = make_fitted_gp(X, y, se_hyper(0.3, 1.0, 1e-8))
        for i in range(8):
            pred = predict(model, X[i])
            assert abs(pred.mean - y[i]) < 1e-6

    def test_far_field_reverts_to_prior(self):
        model = make_fitted_gp([[0.0], [0.1]], [1.0, 1.2], se_hyper(0.1, 2.0, 0.05))
        pred = predict(model, [50.0])
        assert abs(pred.mean) < 1e-10
        assert pred.variance == pytest.approx(2.0 * 1.05, rel=1e-10)

    def test_single_point_hand_case(self):
        # N=1, X=[0], y=[2], l=1, scale=1, eta=0
        model = make_fitted_gp([[0.0]], [2.0], se_hyper(1.0, 1.0, 0.0))
        at0 = predict(model, [0.0])
        assert at0.mean == pytest.approx(2.0)
        assert at0.variance == pytest.approx(0.0, abs=1e-12)
        r = 0.8
        k = np.exp(-(r**2))
        far = predict(model, [r])
        assert far.mean == pytest.approx(2.0 * k, rel=1e-12)
        assert far.variance == pytest.approx(1.0 - k**2, rel=1e-12)

    def test_posterior_variance_below_prior(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = rng.integers(2, 15)
            X = rng.uniform(0, 1, (n, 1))
            y = rng.standard_normal(n)
            hyper = se_hyper(rng.uniform(0.1, 1.0), rng.uniform(0.5, 3.0), rng.uniform(0, 0.2))
            model = make_fitted_gp(X, y, hyper)
            x0 = rng.uniform(-1, 2, (20, 1))
            _, var = predict_batch(model, x0)
            assert np.all(var <= hyper.scale * (1 + hyper.nugget) + 1e-10)

    def test_linear_in_outputs(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (15, 1))
        y1 = rng.standard_normal(15)
        y2 = rng.standard_normal(15)
        hyper = se_hyper(0.3, 1.0, 0.01)
        x0 = [0.42]
        p1 = predict(make_fitted_gp(X, y1, hyper), x0)
        p2 = predict(make_fitted_gp(X, y2, hyper), x0)
        p12 = predict(make_fitted_gp(X, y1 + y2, hyper), x0)
        assert abs(p12.mean - (p1.mean + p2.mean)) < 1e-10

    def test_adding_point_never_raises_variance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = rng.integers(3, 10)
            X = rng.uniform(0, 1, (n, 1))
            y = rng.standard_normal(n)
            hyper = se_hyper(0.4, 1.0, 0.05)
            small = make_fitted_gp(X[:-1], y[:-1], hyper)
            big = make_fitted_gp(X, y, hyper)
            x0 = rng.uniform(0, 1, (10, 1))
            _, v_small = predict_batch(small, x0)
            _, v_big = predict_batch(big, x0)
            assert np.all(v_big <= v_small + 1e-8)


class TestLogMarginalLikelihood:
    def test_single_point_standard_normal(self):
        got = log_marginal_likelihood([[0.0]], [0.0], se_hyper(1.0, 1.0, 0.0))
        assert got == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_matches_dense_evaluation(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (12, 1))
        y = rng.standard_normal(12)
        hyper = se_hyper(0.3, 1.7, 0.04)
        got = log_marginal_likelihood(X, y, hyper)
        cov = hyper.scale * kernels._correlation_values(
            kernels.scaled_sq_dist(hyper.kernel, X, X), hyper.nugget)
        sign, logdet = np.linalg.slogdet(cov)
        dense = -0.5 * (len(y) * np.log(2 * np.pi) + logdet + y @ np.linalg.inv(cov) @ y)
        assert got == pytest.approx(dense, abs=1e-8)

    def test_scale_doubling_identity(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (10, 1))
        y = rng.standard_normal(10)
        h1 = se_hyper(0.3, 1.0, 0.05)
        h2 = se_hyper(0.3, 2.0, 0.05)
        l1 = log_marginal_likelihood(X, y, h1)
        l2 = log_marginal_likelihood(X, y, h2)
        corr = build_correlation(h1.kernel, h1.nugget, X)
        quad = y @ corr.solve(y)
        # doubling the scale shifts by -N/2 log 2 and halves the quadratic term
        assert l2 - l1 == pytest.approx(-5 * np.log(2) + quad / 4, abs=1e-8)
