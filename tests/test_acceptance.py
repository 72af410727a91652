"""End-to-end acceptance checks: exactness, oracle equivalence, sampler
correctness, benchmark orderings, and reproducibility.

Each test prints into the terminal summary (see conftest) as one pass/fail
line and enforces its own wall-clock budget.
"""

import time

import numpy as np
import pytest

from gpimpute.data import (
    SyntheticConfig,
    apply_mask,
    generate_synthetic_window,
    make_mask_plan,
    standardise,
)
from gpimpute.dgp import SEMConfig, predict_ensemble, train_sem
from gpimpute.experiment import ExperimentConfig, default_architecture, run_experiment, write_report
from gpimpute.gp import (
    FitConfig,
    GPHyperparams,
    fit_gp,
    make_fitted_gp,
    predict_batch,
)
from gpimpute.kernels import KernelSpec, expect_k, expect_kk
from gpimpute.linked import propagate_moments


def se_hyper(lengthscales, scale=1.0, nugget=1e-8):
    return GPHyperparams(
        kernel=KernelSpec(np.atleast_1d(np.asarray(lengthscales, dtype=float))),
        scale=scale,
        nugget=nugget,
    )


def elapsed_under(t0, limit):
    dt = time.perf_counter() - t0
    assert dt < limit, f"runtime {dt:.1f}s exceeded the {limit}s budget"


def test_criterion_01_gp_exactness():
    """Training outputs reproduced at a tiny nugget; posterior variance never
    exceeds the prior. Budget: 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    # exact reproduction at eta = 1e-8
    for _ in range(50):
        n = int(rng.integers(3, 12))
        # point spacing >= 0.05 with short lengthscales keeps R well conditioned,
        # so the tiny nugget really is an interpolation regime
        X = np.sort(rng.choice(np.linspace(0, 1, 21), size=n, replace=False))[:, None]
        y = rng.standard_normal(n)
        hyper = se_hyper(rng.uniform(0.04, 0.1), rng.uniform(0.5, 2.0), 1e-8)
        model = make_fitted_gp(X, y, hyper)
        mean, _ = predict_batch(model, X)
        assert np.max(np.abs(mean - y)) < 1e-6
    # posterior <= prior variance on 1000 random cases
    cases = 0
    while cases < 1000:
        n = int(rng.integers(2, 15))
        X = rng.uniform(0, 1, (n, 1))
        y = rng.standard_normal(n)
        hyper = se_hyper(rng.uniform(0.1, 1.0), rng.uniform(0.5, 3.0), rng.uniform(0, 0.2))
        model = make_fitted_gp(X, y, hyper)
        x0 = rng.uniform(-0.5, 1.5, (25, 1))
        _, var = predict_batch(model, x0)
        prior = hyper.scale * (1 + hyper.nugget)
        assert np.all(var <= prior + 1e-10)
        cases += 25
    elapsed_under(t0, 10)


def test_criterion_02_linked_gp_oracle():
    """Closed-form propagation matches a 1e6-sample Monte Carlo oracle on 20
    random two-layer systems. Budget: 5 min."""
    t0 = time.perf_counter()
    n_mc = 1_000_000
    chunk = 200_000
    for case in range(20):
        rng = np.random.default_rng(1000 + case)
        P = int(rng.integers(1, 4))
        N = int(rng.integers(5, 31))
        W = rng.uniform(-1, 1, (N, P))
        y = np.sin(W.sum(axis=1)) + 0.1 * rng.standard_normal(N)
        hyper = se_hyper(rng.uniform(0.5, 1.5, P), rng.uniform(0.5, 2.0),
                         rng.uniform(1e-6, 0.1))
        model = make_fitted_gp(W, y, hyper)
        m = rng.uniform(-1, 1, P)
        v = rng.uniform(0.01, 0.2, P)

        mu, var = propagate_moments(hyper, W, model.alpha, model.corr.inverse(), m, v)

        mc_rng = np.random.default_rng(5000 + case)  # oracle stream, fixed
        sum_m = sum_m2 = sum_v = 0.0
        for _ in range(n_mc // chunk):
            Ws = m + np.sqrt(v) * mc_rng.standard_normal((chunk, P))
            mc_m, mc_v = predict_batch(model, Ws)
            sum_m += mc_m.sum()
            sum_m2 += (mc_m**2).sum()
            sum_v += mc_v.sum()
        mix_mean = sum_m / n_mc
        mean_var = sum_m2 / n_mc - mix_mean**2  # variance of the component means
        mix_var = mean_var + sum_v / n_mc
        se_mean = np.sqrt(mean_var / n_mc)
        assert abs(mu - mix_mean) < max(3 * se_mean, 1e-9), f"case {case}"
        assert abs(var - mix_var) / mix_var < 0.01, f"case {case}"
    elapsed_under(t0, 300)


def test_criterion_03_closed_form_expectations():
    """Kernel expectations match 64-node Gauss-Hermite quadrature to 1e-10 on a
    100-case grid. Budget: 5 s."""
    t0 = time.perf_counter()
    nodes, weights = np.polynomial.hermite.hermgauss(64)

    def gh(f, m, v):
        return float(np.sum(weights * f(m + np.sqrt(2 * v) * nodes)) / np.sqrt(np.pi))

    rng = np.random.default_rng(2)
    for case in range(50):
        l = rng.uniform(0.7, 2.0)
        m, v = rng.uniform(-1, 1), rng.uniform(0, 0.4)
        w = rng.uniform(-1, 1)
        spec = KernelSpec(np.array([l]))
        ref = gh(lambda x: np.exp(-((x - w) ** 2) / l**2), m, v)
        assert abs(expect_k(spec, m, v, w) - ref) < 1e-10
    for case in range(50):
        l = rng.uniform(0.7, 2.0)
        m, v = rng.uniform(-1, 1), rng.uniform(0, 0.4)
        wi, wj = rng.uniform(-1, 1, 2)
        spec = KernelSpec(np.array([l]))
        ref = gh(
            lambda x: np.exp(-((x - wi) ** 2) / l**2) * np.exp(-((x - wj) ** 2) / l**2),
            m, v,
        )
        assert abs(expect_kk(spec, m, v, wi, wj) - ref) < 1e-10
    elapsed_under(t0, 5)


def test_criterion_04_ess_correctness():
    """ESS recovers the conjugate Gaussian posterior within 2% and the prior
    under a flat likelihood within 3%. Budget: 2 min."""
    from gpimpute.dgp import ess_update

    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    obs, s2 = 1.2, 0.5
    post_var = 1.0 / (1.0 + 1.0 / s2)
    post_mean = post_var * obs / s2
    loglik = lambda x: -0.5 * (obs - x[0]) ** 2 / s2
    x = np.zeros(1)
    draws = np.empty(50_000)
    for i in range(50_000):
        x = ess_update([0.0], [[1.0]], x, loglik, rng)
        draws[i] = x[0]
    assert abs(draws.mean() - post_mean) / abs(post_mean) < 0.02
    assert abs(draws.var() - post_var) / post_var < 0.02

    x = np.array([1.5])
    flat = np.empty(30_000)
    for i in range(30_000):
        x = ess_update([1.5], [[2.0]], x, lambda z: 0.0, rng)
        flat[i] = x[0]
    assert abs(flat.mean() - 1.5) < 0.03 * 2.0
    assert abs(flat.std() - 2.0) / 2.0 < 0.03
    elapsed_under(t0, 120)


def _masked_window(seed, proportion=0.3):
    cfg = SyntheticConfig(min_length=20, max_length=35)
    table = generate_synthetic_window(cfg, np.random.default_rng(seed)).table
    plan = make_mask_plan(table, proportion, table.covariate_names, seed=seed + 500)
    return apply_mask(table, plan)


def test_criterion_05_mixture_identities():
    """Ensemble mixture moments re-derive from the components to 1e-12; a
    single-imputation ensemble collapses exactly."""
    fast = SEMConfig(iterations=4, burn_in=2, ess_sweeps=1, n_imputations=8,
                     fit=FitConfig(n_starts=2, seed=0))
    table = _masked_window(10)
    em = train_sem(table, default_architecture(table), fast, 0)
    for x0 in ([0.1], [0.35], [0.8]):
        pred = predict_ensemble(em, x0)
        means = np.array([c.mean for c in pred.components])
        variances = np.array([c.variance for c in pred.components])
        mu = means.mean()
        var = max(np.mean(means**2 + variances) - mu**2, 0.0)
        assert abs(pred.mixture.mean - mu) <= 1e-12
        assert abs(pred.mixture.variance - var) <= 1e-12

    single = SEMConfig(iterations=4, burn_in=2, ess_sweeps=1, n_imputations=1,
                       fit=FitConfig(n_starts=2, seed=0))
    em1 = train_sem(table, default_architecture(table), single, 1)
    pred = predict_ensemble(em1, [0.5])
    assert pred.mixture.mean == pred.components[0].mean
    assert pred.mixture.variance == pytest.approx(pred.components[0].variance, abs=1e-15)


def test_criterion_06_sem_noop_reduction():
    """With fully observed latents, SEM equals independent per-node ML fits."""
    cfg = SyntheticConfig(min_length=20, max_length=35)
    table = generate_synthetic_window(cfg, np.random.default_rng(20)).table
    fit_cfg = FitConfig(n_starts=3, seed=0)
    sem = SEMConfig(iterations=6, burn_in=3, ess_sweeps=2, n_imputations=5, fit=fit_cfg)
    em = train_sem(table, default_architecture(table), sem, 0)
    X = table.times[:, None]
    for p, name in enumerate(table.covariate_names):
        direct = fit_gp(X, table.column(name)[0], fit_cfg)
        assert np.array_equal(em.first_hyper[p].kernel.lengthscales,
                              direct.hyper.kernel.lengthscales)
        assert em.first_hyper[p].scale == direct.hyper.scale
        assert em.first_hyper[p].nugget == direct.hyper.nugget
    latents = np.column_stack([table.column(c)[0] for c in table.covariate_names])
    direct2 = fit_gp(latents, table.column(table.output_name)[0], fit_cfg)
    assert np.array_equal(em.second_hyper.kernel.lengthscales,
                          direct2.hyper.kernel.lengthscales)
    assert em.second_hyper.scale == direct2.hyper.scale
    assert em.second_hyper.nugget == direct2.hyper.nugget


BENCH_SYNTHETIC = SyntheticConfig()  # full-range window lengths
BENCH_FIT = FitConfig(n_starts=3, seed=0)
BENCH_SEM = SEMConfig(iterations=40, burn_in=20, ess_sweeps=3, n_imputations=20,
                      fit=FitConfig(n_starts=2, seed=0))


def test_criterion_07_covariate_imputation_ordering():
    """Covariate imputation at 10%/20% masking: the deep-GP ensemble beats
    MICE and LOCF in at least 4 of 5 seeded replications. Budget: 30 min."""
    t0 = time.perf_counter()
    wins = 0
    reps = 5
    for rep in range(reps):
        config = ExperimentConfig(
            mode="impute-covariates",
            methods=("locf", "mice", "dgpsi"),
            proportions=(0.1, 0.2),
            n_windows=20,
            seed=100 + rep,
            synthetic=BENCH_SYNTHETIC,
            fit=BENCH_FIT,
            sem=BENCH_SEM,
        )
        report = run_experiment(config)
        assert report.failures == [], report.failures
        ok = True
        for prop in config.proportions:
            dgp = report.lookup("dgpsi", prop).mean_mae
            mice = report.lookup("mice", prop).mean_mae
            locf = report.lookup("locf", prop).mean_mae
            ok = ok and dgp < mice and dgp < locf
        wins += ok
    assert wins >= 4, f"ordering held in only {wins}/{reps} replications"
    elapsed_under(t0, 1800)


def test_criterion_08_output_prediction_ordering():
    """Output prediction from time alone: GP interpolation <= deep GP <= MICE
    mean MAE in at least 4 of 5 replications. Budget: 15 min."""
    t0 = time.perf_counter()
    wins = 0
    reps = 5
    for rep in range(reps):
        config = ExperimentConfig(
            mode="predict-output",
            methods=("mice", "gp", "dgpsi"),
            proportions=(0.1, 0.2),
            n_windows=20,
            seed=200 + rep,
            synthetic=BENCH_SYNTHETIC,
            fit=BENCH_FIT,
            sem=BENCH_SEM,
        )
        report = run_experiment(config)
        assert report.failures == [], report.failures
        # aggregate over the two proportions, as in the figure-level comparison
        def mean_over_props(method):
            return np.mean([report.lookup(method, p).mean_mae for p in config.proportions])

        gp = mean_over_props("gp")
        dgp = mean_over_props("dgpsi")
        mice = mean_over_props("mice")
        wins += gp <= dgp <= mice
    assert wins >= 4, f"ordering held in only {wins}/{reps} replications"
    elapsed_under(t0, 900)


def test_criterion_09_uncertainty_coupling():
    """Interval-masking all covariates inflates the target covariate's
    posterior spread relative to masking the target alone, in >= 8/10 seeds.

    Hyperparameters are fixed at complete-data ML fits for both scenarios so
    the comparison isolates the latent posterior rather than refit noise, and
    the spread is measured directly on thinned latent draws over the masked
    interval."""
    from gpimpute.dgp import LatentState, impute_latents

    t0 = time.perf_counter()
    fit_cfg = FitConfig(n_starts=3, seed=0)
    cfg = SyntheticConfig(min_length=60, max_length=90)
    hits = 0
    for seed in range(10):
        table = generate_synthetic_window(cfg, np.random.default_rng(300 + seed)).table
        std, _ = standardise(table)
        X = std.times[:, None]
        cov_names = std.covariate_names
        lat = np.column_stack([std.column(c)[0] for c in cov_names])
        y = std.column(std.output_name)[0]
        first_hyper = [fit_gp(X, lat[:, p], fit_cfg).hyper for p in range(3)]
        second_hyper = fit_gp(lat, y, fit_cfg).hyper
        li = cov_names.index("lactate")
        rows = np.array([i for i, t in enumerate(std.times) if 0.3 <= t <= 0.7])
        spread = {}
        for label, targets in (("one", ["lactate"]), ("all", cov_names)):
            mask = np.ones_like(lat, dtype=bool)
            for c in targets:
                mask[rows, cov_names.index(c)] = False
            rng = np.random.default_rng([seed, 42])
            state = LatentState(
                X=X, y=y, latent_obs=lat, latent_mask=mask,
                first_hyper=first_hyper, second_hyper=second_hyper,
                initial_latents=lat.copy(),
            )
            for _ in range(50):
                state.sweep(rng)
            draws = []
            for _ in range(200):
                draws.append(impute_latents(state, rng, sweeps=4)[rows, li])
            spread[label] = float(np.mean(np.asarray(draws).var(axis=0)))
        hits += spread["all"] >= spread["one"]
    assert hits >= 8, f"coupling held in only {hits}/10 seeds"
    elapsed_under(t0, 600)


def test_criterion_10_report_determinism(tmp_path):
    """A report regenerated from the same manifest/config is bitwise identical."""
    config = ExperimentConfig(
        mode="predict-output",
        methods=("locf", "mice", "gp", "dgpsi"),
        proportions=(0.2,),
        n_windows=3,
        seed=7,
        synthetic=SyntheticConfig(min_length=20, max_length=35),
        fit=FitConfig(n_starts=2, seed=0),
        sem=SEMConfig(iterations=4, burn_in=2, ess_sweeps=1, n_imputations=4,
                      fit=FitConfig(n_starts=2, seed=0)),
    )
    r1 = run_experiment(config)
    # rebuild the config from the emitted manifest, as a consumer would
    man = r1.manifest
    config2 = ExperimentConfig(
        mode=man["mode"],
        methods=tuple(man["methods"]),
        proportions=tuple(man["proportions"]),
        n_windows=man["n_windows"],
        seed=man["seed"],
        whole_row_masking=man["whole_row_masking"],
        synthetic=SyntheticConfig(**{
            **man["synthetic"],
            "latent_lengthscale_range": tuple(man["synthetic"]["latent_lengthscale_range"]),
            "readout_weights": tuple(man["synthetic"]["readout_weights"]),
            "covariate_names": tuple(man["synthetic"]["covariate_names"]),
        }),
        fit=FitConfig(
            n_starts=man["fit"]["n_starts"], seed=man["fit"]["seed"],
            max_iter=man["fit"]["max_iter"],
            lengthscale_range=tuple(man["fit"]["lengthscale_range"]),
            nugget_bounds=tuple(man["fit"]["nugget_bounds"]),
        ),
        sem=SEMConfig(**{
            **man["sem"],
            "fit": FitConfig(**{
                **man["sem"]["fit"],
                "lengthscale_range": tuple(man["sem"]["fit"]["lengthscale_range"]),
                "nugget_bounds": tuple(man["sem"]["fit"]["nugget_bounds"]),
            }),
        }),
    )
    r2 = run_experiment(config2)
    assert r1.to_json() == r2.to_json()

    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_report(r1, str(d1))
    write_report(r2, str(d2))
    for name in ("report.json", "results.csv", "predictions.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
