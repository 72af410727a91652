import numpy as np
import pytest

from gpimpute.baselines import (
    MICEConfig,
    independent_gp_impute,
    locf_impute,
    mice_impute,
)
from gpimpute.data import EmptyColumnError, ObservationTable
from gpimpute.gp import FitConfig, fit_gp


def make_table(values, mask, names=None):
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    if names is None:
        names = ["y"] + [f"x{j}" for j in range(1, d)]
    roles = {names[0]: "output"}
    roles.update({c: "covariate" for c in names[1:]})
    return ObservationTable(
        times=np.linspace(0, 1, n),
        names=names,
        values=values,
        mask=np.asarray(mask, dtype=bool),
        roles=roles,
    )


def three_column_table():
    # y, x1 and x2 with gaps in all three; the calls below fill y and x1 only
    n = 24
    t = np.linspace(0, 1, n)
    values = np.column_stack([np.sin(4 * t), np.cos(3 * t), t**2])
    mask = np.ones_like(values, dtype=bool)
    mask[[0, 5, 6, 13], 0] = False
    mask[[2, 9, 20, 23], 1] = False
    mask[[4, 11], 2] = False
    return make_table(values, mask)


def assert_columns_match_one_column_calls(impute):
    table = three_column_table()
    both = impute(table, ["y", "x1"])
    for j, c in enumerate(["y", "x1"]):
        one = impute(table, [c])
        assert np.array_equal(both.filled.values[:, j], one.filled.values[:, j])
        assert both.filled.mask[:, j].all()
        if one.variance is None:
            assert both.variance is None
        else:
            assert np.array_equal(both.variance[:, j], one.variance[:, j], equal_nan=True)
    # x2 is left as it was
    assert np.array_equal(both.filled.values[:, 2], table.values[:, 2])
    assert np.array_equal(both.filled.mask[:, 2], table.mask[:, 2])
    if both.variance is not None:
        assert np.isnan(both.variance[:, 2]).all()


class TestLOCF:
    def test_carries_forward(self):
        vals = [[1.0, 0.0], [np.nan, 0.0], [3.0, 0.0], [np.nan, 0.0]]
        mask = [[True, True], [False, True], [True, True], [False, True]]
        out = locf_impute(make_table(vals, mask), ["y"])
        assert out.filled.values[:, 0].tolist() == [1.0, 1.0, 3.0, 3.0]
        assert out.filled.mask[:, 0].all()
        assert out.variance is None

    def test_leading_gap_backfills(self):
        vals = [[np.nan, 0.0], [np.nan, 0.0], [5.0, 0.0]]
        mask = [[False, True], [False, True], [True, True]]
        out = locf_impute(make_table(vals, mask), ["y"])
        assert out.filled.values[:, 0].tolist() == [5.0, 5.0, 5.0]

    def test_idempotent(self):
        vals = [[1.0, 0.0], [np.nan, 0.0], [3.0, 0.0]]
        mask = [[True, True], [False, True], [True, True]]
        once = locf_impute(make_table(vals, mask), ["y"])
        twice = locf_impute(once.filled, ["y"])
        assert np.array_equal(once.filled.values, twice.filled.values)

    def test_untouched_columns_preserved(self):
        vals = [[1.0, 9.0], [np.nan, np.nan], [3.0, 7.0]]
        mask = [[True, True], [False, False], [True, True]]
        out = locf_impute(make_table(vals, mask), ["y"])
        assert not out.filled.mask[1, 1]

    def test_columns_fill_as_one_column_calls(self):
        assert_columns_match_one_column_calls(locf_impute)

    def test_empty_column_error(self):
        vals = [[np.nan, 0.0], [np.nan, 0.0]]
        mask = [[False, True], [False, True]]
        with pytest.raises(EmptyColumnError):
            locf_impute(make_table(vals, mask), ["y"])


class TestMICE:
    def linear_table(self, rng, n=120, missing_frac=0.2):
        # y depends linearly on x1, x2 with small noise: MICE's model is exact
        t = np.linspace(0, 1, n)
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        y = 2.0 * x1 - 1.0 * x2 + 0.5 + 0.05 * rng.standard_normal(n)
        values = np.column_stack([y, x1, x2])
        mask = np.ones_like(values, dtype=bool)
        n_miss = int(missing_frac * n)
        miss_rows = rng.choice(n, n_miss, replace=False)
        mask[miss_rows, 0] = False
        truth = values.copy()
        values = values.copy()
        values[~mask] = np.nan
        table = ObservationTable(
            times=t, names=["y", "x1", "x2"], values=values, mask=mask,
            roles={"y": "output", "x1": "covariate", "x2": "covariate"},
        )
        return table, truth, miss_rows

    def test_recovers_exact_linear_relationship(self):
        rng = np.random.default_rng(0)
        table, truth, miss_rows = self.linear_table(rng)
        out = mice_impute(table, MICEConfig(seed=1))
        err = out.filled.values[miss_rows, 0] - truth[miss_rows, 0]
        # the residual sd of the generating model bounds the achievable error
        noise_sd = 0.05
        assert np.abs(err).mean() < 4 * noise_sd
        # across-imputation spread should be on the order of the noise
        assert np.nanmean(np.sqrt(out.variance[miss_rows, 0])) < 6 * noise_sd

    def test_zero_missing_identity(self):
        rng = np.random.default_rng(1)
        table, _, _ = self.linear_table(rng, missing_frac=0.0)
        out = mice_impute(table, MICEConfig(seed=0))
        assert np.array_equal(out.filled.values, table.values)

    def test_seed_determinism_and_metadata(self):
        rng = np.random.default_rng(2)
        table, _, _ = self.linear_table(rng)
        a = mice_impute(table, MICEConfig(seed=7))
        b = mice_impute(table, MICEConfig(seed=7))
        c = mice_impute(table, MICEConfig(seed=8))
        assert np.array_equal(a.filled.values, b.filled.values)
        assert not np.array_equal(a.filled.values, c.filled.values)

    def test_columns_restriction(self):
        rng = np.random.default_rng(3)
        table, _, _ = self.linear_table(rng)
        # also blank part of x2, then run MICE on y and x1 only
        table.mask[5:10, 2] = False
        out = mice_impute(table, MICEConfig(seed=0), columns=["y", "x1"])
        assert out.filled.mask[:, 0].all()
        assert not out.filled.mask[5:10, 2].any()

    def test_degenerate_column_error(self):
        vals = np.column_stack([np.arange(5.0), np.arange(5.0)])
        mask = np.ones_like(vals, dtype=bool)
        mask[2:, 1] = False
        table = make_table(vals, mask)
        with pytest.raises(ValueError, match="fewer than 3"):
            mice_impute(table)


class TestIndependentGP:
    def smooth_table(self, rng, n=40):
        t = np.linspace(0, 1, n)
        y = np.sin(2 * np.pi * t)
        values = np.column_stack([y, np.zeros(n)])
        mask = np.ones_like(values, dtype=bool)
        mask[10:14, 0] = False
        return make_table(values, mask), y

    def test_interpolates_smooth_signal(self):
        rng = np.random.default_rng(0)
        table, truth = self.smooth_table(rng)
        out = independent_gp_impute(table, ["y"], FitConfig(seed=0))
        err = np.abs(out.filled.values[10:14, 0] - truth[10:14])
        assert err.max() < 0.05
        assert np.all(out.variance[10:14, 0] > 0)

    def test_observed_cells_unchanged(self):
        rng = np.random.default_rng(1)
        table, _ = self.smooth_table(rng)
        obs = table.mask[:, 0]
        out = independent_gp_impute(table, ["y"], FitConfig(seed=0))
        assert np.array_equal(out.filled.values[obs, 0], table.values[obs, 0])
        assert np.isnan(out.variance[obs, 0]).all()

    def test_far_extrapolation_reverts_to_column_prior(self):
        # the GP is zero-mean on the standardised scale; far from data the
        # posterior mean returns toward zero
        n = 30
        t = np.linspace(0, 1, n)
        y = np.sin(6 * t)
        values = np.column_stack([y, np.zeros(n)])
        mask = np.ones_like(values, dtype=bool)
        mask[-1, 0] = False
        table = make_table(values, mask)
        out = independent_gp_impute(table, ["y"], FitConfig(seed=0))
        assert np.isfinite(out.filled.values[-1, 0])

    def test_too_few_observations(self):
        vals = [[1.0, 0.0], [np.nan, 0.0], [np.nan, 0.0]]
        mask = [[True, True], [False, True], [False, True]]
        with pytest.raises(EmptyColumnError):
            independent_gp_impute(make_table(vals, mask), ["y"])

    def test_columns_fill_as_one_column_calls(self):
        assert_columns_match_one_column_calls(
            lambda table, columns: independent_gp_impute(table, columns, FitConfig(seed=0)))

    def test_fit_hook_makes_every_fit(self):
        calls = []

        def fit(X, y, config):
            calls.append((X.shape, config))
            return fit_gp(X, y, config)

        table = three_column_table()
        config = FitConfig(n_starts=2, seed=0)
        hooked = independent_gp_impute(table, ["y", "x1"], config, fit=fit)
        plain = independent_gp_impute(table, ["y", "x1"], config)
        assert calls == [((20, 1), config), ((20, 1), config)]
        assert np.array_equal(hooked.filled.values, plain.filled.values, equal_nan=True)
        assert np.array_equal(hooked.variance, plain.variance, equal_nan=True)
