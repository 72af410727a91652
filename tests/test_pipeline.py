import csv
import dataclasses
import json

import numpy as np
import pytest

import gpimpute.baselines
import gpimpute.dgp
import gpimpute.experiment
from gpimpute.baselines import ImputationMethodResult, MICEConfig, independent_gp_impute
from gpimpute.data import (
    ObservationTable,
    StandardisationRecord,
    SyntheticConfig,
    apply_mask,
    generate_synthetic_window,
    make_mask_plan,
    standardise,
)
from gpimpute.dgp import SEMConfig, SEMError
from gpimpute.experiment import (
    ExperimentConfig,
    IncompleteResultError,
    _cell_predictions,
    _run_method,
    aggregate_results_csv,
    default_architecture,
    evaluate_mae,
    run_experiment,
    write_report,
)
from gpimpute.gp import FitConfig, FitFailureError, fit_gp

FAST_CONFIG = dict(
    proportions=(0.2,),
    n_windows=2,
    synthetic=SyntheticConfig(min_length=20, max_length=30),
    fit=FitConfig(n_starts=2, seed=0),
    sem=SEMConfig(iterations=4, burn_in=2, ess_sweeps=1, n_imputations=3,
                  fit=FitConfig(n_starts=2, seed=0)),
    mice=MICEConfig(n_imputations=3, cycles=4),
)


def table_of(values, mask):
    values = np.asarray(values, dtype=float)
    return ObservationTable(
        times=np.linspace(0, 1, values.shape[0]),
        names=["y", "x"],
        values=values,
        mask=np.asarray(mask, dtype=bool),
        roles={"y": "output", "x": "covariate"},
    )


class TestEvaluateMAE:
    # truth in original units; standardised by RECORD, y's truths are 0.0 and 0.5
    RECORD = StandardisationRecord(means={"y": 1.0, "x": 0.0}, sds={"y": 2.0, "x": 1.0})

    def rows(self, filled):
        truth = table_of([[1.0, 0.0], [2.0, 0.0]], np.ones((2, 2)))
        result = ImputationMethodResult(filled=filled, variance=None)
        return _cell_predictions(0, "locf", 0.2, result, truth, self.RECORD, [(0, 0), (1, 0)])

    def test_hand_case(self):
        rows = self.rows(table_of([[0.1, 0.0], [0.8, 0.0]], np.ones((2, 2))))
        assert [p.truth for p in rows] == [0.0, 0.5]
        assert all(np.isnan(p.variance) for p in rows)
        assert evaluate_mae(rows) == pytest.approx(0.2)
        # each error rescaled by its variable's sd: y's is 2
        assert evaluate_mae(rows, self.RECORD.sds) == pytest.approx(0.4)

    def test_no_rows_raise(self):
        # no rows is no score, not a perfect one
        with pytest.raises(ZeroDivisionError):
            evaluate_mae([])
        with pytest.raises(ZeroDivisionError):
            evaluate_mae([], self.RECORD.sds)

    def test_missing_prediction_raises(self):
        holed = table_of([[0.1, 0.0], [0.8, 0.0]], np.ones((2, 2)))
        holed.mask[1, 0] = False
        with pytest.raises(IncompleteResultError, match="cell \\(1, 0\\)"):
            self.rows(holed)


class TestDefaultArchitecture:
    def test_one_latent_per_covariate(self):
        rng = np.random.default_rng(0)
        from gpimpute.data import generate_synthetic_window

        table = generate_synthetic_window(SyntheticConfig(), rng).table
        arch = default_architecture(table)
        assert arch.latent_nodes == ("pco2", "sid", "lactate")
        assert arch.output_node == "ph"


class TestRunExperiment:
    def test_predict_output_shape(self):
        config = ExperimentConfig(
            mode="predict-output", methods=("locf", "mice", "gp"), seed=1, **FAST_CONFIG
        )
        report = run_experiment(config)
        assert report.failures == []
        assert {c.method for c in report.cells} == {"locf", "mice", "gp"}
        for c in report.cells:
            assert len(c.per_window_mae) == 2
            assert np.isfinite(c.mean_mae)
            assert c.se_mae >= 0
        assert report.manifest["seed"] == 1

    def test_determinism(self):
        config = ExperimentConfig(
            mode="predict-output", methods=("locf", "gp"), seed=2, **FAST_CONFIG
        )
        r1 = run_experiment(config)
        r2 = run_experiment(config)
        assert r1.to_json() == r2.to_json()

    @pytest.mark.parametrize("mode", ["predict-output", "impute-covariates"])
    def test_lgp_refused_as_unknown_method(self, mode):
        with pytest.raises(ValueError, match="unknown methods: \\['lgp'\\]"):
            ExperimentConfig(mode=mode, methods=("locf", "lgp", "dgpsi"), **FAST_CONFIG)

    def test_full_method_set_predict_output(self):
        config = ExperimentConfig(
            mode="predict-output",
            methods=("locf", "mice", "gp", "dgpsi"),
            seed=4,
            **FAST_CONFIG,
        )
        report = run_experiment(config)
        assert report.failures == []
        for c in report.cells:
            assert np.isfinite(c.mean_mae)

    def test_write_and_reaggregate(self, tmp_path):
        config = ExperimentConfig(
            mode="predict-output", methods=("locf", "gp"), seed=5, **FAST_CONFIG
        )
        report = run_experiment(config)
        write_report(report, str(tmp_path))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["mode"] == "predict-output"
        summary = aggregate_results_csv(str(tmp_path / "results.csv"))
        for c in report.cells:
            entry = summary[f"{c.method}@{c.proportion}"]
            assert entry["mean_mae"] == pytest.approx(c.mean_mae, rel=1e-12)
            assert entry["n_windows"] == len(c.per_window_mae)
        header = (tmp_path / "predictions.csv").read_text().splitlines()[0]
        assert header == "window,method,proportion,time,variable,mean,variance,truth,masked"

    def test_predictions_labelled_by_method_and_proportion(self, tmp_path):
        config = ExperimentConfig(
            mode="predict-output", methods=("locf", "gp"), seed=6,
            **{**FAST_CONFIG, "proportions": (0.2, 0.4)},
        )
        report = run_experiment(config)
        write_report(report, str(tmp_path))
        with open(tmp_path / "predictions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.predictions)
        for w in range(config.n_windows):
            for prop in config.proportions:
                # locf and gp predict the same masked cells of a (window, proportion)
                cells = {}
                for method in config.methods:
                    mine = [r for r in rows if r["window"] == str(w) and r["method"] == method
                            and float(r["proportion"]) == prop]
                    cells[method] = [(r["time"], r["variable"]) for r in mine]
                    mae = np.mean([abs(float(r["mean"]) - float(r["truth"])) for r in mine])
                    assert mae == pytest.approx(report.lookup(method, prop).per_window_mae[w],
                                                rel=1e-12)
                assert cells["locf"] and cells["locf"] == cells["gp"]

    def dgpsi_with_failing_fit(self, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        self.patch_fit_gp(monkeypatch, fail)
        config = ExperimentConfig(mode="predict-output", methods=("dgpsi",), seed=6,
                                  **{**FAST_CONFIG, "n_windows": 1})
        return run_experiment(config)

    def test_programming_error_propagates(self, monkeypatch):
        with pytest.raises(TypeError, match="not a fit error"):
            self.dgpsi_with_failing_fit(monkeypatch, TypeError("not a fit error"))

    def test_fit_error_recorded_with_type(self, monkeypatch):
        report = self.dgpsi_with_failing_fit(monkeypatch, FitFailureError("no finite value"))
        [failure] = report.failures
        assert failure["type"] == "SEMError"
        assert "initial fit failed" in failure["error"]
        assert "no finite value" in failure["error"]

    def run_with_first_sem_failing(self, monkeypatch, tmp_path):
        """A written 2-window impute-covariates run whose first train_sem call,
        dgpsi's on window 0, raises."""
        calls = []

        def train_sem(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise SEMError("forced failure")
            return gpimpute.dgp.train_sem(*args, **kwargs)

        monkeypatch.setattr(gpimpute.experiment, "train_sem", train_sem)
        config = ExperimentConfig(mode="impute-covariates", methods=("locf", "dgpsi"), seed=7,
                                  **FAST_CONFIG)
        report = run_experiment(config)
        assert [(f["window"], f["method"]) for f in report.failures] == [(0, "dgpsi")]
        write_report(report, str(tmp_path))
        return report

    def test_results_name_the_scored_window_after_a_failure(self, monkeypatch, tmp_path):
        report = self.run_with_first_sem_failing(monkeypatch, tmp_path)
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = [(r["window"], r["method"]) for r in csv.DictReader(fh)]
        assert rows == [("0", "locf"), ("1", "locf"), ("1", "dgpsi")]
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert [r["windows"] for r in results] == [[0, 1], [1]]
        assert report.lookup("dgpsi", 0.2).windows == [1]

    def test_results_equal_mae_of_their_prediction_rows(self, monkeypatch, tmp_path):
        # bitwise: each MAE is the row-order mean of its predictions.csv rows
        self.run_with_first_sem_failing(monkeypatch, tmp_path)
        errors: dict[tuple[str, str, float], list[float]] = {}
        with open(tmp_path / "predictions.csv", newline="") as fh:
            for r in csv.DictReader(fh):
                key = (r["window"], r["method"], float(r["proportion"]))
                errors.setdefault(key, []).append(abs(float(r["truth"]) - float(r["mean"])))
        with open(tmp_path / "results.csv", newline="") as fh:
            results = list(csv.DictReader(fh))
        assert len(results) == len(errors) == 3
        for r in results:
            cell = errors[(r["window"], r["method"], float(r["proportion"]))]
            total = 0.0
            for e in cell:
                total += e
            assert total / len(cell) == float(r["mae"])

    @staticmethod
    def patch_fit_gp(monkeypatch, fit):
        """Put ``fit`` at every name fit_gp is called by."""
        for module in (gpimpute.experiment, gpimpute.dgp, gpimpute.baselines):
            monkeypatch.setattr(module, "fit_gp", fit, raising=False)

    def test_fit_table_fits_each_problem_once(self, monkeypatch):
        calls = []
        self.patch_fit_gp(monkeypatch, lambda X, y, config: calls.append(1)
                          or fit_gp(X, y, config))
        rng = np.random.default_rng(0)
        X, y = np.linspace(0, 1, 12)[:, None], rng.standard_normal(12)
        config = FitConfig(n_starts=2, seed=0)
        fits = {}
        model = gpimpute.experiment._fit(fits, X, y, config)
        # equal bytes in other arrays are the same problem
        assert gpimpute.experiment._fit(fits, X.copy(), y.copy(), config) is model
        assert len(calls) == 1
        y2 = y.copy()
        y2[3] += 1e-9
        others = [(X, y2, config), (X + 0.5, y, config), (X[1:], y[1:], config),
                  (X, y, FitConfig(n_starts=2, seed=1))]
        for Xo, yo, co in others:
            assert gpimpute.experiment._fit(fits, Xo, yo, co) is not model
        assert len(calls) == 1 + len(others)

    def test_fit_table_raises_a_filed_error_without_refitting(self, monkeypatch):
        calls = []

        def fail(X, y, config):
            calls.append(1)
            raise FitFailureError("no finite value")

        self.patch_fit_gp(monkeypatch, fail)
        X, y, fits = np.linspace(0, 1, 5)[:, None], np.arange(5.0), {}
        for _ in range(2):
            with pytest.raises(FitFailureError, match="no finite value"):
                gpimpute.experiment._fit(fits, X, y, FitConfig())
        assert len(calls) == 1

    @pytest.mark.parametrize("methods", [("gp", "dgpsi"), ("dgpsi", "gp")])
    def test_gp_and_dgpsi_share_first_layer_fits(self, monkeypatch, methods):
        calls = []
        self.patch_fit_gp(monkeypatch, lambda X, y, config: calls.append(np.shape(X))
                          or fit_gp(X, y, config))
        for mode, per_cell, one_column in [
            # the output is fully observed, so gp and dgpsi's first layer fit the
            # same three covariate problems once, plus dgpsi's second layer
            ("impute-covariates", 4, 3),
            # gp fits the output; dgpsi its three latents on the output's
            # observed rows, then its second layer: no problem is shared
            ("predict-output", 5, 4),
        ]:
            calls.clear()
            config = ExperimentConfig(mode=mode, methods=methods, seed=3, **FAST_CONFIG)
            report = run_experiment(config)
            assert report.failures == []
            cells = config.n_windows * len(config.proportions)
            assert len(calls) == per_cell * cells
            assert sum(shape[1] == 1 for shape in calls) == one_column * cells

    def test_shared_fit_failure_filed_per_method(self, monkeypatch):
        # a failing first-layer fit is filed as the method's own failure: the
        # fit's error for gp, an SEMError naming the node for dgpsi; the two
        # methods together fit the failing problem once
        calls = []

        def fit(X, y, config):
            calls.append(np.shape(X))
            if np.shape(X)[1] == 1:
                raise FitFailureError("no finite value")
            return fit_gp(X, y, config)

        self.patch_fit_gp(monkeypatch, fit)
        errors = {"gp": ("FitFailureError", "no finite value"),
                  "dgpsi": ("SEMError", "initial fit failed for node 'pco2': no finite value")}
        for methods in [("gp", "dgpsi"), ("dgpsi", "gp")]:
            calls.clear()
            config = ExperimentConfig(mode="impute-covariates", methods=methods, seed=3,
                                      **FAST_CONFIG)
            report = run_experiment(config)
            assert report.failures == [
                {"window": w, "method": method, "proportion": 0.2,
                 "type": errors[method][0], "error": errors[method][1]}
                for w in range(config.n_windows) for method in methods
            ]
            assert len(calls) == config.n_windows * len(config.proportions)

    def test_gp_method_is_independent_gp_impute(self):
        config = ExperimentConfig(mode="impute-covariates", seed=3, **FAST_CONFIG)
        truth = generate_synthetic_window(config.synthetic, np.random.default_rng(0)).table
        targets = truth.covariate_names
        plan = make_mask_plan(truth, 0.3, targets, seed=1)
        table, _ = standardise(apply_mask(truth, plan))
        got = _run_method("gp", table, targets, config, seed=0, fits={})
        want = independent_gp_impute(table, targets, config.fit)
        assert np.array_equal(got.filled.values, want.filled.values, equal_nan=True)
        assert np.array_equal(got.filled.mask, want.filled.mask)
        assert np.array_equal(got.variance, want.variance, equal_nan=True)
        assert got.filled.mask[:, [table.col_index(c) for c in targets]].all()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            ExperimentConfig(methods=("locf", "zzz"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            ExperimentConfig(mode="extrapolate")

    @pytest.mark.parametrize("section", ["synthetic", "fit", "sem", "mice"])
    def test_sections_must_be_their_config_class(self, section):
        as_dict = dataclasses.asdict(FAST_CONFIG[section])
        with pytest.raises(ValueError, match=f"{section} must be a"):
            ExperimentConfig(**{**FAST_CONFIG, section: as_dict})

    def test_integer_fields_take_numpy_ints_not_floats(self):
        int_fields = {
            ExperimentConfig: dict(n_windows=2, seed=3),
            SyntheticConfig: dict(min_length=20, max_length=30),
            FitConfig: dict(n_starts=2, seed=0, max_iter=50),
            SEMConfig: dict(iterations=4, burn_in=2, ess_sweeps=1, n_imputations=3),
            MICEConfig: dict(n_imputations=3, cycles=4, seed=1),
        }
        for cls, fields in int_fields.items():
            cls(**{k: np.int64(v) for k, v in fields.items()})
            for k, v in fields.items():
                with pytest.raises(ValueError, match=k):
                    cls(**{**fields, k: float(v)})


class TestCLI:
    def run_cli(self, *argv):
        from gpimpute.cli import main

        return main(list(argv))

    def test_generate_and_preprocess(self, tmp_path, capsys):
        out = tmp_path / "windows"
        self.run_cli("generate", "--windows", "2", "--seed", "0", "--out", str(out))
        files = sorted(p.name for p in out.iterdir())
        assert files == ["window_000.csv", "window_001.csv"]
        pre = tmp_path / "pre.csv"
        self.run_cli(
            "preprocess", "--input", str(out / "window_000.csv"),
            "--columns", "ph,pco2,sid,lactate", "--output-column", "ph",
            "--out", str(pre),
        )
        assert pre.read_text().startswith("time,ph,pco2,sid,lactate")

    def test_run_report_inspect(self, tmp_path, capsys):
        cfg = {
            "mode": "predict-output",
            "methods": ["locf", "gp"],
            "proportions": [0.2],
            "n_windows": 2,
            "synthetic": {"min_length": 20, "max_length": 25},
            "fit": {"n_starts": 2, "seed": 0},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "results"
        self.run_cli("run", "--config", str(cfg_path), "--seed", "3", "--out", str(out))
        captured = capsys.readouterr()
        assert "locf@0.2" in captured.out
        self.run_cli("report", "--results", str(out / "results.csv"))
        summary = json.loads(capsys.readouterr().out)
        assert "gp@0.2" in summary

    @pytest.mark.parametrize(
        "bad, key",
        [
            ({"fit": {"family": "squared_exponential"}}, "family"),
            ({"sem": {"randomize_sweep_order": True}}, "randomize_sweep_order"),
            ({"n_window": 3}, "n_window"),
            ({"mode": "extrapolate"}, "mode"),
            ({"sem": {"iterations": 2, "burn_in": 5}}, "burn_in"),
            ({"sem": {"n_imputations": 0}}, "n_imputations"),
            ({"fit": {"nugget_bounds": [0.5, 0.1]}}, "nugget_bounds"),
            ({"proportions": [1.5]}, "proportions"),
            ({"proportions": [-0.2]}, "proportions"),
            ({"proportions": []}, "proportions"),
            ({"synthetic": {"min_length": 10, "max_length": 5}}, "min_length"),
            ({"n_windows": 0}, "n_windows"),
            ({"methods": []}, "methods"),
            ({"methods": ["locf", "locf"]}, "methods"),
            ({"mice": {"n_imputations": 0}}, "n_imputations"),
            ({"mice": {"cycles": -1}}, "cycles"),
            ({"mice": {"ridge": -1.0}}, "ridge"),
            ({"n_windows": 1.5}, "n_windows"),
            ({"n_windows": True}, "n_windows"),
            ({"seed": 1.5}, "seed"),
            ({"fit": {"n_starts": 1.5}}, "n_starts"),
            ({"synthetic": {"min_length": 20.5}}, "min_length"),
            ({"sem": {"ess_sweeps": 2.5}}, "ess_sweeps"),
            ({"mice": {"cycles": 2.5}}, "cycles"),
            ({"whole_row_masking": "false"}, "whole_row_masking"),
            ({"seed": -1}, "seed"),
            ({"fit": {"seed": -1}}, "seed"),
            ({"mice": {"seed": -1}}, "seed"),
            ({"sem": {"fit": {"n_starts": 0}}}, "n_starts"),
            ({"sem": {"fit": 3}}, "fit"),
            ({"proportions": [0.2, 0.2]}, "proportions"),
            ({"synthetic": {"readout_nonlinearity": "relu"}}, "readout_nonlinearity"),
            ({"synthetic": {"output_name": "pco2"}}, "output_name"),
            ({"synthetic": {"covariate_names": ["a", "b"]}}, "covariate_names"),
            ({"synthetic": {"covariate_names": ["a", "a", "b"]}}, "covariate_names"),
            ({"synthetic": {"latent_lengthscale_range": [-0.3, -0.1]}},
             "latent_lengthscale_range"),
            ({"synthetic": {"latent_lengthscale_range": [0.3, 0.1]}},
             "latent_lengthscale_range"),
            ({"synthetic": {"readout_weights": [1, 2]}}, "readout_weights"),
            ({"synthetic": {"readout_weights": [1, 2, float("inf")]}}, "readout_weights"),
            ({"synthetic": {"output_noise_sd": -1}}, "output_noise_sd"),
            ({"synthetic": {"covariate_noise_sd": float("nan")}}, "covariate_noise_sd"),
            ({"fit": {"nugget_bounds": [1e-300, 1.0]}}, "nugget_bounds"),
            ({"sem": {"fit": {"nugget_bounds": [1e-17, 0.1]}}}, "nugget_bounds"),
        ],
        ids=["fit-family", "sem-sweep-order", "top-level-typo", "bad-mode", "sem-burn-in",
             "sem-zero-imputations", "fit-nugget-bounds", "proportion-above-one",
             "negative-proportion", "no-proportions", "synthetic-lengths", "zero-windows", "no-methods",
             "duplicate-methods", "mice-zero-imputations", "mice-negative-cycles",
             "mice-negative-ridge", "fractional-windows", "boolean-windows", "fractional-seed",
             "fractional-fit-starts", "fractional-synthetic-length", "fractional-sem-sweeps",
             "fractional-mice-cycles", "string-whole-row-masking", "negative-seed",
             "negative-fit-seed", "negative-mice-seed", "sem-fit-zero-starts",
             "sem-fit-not-an-object", "duplicate-proportions", "synthetic-nonlinearity",
             "synthetic-output-is-a-covariate", "synthetic-two-covariates",
             "synthetic-repeated-covariate", "synthetic-negative-lengthscales",
             "synthetic-lengthscales-reversed", "synthetic-two-weights",
             "synthetic-infinite-weight", "synthetic-negative-output-noise",
             "synthetic-nan-covariate-noise", "fit-nugget-below-double-spacing",
             "sem-fit-nugget-below-double-spacing"],
    )
    def test_run_rejects_bad_config_before_any_cell(self, tmp_path, bad, key):
        cfg = {
            "methods": ["locf"],
            "proportions": [0.2],
            "n_windows": 1,
            "synthetic": {"min_length": 20, "max_length": 20},
            **bad,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "results"
        with pytest.raises(SystemExit) as exc:
            self.run_cli("run", "--config", str(cfg_path), "--out", str(out))
        assert exc.value.code != 0
        assert key in str(exc.value.code)
        assert not out.exists()

    def test_run_records_windows_too_short_to_standardise(self, tmp_path, capsys):
        # one of two rows masked leaves a column with one value: every method fails
        cfg = {"proportions": [0.4], "n_windows": 1,
               "synthetic": {"min_length": 2, "max_length": 2}}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "results"
        self.run_cli("run", "--config", str(cfg_path), "--out", str(out))
        assert "4 job(s) failed" in capsys.readouterr().err
        payload = json.loads((out / "report.json").read_text())
        assert [(f["method"], f["type"]) for f in payload["failures"]] == [
            (m, "DegenerateColumnError") for m in ("locf", "mice", "gp", "dgpsi")]
        assert all(r["windows"] == [] for r in payload["results"])

    def test_run_records_windows_that_mask_no_cell(self, tmp_path, capsys):
        # round(0.2 * 2) = 0 cells masked: nothing to score, so every method fails
        cfg = {"mode": "impute-covariates", "proportions": [0.2], "n_windows": 2, "seed": 1,
               "synthetic": {"min_length": 2, "max_length": 2}}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "results"
        self.run_cli("run", "--config", str(cfg_path), "--out", str(out))
        captured = capsys.readouterr()
        assert "8 job(s) failed" in captured.err
        assert "MAE 0.0000" not in captured.out
        payload = json.loads((out / "report.json").read_text())
        assert [(f["window"], f["method"], f["type"]) for f in payload["failures"]] == [
            (w, m, "EmptyMaskError") for w in (0, 1) for m in ("locf", "mice", "gp", "dgpsi")]
        assert all(r["windows"] == [] for r in payload["results"])
        assert (out / "results.csv").read_text() == "window,method,proportion,mae\n"

    def test_run_names_a_missing_config(self, tmp_path):
        cfg_path = tmp_path / "missing.json"
        out = tmp_path / "results"
        with pytest.raises(SystemExit) as exc:
            self.run_cli("run", "--config", str(cfg_path), "--out", str(out))
        message = str(exc.value.code)
        assert message.startswith("gpimpute run: ") and str(cfg_path) in message
        assert "\n" not in message
        assert not out.exists()

    @pytest.mark.parametrize("text, detail", [("time,ph\n0,7.4\n", "pco2"),
                                              ("time,ph,pco2\nnoon,7.4,40\n", "line 2"),
                                              ("time,ph,pco2\n", "no observations")],
                             ids=["missing-column", "bad-time", "header-only"])
    def test_preprocess_names_a_bad_input(self, tmp_path, text, detail):
        raw = tmp_path / "raw.csv"
        raw.write_text(text)
        pre = tmp_path / "pre.csv"
        with pytest.raises(SystemExit) as exc:
            self.run_cli("preprocess", "--input", str(raw), "--columns", "ph,pco2",
                         "--output-column", "ph", "--out", str(pre))
        message = str(exc.value.code)
        assert message.startswith(f"gpimpute preprocess: {raw}: ") and detail in message
        assert "\n" not in message
        assert not pre.exists()

    def test_preprocess_names_an_output_column_not_among_the_columns(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("time,ph,pco2\n0,7.4,40\n1,7.3,41\n")
        pre = tmp_path / "pre.csv"
        with pytest.raises(SystemExit) as exc:
            self.run_cli("preprocess", "--input", str(raw), "--columns", "ph,pco2",
                         "--output-column", "lactate", "--out", str(pre))
        message = str(exc.value.code)
        assert message.startswith("gpimpute preprocess: ")
        assert "lactate" in message and "ph,pco2" in message
        assert "\n" not in message
        assert not pre.exists()

    def test_preprocess_names_an_out_path_it_cannot_write(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("time,ph,pco2\n0,7.4,40\n1,7.3,41\n")
        pre = tmp_path / "missing" / "pre.csv"
        with pytest.raises(SystemExit) as exc:
            self.run_cli("preprocess", "--input", str(raw), "--columns", "ph,pco2",
                         "--output-column", "ph", "--out", str(pre))
        message = str(exc.value.code)
        assert message.startswith(f"gpimpute preprocess: {pre}: ")
        assert "\n" not in message

    @pytest.mark.parametrize(
        "text, detail",
        [(None, "No such file"), ("<directory>", "Is a directory"),
         ("window,method,proportion,mae\n0,gp,0.1\n", "line 2"),
         ("window,method,proportion,mae\n0,gp,0.2,0.1\n1,gp,x,0.1\n", "line 3")],
        ids=["missing", "unreadable", "short-line", "bad-proportion"])
    def test_report_names_a_bad_results_file(self, tmp_path, text, detail):
        path = tmp_path / "results.csv"
        if text == "<directory>":
            path.mkdir()
        elif text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            self.run_cli("report", "--results", str(path))
        message = str(exc.value.code)
        assert message.startswith(f"gpimpute report: {path}: ") and detail in message
        assert "\n" not in message

    def test_run_refuses_the_removed_refit_max_iter(self, tmp_path):
        # SEM's M-step is one quasi-Newton step, so the key is gone, from a config
        # and from the manifest of an older report alike
        from gpimpute import __version__

        sem = {"refit_max_iter": 25}
        (tmp_path / "config.json").write_text(json.dumps({"sem": sem}))
        (tmp_path / "report.json").write_text(
            json.dumps({"manifest": {"version": __version__, "sem": sem}}))
        out = tmp_path / "results"
        for name in ("config.json", "report.json"):
            with pytest.raises(SystemExit) as exc:
                self.run_cli("run", "--config", str(tmp_path / name), "--out", str(out))
            assert str(exc.value.code) == ("gpimpute run: bad config: unknown config key(s) "
                                           "in config.sem: refit_max_iter")
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not-json"])
    def test_inspect_names_a_bad_manifest(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            self.run_cli("inspect", "--manifest", str(path))
        message = str(exc.value.code)
        assert message.startswith(f"gpimpute inspect: {path}: ")
        assert "\n" not in message

    def test_generate_rejects_negative_seed(self, tmp_path):
        out = tmp_path / "windows"
        with pytest.raises(SystemExit) as exc:
            self.run_cli("generate", "--windows", "1", "--seed", "-1", "--out", str(out))
        assert "--seed" in str(exc.value.code)
        assert not out.exists()

    @pytest.mark.parametrize("windows", ["0", "-1"])
    def test_generate_rejects_fewer_than_one_window(self, tmp_path, windows):
        out = tmp_path / "windows"
        with pytest.raises(SystemExit) as exc:
            self.run_cli("generate", "--windows", windows, "--out", str(out))
        assert "--windows" in str(exc.value.code)
        assert not out.exists()

    def test_run_takes_a_nested_sem_fit(self, tmp_path):
        sem_fit = {"n_starts": 1, "seed": 2, "max_iter": 50, "lengthscale_range": [0.05, 5.0],
                   "nugget_bounds": [1e-6, 0.5]}
        cfg = {
            "mode": "impute-covariates", "methods": ["dgpsi"], "proportions": [0.2],
            "n_windows": 1, "synthetic": {"min_length": 20, "max_length": 20},
            "sem": {"iterations": 2, "burn_in": 1, "ess_sweeps": 1, "n_imputations": 2,
                    "fit": sem_fit},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "results"
        self.run_cli("run", "--config", str(cfg_path), "--out", str(out))
        payload = json.loads((out / "report.json").read_text())
        assert payload["failures"] == []
        assert payload["manifest"]["sem"]["fit"] == sem_fit

    @pytest.mark.parametrize("mode", ["predict-output", "impute-covariates"])
    def test_run_replays_its_report(self, tmp_path, mode):
        cfg = {
            "mode": mode, "proportions": [0.3], "n_windows": 2, "seed": 4,
            "synthetic": {"min_length": 15, "max_length": 20},
            "fit": {"n_starts": 1, "seed": 0},
            "sem": {"iterations": 3, "burn_in": 1, "ess_sweeps": 1, "n_imputations": 3,
                    "fit": {"n_starts": 1, "seed": 0}},
        }
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        self.run_cli("run", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "a"))
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert report["failures"] == []
        (tmp_path / "manifest.json").write_text(json.dumps(report["manifest"]))
        for source, out in (("a/report.json", "b"), ("manifest.json", "c")):
            self.run_cli("run", "--config", str(tmp_path / source),
                         "--out", str(tmp_path / out))
            for name in ("report.json", "results.csv", "predictions.csv"):
                assert (tmp_path / out / name).read_bytes() == \
                    (tmp_path / "a" / name).read_bytes()

    def test_replay_flags_override_the_manifest(self, tmp_path):
        cfg = {"methods": ["locf"], "proportions": [0.2], "n_windows": 1,
               "synthetic": {"min_length": 20, "max_length": 20}}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        self.run_cli("run", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "a"))
        self.run_cli("run", "--config", str(tmp_path / "a" / "report.json"), "--seed", "9",
                     "--out", str(tmp_path / "b"))
        first, replay = (json.loads((tmp_path / d / "report.json").read_text())["manifest"]
                         for d in ("a", "b"))
        assert replay == {**first, "seed": 9}

    def test_replay_refuses_a_manifest_of_another_version(self, tmp_path):
        from gpimpute import __version__

        manifest = {"version": "0.0.1-other", "methods": ["locf"], "n_windows": 1}
        (tmp_path / "report.json").write_text(json.dumps({"manifest": manifest}))
        out = tmp_path / "results"
        with pytest.raises(SystemExit) as exc:
            self.run_cli("run", "--config", str(tmp_path / "report.json"), "--out", str(out))
        message = str(exc.value.code)
        assert "bad config" in message
        assert "0.0.1-other" in message and __version__ in message
        assert not out.exists()

    def test_inspect_emulator_dir(self, tmp_path, capsys):
        from gpimpute.data import generate_synthetic_window
        from gpimpute.dgp import save_emulator, train_sem
        from gpimpute.experiment import default_architecture

        table = generate_synthetic_window(
            SyntheticConfig(min_length=20, max_length=25), np.random.default_rng(0)
        ).table
        em = train_sem(table, default_architecture(table),
                       SEMConfig(iterations=2, burn_in=1, ess_sweeps=1, n_imputations=2,
                                 fit=FitConfig(n_starts=2, seed=0)), 0)
        save_emulator(em, str(tmp_path / "em"))
        self.run_cli("inspect", "--manifest", str(tmp_path / "em"))
        payload = json.loads(capsys.readouterr().out)
        assert payload["output_node"] == "ph"
