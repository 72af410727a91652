"""Benchmark harness: masking protocol, MAE evaluation, and the experiment
orchestrator over windows x methods x proportions.

Two modes mirror the two benchmark experiments:

* ``predict-output``: mask the output column; at inference every method sees
  time only.
* ``impute-covariates``: mask the covariate columns; the output stays fully
  observed and links the covariates.

MAE is reported in standardised units (original-unit MAE is also emitted via
the inverse z-score record). Standard errors are across windows.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .baselines import (
    ImputationMethodResult,
    MICEConfig,
    independent_gp_impute,
    locf_impute,
    mice_impute,
)
from .data import (
    DegenerateColumnError,
    ObservationTable,
    StandardisationRecord,
    SyntheticConfig,
    apply_mask,
    generate_synthetic_window,
    make_mask_plan,
    require_ints,
    standardise,
)
from .dgp import FIT_ERRORS, SEMConfig, impute_covariates, predict_output, train_sem
from .gp import FitConfig, FittedGP, fit_gp
from .linked import LayerArchitecture

MODE_PREDICT_OUTPUT = "predict-output"
MODE_IMPUTE_COVARIATES = "impute-covariates"
METHODS = ("locf", "mice", "gp", "dgpsi")


class IncompleteResultError(ValueError):
    pass


class EmptyMaskError(ValueError):
    """A (window, proportion) whose mask plan hides no cell: nothing to score."""


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = MODE_PREDICT_OUTPUT
    methods: tuple[str, ...] = METHODS
    proportions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)
    n_windows: int = 14
    seed: int = 0
    whole_row_masking: bool = False
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    fit: FitConfig = field(default_factory=FitConfig)
    # Desk-scale SEM profile for benchmark runs; library defaults are heavier.
    sem: SEMConfig = field(
        default_factory=lambda: SEMConfig(
            iterations=40, burn_in=20, ess_sweeps=3, n_imputations=20
        )
    )
    mice: MICEConfig = field(default_factory=MICEConfig)

    def __post_init__(self):
        require_ints(self, "n_windows", "seed")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # a JSON string such as "false" would mask whole rows, being truthy
        if not isinstance(self.whole_row_masking, bool):
            raise ValueError(f"whole_row_masking must be true or false, "
                             f"got {self.whole_row_masking!r}")
        if self.mode not in (MODE_PREDICT_OUTPUT, MODE_IMPUTE_COVARIATES):
            raise ValueError(f"unknown mode: {self.mode!r}")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValueError(f"unknown methods: {bad}")
        if not self.methods or len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must be non-empty and unique, got {list(self.methods)}")
        props = list(self.proportions)
        if not props or len(set(props)) != len(props) or not all(0 < p < 1 for p in props):
            raise ValueError(f"proportions must be non-empty, unique and lie in (0, 1), "
                             f"got {props}")
        if self.n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        for name, cls in (("synthetic", SyntheticConfig), ("fit", FitConfig),
                          ("sem", SEMConfig), ("mice", MICEConfig)):
            if not isinstance(getattr(self, name), cls):
                raise ValueError(f"{name} must be a {cls.__name__}, "
                                 f"got {getattr(self, name)!r}")


@dataclass
class CellPrediction:
    window: int
    method: str
    proportion: float
    time: float
    variable: str
    mean: float
    variance: float  # NaN where the method provides none
    truth: float


@dataclass
class MethodCell:
    """One (method, proportion) aggregate of the report."""

    method: str
    proportion: float
    windows: list[int]  # the id of the window each per-window MAE scores
    per_window_mae: list[float]
    mean_mae: float
    se_mae: float
    per_window_mae_original: list[float]
    mean_mae_original: float


@dataclass
class EvaluationReport:
    mode: str
    cells: list[MethodCell]
    failures: list[dict]
    manifest: dict
    predictions: list[CellPrediction] = field(default_factory=list)

    def lookup(self, method: str, proportion: float) -> MethodCell:
        for c in self.cells:
            if c.method == method and c.proportion == proportion:
                return c
        raise KeyError((method, proportion))

    def to_json(self) -> str:
        payload = {
            "mode": self.mode,
            "manifest": self.manifest,
            "failures": self.failures,
            "results": [dataclasses.asdict(c) for c in self.cells],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def evaluate_mae(rows: list[CellPrediction], sds: dict[str, float] | None = None) -> float:
    """Mean absolute error of the rows' means against their truths: in the
    standardised units they hold, or in original units when ``sds`` maps each
    variable to its sd. Summed in row order from 0.0, not by ``sum`` (compensated
    from Python 3.12), so the same rows read back from predictions.csv give the
    same bits."""
    total = 0.0
    for p in rows:
        total += abs(p.truth - p.mean) * (sds[p.variable] if sds else 1.0)
    return total / len(rows)


def _cell_predictions(
    w: int, method: str, prop: float, result: ImputationMethodResult,
    truth: ObservationTable, record: StandardisationRecord, cells,
) -> list[CellPrediction]:
    """One row per masked cell, in plan order, with the truth z-scored by
    ``record`` into the units the method predicted in."""
    rows = []
    for i, j in cells:
        if not result.filled.mask[i, j]:
            raise IncompleteResultError(f"no prediction at cell ({i}, {j})")
        name = truth.names[j]
        var = np.nan if result.variance is None else float(result.variance[i, j])
        rows.append(CellPrediction(
            window=w, method=method, proportion=prop, time=float(truth.times[i]),
            variable=name, mean=float(result.filled.values[i, j]), variance=var,
            truth=float((truth.values[i, j] - record.means[name]) / record.sds[name]),
        ))
    return rows


def default_architecture(table: ObservationTable) -> LayerArchitecture:
    """Time -> one latent node per covariate -> output node."""
    return LayerArchitecture(tuple(table.covariate_names), table.output_name)


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _fit(fits: dict, X: np.ndarray, y: np.ndarray, config: FitConfig) -> FittedGP:
    """``fit_gp(X, y, config)`` from ``fits``, a table keyed by the bytes of the
    inputs and the config, or fitted and filed there. fit_gp is deterministic in
    these, so a filed fit is the one the caller would have made. A fit error is
    filed too, and raised again on every lookup."""
    key = (X.shape, X.tobytes(), y.tobytes(), config)
    if key not in fits:
        try:
            fits[key] = fit_gp(X, y, config)
        except FIT_ERRORS as exc:
            fits[key] = exc
    if isinstance(fits[key], Exception):
        raise fits[key]
    return fits[key]


def _run_method(
    method: str, table: ObservationTable, targets: list[str], config: ExperimentConfig,
    seed: int, fits: dict,
) -> ImputationMethodResult:
    """One method imputing the ``targets`` columns of a masked table. Every GP fit
    goes through the window's table ``fits`` (see :func:`_fit`), so the gp method
    and dgpsi's first layer fit a problem they share once."""
    if method == "locf":
        return locf_impute(table, targets)
    if method == "mice":
        # predict-output's constraint: time and the output only
        columns = [c for c in table.names if c in targets or c == table.output_name]
        return mice_impute(table, dataclasses.replace(config.mice, seed=seed), columns=columns)
    if method == "gp":
        return independent_gp_impute(table, targets, config.fit,
                                     fit=functools.partial(_fit, fits))
    if method != "dgpsi":
        raise ValueError(f"unknown method: {method!r}")
    em = train_sem(table, default_architecture(table), config.sem, seed,
                   fit=functools.partial(_fit, fits))
    filled = table.copy()
    variance = np.full_like(table.values, np.nan)
    for c in targets:
        j = table.col_index(c)
        miss = np.where(~table.mask[:, j])[0]
        if miss.size:
            if c == table.output_name:
                preds = predict_output(em, table.times[miss])
            else:
                preds = impute_covariates(em, table.times[miss], c)
            filled.values[miss, j] = [p.mixture.mean for p in preds]
            variance[miss, j] = [p.mixture.variance for p in preds]
        filled.mask[:, j] = True
    return ImputationMethodResult(filled=filled, variance=variance)


def _mean_se(maes: list[float]) -> tuple[float, float]:
    """Mean of per-window MAEs and its standard error across windows (0 for one)."""
    se = float(np.std(maes, ddof=1) / np.sqrt(len(maes))) if len(maes) > 1 else 0.0
    return float(np.mean(maes)), se


def _failure(w: int, method: str, prop: float, exc: Exception) -> dict:
    """The report's record of a (window, method, proportion) job that raised ``exc``."""
    return {"window": w, "method": method, "proportion": prop,
            "type": type(exc).__name__, "error": str(exc)}


def run_experiment(config: ExperimentConfig) -> EvaluationReport:
    """Mask -> fit -> impute -> evaluate per window/method/proportion.

    A method's ``FIT_ERRORS`` are recorded with their type per (window, method,
    proportion) and the run continues; so is a mask plan that hides no cell
    (``EmptyMaskError``) and a masked table too short to standardise, once for
    each method. Any other exception propagates.
    Deterministic: all RNG streams derive from ``config.seed``.
    """
    methods = list(config.methods)
    windows = []
    for w in range(config.n_windows):
        rng = np.random.default_rng(_derived_seed(config.seed, w, 1))
        windows.append(generate_synthetic_window(config.synthetic, rng))

    # one (window, mae, mae_original) per scored window of a (method, proportion)
    scores: dict[tuple[str, float], list[tuple[int, float, float]]] = {}
    failures: list[dict] = []
    predictions: list[CellPrediction] = []

    for w, window in enumerate(windows):
        truth = window.table
        for k, prop in enumerate(config.proportions):
            fits = {}  # GP fits on this masked window, shared by its methods
            mask_seed = _derived_seed(config.seed, w, k, 2)
            if config.mode == MODE_PREDICT_OUTPUT:
                targets = [truth.output_name]
            else:
                targets = truth.covariate_names
            plan = make_mask_plan(truth, prop, targets, mask_seed, config.whole_row_masking)
            try:
                if not plan.masked_cells:
                    raise EmptyMaskError(f"proportion {prop} masks no cell of window {w}")
                std_masked, record = standardise(apply_mask(truth, plan))
            except (EmptyMaskError, DegenerateColumnError) as exc:  # no method can run or score
                failures.extend(_failure(w, method, prop, exc) for method in methods)
                continue
            for method in methods:
                method_seed = _derived_seed(config.seed, w, k, 3, methods.index(method))
                try:
                    result = _run_method(method, std_masked, targets, config, method_seed, fits)
                    rows = _cell_predictions(w, method, prop, result, truth, record,
                                             plan.masked_cells)
                except FIT_ERRORS as exc:  # recorded, run continues
                    failures.append(_failure(w, method, prop, exc))
                    continue
                scores.setdefault((method, prop), []).append(
                    (w, evaluate_mae(rows), evaluate_mae(rows, record.sds)))
                predictions.extend(rows)

    nan = float("nan")
    cells_out = []
    for method in methods:
        for prop in config.proportions:
            scored = scores.get((method, prop), [])
            ws, maes, maes_orig = ([s[col] for s in scored] for col in range(3))
            mean, se = _mean_se(maes) if scored else (nan, nan)
            cells_out.append(
                MethodCell(
                    method=method,
                    proportion=prop,
                    windows=ws,
                    per_window_mae=maes,
                    mean_mae=mean,
                    se_mae=se,
                    per_window_mae_original=maes_orig,
                    mean_mae_original=float(np.mean(maes_orig)) if scored else nan,
                )
            )

    manifest = {"version": __version__, **dataclasses.asdict(config)}
    return EvaluationReport(
        mode=config.mode,
        cells=cells_out,
        failures=failures,
        manifest=manifest,
        predictions=predictions,
    )


def write_results_csv(report: EvaluationReport, path: str):
    """Long-format `window,method,proportion,mae` rows; `window` is the window's id."""
    with open(path, "w") as fh:
        fh.write("window,method,proportion,mae\n")
        for c in report.cells:
            for w, mae in zip(c.windows, c.per_window_mae):
                fh.write(f"{w},{c.method},{float(c.proportion)!r},{float(mae)!r}\n")


def write_predictions_csv(report: EvaluationReport, path: str):
    with open(path, "w") as fh:
        fh.write("window,method,proportion,time,variable,mean,variance,truth,masked\n")
        for p in report.predictions:
            fh.write(f"{p.window},{p.method},{float(p.proportion)!r},{p.time!r},{p.variable},"
                     f"{p.mean!r},{p.variance!r},{p.truth!r},1\n")


def write_report(report: EvaluationReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    write_results_csv(report, os.path.join(out_dir, "results.csv"))
    write_predictions_csv(report, os.path.join(out_dir, "predictions.csv"))


def aggregate_results_csv(path: str) -> dict:
    """Re-aggregate a long-format results CSV into mean/SE per (method, proportion).
    A line that is not ``window,method,proportion,mae`` raises ValueError naming it."""
    rows: dict[tuple[str, float], list[float]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                w, method, prop, mae = line.strip().split(",")
                if lineno > 1:
                    rows.setdefault((method, float(prop)), []).append(float(mae))
            except ValueError:
                raise ValueError(f"line {lineno}: expected window,method,proportion,mae") from None
    out = {}
    for (method, prop), maes in sorted(rows.items()):
        mean, se = _mean_se(maes)
        out[f"{method}@{prop}"] = {"n_windows": len(maes), "mean_mae": mean, "se_mae": se}
    return out
