"""The benchmark's workloads: set-up, one op, and the output check of each op.

Each workload is a closed loop with one client: the next op starts when the
previous one and its check have finished. Ops reach the program only through
public entry points (``gpimpute.cli.main`` and the ``gpimpute.dgp`` API),
looked up at call time so that traced runs see their wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil

import numpy as np

import gpimpute.cli as cli
import gpimpute.data as data
import gpimpute.dgp as dgp
from gpimpute.experiment import ExperimentConfig, default_architecture

IMPUTE_SIZES = (40, 80, 115)  # window lengths the impute-covariates op cycles through
PREDICT_SIZE = 115
EMULATOR_SIZE = 80
VARIANCE_METHODS = ("gp", "dgpsi")  # methods that must return a variance per cell
LOG_2PI = math.log(2.0 * math.pi)


class CheckError(Exception):
    """An op's output failed the benchmark's check."""


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def nlpd_terms(mean, variance, truth):
    """Per-cell Gaussian negative log predictive density (nats) and the number of
    cells with zero variance, which have no finite density and are left out."""
    mean, variance, truth = (np.asarray(a, dtype=float) for a in (mean, variance, truth))
    positive = variance > 0
    v = variance[positive]
    terms = 0.5 * (LOG_2PI + np.log(v) + (truth[positive] - mean[positive]) ** 2 / v)
    return terms, int(np.sum(~positive))


class Quality:
    """Accumulates the dgpsi predictions of a run for the quality metrics."""

    def __init__(self):
        self.mae_sum = 0.0  # MAE in original units times cells, summed over ops
        self.mae_cells = 0
        self.nlpd: list[float] = []  # per cell, standardised units
        self.zero_variance = 0

    def add(self, mae_original, mean, variance, truth):
        """One op's MAE over its masked cells in original units, and its
        standardised predictions and truths for the NLPD terms."""
        self.mae_sum += mae_original * len(truth)
        self.mae_cells += len(truth)
        terms, zero = nlpd_terms(mean, variance, truth)
        self.nlpd.extend(terms.tolist())
        self.zero_variance += zero


# --------------------------------------------------------------------------
# impute-covariates and predict-output: one in-process ``gpimpute run`` per op


class ExperimentWorkload:
    """One op is ``gpimpute run`` over one fresh synthetic window, with the
    default methods and SEM profile, in the given mode."""

    def __init__(self, mode, proportion, sizes, work_dir, seed):
        self.mode = mode
        self.proportion = proportion
        self.sizes = sizes
        self.cycle = len(sizes)
        self.work_dir = work_dir
        self.seed = seed
        self.methods = list(ExperimentConfig().methods)
        self.out_dir = os.path.join(work_dir, "out")
        self.config_path = os.path.join(work_dir, "config.json")
        self.cells_per_op = len(self.methods)  # one report cell per method
        self.cells_failed = 0
        self.quality = Quality()
        self._op_size = None

    def setup_once(self, rep):
        """The ops' inputs are generated inside ``gpimpute run`` from each op's seed,
        so set-up only makes the working directory."""
        os.makedirs(self.work_dir, exist_ok=True)

    def prepare(self, i):
        """Write op i's run config and clear the output directory (untimed)."""
        n = self.sizes[i % self.cycle]
        config = {
            "mode": self.mode,
            "proportions": [self.proportion],
            "n_windows": 1,
            "seed": derived_seed(self.seed, i),
            "synthetic": {"min_length": n, "max_length": n},
        }
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self._op_size = n

    def kind(self, i):
        """Window length of op i."""
        return self.sizes[i % self.cycle]

    def run(self, i):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", "--config", self.config_path, "--out", self.out_dir])

    def check(self, i):
        n = self._op_size
        n_targets = 1 if self.mode == "predict-output" else 3
        n_cells = n_targets * round(self.proportion * n)
        with open(os.path.join(self.out_dir, "report.json")) as fh:
            report = json.load(fh)
        self.cells_failed += len(report["failures"])
        if report["failures"]:
            raise CheckError(f"report lists failures: {report['failures']}")
        with open(os.path.join(self.out_dir, "predictions.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(self.methods) * n_cells:
            raise CheckError(f"predictions.csv has {len(rows)} rows, expected "
                             f"{len(self.methods)} methods x {n_cells} masked cells")
        blocks = {m: rows[k * n_cells:(k + 1) * n_cells] for k, m in enumerate(self.methods)}
        keys = [(r["time"], r["variable"]) for r in blocks[self.methods[0]]]
        if len(set(keys)) != n_cells:
            raise CheckError("masked cells repeat within a method's predictions")
        for method, block in blocks.items():
            if [(r["time"], r["variable"]) for r in block] != keys:
                raise CheckError(f"{method}: predicted cells differ from {self.methods[0]}'s")
            mean = np.array([float(r["mean"]) for r in block])
            var = np.array([float(r["variance"]) for r in block])
            if not np.all(np.isfinite(mean)):
                raise CheckError(f"{method}: non-finite predictive mean")
            given = ~np.isnan(var)
            if method in VARIANCE_METHODS and not np.all(given):
                raise CheckError(f"{method}: missing predictive variance")
            if not np.all(np.isfinite(var[given]) & (var[given] >= 0)):
                raise CheckError(f"{method}: predictive variance not finite and >= 0")
        dgpsi = blocks["dgpsi"]
        result = next((r for r in report["results"] if r["method"] == "dgpsi"), None)
        if result is None:
            raise CheckError("report has no dgpsi result")
        self.quality.add(result["mean_mae_original"], [float(r["mean"]) for r in dgpsi],
                         [float(r["variance"]) for r in dgpsi], [float(r["truth"]) for r in dgpsi])


# --------------------------------------------------------------------------
# emulator-roundtrip: save, load and query a stored emulator


class EmulatorSlot:
    """One trained emulator with its masked cells and in-memory reference predictions."""

    def __init__(self, seed, rep):
        window = data.generate_synthetic_window(
            data.SyntheticConfig(min_length=EMULATOR_SIZE, max_length=EMULATOR_SIZE),
            np.random.default_rng(derived_seed(seed, rep, 1)))
        truth = window.table
        plan = data.make_mask_plan(truth, 0.3, truth.covariate_names, derived_seed(seed, rep, 2))
        std, record = data.standardise(data.apply_mask(truth, plan))
        self.emulator = dgp.train_sem(std, default_architecture(std), ExperimentConfig().sem,
                                      derived_seed(seed, rep, 3))
        self.covariates = std.covariate_names
        self.queries = {}
        for c in self.covariates:
            j = std.col_index(c)
            miss = np.where(~std.mask[:, j])[0]
            times = std.times[miss]
            query = float(times[len(times) // 2])
            expected = (
                dgp.predict_ensemble(self.emulator, [query]).mixture,
                [p.mixture for p in dgp.impute_covariates(self.emulator, times, c)],
            )
            std_truth = (truth.values[miss, j] - record.means[c]) / record.sds[c]
            self.queries[c] = (query, times, expected, std_truth, record.sds[c])


class EmulatorWorkload:
    """Set-up trains ``reps`` emulators; op i round-trips emulator i % reps through
    save/load and queries one covariate, cycling through the covariates."""

    def __init__(self, work_dir, seed, reps):
        self.work_dir = work_dir
        self.seed = seed
        self.reps = reps
        self.cycle = reps * 3
        self.slots: list[EmulatorSlot] = []
        self.cells_per_op = 1
        self.cells_failed = 0
        self.quality = Quality()
        self._scored = set()
        self._result = None

    def setup_once(self, rep):
        os.makedirs(self.work_dir, exist_ok=True)
        self.slots.append(EmulatorSlot(self.seed, rep))

    def _target(self, i):
        slot = self.slots[i % self.reps]
        return slot, slot.covariates[(i // self.reps) % len(slot.covariates)]

    def kind(self, i):
        return EMULATOR_SIZE

    def prepare(self, i):
        shutil.rmtree(os.path.join(self.work_dir, "emulator"), ignore_errors=True)

    def run(self, i):
        slot, c = self._target(i)
        query, times, _, _, _ = slot.queries[c]
        directory = os.path.join(self.work_dir, "emulator")
        dgp.save_emulator(slot.emulator, directory)
        loaded = dgp.load_emulator(directory)
        self._result = (
            dgp.predict_ensemble(loaded, [query]).mixture,
            [p.mixture for p in dgp.impute_covariates(loaded, times, c)],
        )

    def check(self, i):
        slot, c = self._target(i)
        _, _, (exp_out, exp_cov), std_truth, sd = slot.queries[c]
        got_out, got_cov = self._result
        preds = [got_out] + got_cov
        if not all(math.isfinite(p.mean) and math.isfinite(p.variance) and p.variance >= 0
                   for p in preds):
            raise CheckError("non-finite mean or variance below 0 after load")
        # PredictiveGaussian equality compares the float fields exactly
        if got_out != exp_out or got_cov != exp_cov:
            raise CheckError(f"loaded emulator's predictions for {c!r} differ from the "
                             "in-memory emulator's")
        key = (i % self.reps, c)
        if key not in self._scored:  # each (emulator, covariate) pair is scored once
            self._scored.add(key)
            means = np.array([p.mean for p in got_cov])
            self.quality.add(float(np.mean(np.abs(means - std_truth))) * sd, means,
                             [p.variance for p in got_cov], std_truth)


def make_workload(name, work_dir, seed, setup_reps):
    if name == "impute-covariates":
        return ExperimentWorkload("impute-covariates", 0.3, IMPUTE_SIZES, work_dir, seed)
    if name == "predict-output":
        return ExperimentWorkload("predict-output", 0.4, (PREDICT_SIZE,), work_dir, seed)
    if name == "emulator-roundtrip":
        return EmulatorWorkload(work_dir, seed, setup_reps)
    raise ValueError(f"unknown workload: {name!r}")


WORKLOADS = ("impute-covariates", "predict-output", "emulator-roundtrip")
