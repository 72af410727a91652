"""Observation tables, CSV ingestion, hourly discretisation, z-scoring, masking,
and the synthetic window generator used by the benchmark harness.

Preprocessing order is fixed: discretise -> mask -> standardise on observed
cells -> impute -> evaluate in standardised units.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .kernels import KernelSpec, build_correlation

ROLE_OUTPUT = "output"
ROLE_COVARIATE = "covariate"


class SchemaError(ValueError):
    pass


class ParseError(ValueError):
    pass


class EmptyWindowError(ValueError):
    pass


class DegenerateColumnError(ValueError):
    pass


class EmptyColumnError(ValueError):
    pass


class MaskConsistencyError(ValueError):
    pass


@dataclass
class ObservationTable:
    """Timestamps x variables with an explicit missingness mask (True = observed)."""

    times: np.ndarray  # (N,), strictly increasing
    names: list[str]
    values: np.ndarray  # (N, D); entries at unobserved cells are undefined
    mask: np.ndarray  # (N, D) bool
    roles: dict[str, str]  # per-column: 'output' | 'covariate'

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        n, d = self.values.shape
        if self.times.shape != (n,) or self.mask.shape != (n, d) or len(self.names) != d:
            raise ValueError("inconsistent table shapes")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        outputs = [c for c in self.names if self.roles.get(c) == ROLE_OUTPUT]
        if len(outputs) != 1:
            raise ValueError("exactly one output column required")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def col_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown column: {name!r}") from None

    @property
    def output_name(self) -> str:
        return next(c for c in self.names if self.roles[c] == ROLE_OUTPUT)

    @property
    def covariate_names(self) -> list[str]:
        return [c for c in self.names if self.roles[c] == ROLE_COVARIATE]

    def column(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(values, mask) for one column."""
        j = self.col_index(name)
        return self.values[:, j], self.mask[:, j]

    def copy(self) -> "ObservationTable":
        return ObservationTable(
            times=self.times.copy(),
            names=list(self.names),
            values=self.values.copy(),
            mask=self.mask.copy(),
            roles=dict(self.roles),
        )


@dataclass(frozen=True)
class MaskPlan:
    proportion: float
    target_columns: tuple[str, ...]
    seed: int
    masked_cells: tuple[tuple[int, int], ...]  # (row, col-index) pairs


@dataclass(frozen=True)
class StandardisationRecord:
    """Per-column mean/sd (original units) of the z-score transform; invertible."""

    means: dict[str, float]
    sds: dict[str, float]


@dataclass
class RawTable:
    """Pre-discretisation observations: possibly irregular, duplicated timestamps."""

    times_hours: np.ndarray  # (M,), sorted ascending, may repeat
    names: list[str]
    values: np.ndarray  # (M, D) with NaN for missing fields


def _parse_time(token: str, line_no: int) -> float:
    token = token.strip()
    try:
        return float(token)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(token)
    except ValueError:
        raise ParseError(f"line {line_no}: unparseable timestamp {token!r}") from None
    return dt.timestamp() / 3600.0


def ingest_csv(path, schema_config: dict) -> RawTable:
    """Read `time,<var1>,<var2>,...` CSV; empty fields are missing.

    ``schema_config['columns']`` lists the variable columns expected in the file.
    Rows are sorted by time; duplicate timestamps are kept for aggregation.
    """
    declared = list(schema_config["columns"])
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "time":
            raise SchemaError("first column must be 'time'")
        for col in declared:
            if col not in header[1:]:
                raise SchemaError(f"declared column missing from file: {col!r}")
        col_pos = {c: header.index(c) for c in declared}

        times = []
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
            times.append(_parse_time(row[0], line_no))
            vals = []
            for c in declared:
                f = row[col_pos[c]].strip()
                if f == "":
                    vals.append(np.nan)
                else:
                    try:
                        vals.append(float(f))
                    except ValueError:
                        raise ParseError(f"line {line_no}: bad value {f!r} in column {c!r}") from None
            rows.append(vals)

    times_arr = np.asarray(times, dtype=float)
    values = np.asarray(rows, dtype=float).reshape(len(rows), len(declared))
    order = np.argsort(times_arr, kind="stable")
    return RawTable(times_hours=times_arr[order], names=declared, values=values[order])


def discretise_hourly(raw: RawTable, roles: dict[str, str]) -> ObservationTable:
    """One row per hour bucket spanning [first, last] observation; bucket value =
    arithmetic mean of in-bucket observations per column; time scaled to [0, 1].
    """
    if raw.times_hours.size == 0:
        raise EmptyWindowError("no observations to discretise")
    t0 = math.floor(raw.times_hours[0])
    t1 = math.floor(raw.times_hours[-1])
    n = t1 - t0 + 1
    d = len(raw.names)
    sums = np.zeros((n, d))
    counts = np.zeros((n, d))
    buckets = np.floor(raw.times_hours).astype(int) - t0
    observed = ~np.isnan(raw.values)
    for i in range(raw.times_hours.size):
        b = buckets[i]
        sums[b, observed[i]] += raw.values[i, observed[i]]
        counts[b, observed[i]] += 1
    mask = counts > 0
    values = np.where(mask, sums / np.maximum(counts, 1), np.nan)
    times = scale_times(np.arange(n, dtype=float))
    return ObservationTable(times=times, names=list(raw.names), values=values, mask=mask, roles=roles)


def scale_times(hours: np.ndarray) -> np.ndarray:
    """Affine map of an hourly axis onto [0, 1]; a single row maps to [0]."""
    hours = np.asarray(hours, dtype=float)
    if hours.size <= 1 or hours[-1] == hours[0]:
        return np.zeros_like(hours)
    return (hours - hours[0]) / (hours[-1] - hours[0])


def standardise(table: ObservationTable) -> tuple[ObservationTable, StandardisationRecord]:
    """Z-score each column using its observed cells only (sample sd, ddof=1)."""
    out = table.copy()
    means: dict[str, float] = {}
    sds: dict[str, float] = {}
    for j, name in enumerate(table.names):
        obs = table.mask[:, j]
        vals = table.values[obs, j]
        if vals.size < 2:
            raise DegenerateColumnError(f"column {name!r} has fewer than 2 observed values")
        mu = float(np.mean(vals))
        sd = float(np.std(vals, ddof=1))
        if sd == 0:
            raise DegenerateColumnError(f"column {name!r} has zero standard deviation")
        means[name] = mu
        sds[name] = sd
        out.values[:, j] = (table.values[:, j] - mu) / sd
    return out, StandardisationRecord(means=means, sds=sds)


def destandardise(table: ObservationTable, record: StandardisationRecord) -> ObservationTable:
    out = table.copy()
    for j, name in enumerate(table.names):
        out.values[:, j] = table.values[:, j] * record.sds[name] + record.means[name]
    return out


def make_mask_plan(
    table: ObservationTable,
    proportion: float,
    target_columns,
    seed: int,
    whole_rows: bool = False,
) -> MaskPlan:
    """Choose round(proportion * observed-count) observed cells per target column,
    uniformly at random without replacement. With ``whole_rows`` the same row set
    is masked across all target columns.
    """
    rng = np.random.default_rng(seed)
    target_columns = tuple(target_columns)
    cells: list[tuple[int, int]] = []
    if whole_rows:
        idxs = [table.col_index(c) for c in target_columns]
        rows = np.where(np.all(table.mask[:, idxs], axis=1))[0]
        k = round(proportion * rows.size)
        chosen = rng.choice(rows, size=k, replace=False) if k else np.empty(0, dtype=int)
        for i in sorted(chosen.tolist()):
            cells.extend((i, j) for j in idxs)
    else:
        for c in target_columns:
            j = table.col_index(c)
            rows = np.where(table.mask[:, j])[0]
            k = round(proportion * rows.size)
            chosen = rng.choice(rows, size=k, replace=False) if k else np.empty(0, dtype=int)
            cells.extend((int(i), j) for i in sorted(chosen.tolist()))
    return MaskPlan(
        proportion=proportion,
        target_columns=target_columns,
        seed=seed,
        masked_cells=tuple(cells),
    )


def apply_mask(table: ObservationTable, plan: MaskPlan) -> ObservationTable:
    """Flag the plan's cells as missing. Ground truth stays with the caller's
    original table; evaluation reads it from there.
    """
    out = table.copy()
    for i, j in plan.masked_cells:
        if not table.mask[i, j]:
            raise MaskConsistencyError(f"cell ({i}, {j}) was not observed pre-masking")
        out.mask[i, j] = False
    return out


def require_ints(config, *names: str):
    """Raise ValueError naming the first of ``names`` whose value on ``config``
    is not an integer (Python or numpy); a bool is not a count."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _finite_reals(values, n: int) -> bool:
    """Whether ``values`` is a list or tuple of ``n`` finite real numbers (a bool
    is not one)."""
    return (isinstance(values, (tuple, list)) and len(values) == n
            and all(isinstance(v, (int, float, np.integer, np.floating))
                    and not isinstance(v, bool) and math.isfinite(v) for v in values))


@dataclass(frozen=True)
class SyntheticConfig:
    """Stewart-Fencl-style synthetic window: three smooth latent covariates drive
    the output through a fixed smooth readout (decreasing in the CO2-like
    channel, increasing in the SID-like channel, decreasing in the lactate-like
    channel).
    """

    min_length: int = 19
    max_length: int = 115
    latent_lengthscale_range: tuple[float, float] = (0.15, 0.35)  # scaled-time units
    readout_weights: tuple[float, float, float] = (0.8, 0.6, 0.5)
    readout_nonlinearity: str = "tanh"  # 'tanh' | 'identity'
    output_noise_sd: float = 0.05
    covariate_noise_sd: float = 0.1
    output_name: str = "ph"
    covariate_names: tuple[str, str, str] = ("pco2", "sid", "lactate")

    def __post_init__(self):
        require_ints(self, "min_length", "max_length")
        if not 1 <= self.min_length <= self.max_length:
            raise ValueError("min_length and max_length must satisfy 1 <= min_length <= max_length")
        if self.readout_nonlinearity not in ("tanh", "identity"):
            raise ValueError(f"readout_nonlinearity must be 'tanh' or 'identity', "
                             f"got {self.readout_nonlinearity!r}")
        if not _finite_reals(self.readout_weights, 3):
            raise ValueError(f"readout_weights must be 3 finite numbers, "
                             f"got {self.readout_weights!r}")
        low_high = self.latent_lengthscale_range
        if not (_finite_reals(low_high, 2) and 0 < low_high[0] <= low_high[1]):
            raise ValueError(f"latent_lengthscale_range must be finite with 0 < low <= high, "
                             f"got {low_high!r}")
        for name in ("output_noise_sd", "covariate_noise_sd"):
            sd = getattr(self, name)
            if not (_finite_reals((sd,), 1) and sd >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {sd!r}")
        covs = self.covariate_names
        names = (self.output_name, *covs) if isinstance(covs, (tuple, list)) else ()
        if not (len(names) == 4 and all(isinstance(c, str) for c in names)
                and len(set(names)) == 4):
            raise ValueError(f"covariate_names must be 3 distinct names, none equal to "
                             f"output_name {self.output_name!r}, got {covs!r}")

    def readout(self, latents: np.ndarray) -> np.ndarray:
        """Noiseless output as a function of the (N, 3) latent matrix."""
        g = np.tanh if self.readout_nonlinearity == "tanh" else (lambda z: z)
        w1, w2, w3 = self.readout_weights
        return -w1 * g(latents[:, 0]) + w2 * g(latents[:, 1]) - w3 * g(latents[:, 2])


@dataclass
class SyntheticWindow:
    table: ObservationTable  # fully observed, hourly grid, scaled time
    latents_noiseless: np.ndarray  # (N, 3)
    output_noiseless: np.ndarray  # (N,)


def generate_synthetic_window(config: SyntheticConfig, rng: np.random.Generator) -> SyntheticWindow:
    """Draw one window: length uniform on [min_length, max_length] hours, smooth
    SE-GP latent trajectories, noisy covariate/output observations.
    """
    n = int(rng.integers(config.min_length, config.max_length + 1))
    times = scale_times(np.arange(n, dtype=float))
    X = times[:, None]
    latents = np.empty((n, 3))
    for p in range(3):
        ls = rng.uniform(*config.latent_lengthscale_range)
        spec = KernelSpec(np.array([ls]))
        corr = build_correlation(spec, 1e-8, X)
        latents[:, p] = corr.chol @ rng.standard_normal(n)
    out_clean = config.readout(latents)
    out_obs = out_clean + config.output_noise_sd * rng.standard_normal(n)
    cov_obs = latents + config.covariate_noise_sd * rng.standard_normal((n, 3))

    names = [config.output_name, *config.covariate_names]
    values = np.column_stack([out_obs, cov_obs])
    roles = {config.output_name: ROLE_OUTPUT}
    roles.update({c: ROLE_COVARIATE for c in config.covariate_names})
    table = ObservationTable(
        times=times,
        names=names,
        values=values,
        mask=np.ones_like(values, dtype=bool),
        roles=roles,
    )
    return SyntheticWindow(table=table, latents_noiseless=latents, output_noiseless=out_clean)
