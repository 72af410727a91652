"""Command-line interface.

Subcommands:
  generate    write synthetic windows as CSV files
  preprocess  hourly-discretise a raw observation CSV
  run         run a benchmark experiment from a JSON config
  report      re-aggregate a long-format results CSV
  inspect     pretty-print a saved emulator manifest

The run config is a JSON object; every key is optional and CLI flags override
it. An unknown key or a bad value stops ``run`` before any cell runs. A
``report.json`` that ``run`` wrote, or its ``"manifest"`` alone, is also a
config: ``run --config report.json`` replays that run. The manifest's
``"version"`` must be this package's version. Schema (defaults in parentheses):

  {
    "mode": "predict-output" | "impute-covariates",
    "methods": ["locf", "mice", "gp", "dgpsi"],
    "proportions": [0.1, 0.2, 0.3, 0.4],
    "n_windows": 14,
    "seed": 0,
    "whole_row_masking": false,
    "synthetic": {... SyntheticConfig fields ...},
    "fit": {"n_starts": 5, "seed": 0, "max_iter": 200,
            "lengthscale_range": [0.01, 10.0], "nugget_bounds": [1e-8, 1.0]},
    "sem": {"iterations": ..., "burn_in": ..., "ess_sweeps": ...,
            "n_imputations": ...,
            "fit": {... FitConfig fields, as in "fit" ...}},
    "mice": {"n_imputations": 5, "cycles": 10}
  }

``run`` writes three files to ``--out``:

  report.json      the manifest, the typed failures, and per (method,
                   proportion) ``results``: ``windows``, the ids of the windows
                   scored, with ``per_window_mae`` and ``per_window_mae_original``
                   in the same order, their means and ``se_mae``
  results.csv      ``window,method,proportion,mae``, one row per scored window;
                   ``window`` is the window's id, so a failed window is a gap
  predictions.csv  one row per masked cell of each scored window, from which
                   each MAE is computed
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .data import (
    ROLE_COVARIATE,
    ROLE_OUTPUT,
    SyntheticConfig,
    discretise_hourly,
    generate_synthetic_window,
    ingest_csv,
)
from .experiment import ExperimentConfig, aggregate_results_csv, run_experiment, write_report


def _write_table_csv(table, path):
    with open(path, "w") as fh:
        fh.write("time," + ",".join(table.names) + "\n")
        for i in range(table.n):
            fields = [repr(float(table.times[i]))]
            for j in range(len(table.names)):
                fields.append(repr(float(table.values[i, j])) if table.mask[i, j] else "")
            fh.write(",".join(fields) + "\n")


def _cmd_generate(args):
    if args.seed < 0:
        raise SystemExit(f"gpimpute generate: --seed must be >= 0, got {args.seed}")
    if args.windows < 1:
        raise SystemExit(f"gpimpute generate: --windows must be >= 1, got {args.windows}")
    config = SyntheticConfig()
    os.makedirs(args.out, exist_ok=True)
    for w in range(args.windows):
        rng = np.random.default_rng([args.seed, w])
        window = generate_synthetic_window(config, rng)
        _write_table_csv(window.table, os.path.join(args.out, f"window_{w:03d}.csv"))
    print(f"wrote {args.windows} windows to {args.out}")


def _cmd_preprocess(args):
    columns = args.columns.split(",")
    if args.output_column not in columns:
        raise SystemExit(f"gpimpute preprocess: --output-column {args.output_column} is not "
                         f"among --columns {args.columns}")
    roles = {c: ROLE_OUTPUT if c == args.output_column else ROLE_COVARIATE for c in columns}
    try:
        table = discretise_hourly(ingest_csv(args.input, {"columns": columns}), roles)
    except (OSError, ValueError) as exc:  # the data module's input errors are ValueErrors
        raise SystemExit(f"gpimpute preprocess: {args.input}: {exc}") from None
    try:
        _write_table_csv(table, args.out)
    except OSError as exc:
        raise SystemExit(f"gpimpute preprocess: {args.out}: {exc.strerror}") from None
    print(f"wrote {table.n} hourly rows to {args.out}")


def _config_kwargs(cls, raw, where: str) -> dict:
    """Keyword arguments of the config class ``cls`` from the JSON object ``raw``
    found at ``where``: lists become tuples, and an object under a field whose
    default is a config becomes that config, built the same way."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown config key(s) in {where}: {', '.join(unknown)}")
    defaults, kwargs = cls(), {}
    for key, value in raw.items():
        sub = type(getattr(defaults, key))
        if dataclasses.is_dataclass(sub):
            value = sub(**_config_kwargs(sub, value, f"{where}.{key}"))
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    return kwargs


def _build_experiment_config(args) -> ExperimentConfig:
    raw = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
    if isinstance(raw, dict) and "manifest" in raw:  # a report.json: replay its run
        raw = raw["manifest"]
    if isinstance(raw, dict) and "version" in raw:  # a manifest names the version it ran
        raw = dict(raw)
        version = raw.pop("version")
        if version != __version__:
            raise ValueError(f"the manifest is from gpimpute {version}, "
                             f"this is gpimpute {__version__}")
    kwargs = _config_kwargs(ExperimentConfig, raw, "config")
    # flag overrides
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.mode is not None:
        kwargs["mode"] = args.mode
    if args.methods is not None:
        kwargs["methods"] = tuple(args.methods.split(","))
    if args.proportions is not None:
        kwargs["proportions"] = tuple(float(p) for p in args.proportions.split(","))
    if args.windows is not None:
        kwargs["n_windows"] = args.windows
    return ExperimentConfig(**kwargs)


def _cmd_run(args):
    try:
        config = _build_experiment_config(args)
    except OSError as exc:
        raise SystemExit(f"gpimpute run: cannot read config {args.config}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"gpimpute run: bad config: {exc}") from None
    report = run_experiment(config)
    write_report(report, args.out)
    for c in report.cells:
        print(f"{c.method}@{c.proportion}: mean MAE {c.mean_mae:.4f} (SE {c.se_mae:.4f})")
    if report.failures:
        print(f"{len(report.failures)} job(s) failed; see report.json", file=sys.stderr)


def _cmd_report(args):
    try:
        summary = aggregate_results_csv(args.results)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"gpimpute report: {args.results}: {exc}") from None
    print(json.dumps(summary, indent=2, sort_keys=True))


def _cmd_inspect(args):
    path = args.manifest
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"gpimpute inspect: {path}: {exc}") from None
    print(json.dumps(manifest, indent=2, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gpimpute")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic windows as CSVs")
    p.add_argument("--windows", type=int, default=14)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("preprocess", help="hourly-discretise a raw CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--columns", required=True, help="comma-separated variable columns")
    p.add_argument("--output-column", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("run", help="run a benchmark experiment")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=["predict-output", "impute-covariates"], default=None)
    p.add_argument("--methods", default=None, help="comma-separated method list")
    p.add_argument("--proportions", default=None, help="comma-separated proportions")
    p.add_argument("--windows", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="re-aggregate a results CSV")
    p.add_argument("--results", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("inspect", help="dump an emulator manifest")
    p.add_argument("--manifest", required=True, help="manifest file or emulator directory")
    p.set_defaults(func=_cmd_inspect)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
