"""In-memory span tracing of gpimpute's public functions, for traced benchmark runs.

Wrappers are installed at every name a caller looks up: each ``gpimpute.*``
module attribute that is the traced function, plus the class attributes of
``LatentState``. Nothing is wrapped unless :meth:`Tracer.install` is called,
and :meth:`Tracer.uninstall` restores the originals.

A span records its name, start, end, parent span and op id. Self time is a
span's duration minus the durations of its direct children (calls nest
strictly in one thread, so children never overlap). Per-layer metrics are
derived from the spans of timed ops only; set-up spans are written out but not
aggregated.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

# (layer, defining module, function name). The layer is the module the
# function belongs to; for ``minimize`` it is the L-BFGS-B call as gpimpute.gp
# looks it up.
TRACED_FUNCTIONS = (
    ("kernels", "gpimpute.kernels", "build_correlation"),
    ("kernels", "gpimpute.kernels", "expect_k"),
    ("kernels", "gpimpute.kernels", "expect_kk_pairwise"),
    ("gp", "gpimpute.gp", "fit_gp"),
    ("gp", "gpimpute.gp", "refit_gp"),
    ("gp", "gpimpute.gp", "predict_batch"),
    ("gp", "gpimpute.gp", "make_fitted_gp"),
    ("linked", "gpimpute.linked", "propagate_moments"),
    ("linked", "gpimpute.linked", "link_predict"),
    ("dgp", "gpimpute.dgp", "train_sem"),
    ("dgp", "gpimpute.dgp", "ess_update"),
    ("dgp", "gpimpute.dgp", "predict_ensemble"),
    ("dgp", "gpimpute.dgp", "impute_covariates"),
    ("dgp", "gpimpute.dgp", "save_emulator"),
    ("dgp", "gpimpute.dgp", "load_emulator"),
    ("baselines", "gpimpute.baselines", "mice_impute"),
    ("baselines", "gpimpute.baselines", "independent_gp_impute"),
    ("baselines", "gpimpute.baselines", "locf_impute"),
    ("data", "gpimpute.data", "generate_synthetic_window"),
    ("data", "gpimpute.data", "make_mask_plan"),
    ("data", "gpimpute.data", "standardise"),
    ("experiment", "gpimpute.experiment", "run_experiment"),
    ("experiment", "gpimpute.experiment", "write_report"),
    ("cli", "gpimpute.cli", "main"),
)
TRACED_METHODS = ("sweep", "output_loglik")  # of gpimpute.dgp.LatentState, layer dgp
LBFGS_SPAN = "gp.lbfgs"

SPAN_NAMES = tuple(
    [f"{layer}.{name}" for layer, _, name in TRACED_FUNCTIONS]
    + [f"dgp.{name}" for name in TRACED_METHODS]
    + [LBFGS_SPAN]
)
# Counters gathered from arguments and return values at the traced boundaries.
COUNTERS = (
    "kernels.jitter_applied",  # returned factors with jitter_applied > 0
    "gp.lbfgs.nfev",
    "gp.lbfgs.nit",
    "gp.lbfgs.success",
    "linked.var_negative",  # propagate_moments returns with variance < 0
    "dgp.save_emulator.bytes",
    "experiment.write_report.bytes",
)


def _dir_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, f))
        for f in os.listdir(directory)
        if os.path.isfile(os.path.join(directory, f))
    )


class Tracer:
    def __init__(self):
        self.op = -1  # op id stamped on new spans; -1 during set-up
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._ops: list[int] = []
        self._stack: list[int] = []
        self.counters = {c: 0 for c in COUNTERS}
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, span: str, fn, on_result=None):
        names, starts, ends = self._names, self._starts, self._ends
        parents, ops, stack = self._parents, self._ops, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None and self.op >= 0:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _on_build_correlation(self, args, kwargs, corr):
        if corr.jitter_applied > 0:
            self.counters["kernels.jitter_applied"] += 1

    def _on_minimize(self, args, kwargs, res):
        self.counters["gp.lbfgs.nfev"] += int(res.nfev)
        self.counters["gp.lbfgs.nit"] += int(res.nit)
        self.counters["gp.lbfgs.success"] += int(bool(res.success))

    def _on_propagate(self, args, kwargs, result):
        if result[1] < 0:
            self.counters["linked.var_negative"] += 1

    def _on_save(self, args, kwargs, result):
        directory = args[1] if len(args) > 1 else kwargs["directory"]
        self.counters["dgp.save_emulator.bytes"] += _dir_bytes(directory)

    def _on_write_report(self, args, kwargs, result):
        out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
        self.counters["experiment.write_report.bytes"] += _dir_bytes(out_dir)

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every lookup site of the traced functions in loaded gpimpute modules."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        hooks = {
            "kernels.build_correlation": self._on_build_correlation,
            "linked.propagate_moments": self._on_propagate,
            "dgp.save_emulator": self._on_save,
            "experiment.write_report": self._on_write_report,
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gpimpute" or name.startswith("gpimpute."))]
        for layer, home, name in TRACED_FUNCTIONS:
            original = getattr(sys.modules[home], name)
            span = f"{layer}.{name}"
            wrapper = self._wrap(span, original, hooks.get(span))
            for module in modules:
                if getattr(module, name, None) is original:
                    self._replace(module, name, wrapper)
        cls = sys.modules["gpimpute.dgp"].LatentState
        for name in TRACED_METHODS:
            self._replace(cls, name, self._wrap(f"dgp.{name}", cls.__dict__[name]))
        gp_module = sys.modules["gpimpute.gp"]
        self._replace(gp_module, "minimize",
                      self._wrap(LBFGS_SPAN, gp_module.minimize, self._on_minimize))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: str):
        """One CSV row per span: name, start, end (perf_counter seconds), parent row, op."""
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent,op\n")
            for i, name in enumerate(self._names):
                fh.write(f"{i},{name},{self._starts[i]!r},{self._ends[i]!r},"
                         f"{self._parents[i]},{self._ops[i]}\n")

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the spans of ops 0..n_ops-1, as {name: (value, unit)}.

        ``calls``, ``self_s`` and counters are per op (run total / n_ops);
        ratios carry their base as a separate per-op count.
        """
        names = np.array(self._names, dtype=object)
        dur = np.array(self._ends) - np.array(self._starts)
        parents = np.array(self._parents, dtype=int)
        in_op = np.array(self._ops, dtype=int) >= 0
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child

        out: dict[str, tuple[float, str]] = {}
        calls = {}
        for span in SPAN_NAMES:
            sel = in_op & (names == span)
            calls[span] = int(np.sum(sel))
            out[f"{span}.calls"] = (calls[span] / n_ops, "count")
            out[f"{span}.self_s"] = (float(np.sum(self_time[sel])) / n_ops, "s")

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        out["kernels.jitter_rate"] = (
            ratio(c["kernels.jitter_applied"], calls["kernels.build_correlation"]), "ratio")
        out["gp.lbfgs.nfev"] = (c["gp.lbfgs.nfev"] / n_ops, "count")
        out["gp.lbfgs.nit"] = (c["gp.lbfgs.nit"] / n_ops, "count")
        out["gp.lbfgs.success_rate"] = (ratio(c["gp.lbfgs.success"], calls[LBFGS_SPAN]), "ratio")
        out["linked.var_clamped"] = (c["linked.var_negative"] / n_ops, "count")
        out["dgp.ess_evals_per_update"] = (
            ratio(calls["dgp.output_loglik"], calls["dgp.ess_update"]), "ratio")
        out["dgp.save_emulator.bytes"] = (c["dgp.save_emulator.bytes"] / n_ops, "bytes")
        out["experiment.write_report.bytes"] = (
            c["experiment.write_report.bytes"] / n_ops, "bytes")
        return out
