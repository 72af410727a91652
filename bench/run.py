"""gpimpute benchmark: seeded workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload impute-covariates --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Workloads: ``impute-covariates``, ``predict-output`` and ``emulator-roundtrip``
(see BENCHMARK.json for why each exists). ``predict-output`` runs here and in
the smoke test but is not listed in BENCHMARK.json: under the default OpenBLAS
threading its op time switches between speed phases that last up to minutes on
a shared 2-vCPU host, so its run-to-run spread (0.21 to 0.29 of the median over
ten 25 s runs) exceeds the largest bound a gated metric may have (0.25).
The program is imported from ``src/`` beside this directory; nothing is
installed. No BLAS or OpenMP thread variable is set, so the program runs as
users run it.

A run sets up, then runs ops one at a time until ``--seconds`` of loop time
have passed, at least MIN_OPS ops have run, and the op count is a whole number
of the workload's cycles. impute-covariates cycles through three window
lengths and its N = 115 op takes about 16 s, so its runs last three cycles,
about a minute, whatever ``--seconds`` says. Every op's output is checked.

``setup_s`` is the median wall time of SETUP_REPS fresh interpreters that each
start and import the program as this process does, plus the median of
SETUP_REPS runs of the workload's own set-up (training one emulator for
emulator-roundtrip; nothing measurable for impute-covariates, whose ops make
their inputs inside ``gpimpute run``). Beside it the report gives this
process's own import time (``import_s``) and its time from process start to
the first timed op, less the start-up probes (``time_to_first_op_s``, which
includes every set-up of the run).

``op_tail_s`` is the highest percentile of all op times with at least
TAIL_BEYOND ops beyond it (the slowest op when a run has too few ops for that).
``op_tail_gm_s`` takes that tail for each window length separately and reports
their geometric mean, so every length weighs the same: on impute-covariates
``op_tail_s`` is the slowest N = 115 op, while a doubling of the N = 40 or
N = 80 op time moves ``op_tail_gm_s`` by 26 %. emulator-roundtrip has one
window length, so there the two agree.

The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics from spans
recorded around the program's public functions. The line before it is a full
report (every metric with its details, the environment fingerprint, and with
``--trace 1`` the tracing overhead against the untraced run of the same seed,
when one was made). Reports, working files and spans go to ``.bench_out/``.

The report line also carries four metrics that BENCHMARK.json does not gate:
``fail_rate`` (0 on a correct run; failures are gated through ``correct`` and
``failed``), ``dgpsi_nlpd`` (a log density, whose sign varies across runs),
``op_p50_s`` and ``ops_per_s``. Under the default OpenBLAS threading, the
program's small and mid-sized BLAS calls switch between speed phases lasting
seconds to minutes on a shared 2-vCPU host. The median op time and the op rate
follow the share of a run spent in the fast phase, so they moved by 0.17 to
0.44 (``op_p50_s`` on impute-covariates) and 0.08 to 0.28 (``ops_per_s`` on
emulator-roundtrip) of their medians between runs. ``op_tail_s`` reads the
slow phase, or the N = 115 op past the threading cliff, and stays steadier.

``--smoke`` runs every workload briefly, traced and untraced, with all output
checks on, and exits non-zero if any op fails.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SMOKE_SECONDS = 0.5
TAIL_BEYOND = 10  # the tail percentile has at least this many ops beyond it
SETUP_REPS = 5  # start-ups and set-ups per run; setup_s adds the median of each
MIN_OPS = 9  # a run covers at least this many ops, even past --seconds


def import_program():
    """Import gpimpute from this checkout's ``src/``; return the import time in seconds."""
    if not os.path.isfile(os.path.join(SRC, "gpimpute", "__init__.py")):
        raise FileNotFoundError(f"program source not found: {os.path.join(SRC, 'gpimpute')}")
    sys.path.insert(0, SRC)
    import gpimpute

    if os.path.dirname(os.path.abspath(gpimpute.__file__)) != os.path.join(SRC, "gpimpute"):
        raise ImportError(f"imported gpimpute from {gpimpute.__file__}, not from {SRC}")
    import workloads  # noqa: F401  (imports the rest of the program)

    return time.perf_counter() - _PROCESS_T0


def fingerprint() -> dict:
    import numpy as np
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError):  # the config layout differs across versions
            return None
        return {"name": info.get("name"), "version": info.get("version")}

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gpimpute")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD's commit id, or None outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def startup_times(reps):
    """Wall times of ``reps`` fresh interpreters that each import the program as
    this process does, from process start to exit."""
    code = f"import sys; sys.path[:0] = [{SRC!r}, {BENCH_DIR!r}]; import workloads"
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tail(times):
    """Highest percentile with at least TAIL_BEYOND ops beyond it, as (value, percentile).
    With too few ops for that percentile to lie above the median, the slowest op at
    percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND  # 1-based rank of the tail value
    return ordered[rank - 1], 100.0 * rank / n


def run_workload(name, seed, seconds, trace, setup_reps, import_s, whole_cycles=True):
    """One benchmark run; returns (result line, full report)."""
    import numpy as np

    from tracing import Tracer
    from workloads import CheckError, make_workload

    work_dir = os.path.join(OUT, "work", name)
    wl = make_workload(name, work_dir, seed, setup_reps)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        startups = startup_times(setup_reps)
        setup_times = []
        for rep in range(setup_reps):
            t0 = time.perf_counter()
            wl.setup_once(rep)
            setup_times.append(time.perf_counter() - t0)

        op_times, ok_times, ok_kinds, errors = [], [], [], []
        check_failures = raised_ops = 0
        i = 0
        loop_start = time.perf_counter()
        while True:
            wl.prepare(i)
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                wl.run(i)
                raised = None
            except Exception:  # a failed op is counted and reported, the run goes on
                raised = traceback.format_exc()
            dt = time.perf_counter() - t0
            if tracer:
                tracer.op = -1
            op_times.append(dt)
            if raised:
                raised_ops += 1
                errors.append(f"op {i}: {raised}")
            else:
                try:
                    wl.check(i)
                    ok_times.append(dt)
                    ok_kinds.append(wl.kind(i))
                except (CheckError, OSError, ValueError, KeyError) as exc:
                    check_failures += 1
                    errors.append(f"op {i}: check failed: {exc!r}")
            i += 1
            elapsed = time.perf_counter() - loop_start
            if not whole_cycles:
                if elapsed >= seconds:
                    break
            elif elapsed >= seconds and i >= MIN_OPS and i % wl.cycle == 0:
                break
    finally:
        if tracer:
            tracer.uninstall()

    n_ops = i
    failed_ops = raised_ops + check_failures
    cells_attempted = n_ops * wl.cells_per_op
    failed_cells = wl.cells_failed + check_failures + raised_ops * wl.cells_per_op
    q = wl.quality
    tail_s, tail_pct = tail(ok_times) if ok_times else (float("nan"), float("nan"))
    by_kind = {k: [t for t, kk in zip(ok_times, ok_kinds) if kk == k]
               for k in sorted(set(ok_kinds))}
    kind_p50 = {k: statistics.median(v) for k, v in by_kind.items()}
    kind_tail = {k: tail(v)[0] for k, v in by_kind.items()}
    end_to_end = {
        "setup_s": (statistics.median(startups) + statistics.median(setup_times), "s"),
        "ops_per_s": (len(ok_times) / sum(op_times), "1/s"),
        "op_p50_s": (statistics.median(ok_times) if ok_times else float("nan"), "s"),
        "op_tail_s": (tail_s, "s"),
        "op_tail_gm_s": (geomean(kind_tail.values()) if ok_times else float("nan"), "s"),
        "fail_rate": (failed_cells / cells_attempted, "ratio"),
        "dgpsi_mae": (q.mae_sum / q.mae_cells if q.mae_cells else float("nan"), "orig_units"),
        "dgpsi_nlpd": (float(np.mean(q.nlpd)) if q.nlpd else float("nan"), "nats"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops": n_ops,
        "failed_ops": failed_ops,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "details": {
            "import_s": import_s,
            # process start to the first timed op, less this benchmark's start-up probes
            "time_to_first_op_s": loop_start - _PROCESS_T0 - sum(startups),
            "startup_reps_s": startups,
            "setup_reps_s": setup_times,
            "op_kind_samples": {k: len(v) for k, v in by_kind.items()},
            "op_kind_p50_s": kind_p50,
            "op_kind_tail_s": kind_tail,
            "op_tail_percentile": tail_pct,
            "op_samples": len(ok_times),
            "op_times_s": op_times,
            "cells_attempted": cells_attempted,
            "failed_cells": failed_cells,
            "dgpsi_cells": len(q.nlpd) + q.zero_variance,
            "dgpsi_zero_variance_cells": q.zero_variance,
        },
        "errors": errors,
        "fingerprint": fingerprint(),
    }
    if tracer:
        layers = tracer.layer_metrics(n_ops)
        layers["trace.ops_per_s"] = end_to_end["ops_per_s"]
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["tracing_overhead"] = tracing_overhead(name, seed, end_to_end["ops_per_s"][0])
        tracer.write_spans(os.path.join(OUT, f"trace-{name}.csv"))
        selected = layers
    else:
        selected = {k: end_to_end[k] for k in end_to_end_names()}
    result = {
        "correct": failed_ops == 0,
        "attempted": n_ops,
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in selected.items()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(result_path(name, seed, trace), "w") as fh:
        json.dump(report, fh, indent=1)
    return result, report


def result_path(name, seed, trace):
    return os.path.join(OUT, "results", f"{name}-seed{seed}-trace{trace}.json")


def tracing_overhead(name, seed, traced_ops_per_s):
    """Traced vs untraced ops_per_s for this workload and seed, if an untraced run exists."""
    try:
        with open(result_path(name, seed, 0)) as fh:
            untraced = json.load(fh)["end_to_end"]["ops_per_s"]["value"]
    except (OSError, KeyError, ValueError):
        return None
    return {
        "untraced_ops_per_s": untraced,
        "traced_ops_per_s": traced_ops_per_s,
        "difference_ops_per_s": untraced - traced_ops_per_s,
        "slowdown_share": 1.0 - traced_ops_per_s / untraced,
    }


def end_to_end_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly, traced and untraced")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        import_s = import_program()
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.smoke:
        ok = True
        for name in WORKLOADS:
            for trace in (0, 1):
                result, report = run_workload(name, 0, SMOKE_SECONDS, trace, 1, import_s,
                                              whole_cycles=False)
                for err in report["errors"]:
                    print(f"{name} trace={trace}: {err}", file=sys.stderr)
                print(json.dumps({"workload": name, "trace": trace} | result))
                ok &= result["correct"]
                import_s = 0.0  # paid once per process
        return 0 if ok else 1

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, report = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                  SETUP_REPS, import_s)
    for err in report["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
