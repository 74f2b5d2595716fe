#!/usr/bin/env python3
"""Benchmark of `mplnfa fit`: one workload per process, one JSON line out.

    python3 bench/run.py --workload grid-select --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/` directory.  The run times a few fresh interpreters that draw
its inputs from --seed and write them as counts CSVs (`setup_s`), draws
them once more in-process, then calls `mplnfa fit` in-process in whole
rounds for about --seconds seconds, one call per input in each round,
and checks the newest round's outputs with `checks.py`.  `fit_s` and
`cpu_s` take each input's fastest call over the rounds.  The last line
of standard output is {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics of a
traced repeat of each round with --trace 1.  See README.md.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, set_up  # imports neither numpy nor the package

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = tuple(WORKLOADS)
# setup_s is the median wall time of this many fresh interpreters that each
# import the package, draw the inputs and write them.
SETUP_REPEATS = 5

# Per-layer figures the run adds to `tracer.layer_metrics`.
EXTRA_LAYER_METRICS = ("io.write.bytes", "simulate.generate.s", "known_fault.s",
                       "trace.overhead_s", "trace.overhead_ratio")
UNITS = {
    "em.grid.busy_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "em.ms_per_outer_iter": "ms",
    "io.write.bytes": "B",
    "stage1.s_step.bytes": "B",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith((".s", "_s")) else "count"


@dataclass
class Op:
    """One `mplnfa fit` call as the benchmark saw it."""

    dataset: object
    out_dir: Path
    code: int
    wall: float
    cpu: float
    result: object  # the GridSearchResult the command built, if it got that far
    stderr: str


def fit_once(cli, work, dataset, tag, workers):
    out = work / "out" / tag / dataset.name
    shutil.rmtree(out, ignore_errors=True)
    argv = ["fit", "--input", str(work / f"{dataset.name}.csv"), "--out-dir", str(out),
            *dataset.flags, "--threads", str(workers), "--seed", "0"]
    captured = []
    inner = cli.grid_search

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        captured.append(result)
        return result

    cli.grid_search = capture
    gc.collect()
    err = io.StringIO()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            cli.main(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        cli.grid_search = inner
    return Op(dataset, out, code, wall, cpu, captured[0] if captured else None,
              err.getvalue().strip())


def generating_g(dataset):
    return len(set(dataset.labels.tolist()))


def check_op(checks, op):
    """Independent checks of one successful fit call."""
    ds = op.dataset
    report = checks.read_report(op.out_dir)
    found = [checks.check_selection(report, ds.expected)]
    if ds.known_fault:
        return found
    pi, mu, lam, psi = checks.model_arrays(report["parameters"])
    state = op.result.best.state
    f = checks.pair_bounds(ds.y, ds.exposures, mu, lam, psi, state.m, state.s)
    found.append(checks.check_bound(report["selected"]["loglik"], checks.total_bound(pi, f)))
    traces = checks.read_traces(op.out_dir)
    traces["selected, full precision"] = list(op.result.best.elbo_trace)
    found.append(checks.check_traces(traces))
    found.append(checks.check_fixed_point(*checks.fixed_point_residuals(
        ds.y, ds.exposures, mu, lam, psi, state.m, state.s)))
    if ds.labels is not None and report["selected"]["g"] == generating_g(ds):
        found.append(checks.check_ari(ds.labels, checks.read_assignments(op.out_dir)))
    n, d = ds.y.shape
    found.append(checks.check_bic(report["grid"], n, d))
    return found


def median(values):
    return statistics.median(values) if values else 0.0


def dir_bytes(path):
    return sum(p.stat().st_size for p in path.iterdir()) if path.is_dir() else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread per process or pool worker: at d <= 40 a second thread
    # only added CPU time, and tied each call's wall time to the load on
    # both CPUs of the shared two-CPU host.  Set before numpy loads.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mplnfa
    except ImportError as exc:
        print(f"error: cannot import mplnfa from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(mplnfa.__file__).resolve().parent != src / "mplnfa":
        print(f"error: mplnfa was imported from {mplnfa.__file__}, not {src}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def time_set_up(workload_name, seed, out):
    """Wall time from starting a fresh interpreter to its inputs on disk."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = Path(__file__).with_name("workloads.py")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(script), workload_name, str(seed), str(out)],
                   env=env, check=True)
    return time.perf_counter() - t0


def fastest_trimmed_mean(rounds, key, attr):
    """Each input's fastest call over the rounds; the mean over the inputs
    without the slowest and the fastest one."""
    per_input = zip(*[[getattr(op, attr) for op in r[key]] for r in rounds])
    fastest = sorted(min(times) for times in per_input)
    return statistics.fmean(fastest[1:-1] if len(fastest) > 2 else fastest)


def measure(args, work):
    # Imported here: the package path and BLAS threads are set first, in main.
    import checks
    import tracer
    from mplnfa import cli

    workload = WORKLOADS[args.workload]
    work.mkdir(parents=True)
    setups = [time_set_up(args.workload, args.seed, work / "setup")
              for _ in range(SETUP_REPEATS)]
    # The run's own copy of the inputs, drawn again in-process for the
    # generating labels and exposures that the checks need.
    fit_inputs, fault_ds, generate_s = set_up(workload, args.seed, work)

    rounds = []
    start = time.perf_counter()
    slowest = 0.0
    while True:
        t0 = time.perf_counter()
        if rounds:  # keep only the newest results alive, for peak RSS
            for op in rounds[-1]["fit"]:
                op.result = None
        rnd = {"fit": [fit_once(cli, work, ds, "plain", workload.workers) for ds in fit_inputs]}
        if fault_ds is not None:
            rnd["fault"] = fit_once(cli, work, fault_ds, "plain", workload.workers)
        if args.trace:
            with tracer.Tracer() as tr:
                rnd["traced"] = [fit_once(cli, work, ds, "traced", workload.workers)
                                 for ds in fit_inputs]
            for op in rnd["traced"]:
                op.result = None
            rnd["layers"] = tracer.layer_metrics(tr, workload.workers)
            rnd["missing"] = tr.missing
        rounds.append(rnd)
        slowest = max(slowest, time.perf_counter() - t0)
        if time.perf_counter() - start + slowest > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks on the newest round ------------------------------------
    last = rounds[-1]
    found = []
    for op in [*last["fit"], *filter(None, [last.get("fault")])]:
        if op.code == 0:
            found.extend((op.dataset.name, c) for c in check_op(checks, op))
        else:
            kind = "known fault" if op.dataset.known_fault else "FAILED fit"
            print(f"{kind}, {op.dataset.name}: exit {op.code}: {op.stderr}")
    if args.trace:
        for op, twin in zip(last["fit"], last["traced"]):
            found.append((op.dataset.name, checks.Check(
                "traced_exit", op.code == twin.code,
                f"exit {op.code} untraced, {twin.code} traced")))
    labelled = [op for op in last["fit"] if op.code == 0 and op.dataset.labels is not None]
    if labelled:
        hits = sum(checks.read_report(op.out_dir)["selected"]["g"] == generating_g(op.dataset)
                   for op in labelled)
        found.append((args.workload, checks.Check(
            "generating_g", 2 * hits > len(labelled),
            f"{hits} of {len(labelled)} draws select the generating G (more than half must)")))
    first = last["fit"][0]
    if workload.workers > 1 and first.code == 0:
        rerun = fit_once(cli, work, first.dataset, "rerun", workload.workers + 1)
        found.append((first.dataset.name, checks.check_identical(first.out_dir, rerun.out_dir)
                      if rerun.code == 0 else
                      checks.Check("determinism", False, f"rerun exit {rerun.code}")))
    inputs = sorted(work.glob("*.csv"))
    same = len(inputs) == len(fit_inputs) + (fault_ds is not None) and all(
        (work / "setup" / p.name).read_bytes() == p.read_bytes() for p in inputs)
    found.append((args.workload, checks.Check(
        "inputs", same, "the timed set-ups wrote the run's inputs byte for byte")))
    for name, c in found:
        print(f"check {name} {c.name}: {'ok' if c.ok else 'FAILED'}: {c.detail}")

    ops = [op for r in rounds for op in [*r["fit"], *filter(None, [r.get("fault")])]]
    failed = sum(op.code != 0 for op in ops)
    correct = all(c.ok for _, c in found)

    fit_s = fastest_trimmed_mean(rounds, "fit", "wall")
    if not args.trace:
        values = {
            "setup_s": median(setups),
            "fit_s": fit_s,
            "cpu_s": fastest_trimmed_mean(rounds, "fit", "cpu"),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "fit_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    else:
        values = {key: median([r["layers"][key] for r in rounds]) for key in last["layers"]}
        values["io.write.bytes"] = sum(dir_bytes(op.out_dir) for op in last["traced"])
        values["simulate.generate.s"] = generate_s
        values["known_fault.s"] = median([r["fault"].wall for r in rounds if "fault" in r])
        overhead = fastest_trimmed_mean(rounds, "traced", "wall") - fit_s
        values["trace.overhead_s"] = overhead
        values["trace.overhead_ratio"] = overhead / fit_s
        if last["missing"]:
            print(f"missing entry points: {', '.join(last['missing'])}")
        units = {key: unit_of(key) for key in values}

    for i, ds in enumerate(fit_inputs):
        walls = " ".join(f"{r['fit'][i].wall:.3f}" for r in rounds)
        print(f"{ds.name}: wall per round: {walls}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), {len(ops)} fit calls, "
          f"{failed} failed")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
