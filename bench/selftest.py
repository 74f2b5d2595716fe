"""Tests of the benchmark itself: every check must reject a corrupted
result, and the span arithmetic must be right on a known call tree.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py
"""

import json
import shutil
import sys
import tempfile
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from mplnfa import em, simulate  # noqa: E402
from mplnfa.core import ModelId, NormalizationFactors  # noqa: E402

_FIT = {}


def small_fit():
    """A converged fit of setting2 at its generating triple, made once."""
    if not _FIT:
        config = simulate.preset("setting2", n=300, seed=3)
        data, labels, _ = simulate.generate(config, 0)
        fit = em.fit_single(data, NormalizationFactors.ones(data.n), 2, 3,
                            ModelId.from_string("CCC"), em.FitConfig(g_range=(2, 2), k_range=(3, 3)))
        _FIT.update(y=data.values, c=np.ones(data.n), labels=labels, fit=fit)
    return _FIT


def model_of(fit):
    m = fit.model
    return m.pi, m.mu, m.lam, m.psi


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_self_time_of_a_nested_tree():
    S = tracer.Span
    spans = [
        S(0, "root", None, 1, 0.0, 10.0),
        S(1, "a", 0, 1, 1.0, 4.0),    # overlaps b, as pool workers do
        S(2, "b", 0, 2, 3.0, 6.0),
        S(3, "a1", 1, 1, 2.0, 3.0),
        S(4, "late", 0, 3, 9.0, 12.0),  # runs past its parent's end
        S(5, "leaf", 4, 3, 10.0, 11.0),
    ]
    got = tracer.self_times(spans)
    # root: 10 minus the union [1, 6] and [9, 10] = 10 - 6
    assert got == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 2.0, 5: 1.0}


def test_tracer_wraps_restores_and_reports_missing():
    mod = types.ModuleType("mplnfa._selftest_fake")

    def inner(x):
        return x + 1, {"sweeps": 3}

    def outer(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(mod.inner, i) for i in range(n)]]

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    targets = (
        (mod.__name__, "outer", "outer", None),
        (mod.__name__, "inner", "inner", lambda a, k, r: {"sweeps": r[1]["sweeps"]}),
        (mod.__name__, "gone", "gone", None),
    )
    try:
        with tracer.Tracer(targets) as tr:
            assert mod.outer(4)[0] == (1, {"sweeps": 3})
        assert mod.inner is inner and mod.outer is outer
    finally:
        del sys.modules[mod.__name__]
    assert tr.missing == ["mplnfa._selftest_fake.gone"]
    (top,) = tr.named("outer")
    inners = tr.named("inner")
    assert len(inners) == 4
    assert all(s.parent == top.id and s.thread != threading.get_ident() for s in inners)
    assert tr.count_sum("inner", "sweeps") == 12
    assert set(tracer.layer_metrics(tr, 2)) == set(tracer.layer_metrics(tracer.Tracer(), 1))


def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = [*tracer.layer_metrics(tracer.Tracer(), 1), *run.EXTRA_LAYER_METRICS]
    assert sorted(per_layer) == sorted(emitted)
    assert all(per_layer[name] == run.unit_of(name) for name in emitted)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "fit_s", "cpu_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


# ---------------------------------------------------------------------------
# each check passes on a real fit and fails on a corrupted one
# ---------------------------------------------------------------------------


def test_bound_check_rejects_a_shift_of_one_in_a_million():
    fx = small_fit()
    fit = fx["fit"]
    pi, mu, lam, psi = model_of(fit)
    f = checks.pair_bounds(fx["y"], fx["c"], mu, lam, psi, fit.state.m, fit.state.s)
    recomputed = checks.total_bound(pi, f)
    assert checks.check_bound(fit.loglik_approx, recomputed).ok
    assert not checks.check_bound(fit.loglik_approx * (1 + 1e-6), recomputed).ok
    assert not checks.check_bound(fit.loglik_approx, checks.total_bound(pi[::-1], f)).ok


def test_fixed_point_check_rejects_a_perturbed_covariance():
    fx = small_fit()
    fit = fx["fit"]
    _, mu, lam, psi = model_of(fit)
    res = checks.fixed_point_residuals(fx["y"], fx["c"], mu, lam, psi, fit.state.m, fit.state.s)
    assert checks.check_fixed_point(*res).ok
    bad = checks.fixed_point_residuals(fx["y"], fx["c"], mu, lam, psi, fit.state.m,
                                       1.1 * fit.state.s)
    assert not checks.check_fixed_point(*bad).ok
    bad = checks.fixed_point_residuals(fx["y"], fx["c"], mu, lam, psi, fit.state.m + 0.05,
                                       fit.state.s)
    assert not checks.check_fixed_point(*bad).ok


def test_ari_check_rejects_a_permuted_label_block():
    fx = small_fit()
    truth, assigned = fx["labels"], fx["fit"].assignments
    assert checks.check_ari(truth, assigned).ok
    assert abs(checks.ari(truth, 1 - truth) - 1.0) < 1e-12
    bad = assigned.copy()
    bad[:60] = 1 - bad[:60]  # swap the labels of a fifth of the samples
    assert not checks.check_ari(truth, bad).ok


def test_trace_check_rejects_one_drop():
    trace = list(small_fit()["fit"].elbo_trace)
    assert checks.check_traces({"t": trace}).ok
    dropped = list(trace)
    dropped[2] = dropped[1] - 2e-6 * abs(dropped[1])
    assert not checks.check_traces({"t": trace, "u": dropped}).ok


def test_free_parameter_table():
    assert checks.free_params("UCC", 8, 2, 4) == 3 + 32 + 4 * 15 + 1
    assert checks.free_params("CUU", 10, 3, 2) == 1 + 20 + 27 + 20
    assert checks.free_params("CCU", 10, 3, 2) == 1 + 20 + 27 + 10
    assert checks.free_params("UUC", 8, 1, 3) == 2 + 24 + 24 + 3


def _grid(n=1000, d=8):
    grid = []
    for g in (1, 2):
        for model in ("UUU", "CCC"):
            loglik = -5000.0 + 100 * g + (3.0 if model == "UUU" else 0.0)
            fp = checks.free_params(model, d, 2, g)
            grid.append({"g": g, "k": 2, "model": model, "loglik": loglik,
                         "bic": -2 * loglik + fp * np.log(n), "error": "", "degenerate": False})
    return grid


def test_bic_check_rejects_a_wrong_parameter_count():
    grid = _grid()
    assert checks.check_bic(grid, 1000, 8).ok
    grid[1]["bic"] += np.log(1000)  # as if one more free parameter were counted
    assert not checks.check_bic(grid, 1000, 8).ok
    grid = _grid()
    assert not checks.check_bic(grid, 1000, 8,
                                count=lambda *a: checks.free_params(*a) + 1).ok


def test_selection_check_rejects_a_non_argmin():
    grid = _grid()
    best = min(grid, key=lambda e: e["bic"])
    triple = (best["g"], best["k"], best["model"])
    report = {"grid": grid, "selected": {"g": triple[0], "k": 2, "model": triple[2]}}
    assert checks.check_selection(report, triple).ok
    assert not checks.check_selection(report, (4, 2, "UCC")).ok
    other = next(e for e in grid if e is not best)
    report["selected"] = {"g": other["g"], "k": 2, "model": other["model"]}
    assert not checks.check_selection(report, (other["g"], 2, other["model"])).ok


def test_identical_check_ignores_threads_only():
    root = Path(tempfile.mkdtemp())
    try:
        a, b = root / "a", root / "b"
        a.mkdir()
        for name in checks.ARTIFACTS:
            (a / name).write_text("x,1\n")
        (a / "report.json").write_text(json.dumps({"config": {"threads": 2, "seed": 0}}))
        shutil.copytree(a, b)
        (b / "report.json").write_text(json.dumps({"config": {"threads": 3, "seed": 0}}))
        assert checks.check_identical(a, b).ok
        (b / "posteriors.csv").write_text("x,2\n")
        assert not checks.check_identical(a, b).ok
    finally:
        shutil.rmtree(root)


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
