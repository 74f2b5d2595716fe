"""Correctness checks written apart from the package.

Nothing here calls into `mplnfa`: the bound, the residuals, the
adjusted Rand index and the free-parameter table are written out from
their definitions, so a fault in the package cannot cancel against the
same fault in its check.  Each check returns a `Check`; a run is
correct when every check it made passed.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln

ARTIFACTS = ("report.json", "assignments.csv", "posteriors.csv", "elbo_trace.csv",
             "plot_data.csv")

# Measured worst cases on the three workloads are 2e-14 (bound), 1e-3
# (S fixed point), 2e-4 (mean gradient) and 0 (trace drops).
BOUND_RTOL = 1e-8
TRACE_RTOL = 1e-6
FIXED_POINT_RTOL = 1e-2
MIN_ARI = 0.95
BIC_RTOL = 1e-10


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# reading the program's artifacts
# ---------------------------------------------------------------------------


def read_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))


def read_assignments(out_dir):
    with open(Path(out_dir) / "assignments.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([int(r[1]) for r in rows])


def read_traces(out_dir):
    """{(g, k, model): [bound at iteration 0, 1, ...]} from elbo_trace.csv."""
    traces = {}
    with open(Path(out_dir) / "elbo_trace.csv", newline="", encoding="utf-8") as fh:
        for row in list(csv.reader(fh))[1:]:
            key = (int(row[0]), int(row[1]), row[2])
            traces.setdefault(key, []).append((int(row[3]), float(row[4])))
    return {key: [v for _, v in sorted(vals)] for key, vals in traces.items()}


def model_arrays(params):
    """(pi, mu, lam, psi) from the report's "parameters" block."""
    comps = params["components"]
    return (
        np.asarray(params["pi"], dtype=np.float64),
        np.array([c["mu"] for c in comps], dtype=np.float64),
        np.array([c["lambda"] for c in comps], dtype=np.float64),
        np.array([c["psi"] for c in comps], dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# the bound, recomputed
# ---------------------------------------------------------------------------


def _sigma(lam_g, psi_g):
    return lam_g @ lam_g.T + np.diag(psi_g)


def pair_bounds(y, c, mu, lam, psi, m, s):
    """f_ig, the stage-1 bound on log p(y_i | component g), for every pair.

    f = -(m-mu)'Sigma^-1(m-mu)/2 - tr(Sigma^-1 S)/2 + log|S|/2 - log|Sigma|/2 + d/2
        + m'y + log(c) sum(y) - c sum_j exp(m_j + S_jj/2) - sum_j log(y_j!)
    """
    n, g_count, d = m.shape
    y = np.asarray(y, dtype=np.float64)
    logc = np.log(c)
    const = logc * y.sum(1) - gammaln(y + 1.0).sum(1)
    f = np.empty((n, g_count))
    for g in range(g_count):
        sigma = _sigma(lam[g], psi[g])
        diff = m[:, g] - mu[g]
        quad = np.einsum("nd,nd->n", diff, np.linalg.solve(sigma, diff.T).T)
        tr = np.trace(np.linalg.solve(sigma[None], s[:, g]), axis1=1, axis2=2)
        logdet_s = np.linalg.slogdet(s[:, g])[1]
        logdet_sigma = np.linalg.slogdet(sigma)[1]
        s_diag = np.diagonal(s[:, g], axis1=1, axis2=2)
        rate_sum = (c[:, None] * np.exp(m[:, g] + 0.5 * s_diag)).sum(1)
        f[:, g] = (-0.5 * quad - 0.5 * tr + 0.5 * logdet_s - 0.5 * logdet_sigma + 0.5 * d
                   + (m[:, g] * y).sum(1) + const - rate_sum)
    return f


def total_bound(pi, f):
    """sum_i log sum_g pi_g exp(f_ig), with the row maximum factored out."""
    a = np.log(pi)[None, :] + f
    top = a.max(axis=1)
    return float((top + np.log(np.exp(a - top[:, None]).sum(1))).sum())


def check_bound(reported, recomputed, rtol=BOUND_RTOL):
    rel = abs(reported - recomputed) / max(1.0, abs(recomputed))
    return Check("bound", rel <= rtol,
                 f"reported {reported!r}, recomputed {recomputed!r}, rel {rel:.2e} (<= {rtol:g})")


# ---------------------------------------------------------------------------
# traces, fixed point, agreement
# ---------------------------------------------------------------------------


def check_traces(traces, rtol=TRACE_RTOL):
    """Every trace is non-decreasing within rtol of the previous value."""
    worst, where = 0.0, None
    for key, vals in traces.items():
        for t in range(1, len(vals)):
            drop = (vals[t - 1] - vals[t]) / max(1.0, abs(vals[t - 1]))
            if drop > worst:
                worst, where = drop, (key, t)
    return Check("trace", worst <= rtol,
                 f"{len(traces)} traces, worst relative drop {worst:.2e} at {where} (<= {rtol:g})")


def fixed_point_residuals(y, c, mu, lam, psi, m, s):
    """Largest relative residuals over pairs of the two stationarity
    conditions: S^-1 = Sigma^-1 + diag(rate) and
    y - rate - Sigma^-1 (m - mu) = 0, with rate = c exp(m + diag(S)/2)."""
    n, g_count, d = m.shape
    y = np.asarray(y, dtype=np.float64)
    worst_s = worst_m = 0.0
    for g in range(g_count):
        sig_inv = np.linalg.inv(_sigma(lam[g], psi[g]))
        s_diag = np.diagonal(s[:, g], axis1=1, axis2=2)
        rate = c[:, None] * np.exp(m[:, g] + 0.5 * s_diag)
        target = np.broadcast_to(sig_inv, (n, d, d)).copy()
        target[:, np.arange(d), np.arange(d)] += rate
        res = np.linalg.inv(s[:, g]) - target
        rel = np.linalg.norm(res, axis=(1, 2)) / np.linalg.norm(target, axis=(1, 2))
        worst_s = max(worst_s, float(rel.max()))
        pull = (m[:, g] - mu[g]) @ sig_inv
        grad = y - rate - pull
        scale = np.abs(y) + rate + np.abs(pull)
        worst_m = max(worst_m, float((np.linalg.norm(grad, axis=1)
                                      / np.linalg.norm(scale, axis=1)).max()))
    return worst_s, worst_m


def check_fixed_point(worst_s, worst_m, rtol=FIXED_POINT_RTOL):
    return Check("fixed_point", worst_s <= rtol and worst_m <= rtol,
                 f"S residual {worst_s:.2e}, mean-gradient residual {worst_m:.2e} (<= {rtol:g})")


def ari(a, b):
    """Adjusted Rand index from the contingency table of two labelings."""
    a, b = np.asarray(a), np.asarray(b)
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((len(ua), len(ub)))
    for i, j in zip(ia, ib):
        table[i, j] += 1

    def pairs(x):
        return float((x * (x - 1) / 2).sum())

    index = pairs(table)
    rows, cols = pairs(table.sum(1)), pairs(table.sum(0))
    expected = rows * cols / (len(a) * (len(a) - 1) / 2)
    top = (rows + cols) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


def check_ari(truth, assigned, floor=MIN_ARI):
    score = ari(truth, assigned)
    return Check("ari", score >= floor, f"ARI {score:.4f} (>= {floor})")


# ---------------------------------------------------------------------------
# model selection
# ---------------------------------------------------------------------------


def free_params(code, d, k, g):
    """Mixing weights, means, loadings (d*K - K(K-1)/2 each after rotation)
    and error variances, for the pattern code (loadings shared,
    variances shared, variances isotropic; C = constrained)."""
    per_loading = d * k - k * (k - 1) // 2
    loadings = per_loading if code[0] == "C" else g * per_loading
    noise = {"CC": 1, "CU": d, "UC": g, "UU": g * d}[code[1:]]
    return (g - 1) + g * d + loadings + noise


def check_bic(grid, n, d, count=free_params, rtol=BIC_RTOL):
    """Each reported BIC equals -2 loglik + free_params log n."""
    worst, where = 0.0, None
    for e in grid:
        if e["loglik"] is None:
            continue
        expect = -2.0 * e["loglik"] + count(e["model"], d, e["k"], e["g"]) * math.log(n)
        rel = abs(e["bic"] - expect) / abs(expect)
        if rel > worst:
            worst, where = rel, (e["g"], e["k"], e["model"])
    return Check("bic", worst <= rtol, f"worst relative BIC error {worst:.2e} at {where}")


def check_selection(report, expected=None):
    """The selected triple is the BIC argmin over usable cells (first in grid
    order on ties) and, when one is given, equals the expected triple."""
    usable = [(e["bic"], i, e) for i, e in enumerate(report["grid"])
              if e["error"] == "" and not e["degenerate"] and e["bic"] is not None]
    best = min(usable)[2]
    argmin = (best["g"], best["k"], best["model"])
    sel = report["selected"]
    chosen = (sel["g"], sel["k"], sel["model"])
    ok = chosen == argmin and (expected is None or chosen == tuple(expected))
    return Check("selection", ok, f"selected {chosen}, BIC argmin {argmin}, expected {expected}")


def check_identical(dir_a, dir_b):
    """Artifacts agree byte for byte, except the echoed thread count."""
    differ = []
    for name in ARTIFACTS:
        a, b = Path(dir_a) / name, Path(dir_b) / name
        if name == "report.json":
            ra, rb = read_report(dir_a), read_report(dir_b)
            ra["config"].pop("threads")
            rb["config"].pop("threads")
            same = ra == rb
        else:
            same = a.read_bytes() == b.read_bytes()
        if not same:
            differ.append(name)
    return Check("determinism", not differ, f"differing artifacts: {differ}")
