"""Two-stage fitting driver and model selection.

A fit alternates a first stage (responsibilities, variational means
and covariances, mixing proportions, component means) with a second
stage (loadings and error variances under the requested constraint
pattern).  The per-iteration objective is the responsibility-marginal
total bound sum_i log sum_g pi_g exp(f_ig); every first-stage step
either maximizes it exactly over its block or is guarded by step
halving, and the second stage runs a few calls of a map that never
lowers it, so the recorded trace is non-decreasing up to tiny slack.

The grid search fans out over (G, K, model) triples on forked worker
processes.  Each triple's fit is a pure function of the data and the
configuration, so results are identical for any worker count.
"""

import contextlib
import os
import pickle
import select
import signal
import tempfile
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .core import (
    ALL_MODELS,
    CountMatrix,
    InputError,
    MixtureModel,
    ModelId,
    NormalizationFactors,
    NumericalError,
    VariationalState,
    _check_seed,
    total_free_params,
)
from . import stage1, stage2

__all__ = [
    "FitConfig",
    "FitResult",
    "GridEntry",
    "GridSearchResult",
    "initialize",
    "fit_single",
    "bic",
    "icl",
    "grid_search",
]

# Floor applied to initial error variances.
INIT_PSI_FLOOR = 0.05
# Initial variational covariance scale (S = INIT_S_SCALE * I).
INIT_S_SCALE = 0.1
# Reseeding attempts when a k-means start produces an empty cluster.
KMEANS_RESEEDS = 10
# Twice the rounding bound of both k-means distance forms (`_assign_labels`).
KMEANS_SLACK = 8.0
# Counts above this take the per-count constant in Stirling form.
STIRLING_SWITCH = 2e5
# Map calls of the stage-2 inner loop per outer iteration (`_sigma_step`).
SIGMA_STEP_CALLS = 10


@dataclass(frozen=True)
class FitConfig:
    """Search space and optimizer settings.

    All statistically relevant settings live here; execution settings
    (worker counts) are passed separately so a config fully determines
    the result.
    """

    g_range: tuple = (1, 3)
    k_range: tuple = (1, 2)
    models: tuple = ALL_MODELS
    n_starts: int = 3
    max_outer: int = 1000
    tol_outer: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        g_lo, g_hi = (int(self.g_range[0]), int(self.g_range[1]))
        k_lo, k_hi = (int(self.k_range[0]), int(self.k_range[1]))
        if g_lo < 1 or g_hi < g_lo:
            raise InputError(f"invalid component range {self.g_range}")
        if k_lo < 1 or k_hi < k_lo:
            raise InputError(f"invalid factor range {self.k_range}")
        object.__setattr__(self, "g_range", (g_lo, g_hi))
        object.__setattr__(self, "k_range", (k_lo, k_hi))
        models = tuple(self.models)
        if not models or not all(isinstance(m, ModelId) for m in models):
            raise InputError("models must be a non-empty tuple of ModelId")
        if len(set(models)) != len(models):
            raise InputError("models must be distinct")
        object.__setattr__(self, "models", models)
        for name in ("n_starts", "max_outer"):
            v = int(getattr(self, name))
            if v < 1:
                raise InputError(f"{name} must be at least 1")
            object.__setattr__(self, name, v)
        if not (float(self.tol_outer) > 0):
            raise InputError("tol_outer must be positive")
        object.__setattr__(self, "tol_outer", float(self.tol_outer))
        object.__setattr__(self, "seed", _check_seed(self.seed))


@dataclass(frozen=True)
class FitResult:
    """Outcome of one (G, K, model) fit."""

    g: int
    k: int
    model_id: ModelId
    model: MixtureModel
    state: VariationalState
    elbo_trace: np.ndarray
    loglik_approx: float
    free_params: int
    bic: float
    icl: float
    assignments: np.ndarray
    converged: bool
    n_iter: int
    diagnostics: dict


@dataclass(frozen=True)
class GridEntry:
    """Lightweight per-triple summary kept for every grid cell."""

    g: int
    k: int
    model_id: ModelId
    bic: float
    icl: float
    loglik: float
    free_params: int
    converged: bool
    degenerate: bool
    n_iter: int
    error: str
    elbo_trace: tuple


@dataclass(frozen=True)
class GridSearchResult:
    """Best fit by BIC plus summaries of the whole grid."""

    best: FitResult
    best_icl: GridEntry
    entries: tuple


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def _assign_labels(x, centers, x_norm):
    """The nearest center of every row of x (n, d), given the row norms
    x_norm (n, 1): the first argmin of the direct squared distances.

    Each center is scored |c|^2 - 2 x'c from one (n, d) x (d, G) product,
    which is the squared distance less |x|^2.  Either form is within
    (d + 2) u (|x| + max |c|)^2 of the exact distance, u = eps / 2, in
    any summation order; so a row whose best score beats every other by
    more than twice the sum, `KMEANS_SLACK` (d + 2) eps (|x| + max |c|)^2,
    has the same nearest center under direct distances, and only the
    other rows are re-decided by them.
    """
    sq = np.einsum("gd,gd->g", centers, centers)
    score = x @ (-2.0 * centers.T)
    score += sq
    labels = score.argmin(axis=1)
    slack = KMEANS_SLACK * (x.shape[1] + 2) * np.finfo(np.float64).eps
    near = score <= np.take_along_axis(score, labels[:, None], 1) + slack * (
        x_norm + np.sqrt(sq.max())) ** 2
    if np.count_nonzero(near) > labels.size:  # some row has a close second
        rows = np.count_nonzero(near, axis=1) > 1
        d2 = ((x[rows][:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        labels[rows] = d2.argmin(axis=1)
    return labels


def _centers(x, labels, counts):
    """Mean of the rows of x (n, d) under each label, (G, d).  `np.bincount`
    adds each center's values in row order from zero, the sums that
    `np.add.at` makes."""
    g, d = counts.size, x.shape[1]
    flat = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat, weights=x.ravel(), minlength=g * d).reshape(g, d)
    return sums / counts[:, None]


def _kmeans(x, g, rng, n_starts, max_iter=200):
    """Plain Lloyd iterations from random data-point seedings.

    Keeps the labels with the lowest within-cluster sum of squares
    over `n_starts` seedings.  A seeding whose clusters empty out is
    redrawn up to `KMEANS_RESEEDS` times before failing.
    """
    n = x.shape[0]
    x_norm = np.sqrt(np.einsum("nd,nd->n", x, x))[:, None]
    best_labels, best_wcss = None, np.inf
    for _ in range(n_starts):
        for _attempt in range(KMEANS_RESEEDS):
            centers = x[rng.choice(n, size=g, replace=False)]
            labels = _assign_labels(x, centers, x_norm)
            for _it in range(max_iter):
                counts = np.bincount(labels, minlength=g)
                if np.any(counts == 0):
                    break
                centers = _centers(x, labels, counts)
                new_labels = _assign_labels(x, centers, x_norm)
                if np.array_equal(new_labels, labels):
                    break
                labels = new_labels
            if counts.all():  # no cluster emptied out
                break
        else:
            raise NumericalError(
                f"k-means produced an empty cluster in {KMEANS_RESEEDS} consecutive seedings"
            )
        wcss = ((x - centers[labels]) ** 2).sum()
        if wcss < best_wcss:
            best_wcss, best_labels = wcss, labels
    return best_labels


def _eigen_loadings(w, k):
    """Top-k eigenvectors of a scatter matrix scaled by sqrt(eigenvalues)."""
    vals, vecs = np.linalg.eigh(0.5 * (w + w.T))
    vals = np.clip(vals[::-1][:k], 0.0, None)
    vecs = vecs[:, ::-1][:, :k]
    return vecs * np.sqrt(vals)[None, :]


@dataclass(frozen=True)
class _GStart:
    """What every fit with G components starts from (`_g_start`).

    labels (n,) are the k-means labels, counts (G,) and mu (G, d) the
    cluster sizes and means, scatter_diag (G, d) the diagonal of each
    cluster's scatter, and loadings (G, d, k_max) and pooled_loadings
    (d, k_max) the top-k_max loadings (`_eigen_loadings`) of each
    cluster's scatter and of their pooled scatter.  Loadings that no
    pattern of the fit uses are None.  Loading j depends only on the
    j-th eigenpair, so the first k columns are the top-k loadings.
    """

    labels: np.ndarray
    counts: np.ndarray
    mu: np.ndarray
    scatter_diag: np.ndarray
    loadings: object
    pooled_loadings: object


def _g_start(x, labels, g, k_max, models):
    """The `_GStart` of the labels: one `eigh` per scatter the patterns
    `models` use, and no d x d array kept."""
    n, d = x.shape
    counts = np.bincount(labels, minlength=g).astype(np.float64)
    if np.any(counts == 0):
        raise NumericalError("initialization received an empty cluster")
    mu = _centers(x, labels, counts)
    v = x - mu[labels]
    scatter = np.zeros((g, d, d))
    for j in range(g):
        vj = v[labels == j]
        scatter[j] = vj.T @ vj / counts[j]
    loadings = pooled = None
    if not all(m.lambda_constrained for m in models):
        loadings = np.stack([_eigen_loadings(w, k_max) for w in scatter])
    if any(m.lambda_constrained for m in models):
        pooled = _eigen_loadings(np.einsum("g,gde->de", counts / n, scatter), k_max)
    idx = np.arange(d)
    return _GStart(labels, counts, mu, scatter[:, idx, idx], loadings, pooled)


def _init_params(x, start, g, k, model_id):
    """Cluster-wise eigen-initialization honouring the constraint pattern,
    from the top k loadings of the G's start (`_GStart`)."""
    n, d = x.shape
    if model_id.lambda_constrained:
        lam = np.broadcast_to(start.pooled_loadings[:, :k], (g, d, k)).copy()
    else:
        lam = start.loadings[:, :, :k].copy()
    psi_raw = start.scatter_diag - np.einsum("gdk,gdk->gd", lam, lam)
    psi = stage2._psi_pattern(model_id, psi_raw, start.counts)
    psi = np.maximum(psi, INIT_PSI_FLOOR)

    pi = start.counts / n
    pi = pi / pi.sum()
    return pi, start.mu.copy(), lam, psi


def _prepare(data, factors):
    """Check the data/factors pair; return the counts y, log C, the
    transformed data x = log(y + 1) - log C_i and each row's sum of the
    per-count constant (`_count_constant`), which every fit of the data
    shares."""
    if not isinstance(data, CountMatrix):
        raise InputError("data must be a CountMatrix")
    if not isinstance(factors, NormalizationFactors):
        raise InputError("factors must be NormalizationFactors")
    if factors.n != data.n:
        raise InputError(
            f"normalization factors length {factors.n} does not match sample count {data.n}"
        )
    y = data.values.astype(np.float64)
    logc = np.log(factors.c)
    return y, logc, np.log1p(y) - logc[:, None], _count_constant(y).sum(1)


def _check_ranges(data, g_range, k_range):
    """G must lie in [1, n] and K in [1, d] over the whole requested range."""
    if not 1 <= g_range[0] <= g_range[1] <= data.n:
        raise InputError(f"G range {g_range} is outside [1, {data.n}]")
    if not 1 <= k_range[0] <= k_range[1] <= data.d:
        raise InputError(f"K range {k_range} is outside [1, {data.d}]")


def _start_of(x, g, seed, n_starts, k_max, models):
    """The `_GStart` that every fit with G components starts from: the
    k-means labels of the (seed, G) stream and the start built on them."""
    labels = _kmeans(x, g, np.random.default_rng([seed, g]), n_starts)
    return _g_start(x, labels, g, k_max, models)


def initialize(data, factors, g, k, seed, n_starts=3, model_id=None):
    """Deterministic starting point for a fit.

    Clusters log-transformed counts with k-means, then builds component
    parameters by per-cluster eigen-decomposition and a variational
    state centred on the transformed data.  The same arguments always
    produce bitwise-identical output, the start that `fit_single` and
    `grid_search` use for this (seed, G).

    Returns (MixtureModel, VariationalState).
    """
    y, logc, x, pois_const = _prepare(data, factors)
    if model_id is None:
        model_id = ModelId.from_string("UUU")
    g, k = int(g), int(k)
    _check_ranges(data, (g, g), (k, k))
    start = _start_of(x, g, seed, n_starts, k, (model_id,))
    pi, mu, sigma, m, s, _, f = _start(y, logc, x, start, g, k, model_id, pois_const)
    zhat = np.zeros((g, data.n))
    zhat[start.labels, np.arange(data.n)] = 1.0
    return _model_and_state(g, k, model_id, pi, mu, sigma, m, s, zhat, f)


def _start(y, logc, x, start, g, k, model_id, pois_const):
    """Starting point of a fit from its G's start (`_GStart`).

    Returns (pi, mu, sigma, m, s, caches, f): the eigen-initialized
    parameters with sigma's factors (`_sigma_from`), variational means at
    the transformed data, every S block INIT_S_SCALE * I (s_d at
    INIT_S_SCALE, s_w zero), and the bound pieces of `_make_caches` at
    that point, all in the loop's cluster-major layout of `stage1`
    ((G, n, ...); `_model_and_state` gives the public (n, G, ...) one).
    There the rates and the Poisson term depend on the row alone and
    tr(sigma^-1 S) on the component alone, so each is computed once, by
    the same kernels, and m, s and the pieces are read-only broadcasts
    over the other axis, which the first S step only reads.
    """
    n, d = y.shape
    pi, mu, lam, psi = _init_params(x, start, g, k, model_id)
    sigma = _sigma_from(lam, psi)
    m = np.broadcast_to(x, (g, n, d))
    s_d = np.broadcast_to(INIT_S_SCALE, (g, n, d))
    s = (s_d, np.broadcast_to(0.0, (g, n, k, d)), s_d)
    rate, pois, clamps = stage1._poisson_batch((y, logc, x), m[:1], s_d[:1])
    caches = {
        "rate": np.broadcast_to(rate, m.shape),
        "pois": np.broadcast_to(pois, (g, n)),
        "quad": stage1._quad_batch(m, mu, sigma),
        "trs": np.broadcast_to(stage1._trace_batch(sigma, tuple(a[:, :1] for a in s)), (g, n)),
        "logdet_s": np.broadcast_to(d * np.log(INIT_S_SCALE), (g, n)),  # log|INIT_S_SCALE * I|
        "pois_const": pois_const,
        "clamps": clamps * g,
    }
    f = _assemble_f(caches, sigma[3], d)
    return pi, mu, sigma, m, s, caches, f


def _model_and_state(g, k, model_id, pi, mu, sigma, m, s, zhat, f):
    """The fitted model and the variational state, with the factor
    posterior (p, q) at sigma's (lam, psi).  This is where the loop's
    cluster-major (G, n, ...) arrays meet the public layout: the state
    gets (n, G, ...) views of them (s_w as (n, G, d, K)), which
    `VariationalState` stores as C-contiguous copies, so a start's
    broadcasts become arrays and the dense S is the same product whether
    the fit was built in this process or unpickled."""
    lam, psi, beta, _ = sigma
    p = np.einsum("gkd,gnd->ngk", beta, m - mu[:, None])
    q = stage2._q_from(lam, psi)
    model = MixtureModel.from_arrays(g, k, model_id, pi, mu, lam, psi)
    return model, VariationalState(m=np.swapaxes(m, 0, 1), s_d=np.swapaxes(s[0], 0, 1),
                                   s_w=s[1].transpose(1, 0, 3, 2), p=p, q=q, zhat=zhat.T, f=f.T)


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


def bic(loglik, free_params, n):
    """Penalized score -2 loglik + free_params log n; smaller is better."""
    loglik = float(loglik)
    free_params = int(free_params)
    n = int(n)
    if n < 1 or free_params < 1:
        raise InputError("free_params and n must be positive")
    if not np.isfinite(loglik):
        raise InputError("loglik must be finite")
    return -2.0 * loglik + free_params * np.log(n)


def icl(bic_value, zhat):
    """BIC plus twice the responsibility entropy; smaller is better."""
    bic_value = float(bic_value)
    zhat = np.asarray(zhat, dtype=np.float64)
    if zhat.ndim != 2:
        raise InputError("zhat must be an (n, G) matrix")
    if np.any(zhat < 0) or np.any(np.abs(zhat.sum(axis=1) - 1.0) > 1e-8):
        raise InputError("zhat rows must be probability vectors")
    ent = -xlogy(zhat, zhat).sum()
    return bic_value + 2.0 * ent


# ---------------------------------------------------------------------------
# the outer loop
# ---------------------------------------------------------------------------


def _sigma_from(lam, psi):
    """The factors (lam, psi, beta, log|sigma|) of sigma = lam lam' + diag(psi)
    that the batched kernels take (see `stage1`).

    beta = lam' sigma^-1 and log|sigma| = sum log psi + log|I + lam' psi^-1 lam|
    come from the K x K core of `stage2._regression`, so sigma^-1 x is
    psi^-1 (x - lam beta x) and no d x d matrix is formed.
    """
    beta, core = stage2._regression(lam, psi)
    return lam, psi, beta, np.log(psi).sum(-1) + np.linalg.slogdet(core)[1]


def _make_caches(y, logc, x, m, s, mu, sigma, logdet_s, pois_const):
    """Bound pieces reused across steps within an outer iteration, at any
    (m, s); `_start` builds the same pieces at its (m, s) from their row
    and component parts.

    Every per-pair array is cluster-major (`stage1`): logdet_s (G, n) is
    log|S| of every block, known without factorizing S;
    pois_const (n,) is what the term of `stage1._poisson_batch` leaves out
    (`_prepare`).
    """
    rate, pois, clamps = stage1._poisson_batch((y, logc, x), m, s[2])
    return {
        "rate": rate,
        "pois": pois,
        "quad": stage1._quad_batch(m, mu, sigma),
        "trs": stage1._trace_batch(sigma, s),
        "logdet_s": logdet_s,
        "pois_const": pois_const,
        "clamps": clamps,
    }


def _count_constant(y):
    """y log(y + 1) - y - 1 - log y! of every count: directly (within 2e-10)
    up to `STIRLING_SWITCH`, above it in Stirling form (within 1e-13),
    where the direct difference of terms near y log y loses digits."""
    big = np.maximum(y, STIRLING_SWITCH)
    stirling = (-0.5 * np.log(2.0 * np.pi * big) + big * np.log1p(1.0 / big) - 1.0
                - 1.0 / (12.0 * big) + 1.0 / (360.0 * big**3))
    return np.where(y > STIRLING_SWITCH, stirling, y * np.log1p(y) - y - 1.0 - gammaln(y + 1.0))


def _assemble_f(caches, sig_logdet, d):
    return (
        -0.5 * caches["quad"]
        - 0.5 * caches["trs"]
        + 0.5 * caches["logdet_s"]
        - 0.5 * sig_logdet[:, None]
        + 0.5 * d
        + caches["pois"]
        + caches["pois_const"]
    )


def _s_means(zhat, n_g, s):
    """Responsibility-weighted means of S over observations, (G, d, d),
    built from the factors of S; zhat (G, n) and s cluster-major."""
    s_d, s_w = s[:2]
    g, n, k, d = s_w.shape
    idx = np.arange(d)
    # sum_i zhat_gi W_gi' W_gi as one product of the stacked sqrt(zhat) W
    wz = (np.sqrt(zhat)[..., None, None] * s_w).reshape(g, n * k, d)
    mean_s = wz.transpose(0, 2, 1) @ wz
    mean_s[:, idx, idx] += np.einsum("gn,gnd->gd", zhat, s_d)
    mean_s /= n_g[:, None, None]
    return mean_s


def _sigma_step(model_id, a_bar, n_g, sigma):
    """The second stage: `SIGMA_STEP_CALLS` map calls of the inner loop on
    a_bar = W + mean S (G, d, d) from sigma's (lam, psi).

    With a_bar in place of W and a zero S-bar, the inner objective is the
    sigma-dependent part of the total bound,
    -1/2 sum_g n_g [log|sigma_g| + tr(sigma_g^-1 a_bar_g)], and the map is the
    EM map of factor analysis on a_bar, which never lowers it; so the capped
    loop is a generalized EM step.  Returns the factors of the new sigma
    (`_sigma_from`) and the inner loop's info dict.
    """
    lam, psi, info = stage2.run_inner_loop(model_id, a_bar, n_g, np.zeros(a_bar.shape[:2]),
                                           *sigma[:2], max_inner=SIGMA_STEP_CALLS)
    return _sigma_from(lam, psi), info


def _run_em(y, logc, x, start, g, k, model_id, config, pois_const):
    """Alternate the two stages to convergence from the G's start
    (`_GStart`); pois_const is the per-row constant of `_prepare`.  Every
    per-pair array is held cluster-major (`stage1`); the public functions
    `stage1.update_pi_mu` and `stage2.make_stage2_stats` read (n, G, ...)
    views of them."""
    n, d = y.shape
    pi, mu, sigma, m, s, caches, f = _start(y, logc, x, start, g, k, model_id, pois_const)
    zhat, bound = stage1._e_step(f, pi)
    trace = [bound]

    diag = {
        "exp_clamped": caches["clamps"],
        "s_guard_backtracks": 0,
        "m_guard_backtracks": 0,
        "psi_floored": 0,
        "stage2_sweeps_last": 0,
        "degenerate": False,
        "empty_component_iteration": None,
    }
    converged = False
    n_iter = 0

    for t in range(1, config.max_outer + 1):
        n_iter = t
        n_g = zhat.sum(axis=1)
        if np.any(n_g < stage1.EMPTY_TOL):
            diag["degenerate"] = True
            diag["empty_component_iteration"] = t
            break

        (s, caches["trs"], caches["logdet_s"], caches["rate"], caches["pois"],
         cl, nb) = stage1._update_s_guarded(
            sigma, (y, logc, x), m, s, caches["trs"], caches["logdet_s"], caches["pois"],
            caches["rate"],
        )
        diag["exp_clamped"] += cl
        diag["s_guard_backtracks"] += nb
        (m, caches["rate"], caches["pois"], caches["quad"], cl, nb) = stage1._update_m_guarded(
            (y, logc, x), sigma, mu, m, s, caches["rate"], caches["pois"], caches["quad"],
        )
        diag["exp_clamped"] += cl
        diag["m_guard_backtracks"] += nb

        m_rows = np.swapaxes(m, 0, 1)  # the (n, G, d) view the public functions take
        pi, mu = stage1.update_pi_mu(zhat.T, m_rows)

        a_bar = stage2.make_stage2_stats(zhat.T, m_rows, mu) + _s_means(zhat, n_g, s)
        sigma, info = _sigma_step(model_id, a_bar, n_g, sigma)
        diag["psi_floored"] += info["psi_floored"]
        diag["stage2_sweeps_last"] = info["sweeps"]

        caches["quad"] = stage1._quad_batch(m, mu, sigma)
        caches["trs"] = stage1._trace_batch(sigma, s)
        f = _assemble_f(caches, sigma[3], d)
        zhat, bound = stage1._e_step(f, pi)
        trace.append(bound)
        if abs(trace[-1] - trace[-2]) <= config.tol_outer * abs(trace[-2]):
            converged = True
            break

    if not diag["degenerate"] and np.any(zhat.sum(axis=1) < stage1.EMPTY_TOL):
        diag["degenerate"] = True
        diag["empty_component_iteration"] = n_iter

    loglik = trace[-1]
    rho = total_free_params(model_id, d, k, g)
    # The input passed its checks before the fit; a fitted state that these
    # checks reject is this triple's failure, which the grid records.
    try:
        model, state = _model_and_state(g, k, model_id, pi, mu, sigma, m, s, zhat, f)
        bic_val = bic(loglik, rho, n)
        icl_val = icl(bic_val, state.zhat)
    except InputError as exc:
        raise NumericalError(f"fitted state rejected: {exc}") from exc
    return FitResult(
        g=g,
        k=k,
        model_id=model_id,
        model=model,
        state=state,
        elbo_trace=np.asarray(trace),
        loglik_approx=loglik,
        free_params=rho,
        bic=bic_val,
        icl=icl_val,
        assignments=np.argmax(state.zhat, axis=1),
        converged=converged,
        n_iter=n_iter,
        diagnostics=diag,
    )


def fit_single(data, factors, g, k, model_id, config):
    """Fit one (G, K, model) triple.

    Starts from the (config.seed, G) start, so the result is bitwise the
    grid-search cell of the same triple.
    """
    y, logc, x, pois_const = _prepare(data, factors)
    g, k = int(g), int(k)
    if not isinstance(model_id, ModelId):
        raise InputError("model_id must be a ModelId")
    _check_ranges(data, (g, g), (k, k))
    start = _start_of(x, g, config.seed, config.n_starts, k, (model_id,))
    return _run_em(y, logc, x, start, g, k, model_id, config, pois_const)


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


def _resolve_threads(threads):
    if threads is None:
        # The CPUs this process may run on, which a cpuset or `taskset` can
        # make fewer than the host's.
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    threads = int(threads)
    if threads < 1:
        raise InputError("thread count must be at least 1")
    return min(threads, 64)


def _pool_size(workers, count):
    """Worker processes that `grid_search` forks for its `count` triples
    (`_fork_workers`): none (a plain loop in the calling thread) when one
    worker would do, when the process has other Python threads (forking
    them is unsafe), or where the platform cannot fork."""
    workers = min(workers, count)
    if workers < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        return 0
    return workers


def _claim(spool, i):
    """Triple i's entry file in the directory `spool`, opened for writing,
    when this process is the first to create it; else None."""
    with contextlib.suppress(FileExistsError):
        return open(os.path.join(spool, f"{i}.entry"), "xb")


def _rank(entry, i):
    """Triple i's rank in the BIC selection, lowest first: (BIC, i), or (inf, i)
    when it cannot be selected, which never ranks below the start (inf, 0)."""
    return (np.inf if entry.degenerate or not np.isfinite(entry.bic) else entry.bic), i


def _spooled_entry(spool, i):
    """The `GridEntry` that a worker wrote for triple i."""
    with open(os.path.join(spool, f"{i}.entry"), "rb") as fh:
        return pickle.load(fh)


def _load_fit(path):
    """The fit that a worker pickled to `path`."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _work(one, count, spool, parent, status_fd):
    """A forked worker's whole life: claim triples in grid order, writing
    each one's entry (`one(i)`) to the file that claimed it and keeping only
    its best fit by `_rank`, until none is left or the process that forked
    it (pid `parent`) is gone; then pickle that fit to `<i>.pickle`, unless
    orphaned, and leave through `os._exit`.  An exception that ends it is
    written to `status_fd` first.  It ignores SIGINT and takes SIGTERM's
    default action; the parent blocked both across the fork."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT, signal.SIGTERM})
        best_key, best_fit = (np.inf, 0), None
        for i in range(count):
            if os.getppid() != parent:
                break
            if (fh := _claim(spool, i)) is None:
                continue
            with fh:
                entry, fit = one(i)
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            if (key := _rank(entry, i)) < best_key:
                best_key, best_fit = key, fit
            del fit  # only the best fit outlives its triple
        if best_fit is not None and os.getppid() == parent:
            with open(os.path.join(spool, f"{best_key[1]}.pickle"), "wb") as fh:
                pickle.dump(best_fit, fh, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    except BaseException as exc:
        # One write of at most PIPE_BUF bytes to an empty pipe never blocks.
        os.write(status_fd, _error_text(exc).encode()[:select.PIPE_BUF])
    finally:
        os._exit(code)


def _exit_text(pid, status, said):
    """How worker `pid` ended, from its wait status and what it wrote."""
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        how = f"exited with status {code}"
    else:
        try:
            how = f"was killed by {signal.Signals(-code).name}"
        except ValueError:
            how = f"was killed by signal {-code}"
    return f"grid worker process {pid} {how}" + (f": {said}" if said else "")


def _fork_workers(one, count, spool, workers):
    """Run triples 0 … count−1 on `workers` forked children (`_work`) that
    spool their results in the directory `spool`; return once every child
    has exited.

    Each child holds the write end of its own pipe, so the pipe's EOF marks
    its exit and `poll` wakes the parent at once, without a timeout; the
    parent then reaps that pid alone (never `waitpid(-1)`, which could reap
    a caller's own subprocesses).  A child that exits nonzero or by a
    signal raises RuntimeError naming its status or signal.  On that or any
    other exception, Ctrl-C included, every child still running is killed
    and reaped before the exception propagates."""
    parent = os.getpid()
    live = {}  # read end of a child's pipe -> the child's pid
    ends = select.poll()
    try:
        # A Ctrl-C or SIGTERM during the forks waits until the new child has
        # set its own actions and is then the parent's alone.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        try:
            for _ in range(workers):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(r)
                    os.close(w)
                    raise
                if pid == 0:
                    _work(one, count, spool, parent, w)
                os.close(w)
                live[r] = pid
                ends.register(r, select.POLLIN)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        while live:
            for r, _ in ends.poll():
                said = os.read(r, select.PIPE_BUF).decode(errors="replace")
                ends.unregister(r)
                os.close(r)
                pid = live.pop(r)
                status = os.waitpid(pid, 0)[1]
                if status:
                    raise RuntimeError(_exit_text(pid, status, said))
    finally:
        for r, pid in live.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)


class _Terminated(BaseException):
    """A SIGTERM that arrived while the calling process held a spool
    (`_spool`)."""


def _terminated(signum, frame):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # a second one must not cut the cleanup short
    raise _Terminated


@contextlib.contextmanager
def _spool():
    """A fresh spool directory (`mplnfa-*`, in `tempfile`'s default
    location, which honours TMPDIR), removed on leaving.  While it is held
    in the main thread, a SIGTERM whose action is the default raises
    `_Terminated`, so the workers are killed and reaped and the directory
    is removed as on Ctrl-C; the process then ends by SIGTERM all the
    same."""
    catch = (signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
             and threading.current_thread() is threading.main_thread())
    try:
        if catch:
            signal.signal(signal.SIGTERM, _terminated)
        with tempfile.TemporaryDirectory(prefix="mplnfa-") as spool:
            yield spool
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)
        raise
    finally:
        if catch:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _error_text(exc):
    """A failed triple's error: the message of a numerical failure, any
    other exception's prefixed by its class name."""
    if isinstance(exc, (NumericalError, np.linalg.LinAlgError)):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def grid_search(data, factors, config, threads=None):
    """Fit every (G, K, model) triple and select by BIC.

    `threads` caps the worker processes (`_pool_size`); it never changes
    the result.  Every G's start (`_start_of`) is built once, before the
    workers fork (`_fork_workers`).  Each worker claims the next unclaimed
    triple itself and spools its entry to a temporary directory (`_spool`),
    and when no triple is left, its own best fit.  The calling process
    starts no thread; it waits for its workers to exit, reads the entries
    back in grid order and unpickles only the selected fit.  A worker that
    dies raises RuntimeError; on that, Ctrl-C, SIGTERM or any other
    exception the workers are killed and reaped, and the directory is
    removed before the call returns or raises (SIGTERM then ends the
    process).  A triple whose fit raises an `Exception`, or whose G's
    start does, is recorded in the summaries with its error
    (`_error_text`) and excluded from selection, as is a degenerate one;
    `NumericalError` is raised only when no triple is left to select, and
    names the first failed triple.  The returned entries follow the triple
    order sorted by (G, K, model position); the selected fit is the BIC
    argmin with ties broken by that order (`_rank`), independent of worker
    scheduling.
    """
    y, logc, x, pois_const = _prepare(data, factors)
    if not isinstance(config, FitConfig):
        raise InputError("config must be a FitConfig")
    _check_ranges(data, config.g_range, config.k_range)
    g_lo, g_hi = config.g_range
    k_lo, k_hi = config.k_range
    threads = _resolve_threads(threads)

    # One start per G, which forked workers inherit; a G whose start
    # fails is recorded against each of its triples.
    starts, start_errors = {}, {}
    for g in range(g_lo, g_hi + 1):
        try:
            starts[g] = _start_of(x, g, config.seed, config.n_starts, k_hi, config.models)
        except Exception as exc:
            start_errors[g] = _error_text(exc)
    triples = [
        (g, k, model)
        for g in range(g_lo, g_hi + 1)
        for k in range(k_lo, k_hi + 1)
        for model in config.models
    ]

    def _one(i):
        """(GridEntry, fit) of triple i; the fit is None where it failed."""
        g, k, model = triples[i]
        try:
            if g in start_errors:
                raise NumericalError(start_errors[g])
            fit = _run_em(y, logc, x, starts[g], g, k, model, config, pois_const)
        except Exception as exc:  # not BaseException: Ctrl-C still ends the grid
            return GridEntry(
                g=g, k=k, model_id=model, bic=np.nan, icl=np.nan, loglik=np.nan,
                free_params=0, converged=False, degenerate=False, n_iter=0,
                error=_error_text(exc), elbo_trace=(),
            ), None
        return GridEntry(
            g=g, k=k, model_id=model, bic=fit.bic, icl=fit.icl,
            loglik=fit.loglik_approx, free_params=fit.free_params,
            converged=fit.converged, degenerate=fit.diagnostics["degenerate"],
            n_iter=fit.n_iter, error="", elbo_trace=tuple(fit.elbo_trace),
        ), fit

    # Entries are taken in triple order and only the best fit is kept.
    # Forked workers inherit `_one`, with the data it closes over.  The
    # children have all exited before the spool is removed.
    workers = _pool_size(threads, len(triples))
    results = [None] * len(triples)
    best_key, best_fit = (np.inf, 0), None
    with (_spool() if workers else contextlib.nullcontext()) as spool:
        if workers:
            _fork_workers(_one, len(triples), spool, workers)
        for i in range(len(triples)):
            entry, fit = (_spooled_entry(spool, i), None) if workers else _one(i)
            results[i] = entry
            if (key := _rank(entry, i)) < best_key:
                best_key, best_fit = key, fit
            del fit  # only the best fit outlives its triple, as in `_work`
        if workers and best_key[0] < np.inf:
            best_fit = _load_fit(os.path.join(spool, f"{best_key[1]}.pickle"))

    entries = tuple(results)
    if best_fit is None:
        first = next((e for e in entries if e.error), entries[0])
        raise NumericalError(
            "every grid triple failed or degenerated; nothing to select; first failure at "
            f"(G={first.g}, K={first.k}, {first.model_id}): {first.error or 'degenerate'}")
    eligible = [
        (e.icl, i, e)
        for i, e in enumerate(entries)
        if not e.degenerate and e.error == "" and np.isfinite(e.icl)
    ]
    best_icl = min(eligible)[2]
    return GridSearchResult(best=best_fit, best_icl=best_icl, entries=entries)
