"""Two-stage fitting driver and model selection.

A fit alternates a first stage (responsibilities, variational means
and covariances, mixing proportions, component means) with a second
stage (loadings and error variances under the requested constraint
pattern).  The per-iteration objective is the responsibility-marginal
total bound sum_i log sum_g pi_g exp(f_ig); every first-stage step
either maximizes it exactly over its block or is guarded by step
halving, so the recorded trace is non-decreasing up to tiny slack.

The grid search fans out over (G, K, model) triples on forked worker
processes.  Each triple's fit is a pure function of the data and the
configuration, so results are identical for any worker count.
"""

import os
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
# Counts above this take the per-count constant in Stirling form.
STIRLING_SWITCH = 2e5


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


def _assign_labels(x, centers):
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
    return d2.argmin(axis=1)


def _kmeans(x, g, rng, n_starts, max_iter=200):
    """Plain Lloyd iterations from random data-point seedings.

    Keeps the labels with the lowest within-cluster sum of squares
    over `n_starts` seedings.  A seeding whose clusters empty out is
    redrawn up to `KMEANS_RESEEDS` times before failing.
    """
    n, d = x.shape
    best_labels, best_wcss = None, np.inf
    for _ in range(n_starts):
        labels = None
        centers = None
        for _attempt in range(KMEANS_RESEEDS):
            centers = x[rng.choice(n, size=g, replace=False)]
            lab = _assign_labels(x, centers)
            ok = True
            for _it in range(max_iter):
                counts = np.bincount(lab, minlength=g)
                if np.any(counts == 0):
                    ok = False
                    break
                centers = np.zeros((g, d))
                np.add.at(centers, lab, x)
                centers /= counts[:, None]
                new_lab = _assign_labels(x, centers)
                if np.array_equal(new_lab, lab):
                    break
                lab = new_lab
            if ok:
                labels = lab
                break
        if labels is None:
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


def _init_params(x, labels, g, k, model_id):
    """Cluster-wise eigen-initialization honouring the constraint pattern."""
    n, d = x.shape
    counts = np.bincount(labels, minlength=g).astype(np.float64)
    if np.any(counts == 0):
        raise NumericalError("initialization received an empty cluster")
    mu = np.zeros((g, d))
    np.add.at(mu, labels, x)
    mu /= counts[:, None]
    v = x - mu[labels]
    scatter = np.zeros((g, d, d))
    for j in range(g):
        vj = v[labels == j]
        scatter[j] = vj.T @ vj / counts[j]

    if model_id.lambda_constrained:
        pooled = np.einsum("g,gde->de", counts / n, scatter)
        lam = np.broadcast_to(_eigen_loadings(pooled, k), (g, d, k)).copy()
    else:
        lam = np.stack([_eigen_loadings(scatter[j], k) for j in range(g)])

    idx = np.arange(d)
    psi_raw = scatter[:, idx, idx] - np.einsum("gdk,gdk->gd", lam, lam)
    psi = stage2._psi_pattern(model_id, psi_raw, counts)
    psi = np.maximum(psi, INIT_PSI_FLOOR)

    pi = counts / n
    pi = pi / pi.sum()
    return pi, mu, lam, psi


def _prepare(data, factors):
    """Check the data/factors pair; return the counts y, log C and the
    transformed data x = log(y + 1) - log C_i."""
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
    return y, logc, np.log1p(y) - logc[:, None]


def _check_ranges(data, g_range, k_range):
    """G must lie in [1, n] and K in [1, d] over the whole requested range."""
    if not 1 <= g_range[0] <= g_range[1] <= data.n:
        raise InputError(f"G range {g_range} is outside [1, {data.n}]")
    if not 1 <= k_range[0] <= k_range[1] <= data.d:
        raise InputError(f"K range {k_range} is outside [1, {data.d}]")


def _start_labels(x, g, seed, n_starts):
    """The k-means labels every fit with G components starts from."""
    return _kmeans(x, g, np.random.default_rng([seed, g]), n_starts)


def initialize(data, factors, g, k, seed, n_starts=3, model_id=None):
    """Deterministic starting point for a fit.

    Clusters log-transformed counts with k-means, then builds component
    parameters by per-cluster eigen-decomposition and a variational
    state centred on the transformed data.  The same arguments always
    produce bitwise-identical output, the start that `fit_single` and
    `grid_search` use for this (seed, G).

    Returns (MixtureModel, VariationalState).
    """
    y, logc, x = _prepare(data, factors)
    if model_id is None:
        model_id = ModelId.from_string("UUU")
    g, k = int(g), int(k)
    _check_ranges(data, (g, g), (k, k))
    labels = _start_labels(x, g, seed, n_starts)
    pi, mu, sigma, m, s, _, f = _start(y, logc, x, labels, g, k, model_id)
    zhat = np.zeros((data.n, g))
    zhat[np.arange(data.n), labels] = 1.0
    return _model_and_state(g, k, model_id, pi, mu, sigma, m, s, zhat, f)


def _start(y, logc, x, labels, g, k, model_id):
    """Starting point of a fit from k-means labels.

    Returns (pi, mu, sigma, m, s, caches, f): the eigen-initialized
    parameters with sigma's factors (`_sigma_from`), variational means at
    the transformed data, every S block INIT_S_SCALE * I (s_d at
    INIT_S_SCALE, s_w zero), and the bound pieces at that point.
    """
    n, d = y.shape
    pi, mu, lam, psi = _init_params(x, labels, g, k, model_id)
    m = np.repeat(x[:, None, :], g, axis=1)
    s = (np.full((n, g, d), INIT_S_SCALE), np.zeros((n, g, d, k)))
    logdet_s = np.full((n, g), d * np.log(INIT_S_SCALE))  # log|INIT_S_SCALE * I|
    sigma = _sigma_from(lam, psi)
    caches = _make_caches(y, logc, x, m, s, mu, sigma, logdet_s)
    f = _assemble_f(caches, sigma[3], d)
    return pi, mu, sigma, m, s, caches, f


def _model_and_state(g, k, model_id, pi, mu, sigma, m, s, zhat, f):
    """The fitted model and the variational state, with the factor
    posterior (p, q) at sigma's (lam, psi)."""
    lam, psi, beta, _ = sigma
    p = np.einsum("gkd,ngd->ngk", beta, m - mu[None])
    q = stage2._q_from(lam, psi)
    model = MixtureModel.from_arrays(g, k, model_id, pi, mu, lam, psi)
    return model, VariationalState(m=m, s_d=s[0], s_w=s[1], p=p, q=q, zhat=zhat, f=f)


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
    come from the K x K core of `stage2._factor_core`, so sigma^-1 x is
    psi^-1 (x - lam beta x) and no d x d matrix is formed.
    """
    beta, core = stage2._factor_core(lam, psi)
    return lam, psi, beta, np.log(psi).sum(-1) + np.linalg.slogdet(core)[1]


def _make_caches(y, logc, x, m, s, mu, sigma, logdet_s):
    """Bound pieces reused across steps within an outer iteration.

    logdet_s (n, G) is log|S| of every block, known without factorizing S;
    pois_const (n,) is what the term of `stage1._poisson_batch` leaves out.
    """
    rate, pois, clamps = stage1._poisson_batch((y, logc, x), m, stage1._s_diag(s))
    return {
        "rate": rate,
        "pois": pois,
        "quad": stage1._quad_batch(m, mu, sigma),
        "trs": stage1._trace_batch(sigma, s),
        "logdet_s": logdet_s,
        "pois_const": _count_constant(y).sum(1),
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
        - 0.5 * sig_logdet[None, :]
        + 0.5 * d
        + caches["pois"]
        + caches["pois_const"][:, None]
    )


def _s_means(zhat, n_g, s):
    """Responsibility-weighted means over observations of diag S, (G, d),
    and of S, (G, d, d), built from the factors of S."""
    s_d, s_w = s
    n, g, d, k = s_w.shape
    idx = np.arange(d)
    # sum_i zhat_ig W_ig W_ig' as one product over the stacked sqrt(zhat) W
    wz = (np.sqrt(zhat)[..., None, None] * s_w).transpose(1, 2, 0, 3).reshape(g, d, n * k)
    mean_s = wz @ wz.transpose(0, 2, 1)
    mean_s[:, idx, idx] += np.einsum("ng,ngd->gd", zhat, s_d)
    mean_s /= n_g[:, None, None]
    return mean_s[:, idx, idx], mean_s


def _sigma_bound_part(sigma, a_bar, n_g):
    """Sigma-dependent terms of the responsibility-weighted bound.

    a_bar holds, per component, the weighted mean of
    (m - mu)(m - mu)' + S over observations; tr(sigma^-1 a_bar) is
    tr(psi^-1 a_bar) - tr(psi^-1 lam beta a_bar).
    """
    lam, psi, beta, sig_logdet = sigma
    tr = ((np.diagonal(a_bar, axis1=1, axis2=2) - (lam * (beta @ a_bar).transpose(0, 2, 1)).sum(-1))
          / psi).sum(-1)
    return float(-0.5 * np.dot(n_g, tr + sig_logdet))


def _guarded_sigma_step(model_id, a_bar, w, n_g, s_bar, sigma):
    """Run the covariance inner loop, accepting only bound-ascending steps.

    The inner loop maximizes the factorized objective, which near a fixed
    point can disagree with the traced bound by more than the convergence
    slack.  Candidates are halved toward the previous (lam, psi) until the
    sigma-dependent bound terms stop decreasing; the previous values win if
    every step fails.  Returns (lam, psi, beta, log|sigma|) of the accepted
    values (`_sigma_from`), the inner-loop info dict, and guard counters.
    """
    lam, psi = sigma[:2]
    j_old = _sigma_bound_part(sigma, a_bar, n_g)
    slack = 1e-9 * max(1.0, abs(j_old))

    lam_new, psi_new, info = stage2.run_inner_loop(model_id, w, n_g, s_bar, lam, psi)
    new = _sigma_from(lam_new, psi_new)
    if _sigma_bound_part(new, a_bar, n_g) >= j_old - slack:
        return *new, info, 0, False

    def candidate(eta):
        # convex combinations keep tied rows tied and psi above its floor
        return _sigma_from(lam + eta * (lam_new - lam), psi + eta * (psi_new - psi))

    def bound_at(eta):
        return _sigma_bound_part(candidate(eta), a_bar, n_g)

    # the full step failed; the halvings make up the rest of the budget
    eta = float(stage1._halve(bound_at, j_old - slack, stage1.MAX_HALVINGS - 1))
    if eta == 0.0:
        return *sigma, info, stage1.MAX_HALVINGS, True
    return *candidate(eta), info, -int(np.log2(eta)), False


def _run_em(y, logc, x, labels, g, k, model_id, config):
    """Alternate the two stages from a label-based start to convergence."""
    n, d = y.shape
    pi, mu, sigma, m, s, caches, f = _start(y, logc, x, labels, g, k, model_id)
    zhat, bound = stage1._e_step(f, pi)
    trace = [bound]

    diag = {
        "exp_clamped": caches["clamps"],
        "s_guard_backtracks": 0,
        "m_guard_backtracks": 0,
        "sigma_guard_backtracks": 0,
        "sigma_guard_rejects": 0,
        "psi_floored": 0,
        "stage2_nonconverged_iters": 0,
        "stage2_sweeps_last": 0,
        "degenerate": False,
        "empty_component_iteration": None,
    }
    converged = False
    n_iter = 0

    for t in range(1, config.max_outer + 1):
        n_iter = t
        n_g = zhat.sum(axis=0)
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

        pi, mu = stage1.update_pi_mu(zhat, m)

        w = stage2.make_stage2_stats(zhat, m, mu)
        s_bar, mean_s = _s_means(zhat, n_g, s)
        *sigma, info, nb, rej = _guarded_sigma_step(model_id, w + mean_s, w, n_g, s_bar, sigma)
        diag["psi_floored"] += info["psi_floored"]
        diag["stage2_sweeps_last"] = info["sweeps"]
        diag["sigma_guard_backtracks"] += nb
        diag["sigma_guard_rejects"] += int(rej)
        if not info["converged"]:
            diag["stage2_nonconverged_iters"] += 1

        caches["quad"] = stage1._quad_batch(m, mu, sigma)
        caches["trs"] = stage1._trace_batch(sigma, s)
        f = _assemble_f(caches, sigma[3], d)
        zhat, bound = stage1._e_step(f, pi)
        trace.append(bound)
        if abs(trace[-1] - trace[-2]) <= config.tol_outer * abs(trace[-2]):
            converged = True
            break

    if not diag["degenerate"] and np.any(zhat.sum(axis=0) < stage1.EMPTY_TOL):
        diag["degenerate"] = True
        diag["empty_component_iteration"] = n_iter

    loglik = trace[-1]
    rho = total_free_params(model_id, d, k, g)
    # The input passed its checks before the fit; a fitted state that these
    # checks reject is this triple's failure, which the grid records.
    try:
        model, state = _model_and_state(g, k, model_id, pi, mu, sigma, m, s, zhat, f)
        bic_val = bic(loglik, rho, n)
        icl_val = icl(bic_val, zhat)
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
        assignments=np.argmax(zhat, axis=1),
        converged=converged,
        n_iter=n_iter,
        diagnostics=diag,
    )


def fit_single(data, factors, g, k, model_id, config):
    """Fit one (G, K, model) triple.

    Starts from the (config.seed, G) k-means labels, so the result is
    bitwise the grid-search cell of the same triple.
    """
    y, logc, x = _prepare(data, factors)
    g, k = int(g), int(k)
    if not isinstance(model_id, ModelId):
        raise InputError("model_id must be a ModelId")
    _check_ranges(data, (g, g), (k, k))
    labels = _start_labels(x, g, config.seed, config.n_starts)
    return _run_em(y, logc, x, labels, g, k, model_id, config)


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


def _resolve_threads(threads):
    if threads is None:
        threads = os.cpu_count() or 1
    threads = int(threads)
    if threads < 1:
        raise InputError("thread count must be at least 1")
    return min(threads, 64)


# The triple function of a pool worker process, set there by `_set_task`.
_task = None


def _set_task(task):
    global _task
    _task = task


def _run_task(i):
    return _task(i)


def _completed(one, count, workers):
    """Yield (i, one(i)) for i in range(count), in the order they finish.

    Up to `workers` forked processes run the calls.  Fork hands `one`,
    with the data it closes over, to each worker by inheritance, so only
    the indices and the results are pickled.  The calls run in a plain
    loop in the calling thread instead when one worker would do, when
    the process has other Python threads (forking them is unsafe), or
    where the platform cannot fork.
    """
    workers = min(workers, count)
    if workers < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        for i in range(count):
            yield i, one(i)
        return
    # Loaded only here: a process that runs no pool does not pay for it.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_task, initargs=(one,)) as pool:
        futures = {pool.submit(_run_task, i): i for i in range(count)}
        for fut in as_completed(futures):
            yield futures.pop(fut), fut.result()  # a future holds its fit until released


def grid_search(data, factors, config, threads=None):
    """Fit every (G, K, model) triple and select by BIC.

    `threads` caps the worker processes (`_completed`); it never changes
    the result.  Failed or degenerate triples, including every triple of
    a G whose k-means start fails, are recorded in the summaries and
    excluded from selection; `NumericalError` is raised only when no
    triple is left to select.  The returned entries follow the triple
    order sorted by (G, K, model position); the selected fit is the
    BIC argmin with ties broken by that order, independent of worker
    scheduling.
    """
    y, logc, x = _prepare(data, factors)
    if not isinstance(config, FitConfig):
        raise InputError("config must be a FitConfig")
    _check_ranges(data, config.g_range, config.k_range)
    g_lo, g_hi = config.g_range
    k_lo, k_hi = config.k_range
    threads = _resolve_threads(threads)

    # A G whose k-means start fails is recorded against each of its triples.
    labels_by_g, start_errors = {}, {}
    for g in range(g_lo, g_hi + 1):
        try:
            labels_by_g[g] = _start_labels(x, g, config.seed, config.n_starts)
        except NumericalError as exc:
            start_errors[g] = str(exc)
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
            fit = _run_em(y, logc, x, labels_by_g[g], g, k, model, config)
        except (NumericalError, np.linalg.LinAlgError) as exc:
            return GridEntry(
                g=g, k=k, model_id=model, bic=np.nan, icl=np.nan, loglik=np.nan,
                free_params=0, converged=False, degenerate=False, n_iter=0,
                error=str(exc), elbo_trace=(),
            ), None
        return GridEntry(
            g=g, k=k, model_id=model, bic=fit.bic, icl=fit.icl,
            loglik=fit.loglik_approx, free_params=fit.free_params,
            converged=fit.converged, degenerate=fit.diagnostics["degenerate"],
            n_iter=fit.n_iter, error="", elbo_trace=tuple(fit.elbo_trace),
        ), fit

    # Fits are taken as they finish and only the best is kept, so no
    # finished fit waits in memory for an earlier triple to finish.
    results = [None] * len(triples)
    best_key, best_fit = (np.inf, 0), None
    for i, (entry, fit) in _completed(_one, len(triples), threads):
        results[i] = entry
        key = (entry.bic, i)
        if not entry.degenerate and np.isfinite(key[0]) and key < best_key:
            best_key, best_fit = key, fit

    entries = tuple(results)
    if best_fit is None:
        raise NumericalError("every grid triple failed or degenerated; nothing to select")
    eligible = [
        (e.icl, i, e)
        for i, e in enumerate(entries)
        if not e.degenerate and e.error == "" and np.isfinite(e.icl)
    ]
    best_icl = min(eligible)[2]
    return GridSearchResult(best=best_fit, best_icl=best_icl, entries=entries)
