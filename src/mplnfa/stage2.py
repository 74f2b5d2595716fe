"""Second-stage updates for the factor-analytic covariance structure.

Given first-stage variational means and covariances, each component's
covariance is refined through its factor decomposition
sigma_g = lambda_g lambda_g' + diag(psi_g).  The factor scores get
their own Gaussian approximation q(u) = N(P, Q), and the loadings and
error variances are re-estimated by an inner fixed-point loop whose
form depends on the constraint pattern.  Fed the second moments
W + mean S of the variational posteriors, as the fitting driver does,
that loop's map is the EM map of factor analysis on the total bound.
"""

import numpy as np

from .core import EmptyComponentError, InputError, ModelId, NumericalError
from .stage1 import EMPTY_TOL, _as_vector, _check_counts, _check_exposure, _chol_spd, _plain_poisson

__all__ = [
    "make_stage2_stats",
    "update_q",
    "update_p",
    "elbo_stage2",
    "run_inner_loop",
]

# Error variances are clamped here after each inner sweep.
PSI_FLOOR = 1e-6
# Raw estimates at or below this signal a degenerate component.
PSI_DEGENERATE = 1e-12
# Inner-loop convergence threshold on successive Frobenius differences.
INNER_TOL = 1e-6
# Inner-loop sweep cap.
MAX_INNER = 500


def update_q(lam_g, psi_g):
    """Factor-score posterior covariance (I + lam' psi^-1 lam)^-1.

    Validates one component's factors and returns `_q_from` of them.
    """
    lam_g = np.asarray(lam_g, dtype=np.float64)
    psi_g = np.asarray(psi_g, dtype=np.float64)
    if lam_g.ndim != 2:
        raise InputError("lam_g must be a (d, K) matrix")
    if psi_g.shape != (lam_g.shape[0],) or np.any(psi_g <= 0):
        raise InputError("psi_g must be a positive length-d vector")
    return _q_from(lam_g[None], psi_g[None])[0]


def update_p(beta_g, m_ig, mu_g):
    """Factor-score posterior mean beta_g (m_ig - mu_g)."""
    beta_g = np.asarray(beta_g, dtype=np.float64)
    m_ig = np.asarray(m_ig, dtype=np.float64)
    mu_g = np.asarray(mu_g, dtype=np.float64)
    if beta_g.ndim != 2:
        raise InputError("beta_g must be a (K, d) matrix")
    if m_ig.shape != (beta_g.shape[1],) or mu_g.shape != m_ig.shape:
        raise InputError("m_ig and mu_g must be length-d vectors")
    return beta_g @ (m_ig - mu_g)


def elbo_stage2(y, c, m, s, mu_g, lam_g, psi_g, p, q):
    """Per-observation second-stage bound with explicit factor terms.

    Factorizing the latent posterior as q(x) q(u) makes this bound at
    most the first-stage one at the same (m, S); the gap closes as S
    shrinks or the loadings vanish.
    """
    y = _check_counts(y)
    d = y.shape[0]
    c = _check_exposure(c)
    m = _as_vector(m, d, "m")
    mu_g = _as_vector(mu_g, d, "mu_g")
    _chol_spd(s, "S")
    s = np.asarray(s, dtype=np.float64)
    lam_g = np.asarray(lam_g, dtype=np.float64)
    if lam_g.ndim != 2 or lam_g.shape[0] != d:
        raise InputError("lam_g must be a (d, K) matrix")
    k = lam_g.shape[1]
    psi_g = np.asarray(psi_g, dtype=np.float64)
    if psi_g.shape != (d,) or np.any(psi_g <= 0):
        raise InputError("psi_g must be a positive length-d vector")
    p = _as_vector(p, k, "p")
    lq = _chol_spd(q, "Q")
    q = np.asarray(q, dtype=np.float64)

    diff = m - mu_g
    psi_inv_diff = diff / psi_g
    lam_p = lam_g @ p
    a = (lam_g / psi_g[:, None]).T @ lam_g  # lam' psi^-1 lam, (K, K)
    logdet_s = 2.0 * np.log(np.diag(np.linalg.cholesky(s))).sum()
    logdet_q = 2.0 * np.log(np.diag(lq)).sum()
    return (
        _plain_poisson(y, np.log(c), m, np.diag(s))
        + 0.5 * logdet_s
        + 0.5 * d
        - 0.5 * diff @ psi_inv_diff
        + psi_inv_diff @ lam_p
        - 0.5 * p @ (a @ p)
        - 0.5 * np.trace(a @ q)
        - 0.5 * np.trace(s / psi_g[:, None])
        - 0.5 * np.log(psi_g).sum()
        - 0.5 * p @ p
        + 0.5 * logdet_q
        - 0.5 * np.trace(q)
        + 0.5 * k
    )


def make_stage2_stats(zhat, m, mu):
    """The scatter W (G, d, d) of the variational means m (n, G, d)
    around the component means mu (G, d), weighted by the
    responsibilities zhat (n, G) and divided by the effective sizes."""
    zhat = np.asarray(zhat, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    n_g = zhat.sum(axis=0)
    if np.any(n_g < EMPTY_TOL):
        raise EmptyComponentError("empty component in second-stage statistics")
    # sqrt(zhat)-weighted deviations laid out (G, n, d) in memory: one
    # contiguous operand times its own transpose takes half the time of
    # the product of two strided operands once d is in the hundreds, and
    # matmul makes such a product exactly symmetric
    v = np.subtract(m.transpose(1, 0, 2), mu[:, None], order="C")
    v *= np.sqrt(zhat.T)[..., None]
    return (v.transpose(0, 2, 1) @ v) / n_g[:, None, None]


def _factor_core(lam, psi):
    """The K x K core of sigma_g = lam_g lam_g' + diag(psi_g), batched.

    Returns lam' psi^-1 (G, K, d) and core = I + lam' psi^-1 lam
    (G, K, K), whose eigenvalues are at least 1.  Every inverse and
    log-determinant of sigma in the fitting loop is built from these, so
    no d x d matrix is factorized.
    """
    lam_psi = lam.transpose(0, 2, 1) / psi[:, None, :]
    return lam_psi, np.eye(lam.shape[2])[None] + lam_psi @ lam


def _core_inverse(core):
    """core^-1 (G, K, K) from one batched inverse."""
    try:
        return np.linalg.inv(core)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"loading regression solve failed: {exc}") from None


def _regression(lam, psi):
    """beta = core^-1 lam' psi^-1 (G, K, d), which equals lam' sigma^-1,
    and the core of `_factor_core`.

    beta comes from a solve against the core, not from core^-1: the
    stage-1 kernels subtract psi^-1 lam beta from psi^-1, and with psi
    near 1e-4 the product of an explicit inverse moved their
    tr(sigma^-1 S) by 3e-10 relative, against 4e-13 for the solve.
    """
    lam_psi, core = _factor_core(lam, psi)
    try:
        return np.linalg.solve(core, lam_psi), core
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"loading regression solve failed: {exc}") from None


def _q_from(lam, psi):
    """Factor-score posterior covariances core^-1, batched (G, K, K)."""
    q = _core_inverse(_factor_core(lam, psi)[1])
    return 0.5 * (q + q.transpose(0, 2, 1))


def _psi_pattern(model_id, bvec, n_g):
    """Apply the error-variance constraint pattern to per-component
    raw estimates bvec (G, d): a shared row is their n_g-weighted mean,
    an isotropic row its mean entry (`ModelId.psi_shape`)."""
    psi = np.empty_like(bvec)
    rows, cols = model_id.psi_shape(*bvec.shape)
    if rows == 1:
        bvec = ((n_g / n_g.sum()) @ bvec)[None]
    if cols == 1:
        bvec = bvec.mean(axis=1, keepdims=True)
    psi[...] = bvec
    return psi


def _sweep(model_id, w, ws_diag, n_g, lam, psi, objective=True):
    """One application of the inner fixed-point map.

    Re-fits the factor regression beta and the factor second moments
    theta at (lam, psi), then the loadings, then the error variances,
    each exactly, so the inner objective never decreases.  ws_diag is
    diag(W_g) + S-bar_g (G, d), fixed over a loop.  Returns (lam_new,
    psi_new, objective at the input (lam, psi), floor clamps); the
    objective is None, and its log-determinant and residual pass are
    skipped, if `objective` is false.

    The objective is the responsibility-weighted factorized bound with
    the factor posterior at its optimum, plus the constant (K/2) sum n_g;
    with W + mean S in place of W and a zero S-bar it is the
    sigma-dependent part of the total bound.  It is built from core, beta
    and W beta' and forms no sigma^-1:

        -1/2 sum_g n_g [sum_j log psi_gj + log|I + lam_g' psi_g^-1 lam_g|
                        + sum_j (W_gjj + S-bar_gj - sum_k (W_g beta_g')_jk lam_gjk) / psi_gj]
    """
    g, d, k = lam.shape
    lam_psi, core = _factor_core(lam, psi)
    core_inv = _core_inverse(core)
    beta = core_inv @ lam_psi  # lam_g' sigma_g^-1, (G, K, d)
    wb = w @ beta.transpose(0, 2, 1)  # W_g beta_g', (G, d, K)
    # I - beta lam = core^-1, since beta lam = core^-1 (core - I)
    theta = core_inv + beta @ wb
    theta = 0.5 * (theta + theta.transpose(0, 2, 1))
    obj = None
    if objective:
        resid = (ws_diag - np.einsum("gdk,gdk->gd", wb, lam)) / psi + np.log(psi)
        obj = -0.5 * (n_g @ (resid.sum(-1) + np.linalg.slogdet(core)[1]))

    if model_id.lambda_constrained:
        weights = n_g[:, None] / psi  # (G, d)
        lhs = (weights.T @ theta.reshape(g, k * k)).reshape(d, k, k)
        rhs = (weights[..., None] * wb).sum(0)
        try:
            rows = np.linalg.solve(lhs, rhs[..., None])[..., 0]  # (d, K)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"shared-loading solve failed: {exc}") from None
        lam_new = np.broadcast_to(rows, (g, d, k)).copy()
    else:
        try:
            lam_new = wb @ np.linalg.inv(theta)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"loading solve failed: {exc}") from None

    # diag(W_g - 2 lam beta_g W_g + lam theta_g lam') + S-bar_g maximizes
    # over psi_g at fixed lam.  Per-component loadings satisfy
    # lam_g theta_g = W_g beta_g', which cancels the theta term; shared
    # loadings do not, so they keep the full form.
    cross = (lam_new * wb).sum(-1)  # diag(lam beta_g W_g)
    if model_id.lambda_constrained:
        quad = ((lam_new @ theta) * lam_new).sum(-1)
        bvec = ws_diag - 2.0 * cross + quad
    else:
        bvec = ws_diag - cross
    psi_new = bvec  # an unconstrained pattern leaves the raw estimates as they are
    if model_id.psi_constrained or model_id.psi_isotropic:
        psi_new = _psi_pattern(model_id, bvec, n_g)
    psi_min = psi_new.min()
    if psi_min <= PSI_DEGENERATE:
        raise NumericalError(f"degenerate error variance (min {psi_min:.3g}) in inner loop")
    floored = 0
    if psi_min < PSI_FLOOR:
        below = psi_new < PSI_FLOOR
        floored = int(np.count_nonzero(below))
        psi_new = np.where(below, PSI_FLOOR, psi_new)
    return lam_new, psi_new, obj, floored


def run_inner_loop(model_id, w, n_g, s_bar, lam, psi, max_inner=MAX_INNER, tol=INNER_TOL):
    """Inner fixed-point loop for loadings and error variances.

    model_id is the constraint pattern to enforce; w (G, d, d) the
    symmetric scatter of `make_stage2_stats`, or that scatter plus the
    mean variational covariance with a zero s_bar; n_g (G,) the positive
    effective sizes; s_bar (G, d) the responsibility-weighted means of
    the variational covariance diagonals; lam (G, d, K) and psi (G, d)
    the warm start, which must already satisfy the pattern.  max_inner
    is the budget of map calls ("sweeps"), extrapolated ones included,
    so 1 gives one plain sweep; tol bounds the Frobenius norms of the
    change in lam and in psi over one map call at convergence.

    Returns (lam, psi, info) with the pattern satisfied exactly; info
    holds 'converged' (false if the budget ran out first), 'sweeps' and
    'psi_floored'.  Raises `NumericalError` if an error variance
    degenerates.

    The map `_sweep` is accelerated by SQUAREM-S3 cycles (Varadhan &
    Roland 2008): from x0, take x1 = F(x0) and x2 = F(x1), set
    r = x1 - x0, v = x2 - x1 - r and alpha = min(-|r|/|v|, -1), and
    continue from F(x') with x' = x0 - 2 alpha r + alpha^2 v.  x = (lam, psi)
    is extrapolated as one vector.  The safeguard takes x' only if every
    psi' >= PSI_FLOOR and the objective at x' is at least the one at x1;
    otherwise the cycle continues from x2.  So the objective never
    decreases and the loop ends on a map output at the map's fixed point.
    Constraint patterns are linear subspaces and x' is formed
    elementwise, so tied loading rows and isotropic or shared psi stay
    bitwise equal.
    """
    if not isinstance(model_id, ModelId):
        raise InputError("model_id must be a ModelId")
    w = np.asarray(w, dtype=np.float64)
    n_g = np.asarray(n_g, dtype=np.float64)
    if w.ndim != 3 or w.shape[1] != w.shape[2]:
        raise InputError("w must be (G, d, d)")
    g, d, _ = w.shape
    if n_g.shape != (g,) or np.any(n_g <= 0):
        raise InputError("n_g must be positive with length G")
    # relative to the scale of w: rounding leaves a product near 1e12
    # asymmetric by far more than any fixed bound
    if not np.abs(w - w.transpose(0, 2, 1)).max() <= 1e-8 * np.abs(w).max():
        raise InputError("w matrices must be symmetric")
    lam = np.asarray(lam, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    if lam.shape[:2] != (g, d) or psi.shape != (g, d):
        raise InputError("warm-start lam must be (G, d, K) and psi (G, d)")
    k = lam.shape[2]
    s_bar = np.asarray(s_bar, dtype=np.float64)
    if s_bar.shape != (g, d):
        raise InputError("s_bar must be (G, d)")
    ws_diag = w[:, np.arange(d), np.arange(d)] + s_bar  # diag(W_g) + S-bar_g
    n_lam = g * d * k
    parts = np.array([0, n_lam])  # where the lam and psi parts of a packed x start
    tol2 = tol * tol
    sweeps = 0
    floored = 0

    def f_map(x, objective=True):
        """One map call: (F(x), objective at x or None, F(x) - x,
        |F(x) - x|^2, whether lam and psi each moved by less than tol)."""
        nonlocal sweeps, floored
        sweeps += 1
        lam_new, psi_new, obj, fl = _sweep(
            model_id, w, ws_diag, n_g, x[:n_lam].reshape(g, d, k), x[n_lam:].reshape(g, d),
            objective,
        )
        floored += fl
        x_new = np.concatenate((lam_new, psi_new), axis=None)
        step = x_new - x
        lam2, psi2 = np.add.reduceat(step * step, parts)
        return x_new, obj, step, lam2 + psi2, lam2 < tol2 and psi2 < tol2

    x0 = np.concatenate((lam, psi), axis=None)
    while True:
        x1, _, r, rr, small = f_map(x0, objective=False)  # x0's objective is never read
        if small or sweeps >= max_inner:
            x, converged = x1, small
            break
        x2, obj1, u, _, small = f_map(x1)
        if small or sweeps >= max_inner:
            x, converged = x2, small
            break
        v = u - r
        vv = v @ v
        alpha = min(-float(np.sqrt(rr / vv)), -1.0) if vv > 0 else -1.0
        xp = x0 - (2.0 * alpha) * r + (alpha * alpha) * v
        x0 = x2
        if xp[n_lam:].min() < PSI_FLOOR:
            continue
        x3, obj_p, _, _, small = f_map(xp)
        if obj_p >= obj1:
            x0 = x3
            if small or sweeps >= max_inner:
                x, converged = x3, small
                break
        elif sweeps >= max_inner:
            x, converged = x2, False
            break

    return (x[:n_lam].reshape(g, d, k), x[n_lam:].reshape(g, d),
            {"converged": bool(converged), "sweeps": sweeps, "psi_floored": floored})
