"""First-stage variational updates on the latent log scale.

Each observation y_i is modelled as conditionally Poisson given a
latent Gaussian vector x_i ~ N(mu_g, sigma_g), with rates
exp(x_ij + log C_i).  The marginal likelihood is intractable, so each
(observation, component) pair carries a Gaussian approximation
q(x) = N(m, S) and the per-pair objective below is a lower bound on
log p(y_i | component g).

Public functions operate on a single observation and one component;
the batched kernels used by the fitting driver live at the bottom and
must agree with them exactly (enforced by tests).
"""

import numpy as np
from scipy.special import gammaln

from .core import EmptyComponentError, InputError, NumericalError

__all__ = [
    "elbo_stage1",
    "elbo_stage1_grad_m",
    "update_s",
    "update_m",
    "update_responsibilities",
    "update_pi_mu",
]

# Threshold below which a component is treated as empty.
EMPTY_TOL = 1e-8
# Arguments to exp are clamped to this magnitude; events are counted.
EXP_CLAMP = 700.0
# Gradient sup-norm below which the mean update is skipped.
GRAD_TOL = 1e-12
# Maximum step halvings in guarded ascent updates.
MAX_HALVINGS = 10


# ---------------------------------------------------------------------------
# single observation, single component
# ---------------------------------------------------------------------------


def _as_vector(x, d, name):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise InputError(f"{name} must be a length-{d} vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError(f"{name} must be finite")
    return x

def _chol_spd(a, name):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be a square matrix")
    if not np.allclose(a, a.T, rtol=0, atol=1e-8):
        raise InputError(f"{name} must be symmetric")
    try:
        return np.linalg.cholesky(0.5 * (a + a.T))
    except np.linalg.LinAlgError:
        raise InputError(f"{name} must be positive definite") from None

def _check_counts(y, name="y"):
    y = np.asarray(y)
    if y.ndim != 1:
        raise InputError(f"{name} must be a vector of counts")
    if not np.all(y == np.floor(y)) or np.any(y < 0):
        raise InputError(f"{name} must contain nonnegative integers")
    return y.astype(np.float64)

def _check_exposure(c):
    c = float(c)
    if not np.isfinite(c) or c <= 0:
        raise InputError(f"exposure must be positive and finite, got {c}")
    return c


def _clamped_rate(logc, m, s_diag):
    """Poisson rate under q: exp(log C + m_j + S_jj / 2), clamped."""
    arg = logc + m + 0.5 * s_diag
    return np.exp(np.clip(arg, -EXP_CLAMP, EXP_CLAMP))


def elbo_stage1(y, c, m, s, mu, sigma):
    """Per-observation lower bound on log p(y | component).

    Parameters
    ----------
    y : (d,) nonnegative integer counts
    c : positive exposure
    m, mu : (d,) arrays
        Variational mean and component mean.
    s, sigma : (d, d) SPD arrays
        Variational covariance and component covariance.
    """
    y = _check_counts(y)
    d = y.shape[0]
    c = _check_exposure(c)
    m = _as_vector(m, d, "m")
    mu = _as_vector(mu, d, "mu")
    ls = _chol_spd(s, "S")
    lsig = _chol_spd(sigma, "sigma")
    s = np.asarray(s, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)

    diff = m - mu
    sig_inv_diff = np.linalg.solve(sigma, diff)
    quad = diff @ sig_inv_diff
    tr = np.trace(np.linalg.solve(sigma, s))
    logdet_s = 2.0 * np.log(np.diag(ls)).sum()
    logdet_sigma = 2.0 * np.log(np.diag(lsig)).sum()
    logc = np.log(c)
    rate = _clamped_rate(logc, m, np.diag(s))
    return (
        -0.5 * quad
        - 0.5 * tr
        + 0.5 * logdet_s
        - 0.5 * logdet_sigma
        + 0.5 * d
        + m @ y
        + logc * y.sum()
        - rate.sum()
        - gammaln(y + 1.0).sum()
    )


def elbo_stage1_grad_m(y, c, m, s, mu, sigma):
    """Gradient of `elbo_stage1` with respect to the variational mean."""
    y = _check_counts(y)
    d = y.shape[0]
    c = _check_exposure(c)
    m = _as_vector(m, d, "m")
    mu = _as_vector(mu, d, "mu")
    _chol_spd(s, "S")
    _chol_spd(sigma, "sigma")
    s = np.asarray(s, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    rate = _clamped_rate(np.log(c), m, np.diag(s))
    return y - rate - np.linalg.solve(sigma, m - mu)


def update_s(sigma, c, m, s_prev):
    """One fixed-point refresh of the variational covariance.

    Solves S_new = (sigma^-1 + diag(rate))^-1 with the rate evaluated
    at the previous covariance.  The result is SPD whenever sigma is.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    _chol_spd(sigma, "sigma")
    d = sigma.shape[0]
    c = _check_exposure(c)
    m = _as_vector(m, d, "m")
    _chol_spd(s_prev, "s_prev")
    s_prev = np.asarray(s_prev, dtype=np.float64)
    rate = _clamped_rate(np.log(c), m, np.diag(s_prev))
    try:
        sig_inv = np.linalg.inv(sigma)
        a = 0.5 * (sig_inv + sig_inv.T)
        a[np.arange(d), np.arange(d)] += rate
        s_new = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance refresh solve failed: {exc}") from None
    return 0.5 * (s_new + s_new.T)


def _elbo_m_part(y, logc, m, s_diag, mu, sigma):
    """Terms of the stage-1 bound that depend on the variational mean."""
    diff = m - mu
    quad = diff @ np.linalg.solve(sigma, diff)
    rate = _clamped_rate(logc, m, s_diag)
    return m @ y - rate.sum() - 0.5 * quad


def update_m(y, c, sigma, mu, m_prev, s_new):
    """Guarded Newton-style refresh of the variational mean.

    Takes the step S_new @ grad, halving it up to `MAX_HALVINGS` times
    if the bound decreases; returns the input unchanged when the
    gradient sup-norm is below `GRAD_TOL` or no step length helps.
    """
    y = _check_counts(y)
    d = y.shape[0]
    c = _check_exposure(c)
    mu = _as_vector(mu, d, "mu")
    m_prev = _as_vector(m_prev, d, "m_prev")
    _chol_spd(sigma, "sigma")
    _chol_spd(s_new, "s_new")
    sigma = np.asarray(sigma, dtype=np.float64)
    s_new = np.asarray(s_new, dtype=np.float64)
    logc = np.log(c)
    s_diag = np.diag(s_new)

    rate = _clamped_rate(logc, m_prev, s_diag)
    grad = y - rate - np.linalg.solve(sigma, m_prev - mu)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient in mean update")
    if np.max(np.abs(grad)) < GRAD_TOL:
        return m_prev.copy()

    step = s_new @ grad
    f0 = _elbo_m_part(y, logc, m_prev, s_diag, mu, sigma)
    slack = 1e-12 * max(1.0, abs(f0))
    eta = 1.0
    for _ in range(MAX_HALVINGS + 1):
        cand = m_prev + eta * step
        f1 = _elbo_m_part(y, logc, cand, s_diag, mu, sigma)
        if np.isfinite(f1) and f1 >= f0 - slack:
            return cand
        eta *= 0.5
    return m_prev.copy()


# ---------------------------------------------------------------------------
# across observations and components
# ---------------------------------------------------------------------------


def update_responsibilities(f, pi):
    """Posterior component probabilities from per-pair objectives.

    Computes softmax(log pi_g + f_ig) row-wise: each row's maximum is
    subtracted before exponentiating and the row is divided by its sum,
    so the result is invariant to adding a per-row constant to f and its
    rows sum to 1 to rounding even where |f| is huge.
    """
    f = np.asarray(f, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)
    if f.ndim != 2:
        raise InputError("f must be an (n, G) matrix")
    if pi.shape != (f.shape[1],):
        raise InputError("pi length must match the number of components")
    if np.any(pi <= 0) or abs(pi.sum() - 1.0) > 1e-10:
        raise InputError("pi must be positive and sum to 1")
    if not np.all(np.isfinite(f)):
        raise InputError("f must be finite")
    logw = np.log(pi)[None, :] + f
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def update_pi_mu(zhat, m):
    """Mixing proportions and component means from responsibilities.

    pi_g is the mean responsibility; mu_g the responsibility-weighted
    mean of the variational means.  Raises `EmptyComponentError` when
    any effective component size drops below `EMPTY_TOL`.
    """
    zhat = np.asarray(zhat, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if zhat.ndim != 2 or m.ndim != 3 or m.shape[:2] != zhat.shape:
        raise InputError("zhat must be (n, G) and m must be (n, G, d)")
    n_g = zhat.sum(axis=0)
    if np.any(n_g < EMPTY_TOL):
        g_bad = int(np.argmin(n_g))
        raise EmptyComponentError(
            f"component {g_bad} collapsed (effective size {n_g[g_bad]:.3g})"
        )
    pi = n_g / zhat.shape[0]
    mu = np.einsum("ng,ngd->gd", zhat, m) / n_g[:, None]
    return pi, mu


# ---------------------------------------------------------------------------
# batched kernels (driver internals)
# ---------------------------------------------------------------------------
#
# Shapes: y (n, d), logc (n,), m (n, G, d), s (n, G, d, d), mu (G, d),
# sig_inv (G, d, d), sig_logdet (G,), lam (G, d, K), psi (G, d).  All
# kernels are pure functions; em._run_em owns caching of repeated terms
# and builds sig_inv and sig_logdet from the factors (em._sigma_from).


def _sigma_factors(sigmas):
    """Inverses and log-determinants of a stack of dense SPD matrices.

    Dense reference for the batched bound kernels; the fitting loop
    never calls it.
    """
    try:
        ell = np.linalg.cholesky(sigmas)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"component covariance not positive definite: {exc}") from None
    ell_inv = np.linalg.inv(ell)
    sig_inv = np.einsum("...ji,...jk->...ik", ell_inv, ell_inv)
    sig_logdet = 2.0 * np.log(np.diagonal(ell, axis1=-2, axis2=-1)).sum(-1)
    return sig_inv, sig_logdet


def _rates_batch(logc, m, s_diag):
    """Clamped Poisson rates (n, G, d) plus the clamp-event count."""
    arg = logc[:, None, None] + m + 0.5 * s_diag
    n_clamped = int(np.count_nonzero(np.abs(arg) > EXP_CLAMP))
    return np.exp(np.clip(arg, -EXP_CLAMP, EXP_CLAMP)), n_clamped


def _quad_batch(m, mu, sig_inv):
    """(m - mu)' sigma^-1 (m - mu) for every pair, (n, G)."""
    v = np.swapaxes(m - mu[None], 0, 1)  # (G, n, d)
    return ((v @ sig_inv) * v).sum(-1).T


def _trace_batch(sig_inv, s):
    """tr(sigma^-1 S) for every pair, (n, G)."""
    return np.einsum("gde,ngde->ng", sig_inv, s)


def _halve(phi_at, floor, halvings=MAX_HALVINGS):
    """The step-halving search shared by the guarded updates.

    Tries eta = 1/2, 1/4, ... (`halvings` values) for every entry of
    `floor` and returns each entry's first eta whose objective is finite
    and at least its floor, or 0 where none is.  phi_at(eta) gets the
    current eta of every entry (an accepted entry keeps its own) and
    returns their objectives.
    """
    eta = np.full(np.shape(floor), 0.5)
    ok = np.zeros(eta.shape, dtype=bool)
    for _ in range(halvings):
        phi = phi_at(eta)
        ok |= np.isfinite(phi) & (phi >= floor)
        if ok.all():
            break
        eta[~ok] *= 0.5
    return np.where(ok, eta, 0.0)


def _update_s_guarded(sig_inv, logc, m, s, trs, logdet_s, expsum, lam, psi, sig_logdet, rate):
    """Batched covariance refresh with an ascent guard.

    One application of the fixed-point map S = (sigma^-1 + diag r)^-1,
    built from the factors sigma = lam lam' + diag(psi) by the Woodbury
    identity and the matrix-determinant lemma, without a d x d inverse:

        S = diag(psi h) + V M^-1 V',  h = 1 / (1 + psi r),  V = diag(h) lam,
        M = I + lam' diag(r h) lam,
        log|S| = log|sigma| - sum log(1 + psi r) - log|M|.

    M is K x K with eigenvalues >= 1, and no term cancels.  Entries whose
    bound terms decrease are pulled back toward the previous covariance
    by step halving (the map direction is always an ascent direction).
    Takes and returns the cached bound pieces that depend on S; `rate`
    must be evaluated at (m, diag(s)).

    Returns (s_new, trs, logdet_s, rate at (m, s_new), expsum, clamps,
    n_guarded); clamps counts the clamped rates of the full step's S.
    """
    n, g, d = m.shape
    idx = np.arange(d)
    psi_rate = psi[None] * rate
    h = 1.0 / (1.0 + psi_rate)
    v = h[..., None] * lam[None]  # (n, G, d, K)
    lam_t = np.swapaxes(lam, -1, -2)[None]
    mat_m = np.eye(lam.shape[2]) + lam_t @ ((rate * h)[..., None] * lam[None])
    try:
        ell = np.linalg.cholesky(mat_m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance refresh failed: {exc}") from None
    vl = v @ np.swapaxes(np.linalg.inv(ell), -1, -2)  # V L^-T, so V M^-1 V' = vl vl'
    s_new = vl @ np.swapaxes(vl, -1, -2)
    s_new[:, :, idx, idx] += psi[None] * h
    s_new = 0.5 * (s_new + np.swapaxes(s_new, -1, -2))
    logdet_m = 2.0 * np.log(np.diagonal(ell, axis1=-2, axis2=-1)).sum(-1)
    logdet_new = sig_logdet[None] - np.log1p(psi_rate).sum(-1) - logdet_m

    trs_new = _trace_batch(sig_inv, s_new)
    rate_new, clamps = _rates_batch(logc, m, s_new[:, :, idx, idx])
    expsum_new = rate_new.sum(-1)

    phi_old = -0.5 * trs + 0.5 * logdet_s - expsum
    phi_new = -0.5 * trs_new + 0.5 * logdet_new - expsum_new
    slack = 1e-12 * np.maximum(1.0, np.abs(phi_old))
    bad = phi_new < phi_old - slack
    n_guarded = int(np.count_nonzero(bad))
    if n_guarded:
        # Convex combinations of SPD matrices stay SPD, so halving the
        # step keeps every candidate factorizable.
        bi, bg = np.nonzero(bad)
        s_old_b = s[bi, bg]
        step = s_new[bi, bg] - s_old_b

        def terms(cand):
            """(tr(sigma^-1 S), log|S|, rates) of candidate blocks."""
            return (np.einsum("bde,bed->b", sig_inv[bg], cand), np.linalg.slogdet(cand)[1],
                    _clamped_rate(logc[bi][:, None], m[bi, bg], cand[:, idx, idx]))

        def phi_at(eta):
            tr_c, ld_c, rate_c = terms(s_old_b + eta[:, None, None] * step)
            return -0.5 * tr_c + 0.5 * ld_c - rate_c.sum(-1)

        eta = _halve(phi_at, phi_old[bi, bg] - slack[bi, bg])[:, None, None]
        # s_old_b and step are exactly symmetric, so each candidate is too.
        best = np.where(eta > 0, s_old_b + eta * step, s_old_b)
        s_new[bi, bg] = best
        trs_new[bi, bg], logdet_new[bi, bg], rate_b = terms(best)
        rate_new[bi, bg] = rate_b
        expsum_new[bi, bg] = rate_b.sum(-1)
    return s_new, trs_new, logdet_new, rate_new, expsum_new, clamps, n_guarded


def _update_m_guarded(y, logc, sig_inv, mu, m, s, rate, quad):
    """Batched guarded mean refresh.

    `rate` must be evaluated at (m, diag(s)); `quad` at (m, mu).
    Returns (m_new, rate, expsum, quad, my, clamps, n_guarded) with the
    caches refreshed at m_new.
    """
    n, g, d = m.shape
    idx = np.arange(d)
    s_diag = s[:, :, idx, idx]
    grad = y[:, None, :] - rate - np.einsum("gde,nge->ngd", sig_inv, m - mu[None])
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient in batched mean update")
    move = np.max(np.abs(grad), axis=-1) >= GRAD_TOL
    step = np.einsum("ngde,nge->ngd", s, grad)
    step[~move] = 0.0

    my0 = np.einsum("ngd,nd->ng", m, y)
    phi0 = my0 - rate.sum(-1) - 0.5 * quad

    m_new = m + step
    rate_new, clamps = _rates_batch(logc, m_new, s_diag)
    quad_new = _quad_batch(m_new, mu, sig_inv)
    my_new = np.einsum("ngd,nd->ng", m_new, y)
    phi1 = my_new - rate_new.sum(-1) - 0.5 * quad_new

    slack = 1e-12 * np.maximum(1.0, np.abs(phi0))
    bad = move & ~(np.isfinite(phi1) & (phi1 >= phi0 - slack))
    n_guarded = int(np.count_nonzero(bad))
    if n_guarded:
        bi, bg = np.nonzero(bad)
        m_old_b = m[bi, bg]
        step_b = step[bi, bg]

        def terms(cand):
            """(rates, (m - mu)' sigma^-1 (m - mu), m'y) of candidate means."""
            v = cand - mu[bg]
            return (_clamped_rate(logc[bi][:, None], cand, s_diag[bi, bg]),
                    np.einsum("bd,bde,be->b", v, sig_inv[bg], v),
                    np.einsum("bd,bd->b", cand, y[bi]))

        def phi_at(eta):
            rate_c, quad_c, my_c = terms(m_old_b + eta[:, None] * step_b)
            return my_c - rate_c.sum(-1) - 0.5 * quad_c

        eta = _halve(phi_at, phi0[bi, bg] - slack[bi, bg])[:, None]
        best = np.where(eta > 0, m_old_b + eta * step_b, m_old_b)
        m_new[bi, bg] = best
        rate_new[bi, bg], quad_new[bi, bg], my_new[bi, bg] = terms(best)
    return m_new, rate_new, rate_new.sum(-1), quad_new, my_new, clamps, n_guarded
