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


def _plain_poisson(y, logc, m, s_diag):
    """m'y + log C sum(y) - sum(rates) - sum(log y!), the plain Poisson part."""
    return m @ y + logc * y.sum() - _clamped_rate(logc, m, s_diag).sum() - gammaln(y + 1.0).sum()


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
    return (
        -0.5 * quad
        - 0.5 * tr
        + 0.5 * logdet_s
        - 0.5 * logdet_sigma
        + 0.5 * d
        + _plain_poisson(y, np.log(c), m, np.diag(s))
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
    """The stage-1 bound up to terms constant in the variational mean."""
    diff = m - mu
    return _plain_poisson(y, logc, m, s_diag) - 0.5 * diff @ np.linalg.solve(sigma, diff)


def update_m(y, c, sigma, mu, m_prev, s_new):
    """Guarded Newton-style refresh of the variational mean.

    Takes the first of the steps eta S_new @ grad, eta = 1, 1/2, ...
    (`MAX_HALVINGS` halvings), whose bound is finite and not below the
    old one less a 1e-12 relative slack, in a plain loop of its own;
    returns a copy of the input when the gradient sup-norm is below
    `GRAD_TOL` or no step length helps.
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
    floor = f0 - 1e-12 * max(1.0, abs(f0))
    for eta in 0.5 ** np.arange(MAX_HALVINGS + 1):
        m = m_prev + eta * step
        f = _elbo_m_part(y, logc, m, s_diag, mu, sigma)
        if np.isfinite(f) and f >= floor:
            return m
    return m_prev.copy()


# ---------------------------------------------------------------------------
# across observations and components
# ---------------------------------------------------------------------------


def update_responsibilities(f, pi):
    """Posterior component probabilities softmax(log pi_g + f_ig), row-wise
    and max-shifted (`_e_step`): invariant to adding a per-row constant to
    f, with rows that sum to 1 to rounding even where |f| is huge."""
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
    return _e_step(f, pi)[0]


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
# Shapes: rows obs = (y, logc, x), m (n, G, d), mu (G, d).  A component
# covariance travels as its factors sigma = (lam, psi, beta, logdet):
# lam (G, d, K), psi (G, d), beta = lam' sigma^-1 (G, K, d) and
# log|sigma| (G,), from em._sigma_from.  A variational covariance travels
# as s = (s_d, s_w, s_diag), S = diag(s_d) + s_w' s_w with s_d (n, G, d),
# the factor K-major as s_w (n, G, K, d), and s_diag = diag S (n, G, d),
# made once where S is made (`_s_of`, em._start) and read by the Poisson
# terms, the m step and `_trace_batch`.  A full S step takes
# tr(sigma^-1 S) in closed form at the rho it was made from; `_trace_batch`
# serves an S made at another sigma.  Every kernel costs O(d K^2) per pair
# and forms no d x d matrix.  The guards run the same kernels on the b
# pairs they pull back, laid out as one row: per-pair arrays (1, b, ...)
# and sigma taken at those pairs' components (`_take`).  All kernels are
# pure functions; em._run_em owns caching of repeated terms.


def _e_step(f, pi):
    """Responsibilities softmax(log pi + f) and the total bound
    sum_i log sum_g pi_g exp(f_ig) from one max-shifted exponential.  Row
    i's log-sum-exp is log1p(r_i / c_i) + log c_i + t_i, as in scipy: t_i
    is its maximum, c_i how often it occurs, r_i the other terms' sum."""
    if not np.all(np.isfinite(f)):
        raise NumericalError("non-finite per-pair bound in the E-step")
    logw = np.log(pi)[None, :] + f
    top = logw.max(axis=1, keepdims=True)
    w = np.exp(logw - top)
    at_top = logw == top
    count = at_top.sum(axis=1)
    rest = np.where(at_top, 0.0, w).sum(axis=1) / count
    bound = float((np.log1p(rest) + np.log(count) + top[:, 0]).sum())
    return w / w.sum(axis=1, keepdims=True), bound


def _take(sigma, comps):
    """sigma's factors at the components `comps`, one per pair."""
    return tuple(a[comps] for a in sigma)


def _comp_apply(a, x):
    """a_g x for every vector x of a pair with component g, (n, G, ..., p).

    a (G, p, q) holds one matrix per component and x (n, G, ..., q) the
    vectors of every pair.  One matrix product per component covers all
    of its pairs; a product per pair would cost n times the calls.
    """
    xg = np.swapaxes(x, 0, 1)
    out = xg.reshape(xg.shape[0], -1, xg.shape[-1]) @ np.swapaxes(a, -1, -2)
    return np.swapaxes(out.reshape(*xg.shape[:-1], a.shape[-2]), 0, 1)


def _chol_inv(mat):
    """Inverses of the Cholesky factors of a stack of SPD matrices, held
    entry by entry as contiguous planes mat (K, K, ...), and their
    log-determinants from the pivots.  Raises `NumericalError` at a pivot
    that is not positive, NaN included."""
    k = mat.shape[0]
    ell = np.zeros_like(mat)
    logdet = np.zeros(mat.shape[2:])
    for i in range(k):
        for j in range(i + 1):
            acc = mat[i, j].copy()
            for q in range(j):
                acc -= ell[i, q] * ell[j, q]
            if i > j:
                ell[i, j] = acc / ell[j, j]
            elif np.all(acc > 0):
                logdet += np.log(acc)
                ell[i, i] = np.sqrt(acc)
            else:
                raise NumericalError("covariance refresh failed: Matrix is not positive definite")
    inv = np.zeros_like(mat)
    for i in range(k):
        inv[i, i] = 1.0 / ell[i, i]
        for j in range(i):
            acc = ell[i, j] * inv[j, j]
            for q in range(j + 1, i):
                acc += ell[i, q] * inv[q, j]
            inv[i, j] = -acc * inv[i, i]
    return inv, logdet


def _s_diag(s):
    """diag S = s_d + the sum of s_w^2 over the K planes, (..., d)."""
    s_d, s_w = s[:2]
    return s_d + np.einsum("...kd,...kd->...d", s_w, s_w)


def _s_apply(s, x):
    """S x = s_d x + s_w' (s_w x) for every pair, (..., d)."""
    s_d, s_w = s[:2]
    return s_d * x + np.einsum("...kd,...k->...d", s_w, np.einsum("...kd,...d->...k", s_w, x))


def _sig_inv_apply(x, sigma):
    """sigma^-1 x = psi^-1 (x - lam beta x) for every vector x (n, G, ..., d)."""
    lam, psi, beta, _ = sigma
    out = x - _comp_apply(lam, _comp_apply(beta, x))
    out /= np.expand_dims(psi, tuple(range(1, x.ndim - 2)))
    return out


def _poisson_batch(obs, m, s_diag):
    """Clamped rates, each pair's Poisson term and the clamp count.

    obs = (y, log C, x = log(y + 1) - log C) are the rows of m and s_diag
    (n, ..., d).  With e = expm1(m + s/2 - x) at the clamped rate argument,
    the term sum_j y_j (m_j - x_j - e_j) - e_j is m'y + log C sum(y) - sum(rates)
    less sum_j (y_j log(y_j + 1) - y_j - 1): the deviance form, whose pieces
    stay small where those sums are huge and cancel.
    """
    y, logc, x = (v.reshape(v.shape[:1] + (1,) * (m.ndim - v.ndim) + v.shape[1:]) for v in obs)
    half_s = 0.5 * s_diag
    arg = logc + m
    arg += half_s
    n_clamped = int(np.count_nonzero(np.abs(arg) > EXP_CLAMP))
    clipped = np.clip(arg, -EXP_CLAMP, EXP_CLAMP) if n_clamped else arg
    r = m - x
    e = r + half_s
    e = np.expm1(e + (clipped - arg) if n_clamped else e, out=e)
    r -= e
    # einsum reduces the short last axis several times faster than sum(-1)
    term = np.einsum("...d,...d->...", r, y) - np.einsum("...d->...", e)
    return np.exp(clipped, out=clipped), term, n_clamped


def _split_apply(sigma, x):
    """(lam' psi^-1 x, beta x) for every vector x (n, G, ..., d), from one
    product of the stacked (G, 2K, d) [lam' psi^-1; beta] per component.

    With sigma^-1 = psi^-1 - psi^-1 lam beta, the pair gives
    x' sigma^-1 y = x' psi^-1 y - (lam' psi^-1 x)' (beta y).
    """
    lam, psi, beta, _ = sigma
    k = lam.shape[-1]
    lam_psi = np.swapaxes(lam, -1, -2) / psi[..., None, :]
    ab = _comp_apply(np.concatenate((lam_psi, beta), axis=-2), x)
    return ab[..., :k], ab[..., k:]


def _quad_batch(m, mu, sigma):
    """(m - mu)' sigma^-1 (m - mu) for every pair, (n, G), in the split
    form of `_split_apply`."""
    v = m - mu
    a, b = _split_apply(sigma, v)
    return np.einsum("...d,...d->...", v / sigma[1], v) - np.einsum("...k,...k->...", a, b)


def _trace_batch(sigma, s):
    """tr(sigma^-1 S) for every pair, (n, G).

    With sigma^-1 = psi^-1 (I - lam beta), tr(sigma^-1 S) is
    tr(psi^-1 S) - tr(psi^-1 lam beta diag(s_d)) - <A, B>, where
    A = lam' psi^-1 s_w' and B = beta s_w' are K x K.
    """
    lam, psi, beta, _ = sigma
    s_d, s_w, s_diag = s
    lam_beta = (lam * np.swapaxes(beta, -1, -2)).sum(-1)  # diag(lam beta), (G, d)
    # row c of a and b is (A[:, c], B[:, c]), for row c of s_w
    a, b = _split_apply(sigma, s_w)
    return (((s_diag - s_d * lam_beta) / psi).sum(-1)
            - np.einsum("...ck,...ck->...", a, b))


def _s_trace(rho, s_diag):
    """tr(sigma^-1 S) at S = S(rho) of `_s_of`: sigma^-1 S = I - diag(rho) S,
    so it is d - sum_j rho_j S_jj, (n, G)."""
    return s_diag.shape[-1] - np.einsum("...d,...d->...", rho, s_diag)


def _s_of(rho, sigma):
    """S(rho) = (sigma^-1 + diag rho)^-1 in factor form, and log|S|.

    By the Woodbury identity and the matrix-determinant lemma,

        S = diag(psi h) + V M^-1 V',  h = 1 / (1 + psi rho),  V = diag(h) lam,
        M = I + lam' diag(rho h) lam,
        log|S| = log|sigma| - sum log(1 + psi rho) - log|M|,

    so s_d = psi h and s_w = L^-1 V', with L the Cholesky factor of the
    K x K M.  M has eigenvalues >= 1, and no term cancels.  rho (n, G, d)
    must be positive.  Returns ((s_d, s_w, diag S), log|S|).
    """
    lam, psi, _, sig_logdet = sigma
    g, _, k = lam.shape
    psi_rho = psi * rho
    h = 1.0 / (1.0 + psi_rho)
    lam_t = np.swapaxes(lam, -1, -2)
    # M - I = sum_j rho_j h_j lam_j lam_j', one product per component,
    # laid out as contiguous (K, K, n, G) planes
    outer = (lam_t[:, :, None, :] * lam_t[:, None, :, :]).reshape(g, k * k, -1)
    mat_m = outer @ np.transpose(rho * h, (1, 2, 0))
    mat_m = np.ascontiguousarray(mat_m.transpose(1, 2, 0)).reshape(k, k, *h.shape[:2])
    mat_m[np.arange(k), np.arange(k)] += 1.0
    ell_inv, logdet_m = _chol_inv(mat_m)
    s_w = np.ascontiguousarray(ell_inv.transpose(2, 3, 0, 1)) @ lam_t
    s_w *= h[..., None, :]
    s_d = psi * h
    return (s_d, s_w, _s_diag((s_d, s_w))), sig_logdet - np.log1p(psi_rho).sum(-1) - logdet_m


def _guard_pairs(phi_old, new, old, at, phi, move=True):
    """The per-pair ascent guard shared by the batched S and m steps.

    phi_old and phi (n, G) are every pair's objective before and after
    its full step; `new` and `old` are matching tuples of the pieces
    (n, G, ...) after and before it.  A pair that may `move` and whose
    phi is not finite or falls below phi_old, less a 1e-12 relative
    slack, is guarded: it tries step lengths eta = 1/2, 1/4, ...
    (`MAX_HALVINGS` values), with at(eta, i, j) giving the objectives and
    the pieces of the pairs (i, j) still searching.  A pair takes the
    pieces of its first finite eta at or above its floor into `new`; a
    pair with no passing step gets its `old` pieces back, bitwise.
    Returns the number of guarded pairs.
    """
    floor = phi_old - 1e-12 * np.maximum(1.0, np.abs(phi_old))
    bad = move & ~(np.isfinite(phi) & (phi >= floor))
    bi, bg = np.nonzero(bad)
    n_guarded = bi.size
    for eta in 0.5 ** np.arange(1, MAX_HALVINGS + 1):
        if not bi.size:
            break
        phi_c, pieces = at(eta, bi, bg)
        ok = np.isfinite(phi_c) & (phi_c >= floor[bi, bg])
        i, j = bi[ok], bg[ok]
        for a, piece in zip(new, pieces):
            a[i, j] = piece[ok]
        bi, bg = bi[~ok], bg[~ok]
    else:  # the halvings ran out
        for a, b in zip(new, old):
            a[bi, bg] = b[bi, bg]
    return n_guarded


def _update_s_guarded(sigma, obs, m, s, trs, logdet_s, pois, rate):
    """Batched covariance refresh with an ascent guard.

    One application of the fixed-point map S = (sigma^-1 + diag r)^-1 at
    the rates r, built in factor form by `_s_of`, with tr(sigma^-1 S)
    in closed form (`_s_trace`).  A pair whose bound terms
    -tr(sigma^-1 S)/2 + log|S|/2 + the Poisson term decrease tries
    S(r / eta) for eta = 1/2, 1/4, ... and keeps its previous S, with
    its cached pieces, if no candidate does better (`_guard_pairs`).
    Takes and returns the cached bound pieces that depend on S; `rate`
    and `pois` (`_poisson_batch`) must be evaluated at (m, diag(s)).

    Returns (s_new, trs, logdet_s, rate at (m, s_new), pois, clamps,
    n_guarded); clamps counts the clamped rates of the full step's S.
    """
    s_new, logdet_new = _s_of(rate, sigma)
    trs_new = _s_trace(rate, s_new[2])
    rate_new, pois_new, clamps = _poisson_batch(obs, m, s_new[2])

    def at(eta, i, j):
        """Objectives and pieces (S, tr(sigma^-1 S), log|S|, rates,
        Poisson term) at S(r / eta) of pairs (i, j)."""
        rho = rate[i, j] / eta
        s_c, logdet_c = _s_of(rho[None], _take(sigma, j))
        s_c = tuple(a[0] for a in s_c)
        rate_c, pois_c, _ = _poisson_batch(tuple(a[i] for a in obs), m[i, j], s_c[2])
        tr_c = _s_trace(rho, s_c[2])
        return (-0.5 * tr_c + 0.5 * logdet_c[0] + pois_c,
                (*s_c, tr_c, logdet_c[0], rate_c, pois_c))

    new = (*s_new, trs_new, logdet_new, rate_new, pois_new)
    n_guarded = _guard_pairs(-0.5 * trs + 0.5 * logdet_s + pois, new,
                             (*s, trs, logdet_s, rate, pois), at,
                             -0.5 * trs_new + 0.5 * logdet_new + pois_new)
    return s_new, trs_new, logdet_new, rate_new, pois_new, clamps, n_guarded


def _update_m_guarded(obs, sigma, mu, m, s, rate, pois, quad):
    """Batched guarded mean refresh.

    Takes the Newton-style step S grad (`_s_apply`); a pair whose bound
    terms, the Poisson term less (m - mu)' sigma^-1 (m - mu) / 2, decrease
    halves it (`_guard_pairs`).  The cached pieces `rate` and `pois` must be
    evaluated at (m, diag(s)) and `quad` at (m, mu).  Returns (m_new,
    rate, pois, quad, clamps, n_guarded) with the caches refreshed at m_new.
    """
    s_diag = s[2]
    grad = obs[0][:, None, :] - rate - _sig_inv_apply(m - mu, sigma)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient in batched mean update")
    move = np.max(np.abs(grad), axis=-1) >= GRAD_TOL
    step = _s_apply(s, grad)
    step[~move] = 0.0

    m_new = m + step
    rate_new, pois_new, clamps = _poisson_batch(obs, m_new, s_diag)
    quad_new = _quad_batch(m_new, mu, sigma)

    def at(eta, i, j):
        """Objectives and pieces (m, rates, Poisson term,
        (m - mu)' sigma^-1 (m - mu)) at m + eta S grad of pairs (i, j)."""
        m_c = m[i, j] + eta * step[i, j]
        rate_c, pois_c, _ = _poisson_batch(tuple(a[i] for a in obs), m_c, s_diag[i, j])
        quad_c = _quad_batch(m_c[None], mu[j], _take(sigma, j))[0]
        return pois_c - 0.5 * quad_c, (m_c, rate_c, pois_c, quad_c)

    new = (m_new, rate_new, pois_new, quad_new)
    n_guarded = _guard_pairs(pois - 0.5 * quad, new, (m, rate, pois, quad), at,
                             pois_new - 0.5 * quad_new, move)
    return (*new, clamps, n_guarded)
