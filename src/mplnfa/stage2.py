"""Second-stage updates for the factor-analytic covariance structure.

Given first-stage variational means and covariances, each component's
covariance is refined through its factor decomposition
sigma_g = lambda_g lambda_g' + diag(psi_g).  The factor scores get
their own Gaussian approximation q(u) = N(P, Q), and the loadings and
error variances are re-estimated by an inner fixed-point loop whose
form depends on the constraint pattern.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import EmptyComponentError, InputError, ModelId, NumericalError
from .stage1 import EMPTY_TOL, _as_vector, _check_counts, _check_exposure, _chol_spd, _clamped_rate

__all__ = [
    "Stage2Stats",
    "Stage2NonConvergence",
    "compute_w",
    "make_stage2_stats",
    "update_q",
    "update_p",
    "elbo_stage2",
    "update_lambda_psi",
]

# Error variances are clamped here after each inner sweep.
PSI_FLOOR = 1e-6
# Raw estimates at or below this signal a degenerate component.
PSI_DEGENERATE = 1e-12
# Inner-loop convergence threshold on successive Frobenius differences.
INNER_TOL = 1e-6
# Inner-loop sweep cap.
MAX_INNER = 500


class Stage2NonConvergence(NumericalError):
    """Inner loop hit its sweep cap; carries the last iterate."""

    def __init__(self, lam, psi, sweeps):
        super().__init__(f"loading/variance loop did not converge in {sweeps} sweeps")
        self.lam = lam
        self.psi = psi
        self.sweeps = sweeps


@dataclass(frozen=True)
class Stage2Stats:
    """Per-component sufficient statistics for the covariance updates.

    Fields
    ------
    w : (G, d, d) array
        Responsibility-weighted scatter of the variational means.
    beta : (G, K, d) array
        Regression of factors on the latent log scale.
    theta : (G, K, K) array
        Second moments of the factor scores, each SPD.
    n_g : (G,) array
        Effective component sizes, positive.
    """

    w: np.ndarray
    beta: np.ndarray
    theta: np.ndarray
    n_g: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        beta = np.asarray(self.beta, dtype=np.float64)
        theta = np.asarray(self.theta, dtype=np.float64)
        n_g = np.asarray(self.n_g, dtype=np.float64)
        if w.ndim != 3 or w.shape[1] != w.shape[2]:
            raise InputError("w must be (G, d, d)")
        g, d = w.shape[0], w.shape[1]
        if beta.ndim != 3 or beta.shape[0] != g or beta.shape[2] != d:
            raise InputError("beta must be (G, K, d)")
        k = beta.shape[1]
        if theta.shape != (g, k, k):
            raise InputError("theta must be (G, K, K)")
        if n_g.shape != (g,) or np.any(n_g <= 0):
            raise InputError("n_g must be positive with length G")
        if not np.allclose(w, w.transpose(0, 2, 1), rtol=0, atol=1e-8):
            raise InputError("w matrices must be symmetric")
        try:
            np.linalg.cholesky(0.5 * (theta + theta.transpose(0, 2, 1)))
        except np.linalg.LinAlgError:
            raise InputError("theta matrices must be positive definite") from None
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "n_g", n_g)


def compute_w(zhat_g, m_g, mu_g):
    """Weighted scatter W_g of variational means around the component mean."""
    zhat_g = np.asarray(zhat_g, dtype=np.float64)
    m_g = np.asarray(m_g, dtype=np.float64)
    mu_g = np.asarray(mu_g, dtype=np.float64)
    if zhat_g.ndim != 1 or m_g.ndim != 2 or m_g.shape[0] != zhat_g.shape[0]:
        raise InputError("zhat_g must be (n,) and m_g must be (n, d)")
    if mu_g.shape != (m_g.shape[1],):
        raise InputError("mu_g must be a length-d vector")
    if np.any(zhat_g < 0):
        raise InputError("responsibilities must be nonnegative")
    n_g = zhat_g.sum()
    if n_g < EMPTY_TOL:
        raise EmptyComponentError(f"effective component size {n_g:.3g} too small")
    v = m_g - mu_g[None, :]
    w = np.einsum("n,nd,ne->de", zhat_g, v, v) / n_g
    return 0.5 * (w + w.T)


def update_q(lam_g, psi_g):
    """Factor-score posterior covariance (I + lam' psi^-1 lam)^-1."""
    lam_g = np.asarray(lam_g, dtype=np.float64)
    psi_g = np.asarray(psi_g, dtype=np.float64)
    if lam_g.ndim != 2:
        raise InputError("lam_g must be a (d, K) matrix")
    d, k = lam_g.shape
    if psi_g.shape != (d,) or np.any(psi_g <= 0):
        raise InputError("psi_g must be a positive length-d vector")
    a = np.eye(k) + (lam_g / psi_g[:, None]).T @ lam_g
    try:
        q = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"factor covariance solve failed: {exc}") from None
    return 0.5 * (q + q.T)


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

    logc = np.log(c)
    rate = _clamped_rate(logc, m, np.diag(s))
    diff = m - mu_g
    psi_inv_diff = diff / psi_g
    lam_p = lam_g @ p
    a = (lam_g / psi_g[:, None]).T @ lam_g  # lam' psi^-1 lam, (K, K)
    logdet_s = 2.0 * np.log(np.diag(np.linalg.cholesky(s))).sum()
    logdet_q = 2.0 * np.log(np.diag(lq)).sum()
    return (
        m @ y
        + logc * y.sum()
        - rate.sum()
        - gammaln(y + 1.0).sum()
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


def make_stage2_stats(zhat, m, mu, lam, psi):
    """Assemble `Stage2Stats` from responsibilities and current parameters."""
    zhat = np.asarray(zhat, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    n_g = zhat.sum(axis=0)
    if np.any(n_g < EMPTY_TOL):
        raise EmptyComponentError("empty component in second-stage statistics")
    v = m - mu[None]
    w = np.einsum("ng,ngd,nge->gde", zhat, v, v) / n_g[:, None, None]
    w = 0.5 * (w + w.transpose(0, 2, 1))
    beta = _beta_from(lam, psi)
    theta = _theta_from(beta, lam, w @ beta.transpose(0, 2, 1))
    return Stage2Stats(w=w, beta=beta, theta=theta, n_g=n_g)


def _factor_core(lam, psi):
    """The K x K core of sigma_g = lam_g lam_g' + diag(psi_g), batched.

    Returns beta = core^-1 lam' psi^-1 (G, K, d), which equals
    lam' sigma^-1, and core = I + lam' psi^-1 lam (G, K, K), whose
    eigenvalues are at least 1.  Every inverse and log-determinant of
    sigma in the fitting loop is built from these, so no d x d matrix
    is factorized.
    """
    lam_psi = lam.transpose(0, 2, 1) / psi[:, None, :]
    core = np.eye(lam.shape[2])[None] + lam_psi @ lam
    try:
        return np.linalg.solve(core, lam_psi), core
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"loading regression solve failed: {exc}") from None


def _beta_from(lam, psi):
    """beta_g = lam_g' sigma_g^-1, batched (G, K, d)."""
    return _factor_core(lam, psi)[0]


def _theta_from(beta, lam, wb):
    """theta_g = I - beta_g lam_g + beta_g W_g beta_g', batched (G, K, K),
    from wb = W_g beta_g' (G, d, K)."""
    k = beta.shape[1]
    theta = np.eye(k)[None] - beta @ lam + beta @ wb
    return 0.5 * (theta + theta.transpose(0, 2, 1))


def _psi_pattern(model_id, bvec, n_g):
    """Apply the error-variance constraint pattern to per-component
    raw estimates bvec (G, d)."""
    g, d = bvec.shape
    if model_id.psi_constrained:
        shared = (n_g / n_g.sum()) @ bvec  # (d,)
        if model_id.psi_isotropic:
            shared = np.full(d, shared.mean())
        return np.broadcast_to(shared, (g, d)).copy()
    if model_id.psi_isotropic:
        return np.repeat(bvec.mean(axis=1)[:, None], d, axis=1)
    return bvec.copy()


def update_lambda_psi(model_id, stats, s_bar, lam, psi, max_inner=MAX_INNER, tol=INNER_TOL):
    """Inner fixed-point loop for loadings and error variances.

    Parameters
    ----------
    model_id : ModelId
        Constraint pattern to enforce.
    stats : Stage2Stats
        Scatter matrices and effective sizes (beta/theta fields are
        recomputed each sweep and only used for validation here).
    s_bar : (G, d) array
        Responsibility-weighted means of the variational covariance
        diagonals.
    lam, psi : (G, d, K), (G, d) arrays
        Warm-start values; must already satisfy the pattern.

    Returns
    -------
    (lam, psi) with the pattern satisfied exactly.  Raises
    `Stage2NonConvergence` (carrying the last iterate) if the sweep cap
    is reached, and `NumericalError` if an error variance degenerates.
    `run_inner_loop` is the non-raising variant used by the driver;
    it also reports sweep and floor-clamp counts.
    """
    lam, psi, info = run_inner_loop(model_id, stats, s_bar, lam, psi, max_inner, tol)
    if not info["converged"]:
        raise Stage2NonConvergence(lam, psi, info["sweeps"])
    return lam, psi


def run_inner_loop(model_id, stats, s_bar, lam, psi, max_inner=MAX_INNER, tol=INNER_TOL):
    """As `update_lambda_psi` but reporting instead of raising on the
    sweep cap.  Returns (lam, psi, info) where info holds 'converged',
    'sweeps', and 'psi_floored'."""
    if not isinstance(model_id, ModelId):
        raise InputError("model_id must be a ModelId")
    w = stats.w
    n_g = stats.n_g
    g, d, _ = w.shape
    lam = np.array(lam, dtype=np.float64)
    psi = np.array(psi, dtype=np.float64)
    if lam.shape[:2] != (g, d) or psi.shape != (g, d):
        raise InputError("warm-start lam must be (G, d, K) and psi (G, d)")
    k = lam.shape[2]
    s_bar = np.asarray(s_bar, dtype=np.float64)
    if s_bar.shape != (g, d):
        raise InputError("s_bar must be (G, d)")
    idx = np.arange(d)
    w_diag = w[:, idx, idx]
    floored = 0
    converged = False
    sweeps = 0

    for sweeps in range(1, max_inner + 1):
        beta = _beta_from(lam, psi)
        wb = w @ beta.transpose(0, 2, 1)  # W_g beta_g', (G, d, K)
        theta = _theta_from(beta, lam, wb)

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
                lam_new = np.linalg.solve(theta, wb.transpose(0, 2, 1)).transpose(0, 2, 1)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"loading solve failed: {exc}") from None

        # diag(W_g - 2 lam beta_g W_g + lam theta_g lam') + S-bar_g maximizes
        # over psi_g at fixed lam.  Per-component loadings satisfy
        # lam_g theta_g = W_g beta_g', which cancels the theta term; shared
        # loadings do not, so they keep the full form.
        cross = (lam_new * wb).sum(-1)  # diag(lam beta_g W_g)
        if model_id.lambda_constrained:
            quad = ((lam_new @ theta) * lam_new).sum(-1)
            bvec = w_diag - 2.0 * cross + quad + s_bar
        else:
            bvec = w_diag - cross + s_bar
        psi_new = _psi_pattern(model_id, bvec, n_g)
        if np.any(psi_new <= PSI_DEGENERATE):
            raise NumericalError(
                f"degenerate error variance (min {psi_new.min():.3g}) in inner loop"
            )
        below = psi_new < PSI_FLOOR
        if np.any(below):
            floored += int(np.count_nonzero(below))
            psi_new = np.where(below, PSI_FLOOR, psi_new)

        lam_diff = np.linalg.norm(lam_new - lam)
        psi_diff = np.linalg.norm(psi_new - psi)
        lam, psi = lam_new, psi_new
        if lam_diff < tol and psi_diff < tol:
            converged = True
            break

    return lam, psi, {"converged": converged, "sweeps": sweeps, "psi_floored": floored}
