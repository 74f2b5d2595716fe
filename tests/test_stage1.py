import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplnfa.core import EmptyComponentError, InputError
from mplnfa.stage1 import (
    elbo_stage1,
    elbo_stage1_grad_m,
    update_m,
    update_pi_mu,
    update_responsibilities,
    update_s,
)
import mplnfa.stage1 as stage1
import mplnfa.stage2 as stage2
import mplnfa.em as em

from oracles import fd_grad, random_spd


def random_instance(rng, d, y_scale=3.0):
    mu = rng.uniform(0.0, y_scale, d)
    sigma = random_spd(rng, d, scale=0.3)
    x = rng.multivariate_normal(mu, sigma)
    y = rng.poisson(np.exp(np.clip(x, -20, 20))).astype(np.int64)
    m = np.log1p(y).astype(np.float64)
    s = random_spd(rng, d, scale=0.05)
    return y, m, s, mu, sigma


# ---------------------------------------------------------------------------
# bound evaluation
# ---------------------------------------------------------------------------


def test_elbo_hand_value_all_terms_cancel():
    # d=1, y=0, C=1, m=0, S=0.5, mu=0, sigma=0.5: only the rate term survives
    got = elbo_stage1(np.array([0]), 1.0, [0.0], [[0.5]], [0.0], [[0.5]])
    assert got == pytest.approx(-np.exp(0.25), abs=1e-12)


@given(
    m=st.floats(-2.0, 2.0),
    v=st.floats(0.05, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_elbo_matched_moments_reduce_to_rate(m, v):
    got = elbo_stage1(np.array([0]), 1.0, [m], [[v]], [m], [[v]])
    assert got == pytest.approx(-np.exp(m + 0.5 * v), rel=1e-12)


def test_elbo_rejects_non_spd():
    with pytest.raises(InputError):
        elbo_stage1(np.array([1, 1]), 1.0, [0.0, 0.0], -np.eye(2), [0.0, 0.0], np.eye(2))
    with pytest.raises(InputError):
        elbo_stage1(np.array([1, 1]), 1.0, [0.0, 0.0], np.eye(2), [0.0, 0.0], np.zeros((2, 2)))


def test_elbo_exposure_enters_rate_and_offset(rng):
    y, m, s, mu, sigma = random_instance(rng, 3)
    base = elbo_stage1(y, 1.0, m, s, mu, sigma)
    shifted = elbo_stage1(y, np.e, m, s, mu, sigma)
    # log C adds y.sum() and scales every rate term by e
    rate = np.exp(m + 0.5 * np.diag(s))
    expect = base + y.sum() - (np.e - 1.0) * rate.sum()
    assert shifted == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# covariance refresh
# ---------------------------------------------------------------------------


def test_update_s_hand_value():
    got = update_s(np.array([[1.0]]), 1.0, [0.0], np.array([[1.0]]))
    assert got == pytest.approx(1.0 / (1.0 + np.exp(0.5)), abs=1e-12)


def test_update_s_zero_rate_limit():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    got = update_s(sigma, 1.0, [-500.0, -500.0], 0.1 * np.eye(2))
    np.testing.assert_allclose(got, sigma, rtol=1e-10)


@given(seed=st.integers(0, 10_000), d=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_update_s_spd_and_dominated_by_sigma(seed, d):
    r = np.random.default_rng(seed)
    sigma = random_spd(r, d)
    m = r.uniform(-1, 3, d)
    s_prev = random_spd(r, d, scale=0.1)
    s_new = update_s(sigma, 1.0, m, s_prev)
    assert np.allclose(s_new, s_new.T, atol=1e-12)
    ev = np.linalg.eigvalsh(s_new)
    assert ev.min() > 0
    # adding a nonnegative diagonal to sigma^-1 shrinks in the Loewner order
    assert np.linalg.eigvalsh(sigma - s_new).min() >= -1e-9


# ---------------------------------------------------------------------------
# mean refresh
# ---------------------------------------------------------------------------


def test_update_m_stationary_point_unchanged():
    # with m = mu the quadratic term vanishes, so choosing S to satisfy
    # y = exp(mu + diag(S)/2) makes the whole gradient exactly zero
    y = np.array([3, 5, 9])
    mu = np.log(y).astype(np.float64)
    s = np.zeros((3, 3))
    np.fill_diagonal(s, 1e-4)
    mu = mu - 0.5 * np.diag(s)
    got = update_m(y, 1.0, np.eye(3), mu, mu, s)
    np.testing.assert_array_equal(got, mu)


def test_update_m_hand_value_and_ascent():
    y = np.array([1])
    s_new = np.array([[1.0 / (1.0 + np.exp(0.5))]])
    m_new = update_m(y, 1.0, np.array([[1.0]]), [0.0], [0.0], s_new)
    g = 1.0 - np.exp(0.5 * s_new[0, 0])
    expect = s_new[0, 0] * g
    assert m_new[0] == pytest.approx(expect, abs=1e-10)
    assert m_new[0] == pytest.approx(-0.0784, abs=5e-4)
    before = elbo_stage1(y, 1.0, [0.0], s_new, [0.0], [[1.0]])
    after = elbo_stage1(y, 1.0, m_new, s_new, [0.0], [[1.0]])
    assert after > before


def test_update_m_tiny_gradient_returns_input():
    # iterate to the stationary point, then confirm the no-op short circuit
    d = 2
    mu = np.zeros(d)
    s = 0.1 * np.eye(d)
    sigma = np.eye(d)
    y = np.array([2, 2])
    m_cur = np.log1p(y).astype(np.float64)
    for _ in range(300):
        m_cur = update_m(y, 1.0, sigma, mu, m_cur, s)
    g = y - np.exp(m_cur + 0.5 * np.diag(s)) - np.linalg.solve(sigma, m_cur - mu)
    assert np.max(np.abs(g)) < 1e-10
    again = update_m(y, 1.0, sigma, mu, m_cur, s)
    np.testing.assert_array_equal(again, m_cur)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_grad_m_matches_finite_differences(seed):
    r = np.random.default_rng(seed)
    y, m, s, mu, sigma = random_instance(r, 3)
    grad = elbo_stage1_grad_m(y, 1.0, m, s, mu, sigma)
    ref = fd_grad(lambda v: elbo_stage1(y, 1.0, v, s, mu, sigma), m, h=1e-6)
    scale = max(1.0, np.abs(ref).max())
    assert np.abs(grad - ref).max() / scale < 1e-6


# ---------------------------------------------------------------------------
# responsibilities and component moments
# ---------------------------------------------------------------------------


def test_responsibilities_single_component():
    z = update_responsibilities(np.array([[-3.0], [-8.0]]), np.array([1.0]))
    np.testing.assert_array_equal(z, np.ones((2, 1)))


def test_responsibilities_symmetric_components():
    f = np.full((5, 4), -7.3)
    z = update_responsibilities(f, np.full(4, 0.25))
    np.testing.assert_allclose(z, 0.25, atol=1e-15)


def test_responsibilities_hand_softmax():
    z = update_responsibilities(np.array([[-10.0, -12.0]]), np.array([0.5, 0.5]))
    e2 = np.exp(2.0)
    np.testing.assert_allclose(z[0], [e2 / (e2 + 1.0), 1.0 / (e2 + 1.0)], atol=1e-12)
    assert z[0, 0] == pytest.approx(0.8808, abs=5e-5)


@given(
    seed=st.integers(0, 10_000),
    shift=st.floats(-300.0, 300.0),
)
@settings(max_examples=60, deadline=None)
def test_responsibilities_shift_invariance(seed, shift):
    r = np.random.default_rng(seed)
    f = r.uniform(-50, 0, (6, 3))
    pi = r.dirichlet(np.ones(3))
    z1 = update_responsibilities(f, pi)
    z2 = update_responsibilities(f + shift, pi)
    np.testing.assert_allclose(z1, z2, atol=1e-12)
    np.testing.assert_allclose(z1.sum(axis=1), 1.0, atol=1e-12)



def test_responsibilities_rows_sum_to_one_at_huge_objectives():
    # Per-pair bounds near -2e8, as with counts near 1e9: a log-sum-exp
    # of that size carries an absolute rounding error of about 3e-8, so
    # exp(logw - lse) rows can miss 1 by more than the 1e-10 that the
    # mixing proportions are held to.
    r = np.random.default_rng(3)
    f = -2e8 + r.normal(0.0, 1.0, (200, 3))
    z = update_responsibilities(f, np.array([0.2, 0.3, 0.5]))
    np.testing.assert_allclose(z.sum(axis=1), 1.0, rtol=0, atol=1e-12)

def test_update_pi_mu_hard_assignments():
    zhat = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = np.zeros((3, 2, 1))
    m[:, 0, 0] = [1.0, 3.0, 99.0]
    m[:, 1, 0] = [99.0, 99.0, 7.0]
    pi, mu = update_pi_mu(zhat, m)
    np.testing.assert_allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert mu[0, 0] == pytest.approx(2.0)
    assert mu[1, 0] == pytest.approx(7.0)


def test_update_pi_mu_weighted_hand_value():
    zhat = np.array([[0.75, 0.25], [0.25, 0.75]])
    m = np.zeros((2, 2, 1))
    m[0, :, 0] = 0.0
    m[1, :, 0] = 4.0
    pi, mu = update_pi_mu(zhat, m)
    assert mu[0, 0] == pytest.approx(1.0)
    assert mu[1, 0] == pytest.approx(3.0)
    assert pi.sum() == pytest.approx(1.0)


def test_update_pi_mu_empty_component():
    zhat = np.array([[1.0, 0.0], [1.0, 0.0]])
    m = np.zeros((2, 2, 1))
    with pytest.raises(EmptyComponentError):
        update_pi_mu(zhat, m)


# ---------------------------------------------------------------------------
# alternation never decreases the bound
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 2_000))
@settings(max_examples=30, deadline=None)
def test_alternating_updates_monotone(seed):
    r = np.random.default_rng(seed)
    d = int(r.integers(1, 5))
    y, m, s, mu, sigma = random_instance(r, d)
    prev = elbo_stage1(y, 1.0, m, s, mu, sigma)
    for _ in range(8):
        s = update_s(sigma, 1.0, m, s)
        m = update_m(y, 1.0, sigma, mu, m, s)
        cur = elbo_stage1(y, 1.0, m, s, mu, sigma)
        assert cur >= prev - 1e-8
        prev = cur


# ---------------------------------------------------------------------------
# batched kernels agree with the per-observation functions
# ---------------------------------------------------------------------------


def test_batched_bound_matches_scalar_loop(rng):
    n, g, d = 7, 3, 4
    y = rng.poisson(5.0, (n, d)).astype(np.int64)
    logc = np.log(rng.uniform(0.5, 2.0, n))
    m = rng.normal(1.0, 0.5, (n, g, d))
    s = np.stack([[random_spd(rng, d, scale=0.05) for _ in range(g)] for _ in range(n)])
    mu = rng.normal(1.0, 0.5, (g, d))
    sig = np.stack([random_spd(rng, d) for _ in range(g)])
    sig_inv, sig_logdet = stage1._sigma_factors(sig)
    caches = em._make_caches(y.astype(np.float64), logc, m, s, mu, sig_inv,
                             np.linalg.slogdet(s)[1])
    f = em._assemble_f(caches, sig_logdet, d)
    for i in range(n):
        for j in range(g):
            ref = elbo_stage1(y[i], np.exp(logc[i]), m[i, j], s[i, j], mu[j], sig[j])
            assert f[i, j] == pytest.approx(ref, rel=1e-10)


def test_quad_batch_matches_einsum(rng):
    n, g, d = 9, 3, 5
    m = rng.normal(1.0, 0.5, (n, g, d))
    mu = rng.normal(1.0, 0.5, (g, d))
    sig_inv = stage1._sigma_factors(np.stack([random_spd(rng, d) for _ in range(g)]))[0]
    v = m - mu[None]
    ref = np.einsum("ngd,gde,nge->ng", v, sig_inv, v)
    np.testing.assert_allclose(stage1._quad_batch(m, mu, sig_inv), ref, rtol=1e-12, atol=0)


def test_guarded_batch_updates_match_public_functions(rng):
    n, g, d = 5, 2, 3
    y = rng.poisson(4.0, (n, d)).astype(np.float64)
    logc = np.zeros(n)
    m = np.log1p(y)[:, None, :].repeat(g, axis=1)
    s = np.broadcast_to(0.1 * np.eye(d), (n, g, d, d)).copy()
    mu = rng.normal(1.0, 0.3, (g, d))
    lam = rng.normal(0.0, 0.5, (g, d, 2))
    psi = rng.uniform(0.2, 1.0, (g, d))
    sig = lam @ lam.transpose(0, 2, 1) + psi[:, :, None] * np.eye(d)
    sig_inv, sig_logdet = stage1._sigma_factors(sig)
    caches = em._make_caches(y, logc, m, s, mu, sig_inv, np.linalg.slogdet(s)[1])

    s_new, trs, logdet_s, rate, expsum, _, _ = stage1._update_s_guarded(
        sig_inv, logc, m, s, caches["trs"], caches["logdet_s"], caches["expsum"],
        lam, psi, sig_logdet, caches["rate"],
    )
    for i in range(n):
        for j in range(g):
            ref = update_s(sig[j], np.exp(logc[i]), m[i, j], s[i, j])
            np.testing.assert_allclose(s_new[i, j], ref, atol=1e-12)

    m_new, *_ = stage1._update_m_guarded(
        y, logc, sig_inv, mu, m, s_new, rate, stage1._quad_batch(m, mu, sig_inv)
    )
    for i in range(n):
        for j in range(g):
            ref = update_m(y[i], np.exp(logc[i]), sig[j], mu[j], m[i, j], s_new[i, j])
            np.testing.assert_allclose(m_new[i, j], ref, atol=1e-10)

    # Means far below log(y + 1) with larger counts: the full step
    # S grad overshoots, so the batched m step halves.
    y = 10.0 * y
    m = np.log1p(y)[:, None, :].repeat(g, axis=1) - 3.0
    rate = stage1._rates_batch(logc, m, np.diagonal(s_new, axis1=-2, axis2=-1))[0]
    m_new, *_, n_guarded = stage1._update_m_guarded(
        y, logc, sig_inv, mu, m, s_new, rate, stage1._quad_batch(m, mu, sig_inv)
    )
    assert n_guarded > 0
    for i in range(n):
        for j in range(g):
            ref = update_m(y[i], np.exp(logc[i]), sig[j], mu[j], m[i, j], s_new[i, j])
            np.testing.assert_allclose(m_new[i, j], ref, atol=1e-10)


def _s_phi(sig_inv, logc, m, s):
    """The S-dependent bound terms of one block, with a dense slogdet."""
    rate = np.exp(logc + m + 0.5 * np.diag(s))
    return -0.5 * np.trace(sig_inv @ s) + 0.5 * np.linalg.slogdet(s)[1] - rate.sum()


def test_s_step_halving_matches_dense_loop():
    # Large component covariances and small rates: the fixed-point step
    # from a small S overshoots, so the bound terms along S + eta (S_full - S)
    # peak at eta = 1/2 or 1/4.  Each pair's cached terms are set to a
    # floor that picks one branch: the full step, the first halving, the
    # second, or none.
    rng = np.random.default_rng(0)
    n, g, d, k = 2, 2, 3, 2
    lam = rng.normal(0.0, 5.0, (g, d, k))
    psi = 5.0 * rng.uniform(0.2, 1.0, (g, d))
    sig_inv, sig_logdet = em._sigma_from(lam, psi)
    logc = np.zeros(n)
    m = -3.0 + rng.uniform(-0.5, 0.5, (n, g, d))
    s = np.broadcast_to(0.01 * np.eye(d), (n, g, d, d)).copy()
    zeros = np.zeros((n, g))
    rate0 = stage1._rates_batch(logc, m, np.diagonal(s, axis1=-2, axis2=-1))[0]
    s_full = stage1._update_s_guarded(
        sig_inv, logc, m, s, zeros, np.full((n, g), -np.inf), zeros, lam, psi, sig_logdet, rate0,
    )[0]

    etas = 0.5 ** np.arange(stage1.MAX_HALVINGS + 1)  # the full step, then the halvings
    phis = np.array([[[_s_phi(sig_inv[j], logc[i], m[i, j], s[i, j] + eta * (s_full[i, j] - s[i, j]))
                       for eta in etas] for j in range(g)] for i in range(n)])
    floor = np.empty((n, g))
    floor[0, 0] = phis[0, 0, 0] - 1.0  # the full step passes
    for (i, j), b in (((0, 1), 1), ((1, 1), 2)):  # first passes at eta = 2^-b
        assert phis[i, j, b] > phis[i, j, :b].max() + 1e-3
        floor[i, j] = 0.5 * (phis[i, j, b] + phis[i, j, :b].max())
    floor[1, 0] = phis[1, 0].max() + 1.0  # nothing passes
    # phi_old = -tr/2 + log|S|/2 - sum(rate), so these caches make it the floor
    s_new, trs, logdet_s, rate, expsum, _, n_guarded = stage1._update_s_guarded(
        sig_inv, logc, m, s, zeros, 2.0 * floor, zeros, lam, psi, sig_logdet, rate0,
    )
    assert n_guarded == 3
    idx = np.arange(d)
    for i in range(n):
        for j in range(g):
            passed = np.nonzero(phis[i, j] >= floor[i, j])[0]
            if len(passed):
                ref = s[i, j] + etas[passed[0]] * (s_full[i, j] - s[i, j])
                np.testing.assert_allclose(s_new[i, j], ref, rtol=0, atol=1e-12)
            else:  # the previous S, with its cached pieces
                np.testing.assert_array_equal(s_new[i, j], s[i, j])
                ref = s[i, j]
            assert logdet_s[i, j] == pytest.approx(np.linalg.slogdet(ref)[1], rel=1e-12)
            assert trs[i, j] == pytest.approx(np.trace(sig_inv[j] @ ref), rel=1e-12)
            ref_rate = np.exp(logc[i] + m[i, j] + 0.5 * ref[idx, idx])
            np.testing.assert_allclose(rate[i, j], ref_rate, rtol=1e-12)
            assert expsum[i, j] == pytest.approx(ref_rate.sum(), rel=1e-12)


def test_s_step_counts_only_the_clamps_at_its_new_s():
    # log C + m = 699 with S = 4 I puts every previous rate past the exp
    # clamp; the refreshed S is about 1 / rate, so no new rate is.  The
    # previous rates were counted where they were made (the start or the
    # m step), so the S step must not count them again.
    rng = np.random.default_rng(1)
    n, g, d, k = 3, 2, 4, 1
    lam = rng.normal(0.0, 1.0, (g, d, k))
    psi = rng.uniform(0.2, 1.0, (g, d))
    sig_inv, sig_logdet = em._sigma_from(lam, psi)
    logc = np.full(n, 690.0)
    m = np.full((n, g, d), 9.0)
    s = np.broadcast_to(4.0 * np.eye(d), (n, g, d, d)).copy()
    assert stage1._rates_batch(logc, m, np.diagonal(s, axis1=-2, axis2=-1))[1] == n * g * d
    rate0 = stage1._rates_batch(logc, m, np.diagonal(s, axis1=-2, axis2=-1))[0]
    zeros = np.zeros((n, g))
    s_new, *_, clamps, n_guarded = stage1._update_s_guarded(
        sig_inv, logc, m, s, zeros, np.full((n, g), -np.inf), zeros, lam, psi, sig_logdet, rate0,
    )
    assert n_guarded == 0
    arg = logc[:, None, None] + m + 0.5 * np.diagonal(s_new, axis1=-2, axis2=-1)
    assert np.all(np.abs(arg) < stage1.EXP_CLAMP)
    assert clamps == 0


# ---------------------------------------------------------------------------
# factor-form kernels agree with the dense reference
# ---------------------------------------------------------------------------


def _factor_instance(rng, g, d, k):
    lam = rng.normal(0.0, 1.0, (g, d, k))
    psi = np.exp(rng.uniform(np.log(1e-4), np.log(2.0), (g, d)))
    sig = lam @ lam.transpose(0, 2, 1) + psi[:, :, None] * np.eye(d)
    return lam, psi, sig


def _rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("seed", range(4))
def test_factor_form_s_step_matches_dense_inverse(seed, k):
    rng = np.random.default_rng(seed)
    n, g, d = 4, 2, 6
    lam, psi, sig = _factor_instance(rng, g, d, k)
    sig_inv, sig_logdet = em._sigma_from(lam, psi)
    logc = np.zeros(n)
    # rates exp(m + S_jj / 2) spread over [e^-4, e^8]
    m = rng.uniform(-4.0, 8.0 - 0.05, (n, g, d))
    s = np.broadcast_to(0.1 * np.eye(d), (n, g, d, d)).copy()
    # previous bound terms of -inf, so the ascent guard keeps every entry
    worst = np.full((n, g), -np.inf)
    s_new, _, logdet_s, _, _, _, n_guarded = stage1._update_s_guarded(
        sig_inv, logc, m, s, np.zeros((n, g)), worst, np.zeros((n, g)), lam, psi, sig_logdet,
        stage1._rates_batch(logc, m, np.diagonal(s, axis1=-2, axis2=-1))[0],
    )
    assert n_guarded == 0
    rate = np.exp(m + 0.05)
    for i in range(n):
        for j in range(g):
            a = np.linalg.inv(sig[j]) + np.diag(rate[i, j])
            assert _rel_err(s_new[i, j], np.linalg.inv(a)) < 1e-10
            sign, ref = np.linalg.slogdet(a)
            assert sign > 0
            assert logdet_s[i, j] == pytest.approx(-ref, rel=1e-10)


@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("seed", range(4))
def test_factor_form_regression_matches_dense_solve(seed, k):
    rng = np.random.default_rng(seed)
    g, d = 2, 6
    lam, psi, sig = _factor_instance(rng, g, d, k)
    beta = stage2._beta_from(lam, psi)
    sig_inv, sig_logdet = em._sigma_from(lam, psi)
    for j in range(g):
        assert _rel_err(beta[j], np.linalg.solve(sig[j], lam[j]).T) < 1e-10
        assert sig_logdet[j] == pytest.approx(np.linalg.slogdet(sig[j])[1], rel=1e-10)
        # psi^-1 - psi^-1 lam Q lam' psi^-1 cancels where psi_j is small
        # against (lam lam')_jj: about eps * |lam|^2 / min psi, so 1e-7 at
        # psi >= 1e-4.  The S step and beta above never form this difference.
        assert _rel_err(sig_inv[j], np.linalg.inv(sig[j])) < 1e-7
