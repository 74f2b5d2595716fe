import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplnfa.core import EmptyComponentError, InputError, NumericalError
from mplnfa.stage1 import (
    elbo_stage1,
    elbo_stage1_grad_m,
    update_m,
    update_pi_mu,
    update_responsibilities,
    update_s,
)
import mplnfa.stage1 as stage1
import mplnfa.em as em

from conftest import loop_s
from oracles import dense_s, factor_form, fd_grad, random_loadings_psi, random_spd


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


def test_update_m_takes_the_first_step_length_that_passes(rng):
    # Random means up to a few units off log(y + 1) under S of varied
    # size: the step S grad is accepted whole, halved to 2^-j, or, when
    # no step length down to 2^-MAX_HALVINGS keeps the bound terms, not
    # taken at all.  Each outcome must equal this loop bit for bit.
    def phi(y, m, s_diag, mu, sigma):
        rate = np.exp(np.clip(m + 0.5 * s_diag, -stage1.EXP_CLAMP, stage1.EXP_CLAMP))
        return m @ y - rate.sum() - 0.5 * (m - mu) @ np.linalg.solve(sigma, m - mu)

    seen = set()
    for _ in range(60):
        d = int(rng.integers(1, 5))
        mu = rng.normal(1.0, 1.0, d)
        sigma = random_spd(rng, d, scale=0.5)
        y = rng.poisson(np.exp(rng.uniform(0.0, 5.0, d)))
        m_prev = np.log1p(y) + rng.normal(0.0, 2.0, d)
        s = 10.0 ** rng.uniform(-3.0, 0.5) * random_spd(rng, d)
        s_diag = np.diag(s)
        rate = np.exp(m_prev + 0.5 * s_diag)
        step = s @ (y - rate - np.linalg.solve(sigma, m_prev - mu))
        f0 = phi(y, m_prev, s_diag, mu, sigma)
        ref, outcome = m_prev, "none"
        for j in range(stage1.MAX_HALVINGS + 1):
            cand = m_prev + 0.5**j * step
            f1 = phi(y, cand, s_diag, mu, sigma)
            if np.isfinite(f1) and f1 >= f0 - 1e-12 * max(1.0, abs(f0)):
                ref, outcome = cand, "full" if j == 0 else "halved"
                break
        got = update_m(y, 1.0, sigma, mu, m_prev, s)
        np.testing.assert_array_equal(got, ref)
        assert not np.shares_memory(got, m_prev)
        seen.add(outcome)
    assert seen == {"full", "halved", "none"}


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
    y[:, 0] = 0  # a zero-count column
    logc = np.log(rng.uniform(0.5, 2.0, n))
    m = rng.normal(1.0, 0.5, (n, g, d))
    # rate arguments past the exp clamp, above in one pair and below, at a
    # nonzero count, in another
    m[2, 1, 1], m[4, 0, 2] = stage1.EXP_CLAMP + 5.0, -stage1.EXP_CLAMP - 5.0
    y[4, 2] = max(y[4, 2], 1)
    s = np.stack([[random_spd(rng, d, scale=0.05) for _ in range(g)] for _ in range(n)])
    mu = rng.normal(1.0, 0.5, (g, d))
    sig = np.stack([random_spd(rng, d) for _ in range(g)])
    psi, lam = factor_form(sig)
    sigma = em._sigma_from(lam, psi)
    yf = y.astype(np.float64)
    caches = em._make_caches(yf, logc, np.log1p(yf) - logc[:, None], m, loop_s(*factor_form(s)),
                             mu, sigma, np.linalg.slogdet(s)[1], em._count_constant(yf).sum(1))
    assert caches["clamps"] == 2
    f = em._assemble_f(caches, sigma[3], d)
    for i in range(n):
        for j in range(g):
            ref = elbo_stage1(y[i], np.exp(logc[i]), m[i, j], s[i, j], mu[j], sig[j])
            assert f[i, j] == pytest.approx(ref, rel=1e-10)


def test_quad_batch_matches_einsum(rng):
    n, g, d = 9, 3, 5
    m = rng.normal(1.0, 0.5, (n, g, d))
    mu = rng.normal(1.0, 0.5, (g, d))
    sig = np.stack([random_spd(rng, d) for _ in range(g)])
    psi, lam = factor_form(sig)
    v = m - mu[None]
    ref = np.einsum("ngd,gde,nge->ng", v, np.linalg.inv(sig), v)
    np.testing.assert_allclose(stage1._quad_batch(m, mu, em._sigma_from(lam, psi)), ref,
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("seed", range(3))
def test_quad_batch_split_form_matches_dense_inverse(seed, k):
    # low-rank loadings in the presets' ranges, against a dense sigma^-1
    rng = np.random.default_rng(seed)
    n, g, d = 9, 3, 8
    lam, psi = (np.stack(a) for a in zip(*(random_loadings_psi(rng, d, k) for _ in range(g))))
    sig = lam @ lam.transpose(0, 2, 1) + psi[:, :, None] * np.eye(d)
    m = rng.normal(1.0, 0.5, (n, g, d))
    mu = rng.normal(1.0, 0.5, (g, d))
    v = m - mu[None]
    ref = np.einsum("ngd,gde,nge->ng", v, np.linalg.inv(sig), v)
    np.testing.assert_allclose(stage1._quad_batch(m, mu, em._sigma_from(lam, psi)), ref,
                               rtol=1e-12, atol=0)


def test_guarded_batch_updates_match_public_functions(rng):
    n, g, d = 5, 2, 3
    y = rng.poisson(4.0, (n, d)).astype(np.float64)
    logc = np.zeros(n)
    m = np.log1p(y)[:, None, :].repeat(g, axis=1)
    s = loop_s(np.full((n, g, d), 0.1), np.zeros((n, g, d, 2)))
    mu = rng.normal(1.0, 0.3, (g, d))
    lam = rng.normal(0.0, 0.5, (g, d, 2))
    psi = rng.uniform(0.2, 1.0, (g, d))
    sig = lam @ lam.transpose(0, 2, 1) + psi[:, :, None] * np.eye(d)
    sigma = em._sigma_from(lam, psi)
    obs = (y, logc, np.log1p(y) - logc[:, None])
    caches = em._make_caches(*obs, m, s, mu, sigma, np.linalg.slogdet(dense_s(s))[1],
                             em._count_constant(y).sum(1))

    s_new, trs, logdet_s, rate, pois, _, _ = stage1._update_s_guarded(
        sigma, obs, m, s, caches["trs"], caches["logdet_s"], caches["pois"], caches["rate"],
    )
    for i in range(n):
        for j in range(g):
            ref = update_s(sig[j], np.exp(logc[i]), m[i, j], dense_s(s)[i, j])
            np.testing.assert_allclose(dense_s(s_new)[i, j], ref, atol=1e-12)

    m_new, *_ = stage1._update_m_guarded(
        obs, sigma, mu, m, s_new, rate, pois, stage1._quad_batch(m, mu, sigma),
    )
    for i in range(n):
        for j in range(g):
            ref = update_m(y[i], np.exp(logc[i]), sig[j], mu[j], m[i, j], dense_s(s_new)[i, j])
            np.testing.assert_allclose(m_new[i, j], ref, atol=1e-10)

    # Means far below log(y + 1) with larger counts: the full step
    # S grad overshoots, so the batched m step halves.
    y = 10.0 * y
    obs = (y, logc, np.log1p(y) - logc[:, None])
    m = np.log1p(y)[:, None, :].repeat(g, axis=1) - 3.0
    rate, pois, _ = stage1._poisson_batch(obs, m, np.diagonal(dense_s(s_new), axis1=-2, axis2=-1))
    m_new, *_, n_guarded = stage1._update_m_guarded(
        obs, sigma, mu, m, s_new, rate, pois, stage1._quad_batch(m, mu, sigma),
    )
    assert n_guarded > 0
    for i in range(n):
        for j in range(g):
            ref = update_m(y[i], np.exp(logc[i]), sig[j], mu[j], m[i, j], dense_s(s_new)[i, j])
            np.testing.assert_allclose(m_new[i, j], ref, atol=1e-10)


def _pois_shift(y, logc, m):
    """m'y + log C sum(y) less sum_j (y_j log(y_j + 1) - y_j - 1): added to
    -sum(rates), it gives the Poisson term of `stage1._poisson_batch`."""
    return m @ y + logc * y.sum() - (y * np.log1p(y) - y - 1.0).sum()


def _s_phi(sig_inv, y, logc, m, s):
    """The S-dependent bound terms of one block, with a dense slogdet."""
    rate = np.exp(logc + m + 0.5 * np.diag(s))
    return (-0.5 * np.trace(sig_inv @ s) + 0.5 * np.linalg.slogdet(s)[1] - rate.sum()
            + _pois_shift(y, logc, m))


def test_s_step_halving_matches_dense_loop():
    _check_s_step_halving(every_rejected=False)


def test_s_step_halving_reverts_every_pair_when_none_passes():
    # no guarded pair finds a passing step, so no candidate is left to keep
    _check_s_step_halving(every_rejected=True)


def _check_s_step_halving(every_rejected):
    # Large component covariances and small rates: the fixed-point step
    # S(r) = (sigma^-1 + diag r)^-1 from a small S overshoots, and the
    # bound terms along the candidates S(r / eta), eta = 1, 1/2, ..., peak
    # at eta = 1/4.  Each pair's cached terms are set to a floor that
    # picks one branch: the full step, the first halving, the second, or
    # none.
    rng = np.random.default_rng(0)
    n, g, d, k = 2, 2, 3, 2
    lam = rng.normal(0.0, 5.0, (g, d, k))
    psi = 5.0 * rng.uniform(0.2, 1.0, (g, d))
    sigma = em._sigma_from(lam, psi)
    sig_inv = np.linalg.inv(lam @ lam.transpose(0, 2, 1) + psi[:, :, None] * np.eye(d))
    y, logc = np.zeros((n, d)), np.zeros(n)
    obs = (y, logc, np.log1p(y) - logc[:, None])
    m = -3.0 + rng.uniform(-0.5, 0.5, (n, g, d))
    s = loop_s(np.full((n, g, d), 0.01), np.zeros((n, g, d, k)))
    zeros = np.zeros((n, g))
    rate0 = stage1._poisson_batch(obs, m, s[0])[0]

    etas = 0.5 ** np.arange(stage1.MAX_HALVINGS + 1)  # the full step, then the halvings
    cands = np.array([[[np.linalg.inv(sig_inv[j] + np.diag(rate0[i, j] / eta)) for eta in etas]
                       for j in range(g)] for i in range(n)])
    phis = np.array([[[_s_phi(sig_inv[j], y[i], logc[i], m[i, j], c) for c in cands[i, j]]
                      for j in range(g)] for i in range(n)])
    floor = np.empty((n, g))
    floor[0, 0] = phis[0, 0, 0] - 1.0  # the full step passes
    for (i, j), b in (((0, 1), 1), ((1, 1), 2)):  # first passes at eta = 2^-b
        assert phis[i, j, b] > phis[i, j, :b].max() + 1e-3
        floor[i, j] = 0.5 * (phis[i, j, b] + phis[i, j, :b].max())
    floor[1, 0] = phis[1, 0].max() + 1.0  # nothing passes
    if every_rejected:  # nor for any other pair
        floor = phis.max(axis=-1) + 1.0
    # phi_old = -tr/2 + log|S|/2 + Poisson term, so these caches make it the floor
    s_new, trs, logdet_s, rate, pois, _, n_guarded = stage1._update_s_guarded(
        sigma, obs, m, s, zeros, 2.0 * floor, zeros, rate0,
    )
    assert n_guarded == (4 if every_rejected else 3)
    # the carried diag S is the kernel's diag of the returned S, bit for
    # bit, at the full step, at the halvings and at the reverted pair
    np.testing.assert_array_equal(s_new[2], stage1._s_diag(s_new))
    idx = np.arange(d)
    for i in range(n):
        for j in range(g):
            passed = np.nonzero(phis[i, j] >= floor[i, j])[0]
            if len(passed):
                ref = cands[i, j, passed[0]]
                np.testing.assert_allclose(dense_s(s_new)[i, j], ref, rtol=0, atol=1e-12)
                assert logdet_s[i, j] == pytest.approx(np.linalg.slogdet(ref)[1], rel=1e-12)
                assert trs[i, j] == pytest.approx(np.trace(sig_inv[j] @ ref), rel=1e-12)
                ref_rate = np.exp(logc[i] + m[i, j] + 0.5 * ref[idx, idx])
                np.testing.assert_allclose(rate[i, j], ref_rate, rtol=1e-12)
                ref_pois = _pois_shift(y[i], logc[i], m[i, j]) - ref_rate.sum()
                assert pois[i, j] == pytest.approx(ref_pois, rel=1e-12)
            else:  # the previous S, with the cached pieces it came with
                for new, old in zip((*s_new, trs, logdet_s, rate, pois),
                                    (*s, zeros, 2.0 * floor, rate0, zeros)):
                    np.testing.assert_array_equal(new[i, j], old[i, j])


def test_m_step_halving_matches_dense_loop():
    _check_m_step_halving(every_rejected=False)


def test_m_step_halving_reverts_every_pair_when_none_passes():
    # no guarded pair finds a passing step, so no candidate is left to keep
    _check_m_step_halving(every_rejected=True)


def _check_m_step_halving(every_rejected):
    # Means 3 below log(y + 1) under a large S: the step S grad overshoots
    # the rates' balance point several times over, so the bound terms
    # along m + eta S grad, eta = 1, 1/2, ..., rise at least to
    # eta = 1/4.  Each pair's cached Poisson term is set so that its
    # previous terms are a floor that picks one branch: the full step, the first
    # halving, the second, or none.
    rng = np.random.default_rng(2)
    n, g, d, k = 2, 2, 3, 2
    lam = rng.normal(0.0, 1.0, (g, d, k))
    psi = rng.uniform(0.5, 1.5, (g, d))
    sigma = em._sigma_from(lam, psi)
    sig = lam @ lam.transpose(0, 2, 1) + psi[:, :, None] * np.eye(d)
    y = rng.poisson(30.0, (n, d)).astype(np.float64)
    logc = np.zeros(n)
    m = np.log1p(y)[:, None, :] - 3.0 + rng.uniform(-0.2, 0.2, (n, g, d))
    mu = m.mean(axis=0)
    s = loop_s(np.full((n, g, d), 0.5), rng.normal(0.0, 0.2, (n, g, d, k)))
    s_dense = dense_s(s)
    idx = np.arange(d)
    obs = (y, logc, np.log1p(y) - logc[:, None])
    rate0 = stage1._poisson_batch(obs, m, s_dense[..., idx, idx])[0]
    zeros = np.zeros((n, g))

    def terms(i, j, c):
        """(rates, quad, Poisson term) of mean c for pair (i, j), densely."""
        rate = np.exp(logc[i] + c + 0.5 * s_dense[i, j][idx, idx])
        return (rate, (c - mu[j]) @ np.linalg.solve(sig[j], c - mu[j]),
                _pois_shift(y[i], logc[i], c) - rate.sum())

    etas = 0.5 ** np.arange(stage1.MAX_HALVINGS + 1)  # the full step, then the halvings
    steps = np.array([[s_dense[i, j] @ (y[i] - rate0[i, j]
                                       - np.linalg.solve(sig[j], m[i, j] - mu[j]))
                       for j in range(g)] for i in range(n)])
    cands = m[:, :, None, :] + etas[:, None] * steps[:, :, None, :]
    phis = np.empty(cands.shape[:3])
    for i in range(n):
        for j in range(g):
            for b, c in enumerate(cands[i, j]):
                _, quad, pois = terms(i, j, c)
                phis[i, j, b] = pois - 0.5 * quad
    floor = np.empty((n, g))
    floor[0, 0] = phis[0, 0, 0] - 1.0  # the full step passes
    for (i, j), b in (((0, 1), 1), ((1, 1), 2)):  # first passes at eta = 2^-b
        assert phis[i, j, b] > phis[i, j, :b].max() + 1e-3
        floor[i, j] = 0.5 * (phis[i, j, b] + phis[i, j, :b].max())
    floor[1, 0] = phis[1, 0].max() + 1.0  # nothing passes
    if every_rejected:  # nor for any other pair
        floor = phis.max(axis=-1) + 1.0
    # phi_old = Poisson term - quad/2, so these caches make it the floor
    s_before = tuple(a.copy() for a in s)
    m_new, rate, pois, quad, _, n_guarded = stage1._update_m_guarded(
        obs, sigma, mu, m, s, rate0, floor, zeros,
    )
    assert n_guarded == (4 if every_rejected else 3)
    # the m step leaves S and its carried diag as they were, the kernel's
    # diag of S bit for bit
    for after, before in zip(s, s_before):
        np.testing.assert_array_equal(after, before)
    np.testing.assert_array_equal(s[2], stage1._s_diag(s))
    for i in range(n):
        for j in range(g):
            passed = np.nonzero(phis[i, j] >= floor[i, j])[0]
            if len(passed):
                ref = cands[i, j, passed[0]]
                np.testing.assert_allclose(m_new[i, j], ref, rtol=1e-12, atol=0)
                ref_rate, ref_quad, ref_pois = terms(i, j, ref)
                np.testing.assert_allclose(rate[i, j], ref_rate, rtol=1e-10)
                assert pois[i, j] == pytest.approx(ref_pois, rel=1e-10)
                assert quad[i, j] == pytest.approx(ref_quad, rel=1e-10)
            else:  # the previous mean, with the cached pieces it came with
                for new, old in zip((m_new, rate, pois, quad),
                                    (m, rate0, floor, zeros)):
                    np.testing.assert_array_equal(new[i, j], old[i, j])


def test_s_step_counts_only_the_clamps_at_its_new_s():
    # log C + m = 699 with S = 4 I puts every previous rate past the exp
    # clamp; the refreshed S is about 1 / rate, so no new rate is.  The
    # previous rates were counted where they were made (the start or the
    # m step), so the S step must not count them again.
    rng = np.random.default_rng(1)
    n, g, d, k = 3, 2, 4, 1
    lam = rng.normal(0.0, 1.0, (g, d, k))
    psi = rng.uniform(0.2, 1.0, (g, d))
    sigma = em._sigma_from(lam, psi)
    y, logc = np.zeros((n, d)), np.full(n, 690.0)
    obs = (y, logc, np.log1p(y) - logc[:, None])
    m = np.full((n, g, d), 9.0)
    s = loop_s(np.full((n, g, d), 4.0), np.zeros((n, g, d, k)))
    assert stage1._poisson_batch(obs, m, s[0])[2] == n * g * d
    rate0 = stage1._poisson_batch(obs, m, s[0])[0]
    zeros = np.zeros((n, g))
    s_new, *_, clamps, n_guarded = stage1._update_s_guarded(
        sigma, obs, m, s, zeros, np.full((n, g), -np.inf), zeros, rate0,
    )
    assert n_guarded == 0
    arg = logc[:, None, None] + m + 0.5 * np.diagonal(dense_s(s_new), axis1=-2, axis2=-1)
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
    sigma = em._sigma_from(lam, psi)
    y, logc = np.zeros((n, d)), np.zeros(n)
    obs = (y, logc, np.log1p(y) - logc[:, None])
    # rates exp(m + S_jj / 2) spread over [e^-4, e^8]
    m = rng.uniform(-4.0, 8.0 - 0.05, (n, g, d))
    s = loop_s(np.full((n, g, d), 0.1), np.zeros((n, g, d, k)))
    # previous bound terms of -inf, so the ascent guard keeps every entry
    worst = np.full((n, g), -np.inf)
    s_new, _, logdet_s, _, _, _, n_guarded = stage1._update_s_guarded(
        sigma, obs, m, s, np.zeros((n, g)), worst, np.zeros((n, g)),
        stage1._poisson_batch(obs, m, s[0])[0],
    )
    assert n_guarded == 0
    rate = np.exp(m + 0.05)
    for i in range(n):
        for j in range(g):
            a = np.linalg.inv(sig[j]) + np.diag(rate[i, j])
            assert _rel_err(dense_s(s_new)[i, j], np.linalg.inv(a)) < 1e-10
            sign, ref = np.linalg.slogdet(a)
            assert sign > 0
            assert logdet_s[i, j] == pytest.approx(-ref, rel=1e-10)


@pytest.mark.parametrize("rho", [np.nan, -0.5])
def test_s_of_fails_at_a_pivot_that_is_not_positive(rho):
    # M = I + lam' diag(rho h) lam is SPD for positive rates; a NaN rate,
    # or one that makes M = -3 I here, fails the refresh numerically
    sigma = em._sigma_from(2.0 * np.eye(2)[None], np.ones((1, 2)))
    with pytest.raises(NumericalError, match="covariance refresh failed"):
        stage1._s_of(np.full((1, 1, 2), rho), sigma)


@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("seed", range(4))
def test_factor_form_regression_matches_dense_solve(seed, k):
    rng = np.random.default_rng(seed)
    g, d = 2, 6
    lam, psi, sig = _factor_instance(rng, g, d, k)
    sigma = em._sigma_from(lam, psi)
    beta = sigma[2]
    # sigma^-1 x = psi^-1 (x - lam beta x), applied to the identity
    sig_inv = stage1._sig_inv_apply(np.repeat(np.eye(d)[:, None], g, axis=1), sigma)
    for j in range(g):
        assert _rel_err(beta[j], np.linalg.solve(sig[j], lam[j]).T) < 1e-10
        assert sigma[3][j] == pytest.approx(np.linalg.slogdet(sig[j])[1], rel=1e-10)
        assert _rel_err(sig_inv[:, j], np.linalg.inv(sig[j])) < 1e-7


@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("seed", range(4))
def test_factor_form_kernels_match_dense_solves(seed, k):
    # Every S- and sigma-dependent kernel of the fitting loop, on random
    # factor forms S = diag(s_d) + s_w s_w' and psi down to 1e-4, against
    # dense solves, products and log-determinants.  log|S| and the
    # closed-form tr(sigma^-1 S) are checked where the loop computes them,
    # at S(rho) = (sigma^-1 + diag rho)^-1 and at a guard's S(rho / eta).
    rng = np.random.default_rng(100 + seed)
    n, g, d = 3, 2, 8
    lam, psi, sig = _factor_instance(rng, g, d, k)
    sigma = em._sigma_from(lam, psi)
    s = loop_s(rng.uniform(0.01, 1.0, (n, g, d)), rng.normal(0.0, 0.5, (n, g, d, k)))
    s_dense = dense_s(s)
    m = rng.normal(1.0, 1.0, (n, g, d))
    mu = rng.normal(1.0, 1.0, (g, d))
    x = rng.normal(0.0, 1.0, (n, g, d))
    rho = np.exp(rng.uniform(-4.0, 8.0, (n, g, d)))
    trs = stage1._trace_batch(sigma, s)
    quad = stage1._quad_batch(m, mu, sigma)
    sig_inv_x = stage1._sig_inv_apply(x, sigma)
    s_x = stage1._s_apply(s, x)
    s_diag = stage1._s_diag(s)
    s_rho, logdet_rho = stage1._s_of(rho, sigma)
    tr_rho = stage1._s_trace(rho, s_rho[2])
    eta = 0.25
    s_eta = stage1._s_of(rho / eta, sigma)[0]
    tr_eta = stage1._s_trace(rho / eta, s_eta[2])
    for i in range(n):
        for j in range(g):
            v = m[i, j] - mu[j]
            assert trs[i, j] == pytest.approx(np.trace(np.linalg.solve(sig[j], s_dense[i, j])),
                                              rel=1e-10)
            assert quad[i, j] == pytest.approx(v @ np.linalg.solve(sig[j], v), rel=1e-10)
            assert _rel_err(sig_inv_x[i, j], np.linalg.solve(sig[j], x[i, j])) < 1e-10
            assert _rel_err(s_x[i, j], s_dense[i, j] @ x[i, j]) < 1e-10
            np.testing.assert_allclose(s_diag[i, j], np.diag(s_dense[i, j]), rtol=1e-10, atol=0)
            a = np.linalg.inv(sig[j]) + np.diag(rho[i, j])
            assert _rel_err(dense_s(s_rho)[i, j], np.linalg.inv(a)) < 1e-10
            sign, ref = np.linalg.slogdet(a)
            assert sign > 0
            assert logdet_rho[i, j] == pytest.approx(-ref, rel=1e-10)
            for tr, s_at in ((tr_rho, s_rho), (tr_eta, s_eta)):
                assert tr[i, j] == pytest.approx(
                    np.trace(np.linalg.solve(sig[j], dense_s(s_at)[i, j])), rel=1e-10)
