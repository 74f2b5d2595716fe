import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mplnfa.core import ALL_MODELS, EmptyComponentError, InputError, ModelId
from mplnfa.stage1 import elbo_stage1
from mplnfa.stage2 import (
    elbo_stage2,
    make_stage2_stats,
    run_inner_loop,
    update_p,
    update_q,
)
import mplnfa.stage2 as stage2

from oracles import (
    aggregated_stage2_objective,
    dense_sweep,
    fd_grad,
    random_loadings_psi,
    random_spd,
)


def constrained_draw(rng, mid, g, d, k):
    lam = rng.uniform(-1, 1, (g, d, k))
    psi = rng.uniform(0.25, 1.0, (g, d))
    if mid.lambda_constrained:
        lam[:] = lam[0]
    if mid.psi_isotropic:
        psi[:] = psi.mean(axis=1, keepdims=True)
    if mid.psi_constrained:
        psi[:] = psi[0]
    return lam, psi


def random_stats(rng, g, d, k, mid):
    n_g = rng.uniform(30.0, 200.0, g)
    a = rng.standard_normal((g, d, d)) * 0.7
    w = np.einsum("gde,gfe->gdf", a, a) + np.eye(d) * rng.uniform(0.2, 1.0)
    lam, psi = constrained_draw(rng, mid, g, d, k)
    s_bar = rng.uniform(0.01, 0.3, (g, d))
    return w, n_g, s_bar, lam, psi


# ---------------------------------------------------------------------------
# sufficient statistics
# ---------------------------------------------------------------------------


# These four take one component: zhat (n, 1), m (n, 1, d), mu (1, d).


def test_compute_w_centered_data_is_zero():
    m = np.tile([1.0, 2.0], (4, 1, 1))
    w = make_stage2_stats(np.ones((4, 1)), m, np.array([[1.0, 2.0]]))[0]
    np.testing.assert_array_equal(w, np.zeros((2, 2)))


def test_compute_w_hard_assignment_scatter():
    m = np.array([[[-1.0]], [[1.0]]])
    w = make_stage2_stats(np.ones((2, 1)), m, np.array([[0.0]]))[0]
    assert w[0, 0] == pytest.approx(1.0)


def test_compute_w_is_psd(rng):
    m = rng.normal(0, 1, (30, 1, 4))
    z = rng.uniform(0.01, 1.0, (30, 1))
    w = make_stage2_stats(z, m, m.mean(axis=0))[0]
    assert np.linalg.eigvalsh(w).min() >= -1e-12


def test_compute_w_empty_component():
    with pytest.raises(EmptyComponentError):
        make_stage2_stats(np.zeros((3, 1)), np.zeros((3, 1, 2)), np.zeros((1, 2)))


def test_stage2_scatter_matches_einsum(rng):
    n, g, d = 11, 3, 4
    zhat = rng.dirichlet(np.ones(g), n)
    m = rng.normal(1.0, 0.5, (n, g, d))
    mu = rng.normal(1.0, 0.5, (g, d))
    v = m - mu[None]
    ref = np.einsum("ng,ngd,nge->gde", zhat, v, v) / zhat.sum(0)[:, None, None]
    w = make_stage2_stats(zhat, m, mu)
    np.testing.assert_allclose(w, 0.5 * (ref + ref.transpose(0, 2, 1)), rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# factor posterior parameters
# ---------------------------------------------------------------------------


def test_update_q_zero_loadings_identity():
    np.testing.assert_array_equal(update_q(np.zeros((4, 2)), np.ones(4)), np.eye(2))


def test_update_q_hand_value_both_forms():
    q = update_q(np.array([[1.0]]), np.array([1.0]))
    assert q[0, 0] == pytest.approx(0.5, abs=1e-15)
    beta = np.array([[0.5]])
    np.testing.assert_allclose(np.eye(1) - beta @ np.array([[1.0]]), q, atol=1e-15)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_update_q_woodbury_identity(seed):
    r = np.random.default_rng(seed)
    d, k = int(r.integers(1, 9)), int(r.integers(1, 4))
    lam, psi = random_loadings_psi(r, d, k)
    q = update_q(lam, psi)
    beta = q @ (lam / psi[:, None]).T
    beta_direct = lam.T @ np.linalg.inv(lam @ lam.T + np.diag(psi))
    np.testing.assert_allclose(beta, beta_direct, atol=1e-10)
    np.testing.assert_allclose(q, np.eye(k) - beta_direct @ lam, atol=1e-10)
    assert np.linalg.eigvalsh(q).min() > 0


def test_update_p_values_and_linearity(rng):
    beta = np.array([[0.5]])
    assert update_p(beta, np.array([2.0]), np.array([0.0]))[0] == pytest.approx(1.0)
    np.testing.assert_array_equal(update_p(beta, np.array([1.5]), np.array([1.5])), [0.0])
    b = rng.normal(0, 1, (2, 4))
    m = rng.normal(0, 1, 4)
    mu = rng.normal(0, 1, 4)
    delta = rng.normal(0, 1, 4)
    lhs = update_p(b, m + delta, mu) - update_p(b, m, mu)
    np.testing.assert_allclose(lhs, b @ delta, atol=1e-12)


# ---------------------------------------------------------------------------
# the factorized bound
# ---------------------------------------------------------------------------


def test_stage2_bound_reduces_to_stage1_without_loadings(rng):
    d = 3
    psi = rng.uniform(0.3, 1.0, d)
    mu = rng.uniform(0, 2, d)
    m = mu + rng.normal(0, 0.3, d)
    s = random_spd(rng, d, scale=0.05)
    y = rng.poisson(np.exp(m)).astype(np.int64)
    f2 = elbo_stage2(y, 1.0, m, s, mu, np.zeros((d, 2)), psi, np.zeros(2), np.eye(2))
    f1 = elbo_stage1(y, 1.0, m, s, mu, np.diag(psi))
    assert f2 == pytest.approx(f1, abs=1e-11)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_stage2_gap_is_exactly_the_factorization_penalty(seed):
    # at the optimal (P, Q) the two bounds differ by 1/2 tr[(Psi^-1 - Sigma^-1) S],
    # which is nonnegative and zero only for vanishing loadings
    r = np.random.default_rng(seed)
    d, k = int(r.integers(2, 6)), int(r.integers(1, 3))
    lam, psi = random_loadings_psi(r, d, k)
    sigma = lam @ lam.T + np.diag(psi)
    mu = r.uniform(0, 2, d)
    m = mu + r.normal(0, 0.4, d)
    s = random_spd(r, d, scale=0.05)
    y = r.poisson(np.exp(np.clip(m, -20, 10))).astype(np.int64)
    q = update_q(lam, psi)
    beta = q @ (lam / psi[:, None]).T
    p = update_p(beta, m, mu)
    f1 = elbo_stage1(y, 1.0, m, s, mu, sigma)
    f2 = elbo_stage2(y, 1.0, m, s, mu, lam, psi, p, q)
    gap = f1 - f2
    predicted = 0.5 * np.trace((np.diag(1.0 / psi) - np.linalg.inv(sigma)) @ s)
    assert gap == pytest.approx(predicted, abs=1e-10)
    assert gap >= -1e-12


def test_stage2_p_gradient_vanishes_at_optimum(rng):
    d, k = 4, 2
    lam, psi = random_loadings_psi(rng, d, k)
    mu = rng.uniform(0, 2, d)
    m = mu + rng.normal(0, 0.4, d)
    s = random_spd(rng, d, scale=0.05)
    y = rng.poisson(np.exp(m)).astype(np.int64)
    q = update_q(lam, psi)
    beta = q @ (lam / psi[:, None]).T
    p_opt = update_p(beta, m, mu)
    g = fd_grad(lambda p: elbo_stage2(y, 1.0, m, s, mu, lam, psi, p, q), p_opt, h=1e-6)
    assert np.abs(g).max() < 1e-6


# ---------------------------------------------------------------------------
# inner loop
# ---------------------------------------------------------------------------


def test_inner_loop_g1_constraint_pairs_coincide(rng):
    d, k = 5, 2
    mid_pairs = (("UUU", "CUU"), ("UUC", "CUC"), ("UCU", "CCU"), ("UCC", "CCC"))
    w, n_g, s_bar, lam0, psi0 = random_stats(rng, 1, d, k, ModelId.from_string("UUU"))
    for code_u, code_c in mid_pairs:
        lam_u, psi_u, _ = run_inner_loop(ModelId.from_string(code_u), w, n_g, s_bar, lam0, psi0)
        lam_c, psi_c, _ = run_inner_loop(ModelId.from_string(code_c), w, n_g, s_bar, lam0, psi0)
        np.testing.assert_allclose(lam_u @ lam_u.transpose(0, 2, 1),
                                   lam_c @ lam_c.transpose(0, 2, 1), atol=1e-6)
        np.testing.assert_allclose(psi_u, psi_c, atol=1e-6)


def test_inner_loop_gaussian_limit_recovers_covariance(rng):
    # with m drawn from the implied Gaussian and no smoothing term, the loop
    # is plain maximum-likelihood factor analysis on the sample scatter
    d, k, n = 6, 2, 5000
    lam_true, psi_true = random_loadings_psi(rng, d, k)
    sigma_true = lam_true @ lam_true.T + np.diag(psi_true)
    m = rng.multivariate_normal(np.zeros(d), sigma_true, n)
    w = (m.T @ m / n)[None]
    lam0 = rng.uniform(-0.5, 0.5, (1, d, k))
    psi0 = np.full((1, d), 0.6)
    lam, psi, info = run_inner_loop(ModelId.from_string("UUU"), w, np.array([float(n)]),
                                    np.zeros((1, d)), lam0, psi0)
    fitted = lam[0] @ lam[0].T + np.diag(psi[0])
    assert info["converged"]
    assert np.linalg.norm(fitted - sigma_true) < 0.15


def test_isotropic_psi_pattern_hand_value():
    # (1/d) tr(W - Lambda beta W + S-bar) with every piece a multiple of I
    d = 4
    bvec = np.full((1, d), 2.0 - 0.5 + 0.1)
    for code in ("UUC", "CUC"):
        psi = stage2._psi_pattern(ModelId.from_string(code), bvec, np.array([10.0]))
        np.testing.assert_allclose(psi, np.full((1, d), 1.6), atol=1e-15)


def test_psi_pattern_shapes_and_sharing():
    bvec = np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]])
    n_g = np.array([1.0, 3.0])
    per_g = stage2._psi_pattern(ModelId.from_string("UUU"), bvec, n_g)
    np.testing.assert_array_equal(per_g, bvec)
    iso = stage2._psi_pattern(ModelId.from_string("UUC"), bvec, n_g)
    np.testing.assert_allclose(iso, [[2.0] * 3, [4.0] * 3], atol=1e-15)
    shared = stage2._psi_pattern(ModelId.from_string("UCU"), bvec, n_g)
    np.testing.assert_allclose(shared, np.tile([2.5, 3.5, 4.5], (2, 1)), atol=1e-15)
    assert np.array_equal(shared[0], shared[1])
    iso_shared = stage2._psi_pattern(ModelId.from_string("UCC"), bvec, n_g)
    np.testing.assert_allclose(iso_shared, np.full((2, 3), 3.5), atol=1e-15)


def test_common_lambda_row_solve_matches_direct_solve_at_g1(rng):
    d, k = 6, 2
    w, n_g, s_bar, lam0, psi0 = random_stats(rng, 1, d, k, ModelId.from_string("UUU"))
    lam_u, _, _ = run_inner_loop(ModelId.from_string("UUU"), w, n_g, s_bar, lam0, psi0,
                                 max_inner=1)
    lam_c, _, _ = run_inner_loop(ModelId.from_string("CUU"), w, n_g, s_bar, lam0, psi0,
                                 max_inner=1)
    np.testing.assert_allclose(lam_u, lam_c, atol=1e-8)


@given(seed=st.integers(0, 5_000))
@example(seed=376)  # CUC: the shared-loading psi step once descended here
@settings(max_examples=25, deadline=None)
def test_inner_sweeps_ascend_aggregated_bound(seed):
    # every sweep is exact block-coordinate ascent for all eight patterns:
    # the factor posterior, then the loadings, then the error variances each
    # maximize the aggregated bound with the other blocks held fixed, so no
    # sweep may lose more than rounding
    r = np.random.default_rng(seed)
    g, d, k = int(r.integers(1, 4)), int(r.integers(3, 7)), int(r.integers(1, 3))
    mid = ALL_MODELS[int(r.integers(0, 8))]
    slack = 1e-8
    w, n_g, s_bar, lam, psi = random_stats(r, g, d, k, mid)
    s_bar_full = np.stack([np.diag(s_bar[j]) for j in range(g)])
    prev = aggregated_stage2_objective(lam, psi, w, s_bar_full, n_g)
    for _ in range(12):
        lam, psi, _ = run_inner_loop(mid, w, n_g, s_bar, lam, psi, max_inner=1)
        cur = aggregated_stage2_objective(lam, psi, w, s_bar_full, n_g)
        assert cur >= prev - slack * max(1.0, abs(prev))
        prev = cur


@pytest.mark.parametrize("mid", ALL_MODELS, ids=str)
def test_sweep_objective_is_the_aggregated_bound(rng, mid):
    # the objective a sweep reports at its input is the factorized bound
    # with beta at its optimum, shifted by the constant (K/2) sum n_g
    for _ in range(5):
        g, d, k = int(rng.integers(1, 4)), int(rng.integers(3, 7)), int(rng.integers(1, 3))
        w, n_g, s_bar, lam, psi = random_stats(rng, g, d, k, mid)
        ws_diag = np.diagonal(w, axis1=1, axis2=2) + s_bar
        objective = stage2._sweep(mid, w, ws_diag, n_g, lam, psi)[2]
        s_bar_full = np.stack([np.diag(s_bar[j]) for j in range(g)])
        ref = aggregated_stage2_objective(lam, psi, w, s_bar_full, n_g)
        assert objective - 0.5 * k * n_g.sum() == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("mid", ALL_MODELS, ids=str)
def test_sweep_without_objective_returns_the_same_bits(rng, mid):
    # the loop skips the objective where it is not read; the map's output
    # and floor count must not depend on whether it was computed
    for _ in range(5):
        g, d, k = int(rng.integers(1, 4)), int(rng.integers(3, 7)), int(rng.integers(1, 3))
        w, n_g, s_bar, lam, psi = random_stats(rng, g, d, k, mid)
        ws_diag = np.diagonal(w, axis1=1, axis2=2) + s_bar
        args = (mid, w, ws_diag, n_g, lam, psi)
        lam_a, psi_a, obj_a, fl_a = stage2._sweep(*args)
        lam_b, psi_b, obj_b, fl_b = stage2._sweep(*args, objective=False)
        assert np.isfinite(obj_a) and obj_b is None and fl_a == fl_b
        assert lam_a.tobytes() == lam_b.tobytes() and psi_a.tobytes() == psi_b.tobytes()


@pytest.mark.parametrize("mid", ALL_MODELS, ids=str)
@pytest.mark.parametrize("k_of_d", ["one", "d"])
def test_sweep_matches_the_dense_formulas(rng, mid, k_of_d):
    # the sweep builds beta, theta and the loadings from one K x K inverse
    # of the core; the reference solves sigma (d x d) and theta instead
    for _ in range(5):
        g, d = int(rng.integers(1, 4)), int(rng.integers(3, 7))
        k = 1 if k_of_d == "one" else d
        w, n_g, s_bar, lam, psi = random_stats(rng, g, d, k, mid)
        ws_diag = np.diagonal(w, axis1=1, axis2=2) + s_bar
        lam_new, psi_new, obj, _ = stage2._sweep(mid, w, ws_diag, n_g, lam, psi)
        lam_ref, psi_ref, obj_ref = dense_sweep(mid, w, ws_diag, n_g, lam, psi,
                                                stage2._psi_pattern, stage2.PSI_FLOOR)
        np.testing.assert_allclose(lam_new, lam_ref, rtol=0,
                                   atol=1e-10 * np.abs(lam_ref).max())
        np.testing.assert_allclose(psi_new, psi_ref, rtol=1e-10)
        assert obj == pytest.approx(obj_ref, rel=1e-10)


@given(seed=st.integers(0, 5_000))
@settings(max_examples=20, deadline=None)
def test_accelerated_loop_ascends_to_the_plain_fixed_point(seed):
    # the plain map, iterated one sweep per call, is the reference: the
    # extrapolated loop must never end below its start, and run to a tight
    # tolerance it must stop at the plain map's fixed point
    r = np.random.default_rng(seed)
    g, d, k = int(r.integers(1, 4)), int(r.integers(3, 7)), int(r.integers(1, 3))
    mid = ALL_MODELS[int(r.integers(0, 8))]
    w, n_g, s_bar, lam0, psi0 = random_stats(r, g, d, k, mid)
    s_bar_full = np.stack([np.diag(s_bar[j]) for j in range(g)])

    def objective(lam, psi):
        return aggregated_stage2_objective(lam, psi, w, s_bar_full, n_g)

    lam, psi, _ = run_inner_loop(mid, w, n_g, s_bar, lam0, psi0)
    start = objective(lam0, psi0)
    assert objective(lam, psi) >= start - 1e-10 * abs(start)

    lam_ref, psi_ref = lam0, psi0
    for _ in range(20_000):
        lam_ref, psi_ref, info = run_inner_loop(mid, w, n_g, s_bar, lam_ref, psi_ref,
                                                max_inner=1, tol=1e-12)
        if info["converged"]:
            break
    assume(info["converged"])
    lam, psi, info = run_inner_loop(mid, w, n_g, s_bar, lam0, psi0, max_inner=20_000, tol=1e-10)
    assert info["converged"]
    np.testing.assert_allclose(lam @ lam.transpose(0, 2, 1),
                               lam_ref @ lam_ref.transpose(0, 2, 1), rtol=0, atol=1e-5)
    np.testing.assert_allclose(psi, psi_ref, rtol=0, atol=1e-5)


def test_constraint_patterns_bitwise(rng):
    for mid in ALL_MODELS:
        w, n_g, s_bar, lam0, psi0 = random_stats(rng, 3, 5, 2, mid)
        lam, psi, _ = run_inner_loop(mid, w, n_g, s_bar, lam0, psi0)
        if mid.lambda_constrained:
            assert np.array_equal(lam[0], lam[1]) and np.array_equal(lam[0], lam[2])
        if mid.psi_constrained:
            assert np.array_equal(psi[0], psi[1]) and np.array_equal(psi[0], psi[2])
        if mid.psi_isotropic:
            for j in range(3):
                assert np.all(psi[j] == psi[j][0])
        assert np.all(psi > 0)


def test_fixed_point_when_scatter_matches_model(rng):
    # if W_g is exactly Lambda Lambda' + Psi_g and the smoothing term is zero,
    # the current parameters already solve the stationary equations
    d, k, g = 5, 2, 2
    mid = ModelId.from_string("CCU")
    lam0, psi0 = constrained_draw(rng, mid, g, d, k)
    w = np.stack([lam0[j] @ lam0[j].T + np.diag(psi0[j]) for j in range(g)])
    lam, psi, _ = run_inner_loop(mid, w, np.array([80.0, 120.0]), np.zeros((g, d)), lam0, psi0)
    np.testing.assert_allclose(lam @ lam.transpose(0, 2, 1),
                               lam0 @ lam0.transpose(0, 2, 1), atol=1e-6)
    np.testing.assert_allclose(psi, psi0, atol=1e-6)


def test_run_inner_loop_reports_sweep_budget(rng):
    mid = ModelId.from_string("UUU")
    w, n_g, s_bar, lam0, psi0 = random_stats(rng, 2, 6, 2, mid)
    lam, _, info = run_inner_loop(mid, w, n_g, s_bar, lam0, psi0, max_inner=1, tol=1e-14)
    assert not info["converged"]
    assert lam.shape == lam0.shape
    assert info["sweeps"] == 1


def test_run_inner_loop_rejects_malformed_scatter_and_sizes(rng):
    mid = ModelId.from_string("UUU")
    w, n_g, s_bar, lam0, psi0 = random_stats(rng, 2, 4, 1, mid)
    skew = w.copy()
    skew[0, 0, 1] += 1e-6
    for bad_w, bad_n_g, pattern in (
        (w[0], n_g, r"\(G, d, d\)"),
        (skew, n_g, "symmetric"),
        (w, n_g[:1], "length G"),
        (w, np.array([n_g[0], 0.0]), "positive"),
    ):
        with pytest.raises(InputError, match=pattern):
            run_inner_loop(mid, bad_w, bad_n_g, s_bar, lam0, psi0)


def test_run_inner_loop_symmetry_check_is_relative_to_scale(rng):
    # a second-moment matrix near 1e12 whose product rounding leaves it
    # asymmetric by far more than 1e-8 is accepted; an asymmetry of 1e-6
    # of its scale is not
    mid = ModelId.from_string("UUU")
    w, n_g, s_bar, lam0, psi0 = random_stats(rng, 2, 4, 1, mid)
    big = 1e12 * w
    big[:, 0, 1] *= 1.0 + 4e-16
    big[:, 1, 0] *= 1.0 - 4e-16
    assert np.abs(big - big.transpose(0, 2, 1)).max() > 1e-8
    run_inner_loop(mid, big, n_g, 1e12 * s_bar, 1e6 * lam0, 1e12 * psi0, max_inner=1)
    skew = big.copy()
    skew[0, 0, 1] += 1e-6 * np.abs(big).max()
    with pytest.raises(InputError, match="symmetric"):
        run_inner_loop(mid, skew, n_g, s_bar, lam0, psi0)


def test_run_inner_loop_reports_floor_events(rng):
    # a scatter matrix below the floor (but above the degeneracy cutoff)
    # forces psi clamping
    d, k, g = 3, 1, 1
    w = np.full((g, d, d), 1e-10)
    w[:, np.arange(d), np.arange(d)] = 1e-9
    lam0 = np.full((g, d, k), 1e-8)
    psi0 = np.full((g, d), 0.5)
    lam, psi, info = run_inner_loop(ModelId.from_string("UUU"), w, np.array([50.0]),
                                    np.zeros((g, d)), lam0, psi0)
    assert info["psi_floored"] > 0
    assert np.all(psi >= stage2.PSI_FLOOR)
