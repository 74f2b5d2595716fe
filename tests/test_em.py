"""Scores, initialization, the outer fitting loop, and the model grid."""

import dataclasses
import gc
import os
import signal
import tempfile
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from mplnfa import em, io, simulate, stage1, stage2
from mplnfa.cli import main
from mplnfa.core import ALL_MODELS, InputError, MixtureModel, ModelId, NumericalError
from mplnfa.em import FitConfig, bic, fit_single, grid_search, icl, initialize
from mplnfa.evaluate import ari
from mplnfa.io import NormalizationFactors

from conftest import loop_s, make_counts, swap_pairs, unit_factors
from oracles import dense_s, eigen_start, kmeans_labels, sigma_bound_part


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


def test_bic_hand_value():
    # -2 * (-100) + 10 * log(100)
    assert bic(-100.0, 10, 100) == pytest.approx(246.0517018598809, rel=1e-12)


def test_bic_single_observation_has_no_penalty():
    assert bic(-7.25, 42, 1) == pytest.approx(14.5)


@given(
    loglik=st.floats(-1e5, 1e5),
    rho=st.integers(1, 500),
    n=st.integers(2, 10_000),
)
def test_bic_penalty_increases_with_free_params(loglik, rho, n):
    assert bic(loglik, rho + 1, n) > bic(loglik, rho, n)


def test_bic_rejects_bad_inputs():
    with pytest.raises(InputError):
        bic(np.nan, 3, 10)
    with pytest.raises(InputError):
        bic(-1.0, 0, 10)
    with pytest.raises(InputError):
        bic(-1.0, 3, 0)


def test_icl_equals_bic_for_hard_assignments():
    zhat = np.zeros((6, 3))
    zhat[np.arange(6), [0, 1, 2, 0, 1, 2]] = 1.0
    assert icl(123.456, zhat) == pytest.approx(123.456)


def test_icl_hand_value_uniform_row():
    # one sample split 50/50 adds 2 * log 2 to the score
    assert icl(10.0, np.array([[0.5, 0.5]])) == pytest.approx(10.0 + 2.0 * np.log(2.0))


def test_icl_invariant_to_component_relabeling(rng):
    zhat = rng.dirichlet(np.ones(4), size=25)
    perm = rng.permutation(4)
    assert icl(5.0, zhat[:, perm]) == pytest.approx(icl(5.0, zhat), rel=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_icl_never_below_bic(seed):
    zhat = np.random.default_rng(seed).dirichlet(np.ones(3), size=12)
    assert icl(0.0, zhat) >= 0.0 - 1e-12


def test_icl_rejects_invalid_responsibilities():
    with pytest.raises(InputError):
        icl(0.0, np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        icl(0.0, np.array([[0.7, 0.7]]))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def _two_cluster_counts(rng, n=200, d=4, lo=3.0, hi=6.0):
    labels = np.repeat([0, 1], n // 2)
    mu = np.where(labels[:, None] == 0, lo, hi)
    x = mu + 0.3 * rng.standard_normal((n, d))
    y = rng.poisson(np.exp(x))
    return make_counts(y), labels


def test_initialize_single_component_uses_global_mean():
    y = np.array([[1, 10], [3, 20], [5, 60]])
    data = make_counts(y)
    model, state = initialize(data, unit_factors(3), g=1, k=1, seed=0)
    expected_mu = np.log1p(y).mean(axis=0)
    np.testing.assert_allclose(model.components[0].mu, expected_mu, rtol=1e-12)
    assert model.components[0].pi == pytest.approx(1.0)
    np.testing.assert_array_equal(state.zhat, np.ones((3, 1)))


def test_initialize_recovers_separated_clusters(rng):
    data, labels = _two_cluster_counts(rng)
    model, state = initialize(data, unit_factors(data.n), g=2, k=1, seed=3)
    found = state.zhat.argmax(axis=1)
    assert ari(found, labels) >= 0.95


def test_initialize_is_bitwise_deterministic(rng):
    data, _ = _two_cluster_counts(rng, n=60)
    factors = unit_factors(data.n)
    a_model, a_state = initialize(data, factors, g=2, k=2, seed=11)
    b_model, b_state = initialize(data, factors, g=2, k=2, seed=11)
    for ca, cb in zip(a_model.components, b_model.components):
        assert ca.pi == cb.pi
        assert np.array_equal(ca.mu, cb.mu)
        assert np.array_equal(ca.lam, cb.lam)
        assert np.array_equal(ca.psi, cb.psi)
    assert np.array_equal(a_state.m, b_state.m)
    assert np.array_equal(a_state.s, b_state.s)
    assert np.array_equal(a_state.zhat, b_state.zhat)


def test_initialize_validates_arguments():
    data = make_counts(np.ones((5, 3), dtype=int))
    factors = unit_factors(5)
    with pytest.raises(InputError):
        initialize(data, factors, g=0, k=1, seed=0)
    with pytest.raises(InputError):
        initialize(data, factors, g=1, k=4, seed=0)
    with pytest.raises(InputError):
        initialize(data, unit_factors(4), g=1, k=1, seed=0)
    with pytest.raises(InputError):
        initialize(data, factors, g=6, k=1, seed=0)


def test_initialize_respects_constraint_pattern(rng):
    data, _ = _two_cluster_counts(rng, n=80)
    model, _ = initialize(
        data, unit_factors(data.n), g=2, k=1, seed=5, model_id=ModelId.from_string("CCC")
    )
    a, b = model.components
    assert np.array_equal(a.lam, b.lam)
    assert np.array_equal(a.psi, b.psi)
    assert np.all(a.psi == a.psi[0])


def _kmeans_case(kind, seed):
    """(x, G) of one k-means case: real data, ties (log1p of counts 0-2),
    identical rows, G = 1 or G = n."""
    r = np.random.default_rng(seed)
    n, d = int(r.integers(2, 60)), int(r.integers(1, 7))
    g = int(r.integers(1, min(n, 5) + 1))
    if kind == "ties":
        return np.log1p(r.integers(0, 3, (n, d)).astype(np.float64)), g
    if kind == "identical":
        return np.tile(r.normal(size=(1, d)), (n, 1)), g
    x = r.normal(size=(n, d)) * 10.0 ** r.uniform(-3.0, 3.0, d)
    return x, {"real": g, "one": 1, "all": n}[kind]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["real", "ties", "identical", "one", "all"]),
       seed=st.integers(0, 2**32 - 1))
@example(kind="real", seed=0)
@example(kind="ties", seed=0)
@example(kind="identical", seed=0)
@example(kind="one", seed=0)
@example(kind="all", seed=0)
def test_kmeans_labels_match_the_direct_distance_loop(kind, seed):
    # the scores from one product per step must pick, bit for bit, the
    # labels of direct squared distances, ties and near ties included
    x, g = _kmeans_case(kind, seed)

    def outcome(fn, error):
        try:
            return fn(x, g, np.random.default_rng(seed), 3).tolist()
        except error:
            return "emptied"

    assert outcome(em._kmeans, NumericalError) == outcome(kmeans_labels, RuntimeError)


@pytest.mark.parametrize("d", [1, 3, 6])
def test_sliced_start_matches_a_per_k_eigen_start(rng, d):
    # one eigh per scatter at k_max = d, sliced to K, is the start of one
    # eigh per K, bit for bit, for every pattern
    n, g = 40, 3
    x = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, d)
    labels = em._kmeans(x, g, np.random.default_rng(d), 3)
    start = em._g_start(x, labels, g, d, ALL_MODELS)
    for k in range(1, d + 1):
        for model in ALL_MODELS:
            got = em._init_params(x, start, g, k, model)
            want = eigen_start(x, labels, g, k, model, stage2._psi_pattern, em.INIT_PSI_FLOOR)
            for name, a, b in zip(("pi", "mu", "lam", "psi"), got, want):
                assert np.array_equal(a, b), (k, str(model), name)


@pytest.mark.parametrize("d", [1, 4, 40])
def test_start_log_det_s_is_the_dense_log_det(rng, d):
    # the starting blocks are INIT_S_SCALE * I, whose log-determinant the
    # start writes down without factorizing them
    n, g = 30, 2
    y = rng.poisson(5.0, (n, d)).astype(np.float64)
    uuu = ModelId.from_string("UUU")
    start = em._g_start(np.log1p(y), np.arange(n) % g, g, 1, (uuu,))
    *_, s, caches, _ = em._start(y, np.zeros(n), np.log1p(y), start, g, 1,
                                 uuu, em._count_constant(y).sum(1))
    np.testing.assert_allclose(caches["logdet_s"], np.linalg.slogdet(dense_s(s))[1],
                               rtol=1e-12, atol=0)


def test_sigma_guard_bound_is_the_summed_pair_terms(rng):
    # the second stage scores sigma on the aggregated (G, d, d) moments;
    # they must give the same sigma terms as the per-pair kernels summed
    # over observations with weights zhat
    n, g, d, k = 50, 3, 6, 2
    zhat = rng.dirichlet(np.ones(g), n)
    n_g = zhat.sum(axis=0)
    m = rng.normal(1.0, 0.5, (n, g, d))
    mu = rng.normal(1.0, 0.5, (g, d))
    s = loop_s(rng.uniform(0.05, 0.3, (n, g, d)), rng.normal(0.0, 0.2, (n, g, d, k)))
    lam, psi = rng.uniform(-1.0, 1.0, (g, d, k)), rng.uniform(0.3, 1.0, (g, d))
    sigma = em._sigma_from(lam, psi)

    mean_s = em._s_means(*swap_pairs((zhat, n_g, s)))
    ref = np.einsum("ng,ngde->gde", zhat, dense_s(s)) / n_g[:, None, None]
    assert np.abs(mean_s - ref).max() <= 1e-14 * np.abs(ref).max()

    pairs = -0.5 * swap_pairs(stage1._quad_batch(swap_pairs(m), mu, sigma)
                              + stage1._trace_batch(sigma, swap_pairs(s)))
    expected = (zhat * pairs).sum() - 0.5 * n_g @ sigma[3]
    a_bar = stage2.make_stage2_stats(zhat, m, mu) + mean_s
    assert sigma_bound_part(lam, psi, a_bar, n_g) == pytest.approx(expected, rel=1e-12, abs=0)


def _sigma_guard_case(c):
    """A start from which the factorized inner loop lowers the total bound.

    S holds an off-diagonal part that cancels most of the scatter's
    rank-one structure.  A loop fed W and diag(S) alone fits larger
    loadings than the bound with the full S prefers.  The start is
    opt + c (opt - inner), where opt is the bound's own factor fit and
    inner the factorized loop's: at c = 1/3 the bound peaks about a
    quarter of the way along the factorized step, at c = -1/2 it falls
    along all of it.  Returns (model_id, a_bar = W + mean S, n_g, lam,
    psi, W, diag of mean S).
    """
    rng = np.random.default_rng(0)
    n, d, k = 40, 4, 1
    model_id = ModelId.from_string("UUU")
    u = np.ones(d) / np.sqrt(d)
    m = 2.0 * rng.normal(0.0, 1.0, (n, 1, 1)) * u + rng.normal(0.0, 0.5, (n, 1, d))
    zhat = np.ones((n, 1))
    w = stage2.make_stage2_stats(zhat, m, m.mean(axis=0))
    n_g = zhat.sum(axis=0)
    top = np.linalg.eigvalsh(w[0])[-1]
    s = np.broadcast_to(0.5 * top * (np.eye(d) - np.outer(u, u)) + 0.1 * np.eye(d),
                        (n, 1, d, d)).copy()
    s_bar = s[:, :, np.arange(d), np.arange(d)].mean(axis=0)
    a_bar = w + s.mean(axis=0)
    lam1, psi1 = np.full((1, d, k), 0.5), np.ones((1, d))
    lam_in, psi_in, _ = stage2.run_inner_loop(model_id, w, n_g, s_bar, lam1, psi1, tol=1e-12)
    lam_opt, psi_opt, _ = stage2.run_inner_loop(
        model_id, a_bar, n_g, np.zeros((1, d)), lam1, psi1, tol=1e-12
    )
    lam, psi = lam_opt + c * (lam_opt - lam_in), psi_opt + c * (psi_opt - psi_in)
    assert psi.min() > 0
    return model_id, a_bar, n_g, lam, psi, w, s_bar


def _assert_sigma_step_ascends(model_id, a_bar, n_g, lam, psi):
    """One driver stage-2 step from (lam, psi): the total bound's sigma
    terms do not fall, within the arithmetic's slack; returns the rise."""
    new, info = em._sigma_step(model_id, a_bar, n_g, em._sigma_from(lam, psi))
    assert info["sweeps"] <= em.SIGMA_STEP_CALLS
    before = sigma_bound_part(lam, psi, a_bar, n_g)
    after = sigma_bound_part(new[0], new[1], a_bar, n_g)
    assert after >= before - 1e-12 * abs(before)
    return after - before


@pytest.mark.parametrize("c", [1.0 / 3.0, -0.5], ids=["peak", "fall"])
def test_sigma_step_never_lowers_the_total_bound(c):
    # from starts where the loop fed W and diag(S) alone moves against
    # the total bound, the driver's step on W + mean S still raises it
    model_id, a_bar, n_g, lam, psi, w, s_bar = _sigma_guard_case(c)
    lam_f, psi_f, _ = stage2.run_inner_loop(model_id, w, n_g, s_bar, lam, psi)
    before = sigma_bound_part(lam, psi, a_bar, n_g)
    along = [sigma_bound_part(lam + eta * (lam_f - lam), psi + eta * (psi_f - psi), a_bar, n_g)
             for eta in (0.25, 1.0)]
    assert along[1] < along[0]
    if c < 0:
        assert along[0] < before
    assert _assert_sigma_step_ascends(model_id, a_bar, n_g, lam, psi) > 0


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_sigma_step_never_lowers_the_total_bound_on_random_draws(model, seed):
    rng = np.random.default_rng(seed)
    n, g, d, k = 30, 3, 5, 2
    zhat = rng.dirichlet(np.ones(g), n)
    n_g = zhat.sum(axis=0)
    m = rng.normal(1.0, 0.7, (n, g, d))
    s = loop_s(rng.uniform(0.05, 0.5, (n, g, d)), rng.normal(0.0, 0.3, (n, g, d, k)))
    a_bar = (stage2.make_stage2_stats(zhat, m, m.mean(axis=0))
             + em._s_means(*swap_pairs((zhat, n_g, s))))
    lam = rng.uniform(-1.0, 1.0, (g, d, k))
    if model.lambda_constrained:
        lam[:] = lam[0]
    psi = stage2._psi_pattern(model, rng.uniform(0.25, 1.0, (g, d)), n_g)
    _assert_sigma_step_ascends(model, a_bar, n_g, lam, psi)


# ---------------------------------------------------------------------------
# single fits
# ---------------------------------------------------------------------------


def _quick_config(**kw):
    base = dict(
        g_range=(1, 1),
        k_range=(1, 1),
        models=(ModelId.from_string("UUU"),),
        n_starts=2,
        max_outer=60,
        tol_outer=1e-6,
        seed=7,
    )
    base.update(kw)
    return FitConfig(**base)


def test_fit_single_one_component(rng):
    y = rng.poisson(np.exp(2.0 + 0.4 * rng.standard_normal((80, 3))))
    data = make_counts(y)
    fit = fit_single(data, unit_factors(80), g=1, k=1,
                     model_id=ModelId.from_string("UUU"), config=_quick_config())
    assert fit.g == 1 and fit.k == 1
    np.testing.assert_allclose(fit.state.zhat, np.ones((80, 1)))
    assert np.all(fit.assignments == 0)
    assert fit.converged
    assert np.isfinite(fit.bic) and np.isfinite(fit.icl)


def test_fit_single_trace_is_monotone(rng):
    data, _ = _two_cluster_counts(rng, n=120)
    fit = fit_single(data, unit_factors(data.n), g=2, k=1,
                     model_id=ModelId.from_string("UUC"), config=_quick_config())
    t = fit.elbo_trace
    drops = np.diff(t) / np.maximum(1.0, np.abs(t[:-1]))
    assert drops.min() >= -1e-6


def test_fit_single_bound_and_responsibilities_are_the_e_step_at_the_fit(rng):
    data, _ = _two_cluster_counts(rng, n=120)
    fit = fit_single(data, unit_factors(data.n), g=2, k=1,
                     model_id=ModelId.from_string("UUU"), config=_quick_config())
    f, pi = fit.state.f, fit.model.pi
    ref = logsumexp(np.log(pi)[None, :] + f, axis=1).sum()
    np.testing.assert_allclose(fit.elbo_trace[-1], ref, rtol=1e-13, atol=0)
    assert np.array_equal(fit.state.zhat, stage1.update_responsibilities(f, pi))


def test_fit_single_is_deterministic(rng):
    data, _ = _two_cluster_counts(rng, n=100)
    factors = unit_factors(data.n)
    cfg = _quick_config()
    a = fit_single(data, factors, 2, 1, ModelId.from_string("UCU"), cfg)
    b = fit_single(data, factors, 2, 1, ModelId.from_string("UCU"), cfg)
    assert np.array_equal(a.elbo_trace, b.elbo_trace)
    assert a.bic == b.bic and a.icl == b.icl
    assert np.array_equal(a.assignments, b.assignments)
    for ca, cb in zip(a.model.components, b.model.components):
        assert np.array_equal(ca.mu, cb.mu)
        assert np.array_equal(ca.lam, cb.lam)
        assert np.array_equal(ca.psi, cb.psi)


def test_fit_single_allocates_no_dense_s():
    # Every S block is held as diag(s_d) + s_w s_w', so a fit at d = 300
    # never allocates an (n, G, d, d) array: one would be 57.6 MB here.
    n, d, g, k = 40, 300, 2, 2
    data = simulate.generate(simulate.random_config(n=n, d=d, g=g, k=k, model_id="UUU", seed=0),
                             0)[0]
    tracemalloc.start()
    try:
        fit = fit_single(data, unit_factors(n), g, k, ModelId.from_string("UUU"),
                         _quick_config(max_outer=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.n_iter == 3
    assert peak < n * g * d * d * 8 / 3


def test_fit_single_recovers_separated_clusters(rng):
    data, labels = _two_cluster_counts(rng)
    fit = fit_single(data, unit_factors(data.n), g=2, k=1,
                     model_id=ModelId.from_string("UUU"), config=_quick_config())
    assert ari(fit.assignments, labels) >= 0.95


def test_loop_holds_pairs_cluster_major_and_the_state_in_public_order(rng):
    # S is made C-contiguous in the loop's (G, n, ...) layout, and a fit's
    # state comes out C-contiguous in the public (n, G, ...) one
    n, g, d, k = 7, 3, 5, 2
    sigma = em._sigma_from(rng.normal(0.0, 1.0, (g, d, k)), rng.uniform(0.2, 1.0, (g, d)))
    s, logdet = stage1._s_of(np.exp(rng.uniform(-4.0, 4.0, (g, n, d))), sigma)
    assert s[1].shape == (g, n, k, d) and s[1].flags.c_contiguous
    for a in (s[0], s[2]):
        assert a.shape == (g, n, d) and a.flags.c_contiguous
    assert logdet.shape == (g, n)

    data, _ = _two_cluster_counts(rng, n=60)
    fit = fit_single(data, unit_factors(data.n), g=2, k=2,
                     model_id=ModelId.from_string("UUU"), config=_quick_config())
    n, g, d, k = data.n, 2, data.d, 2
    for name, shape in (("m", (n, g, d)), ("s_d", (n, g, d)), ("s_w", (n, g, d, k)),
                        ("p", (n, g, k)), ("zhat", (n, g)), ("f", (n, g))):
        a = getattr(fit.state, name)
        assert a.shape == shape and a.flags.c_contiguous, name


def test_fit_single_validates_arguments(rng):
    data = make_counts(rng.poisson(5.0, size=(10, 3)))
    factors = unit_factors(10)
    cfg = _quick_config()
    with pytest.raises(InputError):
        fit_single(data, factors, 11, 1, ModelId.from_string("UUU"), cfg)
    with pytest.raises(InputError):
        fit_single(data, factors, 2, 4, ModelId.from_string("UUU"), cfg)
    with pytest.raises(InputError):
        fit_single(data, factors, 2, 1, "UUU", cfg)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_fit_config_rejects_bad_ranges():
    with pytest.raises(InputError):
        FitConfig(g_range=(0, 2))
    with pytest.raises(InputError):
        FitConfig(g_range=(3, 2))
    with pytest.raises(InputError):
        FitConfig(k_range=(2, 1))
    with pytest.raises(InputError):
        FitConfig(models=())
    with pytest.raises(InputError):
        FitConfig(models=("UUU",))
    with pytest.raises(InputError):
        FitConfig(models=(ModelId.from_string("UUU"), ModelId.from_string("UUU")))
    with pytest.raises(InputError):
        FitConfig(tol_outer=0.0)
    with pytest.raises(InputError):
        FitConfig(n_starts=0)


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


def _grid_data(rng, n=120):
    data, labels = _two_cluster_counts(rng, n=n)
    return data, unit_factors(data.n), labels


def test_grid_search_single_triple_matches_fit_single(rng):
    data, factors, _ = _grid_data(rng)
    cfg = _quick_config(g_range=(2, 2), k_range=(1, 1),
                        models=(ModelId.from_string("UUU"),))
    grid = grid_search(data, factors, cfg, threads=1)
    solo = fit_single(data, factors, 2, 1, ModelId.from_string("UUU"), cfg)
    assert len(grid.entries) == 1
    assert grid.best.bic == solo.bic
    assert np.array_equal(grid.best.elbo_trace, solo.elbo_trace)
    assert np.array_equal(grid.best.state.m, solo.state.m)
    assert np.array_equal(grid.best.state.s, solo.state.s)
    assert np.array_equal(grid.best.state.zhat, solo.state.zhat)


def test_grid_search_entries_follow_triple_order(rng):
    data, factors, _ = _grid_data(rng)
    models = (ModelId.from_string("UUU"), ModelId.from_string("CCC"))
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 2), models=models)
    grid = grid_search(data, factors, cfg, threads=1)
    expected = [
        (g, k, m) for g in (1, 2) for k in (1, 2) for m in models
    ]
    assert [(e.g, e.k, e.model_id) for e in grid.entries] == expected


def test_grid_search_selects_bic_argmin(rng):
    data, factors, _ = _grid_data(rng)
    cfg = _quick_config(g_range=(1, 3), k_range=(1, 2),
                        models=(ModelId.from_string("UUU"), ModelId.from_string("CUC")))
    grid = grid_search(data, factors, cfg, threads=1)
    eligible = [e for e in grid.entries
                if e.error == "" and not e.degenerate and np.isfinite(e.bic)]
    assert grid.best.bic == pytest.approx(min(e.bic for e in eligible), rel=1e-12)
    icl_eligible = [e for e in eligible if np.isfinite(e.icl)]
    assert grid.best_icl.icl == pytest.approx(min(e.icl for e in icl_eligible), rel=1e-12)


def test_grid_search_picks_two_components(rng):
    data, factors, labels = _grid_data(rng, n=160)
    cfg = _quick_config(g_range=(1, 3), k_range=(1, 1),
                        models=(ModelId.from_string("UUU"),))
    grid = grid_search(data, factors, cfg, threads=1)
    assert grid.best.g == 2
    assert ari(grid.best.assignments, labels) >= 0.95


def test_grid_search_records_failures_and_skips_them(rng, monkeypatch):
    data, factors, _ = _grid_data(rng)
    real_run = em._run_em

    def flaky(y, logc, x, labels, g, k, model_id, config, pois_const):
        if g == 2:
            raise NumericalError("synthetic failure")
        return real_run(y, logc, x, labels, g, k, model_id, config, pois_const)

    monkeypatch.setattr(em, "_run_em", flaky)
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 1),
                        models=(ModelId.from_string("UUU"),))
    grid = grid_search(data, factors, cfg, threads=1)
    by_g = {e.g: e for e in grid.entries}
    assert by_g[2].error == "synthetic failure"
    assert not np.isfinite(by_g[2].bic)
    assert by_g[1].error == ""
    assert grid.best.g == 1


def test_grid_search_records_a_non_finite_bound_against_its_triple(rng, monkeypatch):
    data, factors, _ = _grid_data(rng)
    real_assemble = em._assemble_f
    calls = {1: 0, 2: 0}

    def broken(caches, sig_logdet, d):
        f = real_assemble(caches, sig_logdet, d)
        g = sig_logdet.shape[0]
        calls[g] += 1
        if g == 2 and calls[g] > 1:  # the start is fine; the first iteration's f is not
            f[0, 1] = np.nan
        return f

    monkeypatch.setattr(em, "_assemble_f", broken)
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 1),
                        models=(ModelId.from_string("UUU"),))
    grid = grid_search(data, factors, cfg, threads=1)
    by_g = {e.g: e for e in grid.entries}
    assert "non-finite" in by_g[2].error
    assert not np.isfinite(by_g[2].bic)
    assert by_g[1].error == ""
    assert grid.best.g == 1


def test_grid_search_raises_when_everything_fails(rng, monkeypatch):
    data, factors, _ = _grid_data(rng)

    def doomed(*args, **kwargs):
        raise NumericalError("no luck")

    monkeypatch.setattr(em, "_run_em", doomed)
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 1),
                        models=(ModelId.from_string("UUU"),))
    with pytest.raises(NumericalError):
        grid_search(data, factors, cfg, threads=1)


@pytest.mark.parametrize("threads", [1, 2])
def test_grid_search_keeps_an_unexpected_exception_with_its_triple(rng, monkeypatch, threads):
    # Any Exception from one triple is recorded against it with its class
    # name; the grid completes and selects among the other triples.
    data, factors, _ = _grid_data(rng)
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 2),
                        models=(ModelId.from_string("UUU"), ModelId.from_string("CCC")))
    clean = grid_search(data, factors, cfg, threads=1)
    target = (clean.best.g, clean.best.k, clean.best.model_id)
    real_run = em._run_em

    def flaky(y, logc, x, start, g, k, model_id, config, pois_const):
        if (g, k, model_id) == target:
            raise ValueError("synthetic bug")
        return real_run(y, logc, x, start, g, k, model_id, config, pois_const)

    monkeypatch.setattr(em, "_run_em", flaky)
    grid = grid_search(data, factors, cfg, threads=threads)
    rest = []
    for e, c in zip(grid.entries, clean.entries):
        if (e.g, e.k, e.model_id) == target:
            assert e.error == "ValueError: synthetic bug"
            assert not np.isfinite(e.bic)
        else:
            assert repr(e) == repr(c)
            if not c.degenerate and c.error == "":
                rest.append((c.bic, c.g, c.k, c.model_id))
    assert (grid.best.bic, grid.best.g, grid.best.k, grid.best.model_id) == min(
        rest, key=lambda r: r[0])


def test_fit_of_huge_poisson_counts_fails_as_degenerate(tmp_path, capsys):
    # Plain Poisson draws with mean counts near 6.6e12 leave no latent
    # variance: every triple's error variance degenerates, and the fit
    # exits 2 naming the first failed triple.
    path = tmp_path / "huge.csv"
    io.write_counts(str(path), make_counts(_degenerate_counts("huge", 0)))
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", str(path), "--gmin", "1", "--gmax", "2", "--kmin", "1",
              "--kmax", "1", "--models", "UUU,CCC", "--threads", "1",
              "--out-dir", str(tmp_path / "fit")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nothing to select" in err
    assert "(G=1, K=1, UUU): degenerate error variance" in err


def test_grid_search_records_a_rejected_fitted_state_against_its_triple(rng, monkeypatch):
    # The checks that build the fitted model raise InputError; a fit that
    # ends in a state they reject fails its own triples, not the whole grid.
    data, factors, _ = _grid_data(rng)
    real_from_arrays = MixtureModel.from_arrays

    def picky(g, *args):
        if g == 2:
            raise InputError("synthetic rejection")
        return real_from_arrays(g, *args)

    monkeypatch.setattr(MixtureModel, "from_arrays", picky)
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 1),
                        models=(ModelId.from_string("UUU"), ModelId.from_string("CCC")))
    grid = grid_search(data, factors, cfg, threads=2)
    for e in grid.entries:
        if e.g == 2:
            assert e.error == "fitted state rejected: synthetic rejection"
            assert not np.isfinite(e.bic)
        else:
            assert e.error == ""
    assert grid.best.g == 1



def test_grid_search_fits_counts_near_a_billion():
    # Bounds near -2e8: responsibilities must still sum to 1 closely
    # enough for the mixing proportions to pass their check.
    y = np.random.default_rng(0).poisson(1e9, (40, 4))
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 1))
    out = grid_search(make_counts(y), unit_factors(40), cfg, threads=1)
    assert out.best.g == 1
    assert all(e.error == "" for e in out.entries)


# y log(y + 1) - y - 1 - log y! to 50 digits (mpmath), at counts from 0 to 1.2345e15.
_COUNT_CONSTANTS = {
    0.0: -1.0,
    1.0: -1.306852819440054690582768,
    1e3: -4.373399172942763657347124,
    1e6: -7.826694395519809794081526,
    5.7e6: -8.696927001946233054511441,
    1.2e9: -11.37173223056096674384678,
    1.2e12: -14.82560986956641027010525,
    1.2345e15: -18.29365974556156441535821,
}


def test_count_constant_matches_high_precision_values():
    y = np.array([list(_COUNT_CONSTANTS)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = em._count_constant(y)
    np.testing.assert_allclose(got[0], list(_COUNT_CONSTANTS.values()), rtol=0, atol=1e-9)


def test_grid_search_computes_the_per_count_constant_once(rng, monkeypatch):
    # the constant depends on the counts alone, so the triples share it
    data, factors, _ = _grid_data(rng)
    real_constant = em._count_constant
    calls = []

    def counting(y):
        calls.append(y.shape)
        return real_constant(y)

    monkeypatch.setattr(em, "_count_constant", counting)
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 2), max_outer=3,
                        models=(ModelId.from_string("UUU"), ModelId.from_string("CCC")))
    grid = grid_search(data, factors, cfg, threads=1)
    assert len(grid.entries) == 8
    assert calls == [(data.n, data.d)]


def _degenerate_counts(kind, seed):
    """Counts that strain the fitter: identical rows, a zero column, huge
    counts, many more variables than samples, or two to three samples."""
    r = np.random.default_rng(seed)
    if kind == "identical":
        return np.tile(r.poisson(10.0, (1, int(r.integers(2, 6)))), (int(r.integers(5, 31)), 1))
    if kind == "zero_column":
        y = r.poisson(r.uniform(5.0, 50.0), (int(r.integers(10, 41)), int(r.integers(2, 6))))
        y[:, int(r.integers(y.shape[1]))] = 0
        return y
    if kind == "huge":
        return r.poisson(10.0 ** r.uniform(9.0, 15.0), (int(r.integers(10, 41)), int(r.integers(2, 5))))
    if kind == "wide":
        return r.poisson(r.uniform(1.0, 20.0), (int(r.integers(4, 9)), int(r.integers(20, 41))))
    return r.poisson(r.uniform(1.0, 20.0), (int(r.integers(2, 4)), int(r.integers(2, 5))))


@settings(max_examples=3, deadline=None)
@given(kind=st.sampled_from(["identical", "zero_column", "huge", "wide", "tiny"]),
       seed=st.integers(0, 2**32 - 1))
@example(kind="identical", seed=0)
@example(kind="zero_column", seed=0)
@example(kind="huge", seed=0)
@example(kind="huge", seed=1)
@example(kind="huge", seed=8)
@example(kind="wide", seed=0)
@example(kind="tiny", seed=0)
def test_grid_search_on_degenerate_inputs_fits_or_fails_at_runtime(kind, seed):
    # Valid but degenerate data must end in a fit or a NumericalError,
    # never an InputError or anything else, and the same way on a rerun.
    y = _degenerate_counts(kind, seed)
    data, factors = make_counts(y), unit_factors(y.shape[0])
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 1), max_outer=25,
                        models=(ModelId.from_string("UUU"), ModelId.from_string("CCC")))

    def run():
        try:
            return grid_search(data, factors, cfg, threads=1)
        except NumericalError as exc:
            return str(exc)

    first, second = run(), run()
    if isinstance(first, str):
        assert first == second
        return
    for e in first.entries:
        t = np.asarray(e.elbo_trace)
        assert np.all(np.diff(t) / np.maximum(1.0, np.abs(t[:-1])) >= -1e-6)
    # repr spells every float exactly and treats NaN summaries as equal
    assert repr(first.entries) == repr(second.entries)


def test_grid_search_identical_across_thread_counts(rng):
    # threads=1 runs the plain loop, threads=4 the worker processes, whose
    # fits come back pickled; the selected fit must survive that intact.
    data, factors, _ = _grid_data(rng)
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 2),
                        models=(ModelId.from_string("UUU"), ModelId.from_string("CCC")))
    a = grid_search(data, factors, cfg, threads=1)
    b = grid_search(data, factors, cfg, threads=4)
    assert len(a.entries) == len(b.entries)
    for ea, eb in zip(a.entries, b.entries):
        assert (ea.g, ea.k, ea.model_id) == (eb.g, eb.k, eb.model_id)
        assert ea.bic == eb.bic and ea.icl == eb.icl
        assert ea.elbo_trace == eb.elbo_trace
    assert a.best.bic == b.best.bic
    assert np.array_equal(a.best.assignments, b.best.assignments)
    for name in ("pi", "mu", "lam", "psi"):
        assert np.array_equal(getattr(a.best.model, name), getattr(b.best.model, name)), name
    for name in ("m", "s_d", "s_w", "zhat", "f"):
        got = getattr(b.best.state, name)
        assert np.array_equal(getattr(a.best.state, name), got), name
        assert not got.flags.writeable, name
    assert not b.best.model.components[0].lam.flags.writeable


def test_grid_search_breaks_ties_by_grid_position_not_completion(rng, monkeypatch, tmp_path):
    # Earlier triples sleep longer, so fits finish out of grid order, and
    # every fit reports the same BIC, so only the grid position decides.
    # The fits run in worker processes, so each one appends its grid
    # position and process id to a file instead of to a list.
    data, factors, _ = _grid_data(rng)
    models = (ModelId.from_string("UUU"), ModelId.from_string("CCC"))
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 2), models=models, max_outer=5)
    triples = [(g, k, m) for g in (1, 2) for k in (1, 2) for m in models]
    real_run = em._run_em
    log = tmp_path / "finished.txt"

    def slow_tie(y, logc, x, labels, g, k, model_id, config, pois_const):
        fit = real_run(y, logc, x, labels, g, k, model_id, config, pois_const)
        time.sleep(0.05 * (len(triples) - triples.index((g, k, model_id))))
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{triples.index((g, k, model_id))} {os.getpid()}\n")
        return dataclasses.replace(fit, bic=1.0)

    monkeypatch.setattr(em, "_run_em", slow_tie)
    grid = grid_search(data, factors, cfg, threads=4)
    rows = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    finished = [triples[int(i)] for i, _ in rows]
    assert sorted(finished, key=triples.index) == triples
    assert finished[0] != triples[0]
    assert all(int(pid) != os.getpid() for _, pid in rows)
    assert (grid.best.g, grid.best.k, grid.best.model_id) == triples[0]
    assert [(e.g, e.k, e.model_id) for e in grid.entries] == triples
    assert all(e.bic == 1.0 for e in grid.entries)


@pytest.mark.parametrize("failing", [False, True], ids=["all_fit", "one_fails"])
def test_grid_search_reads_back_only_the_selected_fit_and_removes_its_spool(
        rng, monkeypatch, tmp_path, failing):
    # Workers spool their entries and each its own best fit to a temporary
    # directory; the caller reads the selected triple's fit back, and the
    # directory is gone when the call returns, also after a triple failed
    # in its worker.
    data, factors, _ = _grid_data(rng)
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 1),
                        models=(ModelId.from_string("UUU"), ModelId.from_string("CCC")))
    test_pid = os.getpid()
    real_run, real_load = em._run_em, em._load_fit
    loaded, spooled = [], []

    def flaky(*args):
        if failing and args[4] == 2 and os.getpid() != test_pid:  # g, in a worker
            raise NumericalError("synthetic failure")
        return real_run(*args)

    def counting_load(path):
        loaded.append(path)
        spooled.append(sum(f.endswith(".pickle") for f in os.listdir(os.path.dirname(path))))
        return real_load(path)

    monkeypatch.setattr(em, "_run_em", flaky)
    monkeypatch.setattr(em, "_load_fit", counting_load)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    grid = grid_search(data, factors, cfg, threads=2)
    assert len(loaded) == 1
    spool = os.path.dirname(loaded[0])
    assert os.path.dirname(spool) == str(tmp_path)
    assert os.path.basename(spool).startswith("mplnfa-")
    assert list(tmp_path.glob("mplnfa-*")) == []
    assert spooled[0] <= 2  # one fit per worker at most
    best = [(e.g, e.k, e.model_id) for e in grid.entries].index(
        (grid.best.g, grid.best.k, grid.best.model_id))
    assert os.path.basename(loaded[0]) == f"{best}.pickle"
    errors = [e.error for e in grid.entries]
    if failing:
        assert errors == ["", "", "synthetic failure", "synthetic failure"]
        assert grid.best.g == 1
    else:
        assert errors == [""] * 4


def test_in_process_grid_search_holds_at_most_one_finished_fit(rng, monkeypatch):
    # The plain loop keeps only its best fit by the selection rank, as a
    # worker does, so at most one finished fit is alive when a fit starts.
    data, factors, _ = _grid_data(rng)
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 2),
                        models=(ModelId.from_string("UUU"), ModelId.from_string("CCC")))
    real_run = em._run_em
    gc.collect()

    def fits_alive():
        return sum(isinstance(o, em.FitResult) for o in gc.get_objects())

    before = fits_alive()
    alive = []

    def counting(*args):
        alive.append(fits_alive() - before)
        return real_run(*args)

    monkeypatch.setattr(em, "_run_em", counting)
    grid_search(data, factors, cfg, threads=1)
    assert len(alive) == 8
    assert max(alive) <= 1


@pytest.mark.parametrize("death, message", [
    ("signal", "was killed by SIGKILL$"),
    ("exception", "exited with status 1: SystemExit: gave up$"),
], ids=["signal", "exception"])
def test_grid_search_whose_worker_dies_says_how_and_reaps_only_its_own(
        rng, monkeypatch, tmp_path, death, message):
    # A worker killed by a signal, or ended by an exception that is not a
    # fit's failure, fails the call with a message that says how; the other
    # worker is killed and reaped, and the spool is removed.  A child the
    # caller forked itself is left for it to reap.
    data, factors, _ = _grid_data(rng)
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 1),
                        models=(ModelId.from_string("UUU"), ModelId.from_string("CCC")))
    test_pid = os.getpid()
    real_run = em._run_em

    def dies_at_two(*args):
        if args[4] == 2 and os.getpid() != test_pid:  # g, in a worker
            if death == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise SystemExit("gave up")
        return real_run(*args)

    monkeypatch.setattr(em, "_run_em", dies_at_two)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    own = os.fork()
    if own == 0:
        os._exit(7)
    with pytest.raises(RuntimeError, match=message):
        grid_search(data, factors, cfg, threads=2)
    assert os.waitstatus_to_exitcode(os.waitpid(own, 0)[1]) == 7
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(tmp_path.glob("mplnfa-*")) == []


def test_grid_search_interrupted_kills_its_workers_and_removes_its_spool(
        rng, monkeypatch, tmp_path):
    # Ctrl-C is the calling process's: the interrupt propagates, and no
    # worker process or spool directory is left behind.
    data, factors, _ = _grid_data(rng)
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 1),
                        models=(ModelId.from_string("UUU"), ModelId.from_string("CCC")))
    test_pid = os.getpid()
    started = tmp_path / "started.txt"

    def sleeping(*args):
        if os.getpid() != test_pid:
            with open(started, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            time.sleep(60)
        raise NumericalError("not in a worker")

    def interrupt(signum, frame):
        # Ctrl-C, once both workers sleep in a fit
        if started.exists() and len(started.read_text(encoding="utf-8").split()) == 2:
            signal.setitimer(signal.ITIMER_REAL, 0)
            raise KeyboardInterrupt

    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(em, "_run_em", sleeping)
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.1, 0.1)
    try:
        with pytest.raises(KeyboardInterrupt):
            grid_search(data, factors, cfg, threads=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(started.read_text(encoding="utf-8").split()) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(temp.iterdir()) == []


def test_pooled_grid_search_starts_no_thread(rng, monkeypatch):
    data, factors, _ = _grid_data(rng)
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 1),
                        models=(ModelId.from_string("UUU"), ModelId.from_string("CCC")))
    expected = grid_search(data, factors, cfg, threads=1)

    def no_thread(self):
        raise AssertionError("grid_search started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert em._pool_size(2, len(expected.entries)) == 2
    grid = grid_search(data, factors, cfg, threads=2)
    assert repr(grid.entries) == repr(expected.entries)


def test_resolve_threads_counts_only_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert em._resolve_threads(None) == 1
    assert em._resolve_threads(3) == 3


def test_grid_search_from_a_second_thread_runs_in_the_callers_process(rng, monkeypatch):
    # Forking a process that runs other Python threads is unsafe, so a call
    # made beside a second thread fits in the calling thread, to the same
    # entries as a call from the main thread.
    data, factors, _ = _grid_data(rng)
    cfg = _quick_config(g_range=(1, 2), k_range=(1, 1),
                        models=(ModelId.from_string("UUU"), ModelId.from_string("CCC")))
    expected = grid_search(data, factors, cfg, threads=2)
    real_run = em._run_em
    pids = []  # fits in a worker process would leave this list empty

    def recording(*args):
        pids.append(os.getpid())
        return real_run(*args)

    monkeypatch.setattr(em, "_run_em", recording)
    out = {}
    caller = threading.Thread(
        target=lambda: out.update(grid=grid_search(data, factors, cfg, threads=2)))
    caller.start()
    caller.join(timeout=120)
    assert not caller.is_alive()
    assert pids == [os.getpid()] * len(expected.entries)
    assert repr(out["grid"].entries) == repr(expected.entries)


def test_grid_search_validates_inputs(rng):
    data = make_counts(rng.poisson(5.0, size=(10, 3)))
    factors = unit_factors(10)
    with pytest.raises(InputError):
        grid_search(data, factors, "not a config", threads=1)
    with pytest.raises(InputError):
        grid_search(data, factors, _quick_config(k_range=(1, 4)), threads=1)
    with pytest.raises(InputError):
        grid_search(data, factors, _quick_config(g_range=(1, 11)), threads=1)
    with pytest.raises(InputError):
        grid_search(data, factors, _quick_config(), threads=0)


def test_grid_search_all_models_run(rng):
    data, factors, _ = _grid_data(rng, n=100)
    cfg = _quick_config(g_range=(2, 2), k_range=(1, 1), models=ALL_MODELS, max_outer=25)
    grid = grid_search(data, factors, cfg, threads=2)
    assert len(grid.entries) == 8
    assert [e.model_id for e in grid.entries] == list(ALL_MODELS)
    assert all(e.error == "" for e in grid.entries)
