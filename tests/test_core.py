import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mplnfa.core
from mplnfa.core import (
    ALL_MODELS,
    ComponentParams,
    CountMatrix,
    InputError,
    MixtureModel,
    ModelId,
    NormalizationFactors,
    VariationalState,
    assemble_sigma,
    covariance_param_count,
    total_free_params,
)

from conftest import make_counts


def comp(pi, mu, lam, psi):
    return ComponentParams(
        pi=pi,
        mu=np.asarray(mu, dtype=np.float64),
        lam=np.asarray(lam, dtype=np.float64),
        psi=np.asarray(psi, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# model identifiers
# ---------------------------------------------------------------------------


def test_eight_distinct_models():
    codes = [str(m) for m in ALL_MODELS]
    assert codes == ["UUU", "UUC", "UCU", "UCC", "CUU", "CUC", "CCU", "CCC"]
    assert len(set(ALL_MODELS)) == 8


def test_model_id_string_round_trip():
    for m in ALL_MODELS:
        assert ModelId.from_string(str(m)) == m
    assert ModelId.from_string("ucc") == ModelId.from_string("UCC")
    with pytest.raises(InputError):
        ModelId.from_string("XYZ")
    with pytest.raises(InputError):
        ModelId.from_string("UU")


# ---------------------------------------------------------------------------
# covariance assembly
# ---------------------------------------------------------------------------


def test_assemble_sigma_zero_loadings_identity():
    c = comp(1.0, np.zeros(3), np.zeros((3, 2)), np.ones(3))
    assert np.array_equal(assemble_sigma(c), np.eye(3))


def test_assemble_sigma_scalar_case():
    c = comp(1.0, [0.0], [[2.0]], [1.0])
    np.testing.assert_allclose(assemble_sigma(c), [[5.0]], rtol=0, atol=1e-15)


def test_assemble_sigma_two_dim_case():
    c = comp(1.0, [0.0, 0.0], [[1.0], [1.0]], [0.5, 0.5])
    expect = np.array([[1.5, 1.0], [1.0, 1.5]])
    np.testing.assert_allclose(assemble_sigma(c), expect, rtol=0, atol=1e-15)


@given(
    d=st.integers(2, 8),
    k=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_assemble_sigma_low_rank_plus_diagonal(d, k, seed):
    if k > d:
        k = d
    r = np.random.default_rng(seed)
    lam = r.uniform(-1, 1, (d, k))
    psi = r.uniform(0.25, 1.0, d)
    c = comp(1.0, np.zeros(d), lam, psi)
    sig = assemble_sigma(c)
    assert np.allclose(sig, sig.T)
    assert np.linalg.matrix_rank(sig - np.diag(psi), tol=1e-9) <= k
    assert np.linalg.eigvalsh(sig).min() >= psi.min() - 1e-12


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------


def test_covariance_count_uuu_table_row():
    assert covariance_param_count(ModelId.from_string("UUU"), 10, 4, 3) == 132


def test_covariance_count_ccc_table_row():
    assert covariance_param_count(ModelId.from_string("CCC"), 10, 3, 2) == 28


def test_covariance_count_g1_constraints_vacuous():
    for a, b in (("UUU", "CUU"), ("UUC", "CUC"), ("UCU", "CCU"), ("UCC", "CCC")):
        ca = covariance_param_count(ModelId.from_string(a), 8, 2, 1)
        cb = covariance_param_count(ModelId.from_string(b), 8, 2, 1)
        assert ca == cb
    assert covariance_param_count(ModelId.from_string("UUU"), 8, 2, 1) == 23


def test_total_free_params_examples():
    assert total_free_params(ModelId.from_string("CCC"), 10, 3, 2) == 49
    assert total_free_params(ModelId.from_string("UUU"), 10, 4, 3) == 164
    for m in ALL_MODELS:
        got = total_free_params(m, 6, 2, 1)
        assert got == 6 + covariance_param_count(m, 6, 2, 1)


def test_param_count_rejects_k_above_d():
    with pytest.raises(InputError):
        covariance_param_count(ModelId.from_string("UUU"), 3, 4, 2)
    with pytest.raises(InputError):
        covariance_param_count(ModelId.from_string("UUU"), 3, 0, 2)


@given(
    d=st.integers(1, 12),
    k=st.integers(1, 12),
    g=st.integers(1, 6),
)
@settings(max_examples=120, deadline=None)
def test_param_count_ordering(d, k, g):
    if k > d:
        k = d
    counts = {str(m): covariance_param_count(m, d, k, g) for m in ALL_MODELS}
    for code, c in counts.items():
        assert counts["CCC"] <= c <= counts["UUU"], code


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------


def test_count_matrix_validation():
    good = make_counts([[0, 1], [2, 3]])
    assert good.n == 2 and good.d == 2
    with pytest.raises(InputError):
        make_counts([[0, -1], [2, 3]])
    with pytest.raises(InputError):
        make_counts([[0.5, 1.0], [2.0, 3.0]])
    # no int64 holds these: rejected before the cast, not cast to garbage
    for big in (np.inf, 1e19, 2.0**63):
        with pytest.raises(InputError, match="finite and at most"):
            make_counts([[1.0, big]])
    with pytest.raises(InputError, match="nonnegative"):
        make_counts([[1.0, -np.inf]])
    np.testing.assert_array_equal(make_counts([[1.0, 2.0**62]]).values, [[1, 2**62]])
    with pytest.raises(InputError):
        make_counts([[0, 1], [2, 3]], sample_ids=("a", "a"))


def test_normalization_factors_validation():
    f = NormalizationFactors.ones(3)
    assert np.array_equal(f.c, np.ones(3))
    with pytest.raises(InputError):
        NormalizationFactors(c=np.array([1.0, 0.0]))
    with pytest.raises(InputError):
        NormalizationFactors(c=np.array([1.0, -2.0]))


def test_component_params_validation():
    with pytest.raises(InputError):
        comp(1.0, [0.0], [[1.0]], [0.0])  # psi must be positive
    with pytest.raises(InputError):
        comp(1.0, [0.0, 0.0], np.ones((2, 3)), [1.0, 1.0])  # K > d
    with pytest.raises(InputError):
        comp(0.0, [0.0], [[1.0]], [1.0])  # weight outside (0, 1]


def build_mixture(model_code, g=2, d=3, k=1, seed=0):
    r = np.random.default_rng(seed)
    mid = ModelId.from_string(model_code)
    lam = r.uniform(-1, 1, (g, d, k))
    psi = r.uniform(0.25, 1.0, (g, d))
    if mid.lambda_constrained:
        lam[:] = lam[0]
    if mid.psi_isotropic:
        psi[:] = psi.mean(axis=1, keepdims=True)
    if mid.psi_constrained:
        psi[:] = psi[0]
    comps = tuple(comp(1.0 / g, r.uniform(0, 3, d), lam[j], psi[j]) for j in range(g))
    return MixtureModel(g=g, k=k, model_id=mid, components=comps)


def test_mixture_model_constraint_enforcement():
    for code in ("CCC", "UCU", "UUC"):
        m = build_mixture(code)
        assert str(m.model_id) == code
        c0, c1 = m.components
        bad_psi = c1.psi.copy()
        bad_psi[-1] *= 2.0  # breaks a shared or an isotropic psi row alike
        breaks = [(c1.lam, bad_psi)]
        if m.model_id.lambda_constrained:
            breaks.append((c1.lam * 2.0, c1.psi))
        for lam, psi in breaks:
            with pytest.raises(InputError):
                MixtureModel(g=2, k=1, model_id=m.model_id,
                             components=(c0, comp(0.5, c1.mu, lam, psi)))


def test_mixture_model_pi_must_sum_to_one():
    comps = (
        comp(0.5, [0.0], [[0.5]], [1.0]),
        comp(0.4, [1.0], [[0.5]], [1.0]),
    )
    with pytest.raises(InputError):
        MixtureModel(g=2, k=1, model_id=ModelId.from_string("CUU"), components=comps)


def test_mixture_model_sigma_accessors():
    m = build_mixture("UUU", g=2, d=3, k=1, seed=4)
    sig0 = m.sigma(0)
    np.testing.assert_allclose(sig0, assemble_sigma(m.components[0]), atol=0)
    all_sig = m.sigmas()
    assert all_sig.shape == (2, 3, 3)
    np.testing.assert_allclose(all_sig[1], m.sigma(1), atol=0)


def test_variational_state_validation():
    n, g, d, k = 4, 2, 3, 1
    m = np.zeros((n, g, d))
    s_d, s_w = np.ones((n, g, d)), np.zeros((n, g, d, k))
    p = np.zeros((n, g, k))
    q = np.broadcast_to(np.eye(k), (g, k, k)).copy()
    zhat = np.full((n, g), 0.5)
    f = np.zeros((n, g))
    state = VariationalState(m=m, s_d=s_d, s_w=s_w, p=p, q=q, zhat=zhat, f=f)
    assert state.m.shape == (n, g, d)
    bad_z = zhat.copy()
    bad_z[0, 0] = 0.9
    with pytest.raises(InputError):
        VariationalState(m=m, s_d=s_d, s_w=s_w, p=p, q=q, zhat=bad_z, f=f)
    bad_s = s_d.copy()
    bad_s[0, 0] = -1.0
    with pytest.raises(InputError):
        VariationalState(m=m, s_d=bad_s, s_w=s_w, p=p, q=q, zhat=zhat, f=f)


def test_variational_state_dense_s_is_a_read_only_view(rng):
    # S = diag(s_d) + s_w s_w' is built when `s` is read, never stored
    n, g, d, k = 3, 2, 4, 2
    s_d, s_w = rng.uniform(0.1, 1.0, (n, g, d)), rng.normal(0.0, 1.0, (n, g, d, k))
    state = VariationalState(m=np.zeros((n, g, d)), s_d=s_d, s_w=s_w, p=np.zeros((n, g, k)),
                             q=np.broadcast_to(np.eye(k), (g, k, k)).copy(),
                             zhat=np.full((n, g), 0.5), f=np.zeros((n, g)))
    assert "s" not in vars(state)
    for i in range(n):
        for j in range(g):
            ref = np.diag(s_d[i, j]) + s_w[i, j] @ s_w[i, j].T
            np.testing.assert_allclose(state.s[i, j], ref, rtol=1e-15, atol=1e-15)
    np.testing.assert_array_equal(state.s, np.swapaxes(state.s, -1, -2))
    with pytest.raises(ValueError):
        state.s[0, 0, 0, 0] = 1.0
    bad_w = s_w.copy()
    bad_w[0, 0, 0, 0] = np.nan
    with pytest.raises(InputError):
        VariationalState(m=state.m, s_d=s_d, s_w=bad_w, p=state.p, q=state.q, zhat=state.zhat,
                         f=state.f)


def test_frozen_containers_are_read_only():
    data = make_counts([[0, 1], [2, 3]])
    with pytest.raises(ValueError):
        data.values[0, 0] = 5


def test_core_simulate_and_io_import_without_scipy_or_click():
    # Every public name is imported from its own module; the package root
    # holds only __version__, so these three load numpy and nothing heavier.
    code = ("import sys, mplnfa, mplnfa.core, mplnfa.simulate, mplnfa.io\n"
            "print(mplnfa.__version__)\n"
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'click'}))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mplnfa.core.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[:2] == ["0.1.0", "[]"]


def test_cli_em_and_evaluate_import_without_scipy_optimize():
    # Only `evaluate`'s component matching uses scipy.optimize and imports it
    # when called, so `fit` and `simulate` processes never load it.  A pooled
    # grid forks its workers itself, so it loads no executor: neither
    # `concurrent.futures.process` nor `multiprocessing`.  (scipy.special
    # loads `concurrent.futures` itself, through numpy.testing.)
    code = ("import sys, mplnfa.cli, mplnfa.em, mplnfa.evaluate\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
            "from mplnfa.core import CountMatrix, NormalizationFactors\n"
            "y = [[i % 7 + 1, i % 5, 2 * (i % 3)] for i in range(40)]\n"
            "data = CountMatrix(values=y, sample_ids=tuple(f's{i}' for i in range(40)),\n"
            "                   var_ids=('a', 'b', 'c'))\n"
            "config = mplnfa.em.FitConfig(g_range=(1, 2), k_range=(1, 1), max_outer=3)\n"
            "grid = mplnfa.em.grid_search(data, NormalizationFactors.ones(40), config, threads=2)\n"
            "print(len(grid.entries))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('concurrent.futures.process', 'multiprocessing'))))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mplnfa.core.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[:3] == ["[]", "16", "[]"]
