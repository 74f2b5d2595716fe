import numpy as np
import pytest

from mplnfa import stage1
from mplnfa.core import CountMatrix, NormalizationFactors


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_counts(values, sample_ids=None, var_ids=None):
    values = np.asarray(values)
    n, d = values.shape
    if sample_ids is None:
        sample_ids = tuple(f"s{i:04d}" for i in range(n))
    if var_ids is None:
        var_ids = tuple(f"v{j:02d}" for j in range(d))
    return CountMatrix(values=values, sample_ids=tuple(sample_ids), var_ids=tuple(var_ids))


def unit_factors(n):
    return NormalizationFactors.ones(n)


def loop_s(s_d, s_w):
    """The fitting loop's S tuple (s_d, s_w (..., K, d), diag S) of the
    factor form diag(s_d) + s_w s_w' with s_w (..., d, K); diag S is made
    as the loop makes it (`stage1._s_diag`).  The pairs keep the order
    they come in; `swap_pairs` lays them out as the loop holds them."""
    s = (s_d, np.ascontiguousarray(np.swapaxes(s_w, -1, -2)))
    return (*s, stage1._s_diag(s))


def swap_pairs(a):
    """A per-pair array with its two pair axes swapped, C-contiguous: the
    public (n, G, ...) layout to the fitting loop's cluster-major
    (G, n, ...), or back.  A tuple is swapped item by item, and what has
    fewer than two axes (a count, a per-row array) passes as is, so a
    kernel's whole argument list or return value can be swapped."""
    if isinstance(a, tuple):
        return tuple(swap_pairs(v) for v in a)
    if isinstance(a, np.ndarray) and a.ndim >= 2:
        return np.ascontiguousarray(np.swapaxes(a, 0, 1))
    return a
