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
    as the loop makes it (`stage1._s_diag`)."""
    s = (s_d, np.ascontiguousarray(np.swapaxes(s_w, -1, -2)))
    return (*s, stage1._s_diag(s))
