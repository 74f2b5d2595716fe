"""Agreement and recovery metrics for clustering results.

Cluster agreement uses the adjusted Rand index under the permutation
model (pair counting with chance correction).  Covariance recovery is
measured entrywise after matching estimated components to true ones
by nearest means.
"""

from dataclasses import dataclass

import numpy as np

from .core import InputError, MixtureModel

__all__ = ["ari", "match_components", "mse_sigma", "recovery_report", "RecoveryReport"]


def _comb2(v):
    return v * (v - 1.0) / 2.0


def ari(a, b):
    """Adjusted Rand index between two label vectors.

    Chance-corrected pair-counting agreement: 1 for identical
    partitions, near 0 for independent ones; can be negative.  Labels
    may be any hashable values.  When the index is undefined (both
    partitions trivial) the partitions are identical and 1.0 is
    returned.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise InputError("label vectors must be one-dimensional and equally long")
    n = a.shape[0]
    if n < 2:
        raise InputError("need at least two samples")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)
    sum_cells = _comb2(table).sum()
    sum_a = _comb2(table.sum(axis=1)).sum()
    sum_b = _comb2(table.sum(axis=0)).sum()
    total = _comb2(float(n))
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def match_components(estimated, truth):
    """Permutation aligning estimated components to true ones.

    Minimizes total squared distance between component means via the
    Hungarian algorithm.  Returns perm with perm[g] the estimated
    index assigned to true component g.
    """
    if not isinstance(estimated, MixtureModel) or not isinstance(truth, MixtureModel):
        raise InputError("arguments must be MixtureModel instances")
    if estimated.g != truth.g or estimated.d != truth.d:
        raise InputError(
            f"component count/dimension mismatch: ({estimated.g}, {estimated.d}) "
            f"vs ({truth.g}, {truth.d})"
        )
    # imported here so that `fit` and `simulate` do not load scipy.optimize
    from scipy.optimize import linear_sum_assignment

    cost = ((truth.mu[:, None, :] - estimated.mu[None, :, :]) ** 2).sum(-1)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(truth.g, dtype=np.int64)
    perm[rows] = cols
    return perm


def mse_sigma(estimated, truth, matching=None):
    """Per-component mean squared error of assembled covariances.

    For each true component g, the mean over all d*d entries of
    (sigma_hat_perm[g] - sigma_g)^2.  `matching` defaults to the
    nearest-means permutation from `match_components`.
    """
    if matching is None:
        matching = match_components(estimated, truth)
    matching = np.asarray(matching, dtype=np.int64)
    if sorted(matching.tolist()) != list(range(truth.g)):
        raise InputError("matching must be a permutation of component indices")
    est = estimated.sigmas()
    tru = truth.sigmas()
    return np.array([np.mean((est[matching[g]] - tru[g]) ** 2) for g in range(truth.g)])


@dataclass(frozen=True)
class RecoveryReport:
    """Replicate-aggregated parameter recovery summary.

    Arrays are stacked over true components: true means, the mean and
    spread of matched estimated means across replicates, and the mean
    covariance MSE.
    """

    true_mu: np.ndarray
    mean_mu: np.ndarray
    sd_mu: np.ndarray
    mean_mse_sigma: np.ndarray
    n_replicates: int

    def to_dict(self):
        return {
            "n_replicates": self.n_replicates,
            "components": [
                {
                    "true_mu": self.true_mu[g].tolist(),
                    "mean_mu": self.mean_mu[g].tolist(),
                    "sd_mu": self.sd_mu[g].tolist(),
                    "mean_mse_sigma": float(self.mean_mse_sigma[g]),
                }
                for g in range(self.true_mu.shape[0])
            ],
        }


def recovery_report(fits, truths):
    """Aggregate parameter recovery across replicate fits.

    Parameters
    ----------
    fits : sequence of MixtureModel
        One fitted model per replicate.
    truths : MixtureModel or sequence of MixtureModel
        The generating model, shared or per replicate.

    Each fit is matched to its truth by nearest means; means are then
    averaged across replicates (spread reported as population SD) and
    covariance MSEs averaged per component.
    """
    fits = list(fits)
    if not fits:
        raise InputError("need at least one fitted model")
    if isinstance(truths, MixtureModel):
        truths = [truths] * len(fits)
    else:
        truths = list(truths)
    if len(truths) != len(fits):
        raise InputError("fits and truths must have equal length")
    g, d = truths[0].g, truths[0].d
    for t in truths:
        if t.g != g or t.d != d:
            raise InputError("all truths must share (G, d)")

    mu_hat = np.zeros((len(fits), g, d))
    mse = np.zeros((len(fits), g))
    for r, (fit, truth) in enumerate(zip(fits, truths)):
        perm = match_components(fit, truth)
        mu_hat[r] = fit.mu[perm]
        mse[r] = mse_sigma(fit, truth, matching=perm)
    return RecoveryReport(
        true_mu=truths[0].mu,
        mean_mu=mu_hat.mean(axis=0),
        sd_mu=mu_hat.std(axis=0),
        mean_mse_sigma=mse.mean(axis=0),
        n_replicates=len(fits),
    )
