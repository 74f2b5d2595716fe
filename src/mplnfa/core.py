"""Domain types for count-data mixtures of factor analyzers.

Each mixture component has a low-rank-plus-diagonal covariance on the
latent log scale, sigma_g = lambda_g lambda_g' + diag(psi_g).  An
eight-member model family arises from three binary constraints: share
the loadings across components, share the error variances across
components, and force the error variances to be isotropic.  Models are
named by three-letter codes (e.g. "UCC"), one letter per constraint,
"C" for constrained and "U" for unconstrained.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputError",
    "NumericalError",
    "EmptyComponentError",
    "CountMatrix",
    "NormalizationFactors",
    "ModelId",
    "ALL_MODELS",
    "ComponentParams",
    "MixtureModel",
    "VariationalState",
    "assemble_sigma",
    "covariance_param_count",
    "total_free_params",
]

# Tolerance for simplex/row-sum checks on probabilities.
PROB_TOL = 1e-10


class InputError(ValueError):
    """Raised for invalid user-supplied data or configuration.

    The command line maps this class to exit code 1; any other failure
    is a runtime error (exit code 2).
    """


class NumericalError(RuntimeError):
    """Raised when a numerical routine fails (singular solve, overflow)."""


class EmptyComponentError(NumericalError):
    """Raised when a mixture component's effective size collapses to zero."""


def _freeze(a):
    """Return a C-contiguous, read-only copy of an array."""
    out = np.ascontiguousarray(a)
    out = out.copy() if not out.flags.owndata else out
    out.flags.writeable = False
    return out


def _setstate_frozen(self, state):
    """Unpickle a container with its arrays read-only again, so that a fit
    returned by a worker process is as immutable as one built in place."""
    for name, value in state.items():
        object.__setattr__(self, name, _freeze(value) if isinstance(value, np.ndarray) else value)


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountMatrix:
    """Observed count data, one row per sample, one column per variable.

    Parameters
    ----------
    values : (n, d) integer array
        Nonnegative counts.
    sample_ids : sequence of str
        Row identifiers, unique, length n.
    var_ids : sequence of str
        Column identifiers, length d.
    """

    values: np.ndarray
    sample_ids: tuple
    var_ids: tuple

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise InputError("count matrix must be two-dimensional")
        n, d = values.shape
        if n < 1 or d < 1:
            raise InputError("count matrix must be non-empty")
        if not np.issubdtype(values.dtype, np.integer):
            if not np.all(values == np.floor(values)):
                raise InputError("counts must be integers")
            if not np.all(values < 2.0**63):  # +inf or past int64: no int64 to cast to
                raise InputError(f"counts must be finite and at most {np.iinfo(np.int64).max}")
        if np.any(values < 0):
            raise InputError("counts must be nonnegative")
        object.__setattr__(self, "values", _freeze(values.astype(np.int64)))
        object.__setattr__(self, "sample_ids", tuple(str(s) for s in self.sample_ids))
        object.__setattr__(self, "var_ids", tuple(str(v) for v in self.var_ids))
        if len(self.sample_ids) != n:
            raise InputError("sample_ids length must match row count")
        if len(set(self.sample_ids)) != n:
            raise InputError("sample_ids must be unique")
        if len(self.var_ids) != d:
            raise InputError("var_ids length must match column count")

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def d(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class NormalizationFactors:
    """Per-sample exposure factors C_i, strictly positive.

    The i-th sample's counts are modelled with rate exp(x_ij + log C_i),
    so C_i acts as a multiplicative offset.
    """

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        if c.ndim != 1:
            raise InputError("normalization factors must be a vector")
        if not np.all(np.isfinite(c)) or np.any(c <= 0):
            raise InputError("normalization factors must be finite and positive")
        object.__setattr__(self, "c", _freeze(c))

    @property
    def n(self):
        return self.c.shape[0]

    @classmethod
    def ones(cls, n):
        return cls(np.ones(n))


# ---------------------------------------------------------------------------
# model family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelId:
    """One of the eight covariance-constraint patterns.

    Three independent flags, serialized as a three-letter code in the
    order (loadings, error variances, isotropy).
    """

    lambda_constrained: bool
    psi_constrained: bool
    psi_isotropic: bool

    def __str__(self):
        return (
            ("C" if self.lambda_constrained else "U")
            + ("C" if self.psi_constrained else "U")
            + ("C" if self.psi_isotropic else "U")
        )

    def psi_shape(self, g, d):
        """Free shape of the (G, d) error variances: one row shared by
        every component if constrained, else G; one column per row if
        isotropic, else d."""
        return (1 if self.psi_constrained else g, 1 if self.psi_isotropic else d)

    @classmethod
    def from_string(cls, code):
        code = str(code).strip().upper()
        if len(code) != 3 or any(ch not in "UC" for ch in code):
            raise InputError(
                f"invalid model code {code!r}: expected three letters from {{U, C}}"
            )
        return cls(code[0] == "C", code[1] == "C", code[2] == "C")


ALL_MODELS = tuple(
    ModelId.from_string(code)
    for code in ("UUU", "UUC", "UCU", "UCC", "CUU", "CUC", "CCU", "CCC")
)


@dataclass(frozen=True)
class ComponentParams:
    """Parameters of a single mixture component.

    Fields
    ------
    pi : float in (0, 1]
        Mixing proportion.
    mu : (d,) array
        Latent log-scale mean.
    lam : (d, K) array
        Factor loadings.
    psi : (d,) array, positive
        Diagonal error variances.
    """

    pi: float
    mu: np.ndarray
    lam: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        pi = float(self.pi)
        if not (0.0 < pi <= 1.0):
            raise InputError(f"mixing proportion must be in (0, 1], got {pi}")
        mu = np.asarray(self.mu, dtype=np.float64)
        lam = np.asarray(self.lam, dtype=np.float64)
        psi = np.asarray(self.psi, dtype=np.float64)
        if mu.ndim != 1:
            raise InputError("mu must be a vector")
        d = mu.shape[0]
        if lam.ndim != 2 or lam.shape[0] != d:
            raise InputError("lam must be a (d, K) matrix")
        if lam.shape[1] > d:
            raise InputError("number of factors K must not exceed dimension d")
        if psi.shape != (d,):
            raise InputError("psi must be a length-d vector")
        if not np.all(np.isfinite(mu)) or not np.all(np.isfinite(lam)):
            raise InputError("component parameters must be finite")
        if not np.all(np.isfinite(psi)) or np.any(psi <= 0):
            raise InputError("psi entries must be finite and positive")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "mu", _freeze(mu))
        object.__setattr__(self, "lam", _freeze(lam))
        object.__setattr__(self, "psi", _freeze(psi))

    __setstate__ = _setstate_frozen

    @property
    def d(self):
        return self.mu.shape[0]

    @property
    def k(self):
        return self.lam.shape[1]


@dataclass(frozen=True)
class MixtureModel:
    """A G-component mixture with a common constraint pattern.

    Invariants: mixing proportions sum to one; all components share
    (d, K); if the pattern constrains the loadings, all lam_g are
    identical; if it constrains the error variances, all psi_g are
    identical; if isotropic, each psi_g is a constant vector.

    `from_arrays` builds one from (G,) pi, (G, d) mu, (G, d, K) lam and
    (G, d) psi, stacked as the properties of those names return them.
    """

    g: int
    k: int
    model_id: ModelId
    components: tuple

    @classmethod
    def from_arrays(cls, g, k, model_id, pi, mu, lam, psi):
        comps = tuple(
            ComponentParams(pi=float(pi[j]), mu=mu[j], lam=lam[j], psi=psi[j]) for j in range(g)
        )
        return cls(g=g, k=k, model_id=model_id, components=comps)

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.g or self.g < 1:
            raise InputError("components length must equal G >= 1")
        d = comps[0].d
        for c in comps:
            if not isinstance(c, ComponentParams):
                raise InputError("components must be ComponentParams")
            if c.d != d or c.k != self.k:
                raise InputError("all components must share (d, K)")
        total = sum(c.pi for c in comps)
        if abs(total - 1.0) > PROB_TOL:
            raise InputError(f"mixing proportions must sum to 1, got {total!r}")
        lam, psi = np.stack([c.lam for c in comps]), np.stack([c.psi for c in comps])
        rows, cols = self.model_id.psi_shape(self.g, d)
        lam_free = lam[:1] if self.model_id.lambda_constrained else lam
        for full, free in ((lam, lam_free), (psi, psi[:rows, :cols])):
            if not np.array_equal(full, np.broadcast_to(free, full.shape)):
                raise InputError(f"parameters break pattern {self.model_id}: constrained ones must "
                                 "be identical across components, isotropic ones constant")

    @property
    def d(self):
        return self.components[0].d

    @property
    def pi(self):
        return np.array([c.pi for c in self.components])

    @property
    def mu(self):
        return np.stack([c.mu for c in self.components])

    @property
    def lam(self):
        return np.stack([c.lam for c in self.components])

    @property
    def psi(self):
        return np.stack([c.psi for c in self.components])

    def sigma(self, g):
        """Assembled covariance of component g."""
        return assemble_sigma(self.components[g])

    def sigmas(self):
        """All component covariances, stacked (G, d, d)."""
        return np.stack([assemble_sigma(c) for c in self.components])


@dataclass(frozen=True)
class VariationalState:
    """Per-observation variational quantities at a fixed point in a fit.

    Each latent log-scale posterior covariance is kept in the factor form
    S = diag(s_d) + s_w s_w', which the factor-analyzer model gives it
    exactly, so a state holds n*G*d*(K+1) numbers for S, not n*G*d^2.

    Fields
    ------
    m : (n, G, d) array
        Latent log-scale posterior means.
    s_d : (n, G, d) array
        Diagonal part of each posterior covariance, positive.
    s_w : (n, G, d, K) array
        Low-rank factor of each posterior covariance.
    p : (n, G, K) array
        Factor posterior means.
    q : (G, K, K) array
        Factor posterior covariances, each SPD.
    zhat : (n, G) array
        Responsibilities; rows on the simplex.
    f : (n, G) array
        Per-observation per-component objective values.

    The dense covariances are the read-only property `s`, built on each
    read.
    """

    m: np.ndarray
    s_d: np.ndarray
    s_w: np.ndarray
    p: np.ndarray
    q: np.ndarray
    zhat: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        arrays = {name: np.asarray(getattr(self, name), dtype=np.float64)
                  for name in ("m", "s_d", "s_w", "p", "q", "zhat", "f")}
        m, s_d, s_w, p, q, zhat, f = arrays.values()
        if m.ndim != 3:
            raise InputError("m must have shape (n, G, d)")
        n, g, d = m.shape
        if p.ndim != 3 or p.shape[:2] != (n, g):
            raise InputError("p must have shape (n, G, K)")
        k = p.shape[2]
        if s_d.shape != (n, g, d):
            raise InputError("s_d must have shape (n, G, d)")
        if s_w.shape != (n, g, d, k):
            raise InputError("s_w must have shape (n, G, d, K)")
        if q.shape != (g, k, k):
            raise InputError("q must have shape (G, K, K)")
        if zhat.shape != (n, g) or f.shape != (n, g):
            raise InputError("zhat and f must have shape (n, G)")
        if np.any(zhat < -PROB_TOL) or np.any(zhat > 1 + PROB_TOL):
            raise InputError("responsibilities must lie in [0, 1]")
        if np.any(np.abs(zhat.sum(axis=1) - 1.0) > PROB_TOL):
            raise InputError("responsibility rows must sum to 1")
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{name} must be finite")
        # diag(s_d) + s_w s_w' is SPD exactly when every s_d entry is positive
        if np.any(s_d <= 0):
            raise InputError("s_d entries must be positive")
        _require_spd_batch(q, "q")
        for name, arr in arrays.items():
            object.__setattr__(self, name, _freeze(arr))

    __setstate__ = _setstate_frozen

    @property
    def n(self):
        return self.m.shape[0]

    @property
    def g(self):
        return self.m.shape[1]

    @property
    def s(self):
        """Dense posterior covariances diag(s_d) + s_w s_w', (n, G, d, d),
        read-only.  Built on each read, at n*G*d^2*8 bytes."""
        s = self.s_w @ np.swapaxes(self.s_w, -1, -2)
        s = 0.5 * (s + np.swapaxes(s, -1, -2))
        idx = np.arange(self.m.shape[2])
        s[..., idx, idx] += self.s_d
        s.flags.writeable = False
        return s


def _require_spd_batch(mats, name):
    """Check symmetry and positive-definiteness of a stack of matrices."""
    if mats.size == 0:
        return
    if not np.allclose(mats, mats.transpose(0, 2, 1), rtol=0, atol=1e-8):
        raise InputError(f"{name} matrices must be symmetric")
    try:
        np.linalg.cholesky(0.5 * (mats + mats.transpose(0, 2, 1)))
    except np.linalg.LinAlgError:
        raise InputError(f"{name} matrices must be positive definite") from None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def assemble_sigma(component):
    """Assemble the component covariance lam lam' + diag(psi).

    Returns a symmetric positive-definite (d, d) array.
    """
    lam = component.lam
    sig = lam @ lam.T
    sig = 0.5 * (sig + sig.T)
    sig[np.arange(sig.shape[0]), np.arange(sig.shape[0])] += component.psi
    return sig


def _check_seed(seed):
    """`seed` as an int; numpy's generators refuse negative seeds."""
    seed = int(seed)
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _check_dims(model_id, d, k, g):
    if not isinstance(model_id, ModelId):
        raise InputError("model_id must be a ModelId")
    d, k, g = int(d), int(k), int(g)
    if d < 1 or g < 1 or k < 1:
        raise InputError("d, K, G must be positive")
    if k > d:
        raise InputError(f"number of factors K={k} must not exceed dimension d={d}")
    return d, k, g


def covariance_param_count(model_id, d, k, g):
    """Free-parameter count of the covariance part of a model.

    A single loading matrix contributes d*K - K*(K-1)/2 after fixing
    the rotational indeterminacy; the error variances contribute one
    per entry of their free shape (`ModelId.psi_shape`).
    """
    d, k, g = _check_dims(model_id, d, k, g)
    per_loading = d * k - k * (k - 1) // 2
    loadings = per_loading if model_id.lambda_constrained else g * per_loading
    rows, cols = model_id.psi_shape(g, d)
    return loadings + rows * cols


def total_free_params(model_id, d, k, g):
    """Total free parameters: mixing weights, means, and covariances."""
    d, k, g = _check_dims(model_id, d, k, g)
    return (g - 1) + g * d + covariance_param_count(model_id, d, k, g)
