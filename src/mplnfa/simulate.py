"""Synthetic count data drawn from the fitted model family.

Counts are generated by the same hierarchy the fitter assumes: latent
Gaussian vectors with factor-analytic covariance, exponentiated into
Poisson rates with per-sample exposures.  Three documented presets
provide mixtures of increasing complexity whose means and proportions
are fixed; their loadings and error variances are drawn once from a
fixed internal seed, honouring each preset's constraint pattern.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    CountMatrix,
    InputError,
    MixtureModel,
    ModelId,
    NumericalError,
)

__all__ = ["SimulationConfig", "generate", "preset", "random_config", "PRESET_NAMES"]

# Entropy prefix for drawing preset loadings and error variances.
_PRESET_PARAM_SEED = 1225
# Uniform ranges for generated loadings and error variances.
_LAM_RANGE = (-1.0, 1.0)
_PSI_RANGE = (0.25, 1.0)
# Rate arguments above this abort generation rather than overflow.
_RATE_CLAMP = 700.0

PRESET_NAMES = ("setting1", "setting2", "setting3")


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one synthetic mixture.

    `c` is the per-sample exposure vector (defaults to all ones).
    `seed` is the dataset seed; replicate streams are derived from
    (seed, replicate index), so the same config reproduces the same
    family of datasets.
    """

    n: int
    d: int
    g: int
    k: int
    model_id: ModelId
    pi: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    psi: np.ndarray
    c: np.ndarray = None
    seed: int = 0

    def __post_init__(self):
        n, d, g, k = int(self.n), int(self.d), int(self.g), int(self.k)
        if n < 1:
            raise InputError("n must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "seed", int(self.seed))
        pi = np.asarray(self.pi, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        lam = np.asarray(self.lam, dtype=np.float64)
        psi = np.asarray(self.psi, dtype=np.float64)
        if pi.shape != (g,):
            raise InputError("pi must have length G")
        if mu.shape != (g, d):
            raise InputError("mu must be (G, d)")
        if lam.shape != (g, d, k):
            raise InputError("lam must be (G, d, K)")
        if psi.shape != (g, d):
            raise InputError("psi must be (G, d)")
        c = self.c
        if c is None:
            c = np.ones(n)
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (n,) or np.any(c <= 0) or not np.all(np.isfinite(c)):
            raise InputError("c must be a positive length-n vector")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "c", c)
        # Delegates constraint-pattern and simplex validation.
        self.to_model()

    def to_model(self):
        """The true mixture as a validated MixtureModel."""
        return MixtureModel.from_arrays(self.g, self.k, self.model_id,
                                        self.pi, self.mu, self.lam, self.psi)


def generate(config, replicate=0):
    """Draw one dataset.

    Returns (CountMatrix, labels, MixtureModel) where labels are the
    true component indices.  The stream is a pure function of
    (config.seed, replicate).
    """
    if not isinstance(config, SimulationConfig):
        raise InputError("config must be a SimulationConfig")
    replicate = int(replicate)
    if replicate < 0:
        raise InputError("replicate index must be nonnegative")
    rng = np.random.default_rng([config.seed, replicate])
    n, d, g, k = config.n, config.d, config.g, config.k

    labels = rng.choice(g, size=n, p=config.pi)
    u = rng.standard_normal((n, k))
    eps = rng.standard_normal((n, d))
    x = (
        config.mu[labels]
        + np.einsum("ndk,nk->nd", config.lam[labels], u)
        + np.sqrt(config.psi[labels]) * eps
    )
    log_rate = x + np.log(config.c)[:, None]
    if np.any(log_rate > _RATE_CLAMP):
        raise NumericalError("generated log rates overflow; check mu/lam/psi scales")
    y = rng.poisson(np.exp(log_rate))

    data = CountMatrix(
        values=y.astype(np.int64),
        sample_ids=tuple(f"s{i + 1:04d}" for i in range(n)),
        var_ids=tuple(f"v{j + 1:02d}" for j in range(d)),
    )
    return data, labels, config.to_model()


def _draw_lam_psi(rng, g, d, k, model_id):
    """Loadings and error variances drawn at their free shapes and
    broadcast to (G, d, K) and (G, d)."""
    lam = rng.uniform(*_LAM_RANGE, size=(1 if model_id.lambda_constrained else g, d, k))
    psi = rng.uniform(*_PSI_RANGE, size=model_id.psi_shape(g, d))
    return np.broadcast_to(lam, (g, d, k)).copy(), np.broadcast_to(psi, (g, d)).copy()


_PRESET_TABLES = {
    "setting1": {
        "d": 8,
        "g": 4,
        "k": 2,
        "model": "UCC",
        "pi": (0.11, 0.43, 0.24, 0.22),
        "mu": (
            (6, 3, 3, 6, 3, 6, 3, 3),
            (1, 3, 5, 1, 3, 5, 3, 5),
            (4, 2, 6, 4, 2, 6, 4, 4),
            (5, 3, 5, 3, 5, 3, 3, 5),
        ),
    },
    "setting2": {
        "d": 10,
        "g": 2,
        "k": 3,
        "model": "CCC",
        "pi": (0.32, 0.68),
        "mu": (
            (6, 3, 3, 6, 3, 6, 3, 3, 6, 3),
            (5, 3, 5, 3, 5, 5, 3, 5, 3, 5),
        ),
    },
    "setting3": {
        "d": 10,
        "g": 3,
        "k": 4,
        "model": "UUU",
        "pi": (0.23, 0.44, 0.33),
        "mu": (
            (4, 6, 4, 2, 2, 4, 6, 4, 6, 2),
            (5, 5, 3, 3, 7, 5, 3, 3, 7, 7),
            (2, 4, 4, 7, 2, 4, 7, 2, 7, 4),
        ),
    },
}


def preset(name, n=1000, seed=0):
    """One of the three documented simulation presets.

    Mixing proportions and means are fixed constants; loadings and
    error variances are drawn from a fixed internal seed so every call
    returns the identical configuration.  `n` and `seed` control the
    dataset size and the sampling stream.
    """
    key = str(name).strip().lower()
    if key not in _PRESET_TABLES:
        raise InputError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    row = _PRESET_TABLES[key]
    d, g, k = row["d"], row["g"], row["k"]
    model_id = ModelId.from_string(row["model"])
    rng = np.random.default_rng([_PRESET_PARAM_SEED, PRESET_NAMES.index(key)])
    lam, psi = _draw_lam_psi(rng, g, d, k, model_id)
    return SimulationConfig(
        n=n,
        d=d,
        g=g,
        k=k,
        model_id=model_id,
        pi=np.asarray(row["pi"], dtype=np.float64),
        mu=np.asarray(row["mu"], dtype=np.float64),
        lam=lam,
        psi=psi,
        seed=seed,
    )


def random_config(n, d, g, k, model_id, seed, mu_range=(1.0, 7.0)):
    """A reproducible configuration with drawn parameters.

    Proportions come from normalized uniforms bounded away from zero,
    means from `mu_range`, loadings and error variances from the same
    ranges the presets use, all honouring the constraint pattern.
    """
    model_id = model_id if isinstance(model_id, ModelId) else ModelId.from_string(model_id)
    rng = np.random.default_rng([int(seed), 9_0001])
    raw = rng.uniform(0.5, 1.5, size=g)
    pi = raw / raw.sum()
    mu = rng.uniform(mu_range[0], mu_range[1], size=(g, d))
    lam, psi = _draw_lam_psi(rng, g, d, k, model_id)
    return SimulationConfig(
        n=n, d=d, g=g, k=k, model_id=model_id, pi=pi, mu=mu, lam=lam, psi=psi, seed=int(seed)
    )
