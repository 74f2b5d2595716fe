"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way so the
fast library code has something honest to be checked against.
"""

import numpy as np
from scipy.integrate import dblquad
from scipy.special import gammaln


def log_marginal_quad(y, mu, sigma, logc=0.0):
    """Log of the count marginal for d=2 by adaptive quadrature.

    Integrates Poisson(y | exp(logc + x)) N(x | mu, sigma) over the
    plane on a box wide enough to hold both the prior mass and the
    likelihood peak.  Returns (log value, relative error estimate).
    """
    y = np.asarray(y, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if y.shape != (2,) or mu.shape != (2,) or sigma.shape != (2, 2):
        raise ValueError("quadrature oracle is d=2 only")
    sig_inv = np.linalg.inv(sigma)
    _, logdet = np.linalg.slogdet(sigma)
    lgy = gammaln(y + 1.0).sum()

    def log_f(x1, x2):
        x = np.array([x1, x2])
        lam = logc + x
        pois = y @ lam - np.exp(lam).sum() - lgy
        dx = x - mu
        gauss = -0.5 * dx @ sig_inv @ dx - 0.5 * logdet - np.log(2.0 * np.pi)
        return pois + gauss

    sd = np.sqrt(np.diag(sigma))
    like_mode = np.log(y + 0.5) - logc
    lo = np.minimum(mu - 8.0 * sd, like_mode - 6.0)
    hi = np.maximum(mu + 8.0 * sd, like_mode + 6.0)
    grid1 = np.linspace(lo[0], hi[0], 61)
    grid2 = np.linspace(lo[1], hi[1], 61)
    shift = max(log_f(a, b) for a in grid1 for b in grid2)
    val, abserr = dblquad(
        lambda x2, x1: np.exp(log_f(x1, x2) - shift),
        lo[0],
        hi[0],
        lo[1],
        hi[1],
        epsabs=1e-13,
        epsrel=1e-11,
    )
    if val <= 0:
        raise ValueError("quadrature returned a nonpositive mass")
    return shift + np.log(val), abserr / val


def ari_pair_counting(a, b):
    """Adjusted Rand index from explicit pair comparisons, O(n^2)."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    both = 0  # together in both partitions
    a_only = 0
    b_only = 0
    neither = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            if sa and sb:
                both += 1
            elif sa:
                a_only += 1
            elif sb:
                b_only += 1
            else:
                neither += 1
    num = 2.0 * (both * neither - a_only * b_only)
    den = (both + a_only) * (a_only + neither) + (both + b_only) * (b_only + neither)
    if den == 0:
        return 1.0
    return num / den


def fd_grad(fun, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def aggregated_stage2_objective(lam, psi, w, s_bar_full, n_g):
    """Loading/variance-dependent part of the summed factorized bound.

    Written per component with fresh beta/theta, the slow way, for
    checking the inner loop's sweeps.
    """
    g, d, k = lam.shape
    total = 0.0
    for j in range(g):
        q = np.linalg.inv(np.eye(k) + (lam[j] / psi[j][:, None]).T @ lam[j])
        beta = q @ (lam[j] / psi[j][:, None]).T
        theta = q + beta @ w[j] @ beta.T
        cross = lam[j] @ beta @ w[j]
        quad = w[j] - cross - cross.T + lam[j] @ theta @ lam[j].T
        val = (
            -0.5 * np.log(psi[j]).sum()
            - 0.5 * np.trace((quad + s_bar_full[j]) / psi[j][:, None])
            + 0.5 * np.linalg.slogdet(q)[1]
            - 0.5 * np.trace(q)
            - 0.5 * np.trace(beta @ w[j] @ beta.T)
        )
        total += n_g[j] * val
    return total


def sigma_bound_part(lam, psi, a_bar, n_g):
    """Sigma-dependent terms of the responsibility-weighted total bound,
    -1/2 sum_g n_g [log|sigma_g| + tr(sigma_g^-1 a_bar_g)], where a_bar_g
    is the weighted mean of (m - mu)(m - mu)' + S over observations and
    each sigma_g = lam_g lam_g' + diag(psi_g) is formed and solved densely.
    """
    total = 0.0
    for lam_g, psi_g, a_g, n in zip(lam, psi, a_bar, n_g):
        sig = lam_g @ lam_g.T + np.diag(psi_g)
        total -= 0.5 * n * (np.linalg.slogdet(sig)[1] + np.trace(np.linalg.solve(sig, a_g)))
    return total


def dense_sweep(model_id, w, ws_diag, n_g, lam, psi, psi_pattern, psi_floor):
    """One stage-2 map call from the dense formulas: beta = lam' sigma^-1
    by a d x d solve, theta = I - beta lam + beta W beta', the loadings by
    solves against theta, then psi_pattern on the raw error variances,
    floored at psi_floor.  Returns (lam, psi, objective at the input)."""
    g, d, k = lam.shape
    sigma = lam @ lam.transpose(0, 2, 1) + np.stack([np.diag(p) for p in psi])
    beta = np.linalg.solve(sigma, lam).transpose(0, 2, 1)
    wb = w @ beta.transpose(0, 2, 1)
    theta = np.eye(k) - beta @ lam + beta @ wb
    theta = 0.5 * (theta + theta.transpose(0, 2, 1))
    resid = (ws_diag - np.einsum("gdk,gdk->gd", wb, lam)) / psi
    objective = -0.5 * n_g @ (resid.sum(-1) + np.linalg.slogdet(sigma)[1])
    if model_id.lambda_constrained:
        weights = n_g[:, None] / psi
        lhs = sum(weights[j][:, None, None] * theta[j] for j in range(g))
        rhs = sum(weights[j][:, None] * wb[j] for j in range(g))
        rows = np.stack([np.linalg.solve(lhs[i], rhs[i]) for i in range(d)])
        lam_new = np.stack([rows] * g)
        quad = np.einsum("gdk,gkl,gdl->gd", lam_new, theta, lam_new)
        bvec = ws_diag - 2.0 * np.einsum("gdk,gdk->gd", lam_new, wb) + quad
    else:
        lam_new = np.linalg.solve(theta, wb.transpose(0, 2, 1)).transpose(0, 2, 1)
        bvec = ws_diag - np.einsum("gdk,gdk->gd", lam_new, wb)
    psi_new = np.maximum(psi_pattern(model_id, bvec, n_g), psi_floor)
    return lam_new, psi_new, objective


def random_spd(rng, d, scale=1.0):
    """A random symmetric positive definite matrix."""
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T) + (0.1 + 0.9 * rng.random()) * np.eye(d)


def random_loadings_psi(rng, d, k):
    """Loadings and error variances in the ranges the presets use."""
    lam = rng.uniform(-1.0, 1.0, size=(d, k))
    psi = rng.uniform(0.25, 1.0, size=d)
    return lam, psi


def dense_s(s):
    """Dense covariances diag(s_d) + s_w' s_w of a factor-form stack held
    as the fitting loop holds it, s = (s_d, s_w (..., K, d), diag S)."""
    s_d, s_w = s[:2]
    return np.swapaxes(s_w, -1, -2) @ s_w + s_d[..., None] * np.eye(s_d.shape[-1])


def factor_form(a):
    """A factor form (diag, factor) of a stack of SPD matrices: half the
    smallest eigenvalue on the diagonal, and the Cholesky factor of the
    rest as a full-width factor, so diag(diag) + factor factor' = a."""
    lo = 0.5 * np.linalg.eigvalsh(a)[..., :1]
    d = a.shape[-1]
    return np.repeat(lo, d, axis=-1), np.linalg.cholesky(a - lo[..., None] * np.eye(d))


def kmeans_labels(x, g, rng, n_starts, reseeds=10, max_iter=200):
    """Lloyd's k-means as it was first written: each step takes every
    squared distance directly from the (n, G, d) differences and sums the
    centers with `np.add.at`.  Keeps the labels of the lowest
    within-cluster sum of squares over `n_starts` seedings of G data
    points; raises RuntimeError when `reseeds` seedings in a row empty
    a cluster."""
    n, d = x.shape
    best_labels, best_wcss = None, np.inf
    for _ in range(n_starts):
        for _attempt in range(reseeds):
            centers = x[rng.choice(n, size=g, replace=False)]
            labels = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(-1).argmin(axis=1)
            for _it in range(max_iter):
                counts = np.bincount(labels, minlength=g)
                if np.any(counts == 0):
                    break
                centers = np.zeros((g, d))
                np.add.at(centers, labels, x)
                centers /= counts[:, None]
                new_labels = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(-1).argmin(axis=1)
                if np.array_equal(new_labels, labels):
                    break
                labels = new_labels
            if counts.all():
                break
        else:
            raise RuntimeError("k-means emptied a cluster in every seeding")
        wcss = ((x - centers[labels]) ** 2).sum()
        if wcss < best_wcss:
            best_wcss, best_labels = wcss, labels
    return best_labels


def eigen_start(x, labels, g, k, model_id, psi_pattern, psi_floor):
    """Initial (pi, mu, lam, psi) from the k-means labels with one `eigh`
    per scatter and per K: lam holds the top-k eigenvectors of each
    cluster's scatter, or of the pooled scatter when the pattern shares
    the loadings, scaled by the root of their eigenvalues; psi is the
    rest of each scatter's diagonal under the pattern (`psi_pattern`),
    floored at psi_floor."""
    n, d = x.shape
    counts = np.bincount(labels, minlength=g).astype(np.float64)
    mu = np.zeros((g, d))
    np.add.at(mu, labels, x)
    mu /= counts[:, None]
    v = x - mu[labels]
    scatter = np.zeros((g, d, d))
    for j in range(g):
        vj = v[labels == j]
        scatter[j] = vj.T @ vj / counts[j]

    def top(w):
        vals, vecs = np.linalg.eigh(0.5 * (w + w.T))
        vals = np.clip(vals[::-1][:k], 0.0, None)
        return vecs[:, ::-1][:, :k] * np.sqrt(vals)[None, :]

    if model_id.lambda_constrained:
        pooled = np.einsum("g,gde->de", counts / n, scatter)
        lam = np.broadcast_to(top(pooled), (g, d, k)).copy()
    else:
        lam = np.stack([top(scatter[j]) for j in range(g)])
    idx = np.arange(d)
    psi_raw = scatter[:, idx, idx] - np.einsum("gdk,gdk->gd", lam, lam)
    psi = np.maximum(psi_pattern(model_id, psi_raw, counts), psi_floor)
    pi = counts / n
    return pi / pi.sum(), mu, lam, psi
