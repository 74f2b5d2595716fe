"""File formats: every file the command line reads or writes.

Counts travel as UTF-8 CSV with a header row; the first column holds
sample identifiers and every other cell a nonnegative integer.  A fit
writes `report.json`, `assignments.csv`, `posteriors.csv`,
`elbo_trace.csv` and `plot_data.csv`; a simulation `counts_r*.csv`,
`params.json` and `truth_r*.json`; an evaluation `metrics.json`.  The
JSON artifacts, all written by `write_report`, have a stable field order
and no volatile fields, so reruns produce byte-identical artifacts.
`_read_fit_dir` and `_read_truth` read what `evaluate` scores.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .core import CountMatrix, InputError, MixtureModel, ModelId, NormalizationFactors

__all__ = [
    "read_counts",
    "write_counts",
    "read_factors_file",
    "build_report",
    "build_params",
    "build_truth",
    "write_report",
    "write_assignments",
    "write_posteriors",
    "write_traces",
    "write_plot_data",
]

NORMALIZE_MODES = ("none", "libsize", "file")


def _read_rows(path):
    path = Path(path)
    if not path.exists():
        raise InputError(f"file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8: {exc}") from None
    if not rows:
        raise InputError(f"{path} is empty")
    return rows


def read_counts(path, normalize="none", factors_path=None):
    """Load a count matrix and derive per-sample exposure factors.

    Parameters
    ----------
    path : str or Path
        CSV with a header row; first column sample ids, remaining
        columns integer counts.
    normalize : {"none", "libsize", "file"}
        "none" sets every factor to 1; "libsize" uses row totals
        divided by their median; "file" reads factors from
        `factors_path` (CSV with header, columns sample_id, factor).

    Returns (CountMatrix, NormalizationFactors).
    """
    rows = _read_rows(path)
    header = rows[0]
    if len(header) < 2:
        raise InputError(
            f"{path}: header must name a sample-id column and at least one count column"
        )
    var_ids = tuple(h.strip() for h in header[1:])
    sample_ids = []
    values = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise InputError(
                f"{path}, line {r}: expected {len(header)} fields, found {len(row)}"
            )
        sample_ids.append(row[0].strip())
        parsed = []
        for j, tok in enumerate(row[1:]):
            try:
                v = int(tok.strip())
            except ValueError:
                raise InputError(
                    f"{path}, line {r}, column {var_ids[j]!r}: {tok!r} is not an integer"
                ) from None
            if v < 0:
                raise InputError(
                    f"{path}, line {r}, column {var_ids[j]!r}: counts must be nonnegative"
                )
            parsed.append(v)
        values.append(parsed)
    if not values:
        raise InputError(f"{path}: no data rows")
    data = CountMatrix(
        values=np.asarray(values, dtype=np.int64), sample_ids=tuple(sample_ids), var_ids=var_ids
    )

    normalize = str(normalize).strip().lower()
    if normalize not in NORMALIZE_MODES:
        raise InputError(
            f"unknown normalization mode {normalize!r}; expected one of {NORMALIZE_MODES}"
        )
    if normalize == "none":
        factors = NormalizationFactors.ones(data.n)
    elif normalize == "libsize":
        totals = data.values.sum(axis=1).astype(np.float64)
        if np.any(totals == 0):
            bad = data.sample_ids[int(np.argmin(totals))]
            raise InputError(
                f"sample {bad!r} has zero total count; libsize normalization is undefined"
            )
        factors = NormalizationFactors(totals / np.median(totals))
    else:
        if factors_path is None:
            raise InputError("normalization mode 'file' requires a factors file")
        factors = read_factors_file(factors_path, data.sample_ids)
    return data, factors


def read_factors_file(path, sample_ids):
    """Exposure factors from a two-column CSV, aligned to sample_ids."""
    rows = _read_rows(path)
    if len(rows[0]) < 2:
        raise InputError(f"{path}: expected columns (sample_id, factor)")
    table = {}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) < 2:
            raise InputError(f"{path}, line {r}: expected two fields")
        sid = row[0].strip()
        if sid in table:
            raise InputError(f"{path}, line {r}: duplicate sample id {sid!r}")
        try:
            val = float(row[1])
        except ValueError:
            raise InputError(
                f"{path}, line {r}: {row[1]!r} is not a number"
            ) from None
        if not np.isfinite(val) or val <= 0:
            raise InputError(f"{path}, line {r}: factors must be positive, got {row[1]!r}")
        table[sid] = val
    missing = [s for s in sample_ids if s not in table]
    if missing:
        raise InputError(f"{path}: missing factors for samples {missing[:5]!r}")
    extra = [s for s in table if s not in set(sample_ids)]
    if extra:
        raise InputError(f"{path}: factors for unknown samples {extra[:5]!r}")
    return NormalizationFactors(np.array([table[s] for s in sample_ids]))


def write_counts(path, data):
    """Write a CountMatrix in the format `read_counts` accepts."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", *data.var_ids])
        for i, sid in enumerate(data.sample_ids):
            writer.writerow([sid, *map(int, data.values[i])])


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# run reports and derived artifacts
# ---------------------------------------------------------------------------


def _model_dict(model):
    return {
        "g": model.g,
        "k": model.k,
        "model": str(model.model_id),
        "pi": model.pi.tolist(),
        "components": [
            {"mu": c.mu.tolist(), "lambda": c.lam.tolist(), "psi": c.psi.tolist()}
            for c in model.components
        ],
    }


def _model_from_dict(params):
    """The MixtureModel that `_model_dict` wrote."""
    comps = params["components"]
    return MixtureModel.from_arrays(
        params["g"], params["k"], ModelId.from_string(params["model"]), params["pi"],
        np.asarray([c["mu"] for c in comps]), np.asarray([c["lambda"] for c in comps]),
        np.asarray([c["psi"] for c in comps]),
    )


def build_report(result, data, config, input_path, normalize, threads, version):
    """Assemble the run report for a grid-search result.

    Field order is fixed; no timestamps or environment-dependent
    values are included, keeping reruns byte-identical.
    """
    best = result.best
    return {
        "version": version,
        "input": {
            "path": str(input_path),
            "sha256": sha256_file(input_path) if input_path else "",
            "n": data.n,
            "d": data.d,
            "normalize": normalize,
        },
        "config": {
            "g_range": list(config.g_range),
            "k_range": list(config.k_range),
            "models": [str(m) for m in config.models],
            "n_starts": config.n_starts,
            "max_outer": config.max_outer,
            "tol_outer": config.tol_outer,
            "seed": config.seed,
            "threads": threads,
        },
        "selected": {
            "g": best.g,
            "k": best.k,
            "model": str(best.model_id),
            "bic": best.bic,
            "icl": best.icl,
            "loglik": best.loglik_approx,
            "free_params": best.free_params,
            "converged": best.converged,
            "n_iter": best.n_iter,
        },
        "selected_by_icl": {
            "g": result.best_icl.g,
            "k": result.best_icl.k,
            "model": str(result.best_icl.model_id),
            "icl": result.best_icl.icl,
        },
        "parameters": _model_dict(best.model),
        "diagnostics": dict(best.diagnostics),
        "grid": [
            {
                "g": e.g,
                "k": e.k,
                "model": str(e.model_id),
                "bic": None if not np.isfinite(e.bic) else e.bic,
                "icl": None if not np.isfinite(e.icl) else e.icl,
                "loglik": None if not np.isfinite(e.loglik) else e.loglik,
                "converged": e.converged,
                "degenerate": e.degenerate,
                "n_iter": e.n_iter,
                "error": e.error,
            }
            for e in result.entries
        ],
    }


def build_params(preset_name, config, replicates):
    """The `params.json` record of a simulation run."""
    return {
        "preset": preset_name or "",
        "n": config.n,
        "seed": config.seed,
        "replicates": replicates,
        "model": _model_dict(config.to_model()),
    }


def build_truth(replicate, seed, labels, model):
    """The `truth_r*.json` record of one simulated replicate."""
    return {
        "replicate": replicate,
        "seed": seed,
        "labels": [int(v) for v in labels],
        "model": _model_dict(model),
    }


def write_report(path, report):
    """Write a JSON artifact: two-space indent, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _read_json(path, fields):
    """fields(the JSON in path); a malformed file or field is an InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fields(json.load(fh))
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # decode errors are ValueErrors
        raise InputError(f"{path}: malformed JSON or field: {exc!r}") from None


def _read_fit_dir(path):
    """(selected {g, k, model}, fitted MixtureModel, hard labels) of a fit directory."""
    report_path, assign_path = path / "report.json", path / "assignments.csv"
    selected, model = _read_json(report_path, lambda report: (
        {key: report["selected"][key] for key in ("g", "k", "model")},
        _model_from_dict(report["parameters"]),
    ))
    labels = []
    for r, row in enumerate(_read_rows(assign_path)[1:], start=2):
        try:
            labels.append(int(row[1]))
        except (IndexError, ValueError):
            raise InputError(f"{assign_path}, line {r}: cluster must be an integer") from None
    return selected, model, np.asarray(labels)


def _read_truth(path):
    """(labels, MixtureModel) of a `truth_r*.json` file."""
    return _read_json(path, lambda t: (np.asarray(t["labels"]), _model_from_dict(t["model"])))


def write_assignments(path, data, fit):
    """sample_id, hard cluster, and its posterior probability."""
    zhat = fit.state.zhat
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "cluster", "posterior"])
        for i, sid in enumerate(data.sample_ids):
            g = int(fit.assignments[i])
            writer.writerow([sid, g, f"{zhat[i, g]:.10g}"])


def write_posteriors(path, data, fit):
    """Full responsibility matrix, one row per sample."""
    zhat = fit.state.zhat
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", *(f"g{j}" for j in range(zhat.shape[1]))])
        for i, sid in enumerate(data.sample_ids):
            writer.writerow([sid, *(f"{v:.10g}" for v in zhat[i])])


def write_traces(path, entries):
    """Long-format objective traces for every grid triple."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["g", "k", "model", "iteration", "elbo"])
        for e in entries:
            for t, val in enumerate(e.elbo_trace):
                writer.writerow([e.g, e.k, str(e.model_id), t, f"{val:.10g}"])


def write_plot_data(path, data, factors, fit):
    """Long-format exposure-adjusted log counts with cluster labels."""
    x = np.log1p(data.values.astype(np.float64)) - np.log(factors.c)[:, None]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "cluster", "variable", "value"])
        for i, sid in enumerate(data.sample_ids):
            g = int(fit.assignments[i])
            for j, vid in enumerate(data.var_ids):
                writer.writerow([sid, g, vid, f"{x[i, j]:.10g}"])
