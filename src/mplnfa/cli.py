"""Command-line interface: fit, simulate, evaluate.

Exit codes: 0 on success, 1 for validation problems (bad flags or
malformed input files), 2 for runtime failures, 130 when interrupted
(Ctrl-C).  All commands are deterministic given their flags; fitting
fans out over forked worker processes whose number is capped by
--threads (default: the number of CPUs the process may run on) without
affecting results.
"""

import re
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .core import ALL_MODELS, InputError, ModelId
from .em import FitConfig, grid_search
from .evaluate import ari, recovery_report
from .io import (
    NORMALIZE_MODES,
    _read_fit_dir,
    _read_truth,
    build_params,
    build_report,
    build_truth,
    read_counts,
    write_assignments,
    write_counts,
    write_plot_data,
    write_posteriors,
    write_report,
    write_traces,
)
from .simulate import PRESET_NAMES, generate, preset, random_config

__all__ = ["main", "cli"]


@click.group(name="mplnfa")
@click.version_option(version=__version__, prog_name="mplnfa")
def cli():
    """Cluster multivariate count data with mixtures of factor analyzers."""


def _parse_models(text):
    text = text.strip()
    if text.lower() == "all":
        return ALL_MODELS
    models = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            models.append(ModelId.from_string(tok))
    if not models:
        raise InputError("no model codes given")
    return tuple(models)


@cli.command(name="fit")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Counts CSV.")
@click.option("--gmin", default=1, show_default=True, help="Smallest number of components.")
@click.option("--gmax", default=3, show_default=True, help="Largest number of components.")
@click.option("--kmin", default=1, show_default=True, help="Smallest number of factors.")
@click.option("--kmax", default=2, show_default=True, help="Largest number of factors.")
@click.option(
    "--models",
    default="all",
    show_default=True,
    help="Comma-separated three-letter codes, or 'all'.",
)
@click.option(
    "--normalize",
    type=click.Choice(NORMALIZE_MODES),
    default="none",
    show_default=True,
    help="Exposure factors: constant, library-size, or user-supplied.",
)
@click.option("--factors", "factors_path", type=click.Path(), default=None,
              help="Factors CSV (sample_id, factor); required with --normalize file.")
@click.option("--seed", default=0, show_default=True, help="Seed for initialization.")
@click.option("--starts", default=3, show_default=True, help="k-means seedings per G.")
@click.option("--out-dir", "out_dir", required=True, type=click.Path(), help="Output directory.")
@click.option("--threads", default=None, type=int,
              help="Cap on the grid's worker processes "
                   "(default: the CPUs this process may run on).")
def fit_command(input_path, gmin, gmax, kmin, kmax, models, normalize, factors_path,
                seed, starts, out_dir, threads):
    """Fit the model grid to a counts CSV and select by BIC."""
    data, factors = read_counts(input_path, normalize=normalize, factors_path=factors_path)
    if data.n < 2:
        raise InputError("need at least two samples to fit")
    config = FitConfig(
        g_range=(gmin, gmax),
        k_range=(kmin, kmax),
        models=_parse_models(models),
        n_starts=starts,
        seed=seed,
    )

    result = grid_search(data, factors, config, threads=threads)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = build_report(result, data, config, input_path, normalize, threads, __version__)
    write_report(out / "report.json", report)
    write_assignments(out / "assignments.csv", data, result.best)
    write_posteriors(out / "posteriors.csv", data, result.best)
    write_traces(out / "elbo_trace.csv", result.entries)
    write_plot_data(out / "plot_data.csv", data, factors, result.best)
    best = result.best
    click.echo(
        f"selected G={best.g} K={best.k} model={best.model_id} "
        f"(BIC {best.bic:.3f}, ICL {best.icl:.3f}); artifacts in {out}"
    )


@cli.command(name="simulate")
@click.option("--preset", "preset_name", type=click.Choice(PRESET_NAMES), default=None,
              help="Documented setting; excludes the explicit shape flags.")
@click.option("--n", default=1000, show_default=True, help="Samples per replicate.")
@click.option("--d", default=None, type=int, help="Dimension (explicit mode).")
@click.option("--g", default=None, type=int, help="Components (explicit mode).")
@click.option("--k", default=None, type=int, help="Factors (explicit mode).")
@click.option("--model", default=None, help="Three-letter code (explicit mode).")
@click.option("--replicates", default=1, show_default=True, help="Datasets to draw.")
@click.option("--seed", default=0, show_default=True, help="Dataset seed.")
@click.option("--out-dir", "out_dir", required=True, type=click.Path(), help="Output directory.")
def simulate_command(preset_name, n, d, g, k, model, replicates, seed, out_dir):
    """Draw synthetic datasets with known structure.

    With --preset, parameters follow one of the documented settings.
    Otherwise --d/--g/--k/--model are required and the remaining
    parameters are drawn reproducibly from the seed.
    """
    if replicates < 1:
        raise InputError("--replicates must be at least 1")
    if preset_name is not None:
        if any(v is not None for v in (d, g, k, model)):
            raise InputError("--preset excludes --d/--g/--k/--model")
        config = preset(preset_name, n=n, seed=seed)
    else:
        if any(v is None for v in (d, g, k, model)):
            raise InputError("explicit mode requires --d, --g, --k and --model")
        config = random_config(n=n, d=d, g=g, k=k, model_id=model, seed=seed)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(out / "params.json", build_params(preset_name, config, replicates))
    for r in range(replicates):
        data, labels, truth = generate(config, replicate=r)
        write_counts(out / f"counts_r{r:03d}.csv", data)
        write_report(out / f"truth_r{r:03d}.json", build_truth(r, config.seed, labels, truth))
    click.echo(f"wrote {replicates} replicate(s) to {out}")


def _by_replicate(paths):
    """{replicate number: path}, the number being the integer that ends
    the name (a fit directory `r10`, a truth file `truth_r010.json`)."""
    out = {}
    for path in paths:
        match = re.search(r"(\d+)$", path.name.removesuffix(".json"))
        if match is None:
            raise InputError(f"{path}: name does not end in a replicate number")
        r = int(match.group(1))
        if r in out:
            raise InputError(f"{out[r]} and {path} are both replicate {r}")
        out[r] = path
    return out


@cli.command(name="evaluate")
@click.option("--fits", "fits_dir", required=True, type=click.Path(), help="Directory of per-replicate fit directories.")
@click.option("--truth", "truth_dir", required=True, type=click.Path(), help="Directory with truth_r*.json files.")
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="Metrics JSON path (default: <fits>/metrics.json).")
def evaluate_command(fits_dir, truth_dir, out_path):
    """Score fitted replicates against simulation ground truth."""
    fits_dir = Path(fits_dir)
    truth_dir = Path(truth_dir)
    if not fits_dir.is_dir():
        raise InputError(f"not a directory: {fits_dir}")
    if not truth_dir.is_dir():
        raise InputError(f"not a directory: {truth_dir}")
    fit_dirs = _by_replicate(
        p for p in fits_dir.iterdir() if p.is_dir() and (p / "report.json").exists())
    truth_files = _by_replicate(truth_dir.glob("truth_r*.json"))
    if not truth_files:
        raise InputError(f"no truth_r*.json files in {truth_dir}")
    if len(fit_dirs) != len(truth_files):
        raise InputError(
            f"replicate mismatch: {len(fit_dirs)} fit directories vs "
            f"{len(truth_files)} truth files"
        )

    per_replicate = []
    aris = []
    selection = {}
    matched_fits = []
    matched_truths = []
    for r, fdir in sorted(fit_dirs.items()):
        if r not in truth_files:
            raise InputError(f"no truth file for replicate {r} ({fdir}) in {truth_dir}")
        tfile = truth_files[r]
        sel, fit_model, assignments = _read_fit_dir(fdir)
        labels, truth_model = _read_truth(tfile)
        if len(labels) != len(assignments):
            raise InputError(f"{fdir} and {tfile} disagree on sample count")
        score = ari(labels, assignments)
        aris.append(score)
        key = f"G{sel['g']}K{sel['k']}{sel['model']}"
        selection[key] = selection.get(key, 0) + 1
        per_replicate.append({"fit": fdir.name, "truth": tfile.name, "ari": score, "selected": sel})
        if fit_model.g == truth_model.g and fit_model.d == truth_model.d:
            matched_fits.append(fit_model)
            matched_truths.append(truth_model)

    recovery = None
    if matched_fits:
        recovery = recovery_report(matched_fits, matched_truths).to_dict()
    metrics = {
        "n_replicates": len(aris),
        "ari_mean": float(np.mean(aris)),
        "ari_sd": float(np.std(aris)),
        "per_replicate": per_replicate,
        "selection_counts": dict(sorted(selection.items())),
        "recovery_replicates": len(matched_fits),
        "recovery": recovery,
    }
    out_path = Path(out_path) if out_path else fits_dir / "metrics.json"
    write_report(out_path, metrics)
    click.echo(
        f"{len(aris)} replicate(s): mean ARI {metrics['ari_mean']:.4f} "
        f"(sd {metrics['ari_sd']:.4f}); metrics in {out_path}"
    )


def main(argv=None):
    """Entry point applying the exit-code contract."""
    try:
        cli.main(args=argv, prog_name="mplnfa", standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except click.exceptions.Abort:  # click's form of KeyboardInterrupt
        click.echo("interrupted", err=True)
        sys.exit(130)
    except Exception as exc:  # runtime failure, distinct from bad input
        click.echo(f"failure: {exc}", err=True)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
