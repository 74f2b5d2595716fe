#!/usr/bin/env python3
"""Print the sha256 of every CLI artifact of a fixed set of commands.

The commands are the criterion-10 `simulate` and `fit` pair (the fit at
--threads 1 and 2), `evaluate` of the --threads 1 fit against the
simulated truth, a setting1 n=300 fit over G 1-3, K 1-2 and all
eight patterns, a setting3 n=800 fit over G 2-3, K 3-4, UUU and
CCC, shaped like the grid-select benchmark, so that the per-pair
guards are also covered on a larger grid, and a fit over G 1-2, K 1,
UUU of a small fixed counts table (`QUOTED_INPUT`, written by
`write_quoted_counts`) whose sample and variable ids hold commas,
quotes, CR and LF, so that the CSV writers' quoting is covered.  They
run in a temporary directory with relative paths, so the input path
that `report.json` records is the same on every run.
The echoed `threads` is dropped from `report.json` before hashing; the
rest of every artifact is hashed as written.

Running it on two checkouts turns "the CLI artifacts are byte-identical"
into one diff:

    python3 scripts/artifact_digest.py > after.txt
    python3 scripts/artifact_digest.py --src ../parent/src > before.txt
    diff before.txt after.txt

A change that moves fitted values in the last digits breaks that
identity.  `--values` prints instead every grid entry of every fit's
`report.json`, one line each: the report, G, K, model, iteration count
and the final bound at repr precision, then one line of the selected
fit's guard and clamp counters from its `diagnostics`.  Two such listings
agree when every line matches except the bound, and the bounds agree to
a relative tolerance; equal counter lines show that the guards took the
same decisions.  `--against FILE` makes that check against a saved
listing, with `--rtol` (default 1e-10) as the tolerance, and exits 1
naming each line that does not agree:

    python3 scripts/artifact_digest.py --values --src ../parent/src > before.txt
    python3 scripts/artifact_digest.py --values --against before.txt --rtol 1e-10
"""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The fixed counts table of `write_quoted_counts`, written before the commands run.
QUOTED_INPUT = "quoted.csv"

# Command lines, run in order; every file they write is digested.  The
# --threads 1 fit sits in fits/<replicate>/, the layout `evaluate` reads.
COMMANDS = (
    ["simulate", "--n", "150", "--d", "4", "--g", "2", "--k", "1",
     "--model", "UUU", "--seed", "11", "--replicates", "1", "--out-dir", "sim"],
    ["fit", "--input", "sim/counts_r000.csv", "--gmin", "1", "--gmax", "2",
     "--kmin", "1", "--kmax", "1", "--models", "UUU,CCC", "--seed", "0",
     "--threads", "1", "--out-dir", "fits/r000"],
    ["fit", "--input", "sim/counts_r000.csv", "--gmin", "1", "--gmax", "2",
     "--kmin", "1", "--kmax", "1", "--models", "UUU,CCC", "--seed", "0",
     "--threads", "2", "--out-dir", "fit_t2"],
    ["evaluate", "--fits", "fits", "--truth", "sim", "--out", "metrics.json"],
    ["simulate", "--preset", "setting1", "--n", "300", "--seed", "1", "--out-dir", "setting1"],
    ["fit", "--input", "setting1/counts_r000.csv", "--gmin", "1",
     "--gmax", "3", "--kmin", "1", "--kmax", "2", "--models", "all",
     "--seed", "1", "--threads", "2", "--out-dir", "fit_setting1"],
    ["simulate", "--preset", "setting3", "--n", "800", "--seed", "21", "--out-dir", "setting3"],
    ["fit", "--input", "setting3/counts_r000.csv", "--gmin", "2", "--gmax", "3",
     "--kmin", "3", "--kmax", "4", "--models", "UUU,CCC", "--threads", "2",
     "--out-dir", "fit_setting3"],
    ["fit", "--input", QUOTED_INPUT, "--gmin", "1", "--gmax", "2", "--kmin", "1",
     "--kmax", "1", "--models", "UUU", "--seed", "0", "--threads", "1",
     "--out-dir", "fit_quoted"],
)

# Counters of the selected fit's `diagnostics` that `--values` prints.
COUNTERS = ("exp_clamped", "s_guard_backtracks", "m_guard_backtracks")


def write_quoted_counts(path):
    """Write a fixed 40 x 3 counts table in two groups whose every sample
    and variable id holds a comma, a quote, CR or LF."""
    marks = (",", '"', "\r", "\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample,id", 'gene,"a"', "gene\rb", "gene\nc"])
        for i in range(40):
            high = i % 2
            writer.writerow([f"cell{marks[i % 4]}{i}",
                             *(4 + 20 * high + (i * (j + 3)) % 7 for j in range(3))])


def _digest(path):
    data = path.read_bytes()
    if path.name == "report.json":
        report = json.loads(data)
        report["config"].pop("threads")
        data = json.dumps(report, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def compare_values(listing, saved, rtol):
    """Where two `--values` listings disagree, as messages; empty when they
    agree.  Every line must match exactly, except that a grid entry's final
    bound (its last field) may differ from the saved one by at most rtol
    relative to it; a counter line has no such field."""
    problems = []
    if len(listing) != len(saved):
        problems.append(f"{len(listing)} lines against {len(saved)} saved")
    for no, (line, ref) in enumerate(zip(listing, saved), start=1):
        if line == ref:
            continue
        head, _, bound = line.rpartition(" ")
        ref_head, _, ref_bound = ref.rpartition(" ")
        try:
            close = abs(float(bound) - float(ref_bound)) <= rtol * abs(float(ref_bound))
        except ValueError:
            close = False
        if not (head == ref_head and close):
            problems.append(f"line {no}: {line!r} against saved {ref!r}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source directory of the checkout to run (default: this one)")
    parser.add_argument("--values", action="store_true",
                        help="print every grid entry's (G, K, model, n_iter, loglik) and the "
                             "selected fit's guard and clamp counters, not digests")
    parser.add_argument("--against", metavar="FILE",
                        help="with --values: compare the listing with a saved one and exit 1 "
                             "where a line differs or a bound differs beyond --rtol")
    parser.add_argument("--rtol", type=float, default=1e-10,
                        help="relative tolerance on the bounds for --against (default: 1e-10)")
    args = parser.parse_args(argv)
    if args.against and not args.values:
        parser.error("--against compares --values listings")
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        write_quoted_counts(Path(tmp) / QUOTED_INPUT)
        for command in COMMANDS:
            subprocess.run([sys.executable, "-m", "mplnfa", *command],
                           cwd=tmp, env=env, check=True, stdout=subprocess.DEVNULL)
        lines = []
        for path in sorted(Path(tmp).rglob("*")):
            if args.values and path.name == "report.json":
                report = json.loads(path.read_text(encoding="utf-8"))
                for e in report["grid"]:
                    lines.append(f"{path.relative_to(tmp)}  {e['g']} {e['k']} {e['model']} "
                                 f"{e['n_iter']} {e['loglik']!r}")
                lines.append(f"{path.relative_to(tmp)}  diagnostics "
                             + " ".join(f"{c}={report['diagnostics'][c]}" for c in COUNTERS))
            elif path.is_file() and not args.values:
                lines.append(f"{_digest(path)}  {path.relative_to(tmp)}")
    print("\n".join(lines))
    if args.against:
        saved = Path(args.against).read_text(encoding="utf-8").splitlines()
        problems = compare_values(lines, saved, args.rtol)
        for problem in problems:
            print(f"mismatch: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"{len(lines)} lines agree with {args.against} (bounds to rtol {args.rtol:g})",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
