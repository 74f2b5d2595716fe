#!/usr/bin/env python3
"""Print the sha256 of every CLI artifact of a fixed set of commands.

The commands are the criterion-10 `simulate` and `fit` pair (the fit at
--threads 1 and 2), `evaluate` of the --threads 1 fit against the
simulated truth, and a setting1 n=300 fit over G 1-3, K 1-2 and all
eight patterns.  They run in a temporary directory with relative paths,
so the input path that `report.json` records is the same on every run.
The echoed `threads` is dropped from `report.json` before hashing; the
rest of every artifact is hashed as written.

Running it on two checkouts turns "the CLI artifacts are byte-identical"
into one diff:

    python3 scripts/artifact_digest.py > after.txt
    python3 scripts/artifact_digest.py --src ../parent/src > before.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
)


def _digest(path):
    data = path.read_bytes()
    if path.name == "report.json":
        report = json.loads(data)
        report["config"].pop("threads")
        data = json.dumps(report, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source directory of the checkout to run (default: this one)")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            subprocess.run([sys.executable, "-m", "mplnfa", *command],
                           cwd=tmp, env=env, check=True, stdout=subprocess.DEVNULL)
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                print(f"{_digest(path)}  {path.relative_to(tmp)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
