"""The two workloads: their inputs, drawn from a seed, and their fit flags.

Every input is a counts CSV that `mplnfa fit` reads; nothing else
passes from the benchmark to the program.  A workload has several fit
inputs, the replicates 0, 1, ... of one simulation config, so that a
run's figures average over draws instead of resting on one.  See
README.md for why each workload was chosen.

numpy and the package are imported inside the functions, so that run.py
can set the BLAS thread count before OpenBLAS is loaded.  Run
as a script, the module does one set-up in a fresh interpreter, which is
what `setup_s` times:

    PYTHONPATH=src python3 bench/workloads.py <workload> <seed> <out-dir>
"""

import dataclasses
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Sizes: rows of each grid-select input, (n, d) of each wide-fit input, and
# the number of fit inputs of each.
GRID_N, GRID_INPUTS = 800, 7
WIDE_SHAPE, WIDE_INPUTS = (100, 40), 6
# wide-fit draws its mixture parameters once from this seed; --seed draws
# the samples, so every seed poses the same problem.
WIDE_PARAM_SEED = 0
# Counts of the one row that the known-fault input repeats 30 times.
IDENTICAL_ROW = (12, 3, 40, 7, 0, 25, 9, 16)


@dataclass
class Dataset:
    """The input of one `mplnfa fit` call and what its output must match."""

    name: str
    flags: tuple  # fit flags other than --input, --out-dir, --threads and --seed
    y: object  # the (n, d) counts
    exposures: object  # the (n,) factors the fit should derive
    labels: object  # generating labels, for the ARI of a fit that selects their G; or None
    expected: object  # the (G, K, model) selection must equal, or None
    known_fault: bool = False


@dataclass(frozen=True)
class Workload:
    workers: int  # --threads of every fit call
    make: object  # (seed, timer) -> (fit inputs, known-fault input or None), each
    #               input a (Dataset, CountMatrix) pair


def _replicates(config, count, timer):
    """The first `count` replicates of `config`: [(CountMatrix, labels)]."""
    from mplnfa import simulate

    return [timer(simulate.generate, config, r)[:2] for r in range(count)]


def _grid_select(seed, timer):
    import numpy as np

    from mplnfa import core, simulate

    config = simulate.preset("setting3", n=GRID_N, seed=seed)
    flags = ("--gmin", "2", "--gmax", "3", "--kmin", "3", "--kmax", "4",
             "--models", "UUU,CCC")
    # No expected triple: BIC may pick a simpler pattern than the generating
    # (3, 4, UUU) on a draw, which is no fault of the fitter.  On some draws
    # the k-means start leaves G=3 in a poor optimum and BIC then selects G=2
    # (CHANGES.md, FOUND), so run.py checks the ARI only of draws that select
    # the generating G, and that most draws do.
    fits = [(Dataset(f"setting3-r{r}", flags, data.values, np.ones(data.n), labels, None), data)
            for r, (data, labels) in enumerate(_replicates(config, GRID_INPUTS, timer))]
    rows = np.tile(np.asarray(IDENTICAL_ROW, dtype=np.int64), (30, 1))
    same = core.CountMatrix(values=rows,
                            sample_ids=tuple(f"s{i:02d}" for i in range(30)),
                            var_ids=tuple(f"v{j}" for j in range(rows.shape[1])))
    fault_flags = ("--gmin", "1", "--gmax", "2", "--kmin", "1", "--kmax", "1", "--models", "UUU")
    fault = (Dataset("identical_rows", fault_flags, rows, np.ones(30), None, (1, 1, "UUU"),
                     known_fault=True), same)
    return fits, fault


def _wide_fit(seed, timer):
    import numpy as np

    from mplnfa import simulate

    config = simulate.random_config(n=WIDE_SHAPE[0], d=WIDE_SHAPE[1], g=3, k=3,
                                    model_id="UUU", seed=WIDE_PARAM_SEED)
    config = dataclasses.replace(config, seed=seed)
    flags = ("--gmin", "3", "--gmax", "3", "--kmin", "3", "--kmax", "3", "--models", "UUU")
    # No ARI check: on some draws the k-means start leaves the fit in a poor
    # optimum (CHANGES.md, FOUND).
    return [(Dataset(f"wide-r{r}", flags, data.values, np.ones(data.n), None, (3, 3, "UUU")), data)
            for r, (data, _) in enumerate(_replicates(config, WIDE_INPUTS, timer))], None


# grid-select runs two pool workers on the two-core reference machine;
# wide-fit runs no pool.  run.py holds BLAS to one thread.
WORKLOADS = {
    "grid-select": Workload(2, _grid_select),
    "wide-fit": Workload(1, _wide_fit),
}


def set_up(workload, seed, work_dir):
    """Draw the inputs and write one CSV per input.

    Returns (fit inputs, known-fault input or None, seconds spent inside
    simulate.generate).
    """
    from mplnfa import io

    spent = []

    def timer(fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        spent.append(time.perf_counter() - t0)
        return result

    fits, fault = workload.make(seed, timer)
    for ds, data in [*fits, *filter(None, [fault])]:
        io.write_counts(work_dir / f"{ds.name}.csv", data)
    return [ds for ds, _ in fits], fault and fault[0], sum(spent)


if __name__ == "__main__":
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    out.mkdir(parents=True, exist_ok=True)
    set_up(WORKLOADS[name], seed, out)
