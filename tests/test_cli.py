"""Command-line interface: pipeline wiring, exit codes, and rerun stability."""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from mplnfa import cli, em
from mplnfa.cli import main
from mplnfa.core import InputError, MixtureModel


def run_cli(*args):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    return exc.value.code


FIT_ARTIFACTS = (
    "report.json",
    "assignments.csv",
    "posteriors.csv",
    "elbo_trace.csv",
    "plot_data.csv",
)


def simulate_small(out_dir, replicates=2):
    # seed 11 draws two components far enough apart to cluster cleanly
    return run_cli(
        "simulate", "--n", "120", "--d", "4", "--g", "2", "--k", "1",
        "--model", "UUU", "--seed", "11", "--replicates", str(replicates),
        "--out-dir", str(out_dir),
    )


def fit_small(counts, out_dir, *extra):
    return run_cli(
        "fit", "--input", str(counts), "--gmin", "1", "--gmax", "2",
        "--kmin", "1", "--kmax", "1", "--models", "UUU", "--seed", "0",
        "--starts", "2", "--threads", "1", "--out-dir", str(out_dir), *extra,
    )


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------


def test_simulate_fit_evaluate_pipeline(tmp_path):
    sim = tmp_path / "sim"
    assert simulate_small(sim) == 0
    assert (sim / "params.json").exists()
    for r in range(2):
        assert (sim / f"counts_r{r:03d}.csv").exists()
        assert (sim / f"truth_r{r:03d}.json").exists()

    fits = tmp_path / "fits"
    for r in range(2):
        code = fit_small(sim / f"counts_r{r:03d}.csv", fits / f"r{r:03d}")
        assert code == 0
        for name in FIT_ARTIFACTS:
            assert (fits / f"r{r:03d}" / name).exists()

    assert run_cli("evaluate", "--fits", str(fits), "--truth", str(sim)) == 0
    with open(fits / "metrics.json", encoding="utf-8") as fh:
        metrics = json.load(fh)
    assert metrics["n_replicates"] == 2
    assert metrics["ari_mean"] >= 0.95
    assert metrics["recovery_replicates"] == 2
    assert sum(metrics["selection_counts"].values()) == 2
    assert len(metrics["per_replicate"]) == 2


def test_fit_report_contents(tmp_path):
    sim = tmp_path / "sim"
    simulate_small(sim, replicates=1)
    out = tmp_path / "fit"
    code = run_cli(
        "fit", "--input", str(sim / "counts_r000.csv"), "--gmin", "1", "--gmax", "2",
        "--kmin", "1", "--kmax", "1", "--models", "UUU,CCC", "--threads", "1",
        "--out-dir", str(out),
    )
    assert code == 0
    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert len(report["grid"]) == 4
    assert {e["model"] for e in report["grid"]} == {"UUU", "CCC"}
    assert report["config"]["models"] == ["UUU", "CCC"]
    assert report["input"]["n"] == 120
    assert report["selected"]["g"] == 2


def test_fit_records_a_failed_kmeans_start_and_selects_among_the_rest(tmp_path):
    # 30 identical rows: every G=2 k-means seeding empties a cluster, G=1 fits
    counts = tmp_path / "same.csv"
    row = ",".join(str(v) for v in (12, 3, 40, 7, 0, 25, 9, 16))
    counts.write_text(
        "sample_id," + ",".join(f"v{j}" for j in range(8)) + "\n"
        + "".join(f"s{i:02d},{row}\n" for i in range(30)),
        encoding="utf-8",
    )
    out = tmp_path / "fit"
    assert fit_small(counts, out) == 0
    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["selected"]["g"] == 1
    by_g = {e["g"]: e for e in report["grid"]}
    assert by_g[1]["error"] == ""
    assert "k-means produced an empty cluster" in by_g[2]["error"]
    assert by_g[2]["bic"] is None


# ---------------------------------------------------------------------------
# determinism of artifacts
# ---------------------------------------------------------------------------


def test_simulate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    simulate_small(a, replicates=1)
    simulate_small(b, replicates=1)
    for name in ("params.json", "counts_r000.csv", "truth_r000.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fit_rerun_is_byte_identical(tmp_path):
    sim = tmp_path / "sim"
    simulate_small(sim, replicates=1)
    counts = sim / "counts_r000.csv"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert fit_small(counts, out1) == 0
    assert fit_small(counts, out2) == 0
    for name in FIT_ARTIFACTS:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_fit_results_independent_of_thread_count(tmp_path):
    sim = tmp_path / "sim"
    simulate_small(sim, replicates=1)
    counts = sim / "counts_r000.csv"
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    run_cli("fit", "--input", str(counts), "--gmin", "1", "--gmax", "2",
            "--kmin", "1", "--kmax", "1", "--models", "UUU,CCC",
            "--threads", "1", "--out-dir", str(out1))
    run_cli("fit", "--input", str(counts), "--gmin", "1", "--gmax", "2",
            "--kmin", "1", "--kmax", "1", "--models", "UUU,CCC",
            "--threads", "2", "--out-dir", str(out2))
    with open(out1 / "report.json", encoding="utf-8") as fh:
        r1 = json.load(fh)
    with open(out2 / "report.json", encoding="utf-8") as fh:
        r2 = json.load(fh)
    # the recorded worker cap differs by construction; everything else must not
    assert r1["config"].pop("threads") == 1
    assert r2["config"].pop("threads") == 2
    assert r1 == r2
    for name in FIT_ARTIFACTS[1:]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_version_and_help_exit_zero(capsys):
    assert run_cli("--version") == 0
    assert "mplnfa" in capsys.readouterr().out
    assert run_cli("--help") == 0


def test_validation_failures_exit_one(tmp_path, capsys):
    # malformed flag combinations and inputs are all exit code 1
    single = tmp_path / "one.csv"
    single.write_text("id,a,b\ns1,1,2\n", encoding="utf-8")

    assert run_cli("simulate", "--replicates", "0", "--preset", "setting1",
                   "--out-dir", str(tmp_path / "x")) == 1
    assert run_cli("simulate", "--preset", "nope",
                   "--out-dir", str(tmp_path / "x")) == 1
    assert run_cli("simulate", "--preset", "setting1", "--d", "4",
                   "--out-dir", str(tmp_path / "x")) == 1
    assert run_cli("simulate", "--out-dir", str(tmp_path / "x")) == 1  # no shape
    assert run_cli("fit", "--input", str(single), "--out-dir", str(tmp_path / "x")) == 1
    assert run_cli("fit", "--input", str(tmp_path / "absent.csv"),
                   "--out-dir", str(tmp_path / "x")) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_negative_seed_exits_one(tmp_path, capsys):
    # numpy refuses negative seeds with a ValueError, which must not reach
    # the runtime-failure exit code
    counts = tmp_path / "c.csv"
    counts.write_text(
        "id,a,b\n" + "".join(f"s{i},{2 + i},{5 + i}\n" for i in range(8)),
        encoding="utf-8",
    )
    assert fit_small(counts, tmp_path / "fit", "--seed", "-1") == 1
    assert not (tmp_path / "fit").exists()
    for out, flags in (
        ("explicit", ("--n", "20", "--d", "3", "--g", "2", "--k", "1", "--model", "UUU",
                      "--seed", "-1")),
        ("preset", ("--preset", "setting1", "--seed", "-3")),
    ):
        assert run_cli("simulate", *flags, "--out-dir", str(tmp_path / out)) == 1
        assert not (tmp_path / out / "params.json").exists()
    assert "non-negative" in capsys.readouterr().err


def test_count_beyond_int64_exits_one(tmp_path, capsys):
    counts = tmp_path / "c.csv"
    counts.write_text(
        "id,a,b\n" + "".join(f"s{i},{2 + i},{5 + i}\n" for i in range(8))
        + "s8,1,99999999999999999999\n",
        encoding="utf-8",
    )
    assert fit_small(counts, tmp_path / "fit") == 1
    assert "line 10, column 'b'" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_kmax_above_dimension_exits_one(tmp_path):
    counts = tmp_path / "c.csv"
    counts.write_text(
        "id,a,b\n" + "".join(f"s{i},{2 + i},{5 + i}\n" for i in range(8)),
        encoding="utf-8",
    )
    assert run_cli("fit", "--input", str(counts), "--kmax", "5",
                   "--out-dir", str(tmp_path / "x")) == 1


def test_bad_model_code_exits_one(tmp_path):
    counts = tmp_path / "c.csv"
    counts.write_text(
        "id,a,b\n" + "".join(f"s{i},{2 + i},{5 + i}\n" for i in range(8)),
        encoding="utf-8",
    )
    assert run_cli("fit", "--input", str(counts), "--models", "XYZ",
                   "--out-dir", str(tmp_path / "x")) == 1


def test_evaluate_validation_exits_one(tmp_path):
    sim = tmp_path / "sim"
    simulate_small(sim, replicates=1)
    assert run_cli("evaluate", "--fits", str(tmp_path / "nofits"),
                   "--truth", str(sim)) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("evaluate", "--fits", str(empty), "--truth", str(empty)) == 1


def test_evaluate_pairs_fits_and_truths_by_replicate_number(tmp_path, capsys):
    # Fit directories r2 and r10 sort as r10, r2; each must still be
    # scored against its own truth file, not the one at its sorted position.
    sim, truth, fits = tmp_path / "sim", tmp_path / "truth", tmp_path / "fits"
    assert simulate_small(sim, replicates=11) == 0
    truth.mkdir()
    for r in (2, 10):
        shutil.copy(sim / f"truth_r{r:03d}.json", truth)
        assert fit_small(sim / f"counts_r{r:03d}.csv", fits / f"r{r}") == 0
    assert run_cli("evaluate", "--fits", str(fits), "--truth", str(truth)) == 0
    metrics = json.loads((fits / "metrics.json").read_text(encoding="utf-8"))
    pairs = [(e["fit"], e["truth"]) for e in metrics["per_replicate"]]
    assert pairs == [("r2", "truth_r002.json"), ("r10", "truth_r010.json")]
    assert min(e["ari"] for e in metrics["per_replicate"]) >= 0.95

    # a fit directory without a replicate number, or without a truth file
    for bad in ("final", "r3"):
        (fits / "r10").rename(fits / bad)
        capsys.readouterr()
        assert run_cli("evaluate", "--fits", str(fits), "--truth", str(truth)) == 1
        assert "error:" in capsys.readouterr().err
        (fits / bad).rename(fits / "r10")


@pytest.fixture(scope="module")
def scored_replicate(tmp_path_factory):
    """A simulated replicate and its fit, laid out for `evaluate`."""
    root = tmp_path_factory.mktemp("scored")
    assert simulate_small(root / "sim", replicates=1) == 0
    assert fit_small(root / "sim" / "counts_r000.csv", root / "fits" / "r000") == 0
    return root


def _bad_cluster_cell(root):
    path = root / "fits" / "r000" / "assignments.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    sid, _, post = lines[1].split(",")
    lines[1] = f"{sid},x,{post}"
    path.write_text("".join(lines), encoding="utf-8")


def _truncate(path):
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")


def _drop_selected(root):
    path = root / "fits" / "r000" / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    del report["selected"]
    path.write_text(json.dumps(report), encoding="utf-8")


@pytest.mark.parametrize("corrupt", [
    _bad_cluster_cell,
    lambda root: _truncate(root / "fits" / "r000" / "report.json"),
    lambda root: _truncate(root / "sim" / "truth_r000.json"),
    _drop_selected,
], ids=["cluster_cell", "truncated_report", "truncated_truth", "report_lacks_selected"])
def test_evaluate_malformed_input_exits_one(tmp_path, capsys, scored_replicate, corrupt):
    root = tmp_path / "copy"
    shutil.copytree(scored_replicate, root)
    assert run_cli("evaluate", "--fits", str(root / "fits"), "--truth", str(root / "sim")) == 0
    corrupt(root)
    capsys.readouterr()
    assert run_cli("evaluate", "--fits", str(root / "fits"), "--truth", str(root / "sim")) == 1
    assert "error:" in capsys.readouterr().err


def test_out_dir_collision_exits_two(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("in the way", encoding="utf-8")
    code = run_cli("simulate", "--preset", "setting1", "--n", "20",
                   "--out-dir", str(blocker))
    assert code == 2
    assert "failure:" in capsys.readouterr().err


def test_fit_whose_every_fitted_state_is_rejected_exits_two(tmp_path, capsys, monkeypatch):
    # a rejected fitted state is a runtime failure of its triple, not bad input
    sim = tmp_path / "sim"
    assert simulate_small(sim, replicates=1) == 0

    def reject(*args):
        raise InputError("synthetic rejection")

    monkeypatch.setattr(MixtureModel, "from_arrays", reject)
    capsys.readouterr()
    assert fit_small(sim / "counts_r000.csv", tmp_path / "fit") == 2
    assert "failure:" in capsys.readouterr().err


def test_interrupted_fit_exits_130(tmp_path, capsys, monkeypatch):
    # Ctrl-C reaches the command as KeyboardInterrupt, which click turns
    # into Abort, a RuntimeError with no message: not a runtime failure
    sim = tmp_path / "sim"
    assert simulate_small(sim, replicates=1) == 0

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "grid_search", interrupted)
    capsys.readouterr()
    assert fit_small(sim / "counts_r000.csv", tmp_path / "fit") == 130
    err = capsys.readouterr().err
    assert "interrupted" in err
    assert "failure:" not in err


def test_fit_whose_worker_process_dies_exits_two_without_hanging(tmp_path, capsys, monkeypatch):
    # A worker that dies breaks the pool: the command fails at runtime and
    # returns at once rather than waiting for a result that never comes,
    # and the spool directory of the pooled fits is removed all the same.
    sim = tmp_path / "sim"
    assert simulate_small(sim, replicates=1) == 0
    test_pid = os.getpid()
    real_run = em._run_em
    temp = tmp_path / "temp"
    temp.mkdir()
    seen = tmp_path / "spools_seen_by_the_dying_worker.txt"

    def die_at_two(*args):
        if args[4] == 2 and os.getpid() != test_pid:  # g; never end the test's own process
            seen.write_text(" ".join(p.name for p in temp.glob("mplnfa-*")), encoding="utf-8")
            os._exit(1)
        return real_run(*args)

    def hung(signum, frame):
        # pytest.fail raises a BaseException, which the exit-code mapping lets through
        pytest.fail("mplnfa fit still waits 60 s after its worker died")

    monkeypatch.setattr(em, "_run_em", die_at_two)
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        code = fit_small(sim / "counts_r000.csv", tmp_path / "fit", "--threads", "2")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert "failure:" in capsys.readouterr().err
    assert seen.read_text(encoding="utf-8").startswith("mplnfa-")
    assert list(temp.iterdir()) == []


def _running(pid):
    """Whether process `pid` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_fit_killed_outright_leaves_no_worker_running(tmp_path):
    # Workers check before each claim that the process that forked them is
    # still there, so a `mplnfa fit` killed outright stops its workers after
    # their current triple, not after the rest of the grid (80 triples of
    # 0.25 s each on two workers).
    sim = tmp_path / "sim"
    assert simulate_small(sim, replicates=1) == 0
    pids = tmp_path / "worker_pids.txt"
    temp = tmp_path / "temp"
    temp.mkdir()
    code = (
        "import os, sys, time\n"
        "from mplnfa import cli, em\n"
        "def recorded(*args):\n"
        f"    with open({str(pids)!r}, 'a', encoding='utf-8') as fh:\n"
        "        fh.write(f'{os.getpid()}\\n')\n"
        "    time.sleep(0.25)\n"
        "    raise em.NumericalError('synthetic failure')\n"
        "em._run_em = recorded\n"
        "cli.main(sys.argv[1:])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(em.__file__).parents[1]), TMPDIR=str(temp))
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "fit", "--input", str(sim / "counts_r000.csv"),
         "--gmax", "5", "--kmax", "2", "--threads", "2", "--out-dir", str(tmp_path / "fit")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        workers = set()
        while len(workers) < 2 and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
            if pids.exists():
                workers = set(pids.read_text(encoding="utf-8").split())
        assert len(workers) == 2
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 3
    while any(_running(int(pid)) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if _running(int(pid))]
    for pid in left:
        os.kill(int(pid), signal.SIGKILL)
    assert left == []
