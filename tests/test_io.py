"""CSV/JSON input and output: parsing, validation, and artifact stability."""

import csv
import dataclasses
import json
import time
import types

import numpy as np
import pytest

from mplnfa.core import ALL_MODELS, InputError, ModelId, NormalizationFactors
from mplnfa.em import FitConfig, grid_search
from mplnfa.io import (
    _floats,
    _model_dict,
    _model_from_dict,
    build_report,
    read_counts,
    read_factors_file,
    sha256_file,
    write_assignments,
    write_counts,
    write_plot_data,
    write_posteriors,
    write_report,
    write_traces,
)
from mplnfa.simulate import random_config

from conftest import make_counts, unit_factors


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# reading counts
# ---------------------------------------------------------------------------


def test_read_counts_happy_path(tmp_path):
    p = _write(tmp_path / "c.csv", "sample_id,gA,gB\ns1,3,0\ns2,10,7\n")
    data, factors = read_counts(p)
    np.testing.assert_array_equal(data.values, [[3, 0], [10, 7]])
    assert data.sample_ids == ("s1", "s2")
    assert data.var_ids == ("gA", "gB")
    np.testing.assert_array_equal(factors.c, np.ones(2))


def test_read_counts_libsize_factors(tmp_path):
    p = _write(tmp_path / "c.csv", "id,a,b\nr1,60,40\nr2,150,50\nr3,300,100\n")
    _, factors = read_counts(p, normalize="libsize")
    # row totals 100, 200, 400; median 200
    np.testing.assert_allclose(factors.c, [0.5, 1.0, 2.0], rtol=1e-15)


def test_read_counts_libsize_totals_beyond_int64(tmp_path):
    # the first row's total, 1e19, is past the int64 range
    p = _write(tmp_path / "c.csv",
               "id,a,b\ns1,5000000000000000000,5000000000000000000\ns2,1,2\ns3,3,4\n")
    _, factors = read_counts(p, normalize="libsize")
    np.testing.assert_allclose(factors.c, [1e19 / 7, 3 / 7, 1.0], rtol=1e-15)


def test_read_counts_file_mode_aligns_by_sample(tmp_path):
    counts = _write(tmp_path / "c.csv", "id,a\ns1,5\ns2,6\n")
    fac = _write(tmp_path / "f.csv", "sample_id,factor\ns2,2.0\ns1,0.25\n")
    _, factors = read_counts(counts, normalize="file", factors_path=fac)
    np.testing.assert_array_equal(factors.c, [0.25, 2.0])


def test_read_counts_error_names_offending_cell(tmp_path):
    p = _write(tmp_path / "c.csv", "id,geneA,geneB\ns1,1,2\ns2,3.5,4\n")
    with pytest.raises(InputError) as exc:
        read_counts(p)
    msg = str(exc.value)
    assert "line 3" in msg and "geneA" in msg and "3.5" in msg


def test_read_counts_rejects_negative(tmp_path):
    p = _write(tmp_path / "c.csv", "id,a\ns1,-2\n")
    with pytest.raises(InputError, match="nonnegative"):
        read_counts(p)


def test_read_counts_rejects_ragged_rows(tmp_path):
    p = _write(tmp_path / "c.csv", "id,a,b\ns1,1,2\ns2,3\n")
    with pytest.raises(InputError, match="line 3"):
        read_counts(p)


@pytest.mark.parametrize("body, line", [
    ("s1,1,2\ns2,x,2\ns3,1,2\ns4,1\n", 3),  # a bad token before a ragged row
    ("s1,1,2\ns2,1\ns3,-1,2\n", 3),  # a ragged row before a negative count
    ("s1,1,-2\ns2,x,2\n", 2),  # a negative count before a bad token
    ("s1,1,2\ns2,99999999999999999999,2\ns3,x\n", 3),  # an overflow before a ragged row
    pytest.param(f"s1,x,2\ns2,{'9' * (csv.field_size_limit() + 1)},2\n", 2,
                 id="a bad token before a field over the csv size limit"),
    # a quoted id holding LF spans lines 2 and 3, so the next row's fault is
    # on line 4 whether the parser or the csv reader finds it
    ('"s\n1",1,2\ns2,x,2\n', 4),
    pytest.param(f'"s\n1",1,2\ns2,{"9" * (csv.field_size_limit() + 1)},2\n', 4,
                 id="a field over the csv size limit after a quoted LF"),
])
def test_read_counts_reports_the_first_fault_in_row_order(tmp_path, body, line):
    p = _write(tmp_path / "c.csv", "id,a,b\n" + body)
    with pytest.raises(InputError, match=rf"line {line}\b"):
        read_counts(p)


def test_read_counts_accepts_what_strip_then_int_accepts(tmp_path):
    # int() alone rejects the separator controls that str.strip() removes
    p = _write(tmp_path / "c.csv", "id,a,b\ns1,\x1c5,2\ns2, 7 ,3\n")
    data, _ = read_counts(p)
    np.testing.assert_array_equal(data.values, [[5, 2], [7, 3]])


def test_read_counts_rejects_counts_beyond_int64(tmp_path):
    p = _write(tmp_path / "c.csv", "id,a,b\ns1,1,2\ns2,3,99999999999999999999\n")
    with pytest.raises(InputError, match=r"line 3, column 'b': '99999999999999999999' exceeds"):
        read_counts(p)
    top = np.iinfo(np.int64).max
    data, _ = read_counts(_write(tmp_path / "top.csv", f"id,a\ns1,{top}\n"))
    assert data.values[0, 0] == top


def test_fields_over_the_csv_size_limit_are_input_errors(tmp_path):
    big = "9" * (csv.field_size_limit() + 1)
    counts = _write(tmp_path / "c.csv", f"id,a\ns1,1\ns2,{big}\n")
    with pytest.raises(InputError, match=r"c\.csv, line 3: field larger than field limit"):
        read_counts(counts)
    ok = _write(tmp_path / "ok.csv", "id,a\ns1,1\ns2,2\n")
    factors = _write(tmp_path / "f.csv", f"sample_id,factor\ns1,1.0\ns2,{big}\n")
    with pytest.raises(InputError, match=r"f\.csv, line 3: field larger than field limit"):
        read_counts(ok, normalize="file", factors_path=factors)


def test_read_counts_rejects_structural_problems(tmp_path):
    with pytest.raises(InputError, match="not found"):
        read_counts(tmp_path / "missing.csv")
    with pytest.raises(InputError, match="empty"):
        read_counts(_write(tmp_path / "e.csv", ""))
    with pytest.raises(InputError, match="header"):
        read_counts(_write(tmp_path / "h.csv", "just_ids\ns1\n"))
    with pytest.raises(InputError, match="no data rows"):
        read_counts(_write(tmp_path / "n.csv", "id,a,b\n"))


def test_read_counts_rejects_duplicate_sample_ids(tmp_path):
    p = _write(tmp_path / "c.csv", "id,a\ns1,1\ns1,2\n")
    with pytest.raises(InputError, match="unique"):
        read_counts(p)


def test_read_counts_libsize_rejects_zero_total(tmp_path):
    p = _write(tmp_path / "c.csv", "id,a,b\ns1,1,2\nempty,0,0\n")
    with pytest.raises(InputError, match="empty"):
        read_counts(p, normalize="libsize")


def test_read_counts_unknown_mode(tmp_path):
    p = _write(tmp_path / "c.csv", "id,a\ns1,1\n")
    with pytest.raises(InputError, match="normalization"):
        read_counts(p, normalize="median-of-ratios")
    with pytest.raises(InputError, match="factors file"):
        read_counts(p, normalize="file")


# ---------------------------------------------------------------------------
# factor files
# ---------------------------------------------------------------------------


def test_factors_file_validation(tmp_path):
    def check(text, pattern):
        f = _write(tmp_path / "f.csv", text)
        with pytest.raises(InputError, match=pattern):
            read_factors_file(f, ("s1", "s2"))

    check("sample_id,factor\ns1,1.0\ns1,2.0\n", "duplicate")
    check("sample_id,factor\ns1,1.0\n", "missing")
    check("sample_id,factor\ns1,1.0\ns2,1.0\ns9,1.0\n", "unknown")
    check("sample_id,factor\ns1,abc\ns2,1.0\n", "not a number")
    check("sample_id,factor\ns1,0\ns2,1.0\n", "positive")
    check("sample_id,factor\ns1,-1\ns2,1.0\n", "positive")


def test_factors_file_read_is_linear_in_samples(tmp_path):
    # the read must stay linear in the samples: rebuilding the id set for
    # every row made this file take about 24 s on a 2-core machine
    ids = [f"s{i}" for i in range(20_000)]
    f = _write(tmp_path / "f.csv", "sample_id,factor\n" + "".join(f"{s},1.5\n" for s in ids))
    start = time.perf_counter()
    factors = read_factors_file(f, ids)
    assert time.perf_counter() - start < 5.0
    np.testing.assert_array_equal(factors.c, np.full(20_000, 1.5))


# ---------------------------------------------------------------------------
# round trips and hashing
# ---------------------------------------------------------------------------


def test_counts_round_trip_bit_exact(tmp_path, rng):
    data = make_counts(
        rng.poisson(8.0, size=(12, 4)),
        sample_ids=[f"sm{i}" for i in range(12)],
        var_ids=["w", "x", "y", "z"],
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_counts(p1, data)
    loaded, _ = read_counts(p1)
    np.testing.assert_array_equal(loaded.values, data.values)
    assert loaded.sample_ids == data.sample_ids
    assert loaded.var_ids == data.var_ids
    write_counts(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_sha256_file_known_value(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"abc")
    assert sha256_file(p) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


# ---------------------------------------------------------------------------
# run reports
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_grid():
    rng = np.random.default_rng(55)
    labels = np.repeat([0, 1], 30)
    x = np.where(labels[:, None] == 0, 2.0, 5.0) + 0.3 * rng.standard_normal((60, 3))
    data = make_counts(rng.poisson(np.exp(x)))
    factors = unit_factors(60)
    cfg = FitConfig(
        g_range=(1, 2), k_range=(1, 1),
        models=(ModelId.from_string("UUU"), ModelId.from_string("CCC")),
        n_starts=2, max_outer=40, tol_outer=1e-6, seed=3,
    )
    result = grid_search(data, factors, cfg, threads=1)
    return data, factors, cfg, result


def test_build_report_structure(tmp_path, small_grid):
    data, factors, cfg, result = small_grid
    counts_path = tmp_path / "in.csv"
    write_counts(counts_path, data)
    report = build_report(result, data, cfg, counts_path, "none", threads=2, version="1.0.0")
    assert list(report) == [
        "version", "input", "config", "selected", "selected_by_icl",
        "parameters", "diagnostics", "grid",
    ]
    assert report["version"] == "1.0.0"
    assert report["input"]["sha256"] == sha256_file(counts_path)
    assert report["input"]["n"] == 60 and report["input"]["d"] == 3
    assert report["config"]["threads"] == 2
    assert report["selected"]["g"] == result.best.g
    assert len(report["grid"]) == 4
    assert all(e["error"] == "" for e in report["grid"])
    json.dumps(report)  # must be serializable as-is


def test_report_config_names_every_fit_config_field(tmp_path, small_grid):
    # A setting missing from the report cannot be read back from a run's artifacts.
    data, factors, cfg, result = small_grid
    counts_path = tmp_path / "in.csv"
    write_counts(counts_path, data)
    report = build_report(result, data, cfg, counts_path, "none", threads=2, version="1.0.0")
    fields = [f.name for f in dataclasses.fields(FitConfig)]
    assert list(report["config"]) == fields + ["threads"]


def test_report_json_is_rerun_stable(tmp_path, small_grid):
    data, factors, cfg, result = small_grid
    counts_path = tmp_path / "in.csv"
    write_counts(counts_path, data)
    rerun = grid_search(data, factors, cfg, threads=1)
    a = build_report(result, data, cfg, counts_path, "none", threads=1, version="1.0.0")
    b = build_report(rerun, data, cfg, counts_path, "none", threads=1, version="1.0.0")
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report(p1, a)
    write_report(p2, b)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_assignments_and_posteriors(tmp_path, small_grid):
    data, factors, cfg, result = small_grid
    ap, pp = tmp_path / "assign.csv", tmp_path / "post.csv"
    write_assignments(ap, data, result.best)
    write_posteriors(pp, data, result.best)

    with open(ap, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_id", "cluster", "posterior"]
    assert len(rows) == data.n + 1
    clusters = {int(r[1]) for r in rows[1:]}
    assert clusters <= set(range(result.best.g))
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows[1:])

    with open(pp, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_id", *(f"g{j}" for j in range(result.best.g))]
    sums = [sum(float(v) for v in r[1:]) for r in rows[1:]]
    np.testing.assert_allclose(sums, 1.0, atol=1e-8)


def test_write_traces_long_format(tmp_path, small_grid):
    _, _, _, result = small_grid
    p = tmp_path / "traces.csv"
    write_traces(p, result.entries)
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["g", "k", "model", "iteration", "elbo"]
    assert len(rows) == 1 + sum(len(e.elbo_trace) for e in result.entries)
    first = rows[1]
    assert first[:4] == ["1", "1", "UUU", "0"]
    # each triple's trace is non-decreasing as written
    by_triple = {}
    for g, k, m, t, v in rows[1:]:
        by_triple.setdefault((g, k, m), []).append((int(t), float(v)))
    for vals in by_triple.values():
        elbo = [v for _, v in sorted(vals)]
        assert all(b >= a - 1e-6 * abs(a) for a, b in zip(elbo, elbo[1:]))


def test_write_plot_data(tmp_path, small_grid):
    data, factors, cfg, result = small_grid
    p = tmp_path / "plot.csv"
    write_plot_data(p, data, factors, result.best)
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_id", "cluster", "variable", "value"]
    assert len(rows) == 1 + data.n * data.d
    x00 = np.log1p(data.values[0, 0]) - np.log(factors.c[0])
    assert float(rows[1][3]) == pytest.approx(x00, rel=1e-9)


def _csv_writer_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def test_long_writers_match_per_cell_rows(tmp_path):
    # The writers join each row themselves and format each distinct float
    # once; they must write the bytes that csv.writer writes for rows built
    # one numpy cell at a time, with ids that need quoting, signed zeros,
    # repeated and extreme values included.
    sample_ids = ("a,b", 'say "hi"', "line\nbreak", " lead", "", "plain", "cr\rx", "again")
    var_ids = ("v,1", '"q"', " w", "v\n4", "")
    n, d = len(sample_ids), len(var_ids)
    data = make_counts(np.arange(n * d).reshape(n, d) % 5, sample_ids, var_ids)
    # equal factors on the first and last rows repeat their values in x
    factors = NormalizationFactors(np.array([1.0, 1e-300, 3.0, 0.5, 1e300, 7.0, 2.0, 1.0]))
    zhat = np.array([[1e-300, 1.0, 0.0], [1e300, 0.0, -2.5], [1 / 3, 2 / 3, 0.0],
                     [0.0, 1e-5, 123456.789], [5e-324, 1.0, 0.1], [0.5, 0.25, 0.25],
                     [np.pi, np.e, 1e17], [-0.0, 0.0, 1 / 3]])
    labels = np.array([1, 0, 1, 2, 0, 2, 1, 0])
    fit = types.SimpleNamespace(state=types.SimpleNamespace(zhat=zhat), assignments=labels)
    entries = [
        types.SimpleNamespace(g=1, k=2, model_id='U,"C', elbo_trace=(-0.0, 0.0, 0.0, -5.5, -5.5)),
        types.SimpleNamespace(g=2, k=1, model_id="", elbo_trace=()),
        types.SimpleNamespace(g=3, k=3, model_id="cr\rlf\n", elbo_trace=(1e300, np.nan, -np.inf)),
        types.SimpleNamespace(g=4, k=1, model_id=" UUU", elbo_trace=(-5.5, 1 / 3, -0.0)),
    ]
    # x never holds -0.0 (log1p(0) - log 1 is +0.0), so the signed zeros of
    # the float table are checked on their own
    assert _floats(np.array([0.0, -0.0, 0.0, -0.0])).tolist() == ["0", "-0", "0", "-0"]
    x = np.log1p(data.values.astype(np.float64)) - np.log(factors.c)[:, None]
    expected = {
        "assign.csv": (["sample_id", "cluster", "posterior"],
                       [[s, int(g), f"{zhat[i, g]:.10g}"]
                        for i, (s, g) in enumerate(zip(sample_ids, labels))]),
        "post.csv": (["sample_id", "g0", "g1", "g2"],
                     [[s, *(f"{v:.10g}" for v in zhat[i])] for i, s in enumerate(sample_ids)]),
        "plot.csv": (["sample_id", "cluster", "variable", "value"],
                     [[s, int(labels[i]), v, f"{x[i, j]:.10g}"]
                      for i, s in enumerate(sample_ids) for j, v in enumerate(var_ids)]),
        "counts.csv": (["sample_id", *var_ids],
                       [[s, *(int(v) for v in data.values[i])]
                        for i, s in enumerate(sample_ids)]),
        "traces.csv": (["g", "k", "model", "iteration", "elbo"],
                       [[e.g, e.k, e.model_id, t, f"{v:.10g}"]
                        for e in entries for t, v in enumerate(e.elbo_trace)]),
    }
    write_assignments(tmp_path / "assign.csv", data, fit)
    write_posteriors(tmp_path / "post.csv", data, fit)
    write_plot_data(tmp_path / "plot.csv", data, factors, fit)
    write_counts(tmp_path / "counts.csv", data)
    write_traces(tmp_path / "traces.csv", entries)
    for name, (header, rows) in expected.items():
        _csv_writer_rows(tmp_path / f"ref_{name}", header, rows)
        assert (tmp_path / name).read_bytes() == (tmp_path / f"ref_{name}").read_bytes(), name
    assert b"-0\r\n" in (tmp_path / "assign.csv").read_bytes()
    with open(tmp_path / "plot.csv", newline="", encoding="utf-8") as fh:
        assert [r[0] for r in list(csv.reader(fh))[1::d]] == list(sample_ids)


@pytest.mark.parametrize("model_id", ALL_MODELS, ids=str)
def test_report_model_round_trip_is_bitwise(model_id):
    model = random_config(n=10, d=5, g=3, k=2, model_id=model_id, seed=4).to_model()
    back = _model_from_dict(json.loads(json.dumps(_model_dict(model))))
    assert (back.g, back.k, back.model_id) == (model.g, model.k, model.model_id)
    for name in ("pi", "mu", "lam", "psi"):
        assert np.array_equal(getattr(back, name), getattr(model, name))
