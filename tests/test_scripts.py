"""`scripts/artifact_digest.py`: its fixed quoted-id input and the
comparison of `--values --against`."""

import importlib.util
from pathlib import Path

import pytest

from mplnfa.io import read_counts

_SPEC = importlib.util.spec_from_file_location(
    "artifact_digest", Path(__file__).resolve().parent.parent / "scripts" / "artifact_digest.py")
artifact_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_digest)
compare_values = artifact_digest.compare_values

SAVED = [
    "fit/report.json  1 1 UUU 7 -13200.892731422411",
    "fit/report.json  2 1 UUU 12 -13042.316326925293",
    "fit/report.json  diagnostics exp_clamped=0 s_guard_backtracks=3 m_guard_backtracks=41",
]


def _with(line_no, text):
    listing = list(SAVED)
    listing[line_no] = text
    return listing


def test_equal_listings_agree():
    assert compare_values(list(SAVED), SAVED, rtol=0.0) == []


@pytest.mark.parametrize("rtol, agree", [(1e-10, True), (1e-13, False)])
def test_a_bound_agrees_only_within_the_tolerance(rtol, agree):
    # 1.2e-12 relative apart
    listing = _with(0, "fit/report.json  1 1 UUU 7 -13200.892731406773")
    problems = compare_values(listing, SAVED, rtol)
    assert (problems == []) == agree
    if not agree:
        assert problems == [f"line 1: {listing[0]!r} against saved {SAVED[0]!r}"]


def test_a_changed_iteration_count_is_a_mismatch():
    listing = _with(1, "fit/report.json  2 1 UUU 13 -13042.316326925293")
    assert compare_values(listing, SAVED, rtol=1.0) == [
        f"line 2: {listing[1]!r} against saved {SAVED[1]!r}"]


def test_a_changed_counter_line_is_a_mismatch():
    listing = _with(2, SAVED[2].replace("backtracks=41", "backtracks=42"))
    assert compare_values(listing, SAVED, rtol=1.0) == [
        f"line 3: {listing[2]!r} against saved {SAVED[2]!r}"]


def test_listings_of_different_lengths_disagree():
    assert compare_values(SAVED[:2], SAVED, rtol=1e-10) == ["2 lines against 3 saved"]
    assert compare_values(SAVED + SAVED[:1], SAVED, rtol=1e-10) == ["4 lines against 3 saved"]


def test_the_quoted_input_needs_quoting_and_is_fitted(tmp_path):
    path = tmp_path / artifact_digest.QUOTED_INPUT
    artifact_digest.write_quoted_counts(path)
    data, _ = read_counts(path)
    assert data.values.shape == (40, 3)
    for ids in (data.sample_ids, data.var_ids):
        for mark in (",", '"', "\r", "\n"):
            assert any(mark in i for i in ids), mark
    assert any(c[0] == "fit" and c[c.index("--input") + 1] == artifact_digest.QUOTED_INPUT
               for c in artifact_digest.COMMANDS)
