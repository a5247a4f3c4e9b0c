"""Every preset, and the Monte Carlo tomography config, against its reference
tables in tests/golden/: a fresh run must write the same files, the same
headers and rows, and the same stdout, cell for cell.

Integer cells (indices, counts, seeds) and text must match exactly.  A float
cell may move by 1e-12 relative plus 1e-15 absolute, the last few ulps that
BLAS and libm may change between machines; a float that moves further is a
change in the numbers, and tests/golden/regenerate.py says when one may be
committed.
"""

import importlib.util
import math
import pathlib
import re

import pytest

from fockfilter import tables

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

RTOL, ATOL = 1e-12, 1e-15
INTEGER = re.compile(r"-?\d+")


def cells_agree(fresh, reference):
    """Two printed cells agree: the same text, or two floats, not both
    integers, within RTOL and ATOL."""
    if fresh == reference:
        return True
    if INTEGER.fullmatch(fresh) and INTEGER.fullmatch(reference):
        return False
    try:
        a, b = float(fresh), float(reference)
    except ValueError:
        return False
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= ATOL + RTOL * abs(b)


def assert_rows_agree(fresh, reference, where):
    assert len(fresh) == len(reference), f"{where}: {len(fresh)} rows, expected {len(reference)}"
    for i, (got, want) in enumerate(zip(fresh, reference)):
        assert len(got) == len(want), f"{where} row {i}: {got} != {want}"
        for cell, expected in zip(got, want):
            assert cells_agree(cell, expected), f"{where} row {i}: {got} != {want}"


def test_every_run_has_its_reference_and_no_other_reference_is_kept():
    kept = {p.name for p in GOLDEN.iterdir() if p.is_dir() and p.name != "__pycache__"}
    assert kept == set(regenerate.RUNS)


@pytest.mark.parametrize("name", sorted(regenerate.RUNS))
def test_a_fresh_run_matches_its_reference_tables(tmp_path, name):
    regenerate.run(name, tmp_path)
    reference = GOLDEN / name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in reference.iterdir())
    # the manifest is the resolved config, copied and never computed
    assert (tmp_path / "manifest.json").read_bytes() == (reference / "manifest.json").read_bytes()
    for path in sorted(reference.glob("*.csv")):
        header, rows = tables.read_csv(tmp_path / path.name)
        want_header, want_rows = tables.read_csv(path)
        assert header == want_header, path.name
        assert_rows_agree(rows, want_rows, path.name)
    # "key = value" summary lines
    fresh, expected = ((p / "stdout.txt").read_text().splitlines()
                       for p in (tmp_path, reference))
    assert_rows_agree([line.split(" = ", 1) for line in fresh],
                      [line.split(" = ", 1) for line in expected], "stdout")


@pytest.mark.parametrize("fresh, reference, agree", [
    ("0.1", "0.1", True),
    ("0.10000000000000001", "0.10000000000000002", True),
    ("1.0000000000001", "1", True),
    ("1.000000000002", "1", False),
    ("1e-16", "0", True),
    ("1e-14", "0", False),
    ("3", "4", False),
    ("3", "3.0000000000000004", True),
    ("inf", "inf", True),
    ("nan", "inf", False),
    ("1|5|9", "1|5|7", False),
])
def test_cells_agree_within_the_stated_tolerance_only(fresh, reference, agree):
    assert cells_agree(fresh, reference) is agree
