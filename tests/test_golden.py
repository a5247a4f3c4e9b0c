"""Every preset, and the Monte Carlo tomography config, against its reference
tables in tests/golden/: a fresh run must write the same files, the same
headers and rows, and the same stdout, cell for cell.

Integer cells (indices, counts, seeds) and text must match exactly.  A float
cell may move by 1e-12 relative plus 1e-15 absolute, the last few ulps that
BLAS and libm may change between machines; a float that moves further is a
change in the numbers, and tests/golden/regenerate.py says when one may be
committed.

Where numpy and its BLAS are those recorded in tests/golden/digests.json,
a fresh run must also write the same bytes: every file's sha256 must be
the recorded one.  Elsewhere that test skips and names the difference.

The last test checks how tests/golden/compare_outputs.py, which compares
every output of two revisions, reports the files and cells that differ.
"""

import importlib.util
import json
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
RECORDED = json.loads((GOLDEN / "digests.json").read_text())


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """A function that runs a reference run into <root>/<run>, once per
    module, and returns that directory."""
    root = tmp_path_factory.mktemp("fresh")
    done = set()

    def get(name):
        if name not in done:
            regenerate.run(name, root / name)
            done.add(name)
        return root / name

    return get


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


def test_the_recorded_digests_are_those_of_the_reference_files():
    assert RECORDED["files"] == regenerate.digests(GOLDEN)


@pytest.mark.parametrize("name", sorted(regenerate.RUNS))
def test_a_fresh_run_writes_the_recorded_bytes(fresh, name):
    here = regenerate.environment()
    recorded = {key: RECORDED[key] for key in here}
    if here != recorded:
        pytest.skip(f"exact bytes are recorded for {recorded}; this is {here}")
    out = fresh(name)
    assert regenerate.digests(out.parent, [name]) == {
        key: digest for key, digest in RECORDED["files"].items() if key.startswith(name + "/")}


@pytest.mark.parametrize("name", sorted(regenerate.RUNS))
def test_a_fresh_run_matches_its_reference_tables(fresh, name):
    out = fresh(name)
    reference = GOLDEN / name
    assert sorted(p.name for p in out.iterdir()) == sorted(
        p.name for p in reference.iterdir())
    # the manifest is the resolved config, copied and never computed
    assert (out / "manifest.json").read_bytes() == (reference / "manifest.json").read_bytes()
    for path in sorted(reference.glob("*.csv")):
        header, rows = tables.read_csv(out / path.name)
        want_header, want_rows = tables.read_csv(path)
        assert header == want_header, path.name
        assert_rows_agree(rows, want_rows, path.name)
    # "key = value" summary lines
    got, expected = ((p / "stdout.txt").read_text().splitlines()
                     for p in (out, reference))
    assert_rows_agree([line.split(" = ", 1) for line in got],
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


_spec = importlib.util.spec_from_file_location("compare_outputs", GOLDEN / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_compare_outputs_names_each_differing_file_and_its_cells(tmp_path, capsys):
    # two output trees as the parent-diff script leaves them: one CSV cell
    # and one JSON leaf moved, a log changed, a file on one side only
    old, new = tmp_path / "old", tmp_path / "new"
    for root, x, leaf, log in ((old, "0.5", 1.25, "exit 0"), (new, "0.75", 1.5, "exit 3")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "t.csv").write_text(f"n,x\n0,{x}\n1,inf\n")
        (root / "run" / "results.json").write_text(json.dumps({"rows": [[0, leaf], [1, 2.0]]}))
        (root / "run" / "same.csv").write_text("n\n1\n")
        (root / "log.txt").write_text(log)
    (old / "run" / "gone.csv").write_text("n\n")
    assert compare_outputs.compare(old, new, "REV") == 4
    assert capsys.readouterr().out.splitlines() == [
        "differs: log.txt",
        "only in REV: run/gone.csv",
        "differs: run/results.json: 1 of 4 cells differ, largest difference 0.25",
        "differs: run/t.csv: 1 of 6 cells differ, largest difference 0.25",
        "4 of 5 files differ from REV",
    ]
    assert compare_outputs.compare(old, old, "REV") == 0
    assert capsys.readouterr().out == "0 of 5 files differ from REV\n"
