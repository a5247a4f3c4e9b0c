"""Self-tests of the benchmark: a deterministic generator, a checker that
accepts real outputs and rejects planted corruptions.

    python3 -m pytest bench/test_bench.py
"""

import contextlib
import io
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from fockfilter import cli  # noqa: E402


def run(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(op.argv) == 0
    return out.getvalue()


def prepared(name, seed, directory):
    wl = workloads.generate(name, seed, str(directory))
    workloads.write_configs(wl, str(directory))
    return wl


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    first = workloads.generate(name, 7, str(tmp_path))
    again = workloads.generate(name, 7, str(tmp_path))
    other = workloads.generate(name, 8, str(tmp_path))
    assert first == again
    assert [op.config for op in first.ops] != [op.config for op in other.ops]
    assert len(first.ops) == len(other.ops)


def test_every_workload_has_a_reason():
    assert set(workloads.WHY) == set(workloads.WORKLOADS)


@pytest.fixture
def histogram_run(tmp_path):
    op = prepared("count", 3, tmp_path).ops[0]
    stdout = run(op)
    assert checks.check_op(op, stdout) == []
    return op, stdout, os.path.join(op.out, "histogram.csv")


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    edit(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_checker_flags_nan_cell(histogram_run):
    op, stdout, path = histogram_run

    def plant(lines):
        cells = lines[3].split(",")
        cells[2] = "nan"
        lines[3] = ",".join(cells)

    _rewrite(path, plant)
    assert any("non-finite" in p for p in checks.check_op(op, stdout))


def test_checker_flags_bin_six_sigma_off(histogram_run):
    op, stdout, path = histogram_run
    samples = op.config["samples"]

    def plant(lines):
        n, p, ci, theory = (float(c) for c in lines[2].split(","))
        sigma = max(ci, math.sqrt(theory * (1.0 - theory) / samples))
        lines[2] = ",".join([str(int(n)), repr(theory + 6.0 * sigma), repr(ci), repr(theory)])

    _rewrite(path, plant)
    problems = checks.check_op(op, stdout)
    assert any(p.startswith("histogram n=1:") and "sigma" in p for p in problems)


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_checker_flags_replay_one_byte_off(fmt, tmp_path):
    wl = prepared("files", 5, tmp_path)
    op = next(o for o in wl.ops if o.check["kind"] == "replay" and o.fmt == fmt)
    source = next(s for s in wl.sources if s.out == op.check["source"])
    run(source)
    stdout = run(op)
    assert checks.check_op(op, stdout) == []
    victim = sorted(os.listdir(op.out))[-1]
    path = os.path.join(op.out, victim)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    i = data.rindex(b"1")
    data[i:i + 1] = b"2"
    with open(path, "wb") as fh:
        fh.write(data)
    assert f"replay: {victim} differs from its source" in checks.check_op(op, stdout)
