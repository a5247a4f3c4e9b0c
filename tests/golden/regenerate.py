"""Rewrite the reference tables under tests/golden/ from the current code.

    PYTHONPATH=src python3 tests/golden/regenerate.py

Each run in RUNS (every CLI preset, and one Monte Carlo tomography config
that no preset reaches) writes its table-format files and its stdout into
tests/golden/<run>/, and then digests.json records the sha256 of every
reference file beside numpy's version and BLAS.  tests/test_golden.py runs
each again and compares every cell; where numpy and its BLAS are the
recorded ones it also compares every byte, through the digests.  Run this
script only in a change that means to move output numbers (a new RNG
stream, a corrected formula), and say in CHANGES.md which outputs moved
and why.  A change that is to keep every output, a refactor or a speedup,
must leave these files as they are: a test that fails against them has
found a change in the numbers.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import shutil
import sys
import tempfile

import numpy as np

from fockfilter import cli

HERE = pathlib.Path(__file__).resolve().parent

# the Monte Carlo tomography config of tests/test_cli.py: the CLI path that
# builds a cascade counter for a plan, which no preset takes
MONTE_CARLO = {"state": {"kind": "coherent", "amplitude": [1.0, 0.0]}, "max_fock": 2,
               "backend": "monte_carlo", "samples": 200}

# run name: (experiment, preset or None, config or None)
RUNS = {f"{experiment}-{preset}": (experiment, preset, None)
        for experiment, presets in cli.PRESETS.items() for preset in presets}
RUNS["tomography-monte-carlo"] = ("tomography", None, MONTE_CARLO)


def run(name, out):
    """Run `name` in table format into directory `out`, with its stdout in
    out/stdout.txt; the CLI's exit code must be 0."""
    experiment, preset, config = RUNS[name]
    with tempfile.TemporaryDirectory() as tmp:
        argv = [experiment, "--out", str(out), "--format", "table"]
        if preset is not None:
            argv += ["--preset", preset]
        if config is not None:
            path = pathlib.Path(tmp, "config.json")
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{name} exited {code}")
    pathlib.Path(out, "stdout.txt").write_text(stdout.getvalue())


def environment():
    """numpy's version and the BLAS it was built with, as numpy reports them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 reports no build dictionary
        blas = "not reported"
    return {"numpy": np.__version__, "blas": blas}


def digests(root, names=RUNS):
    """sha256 of every file of each run in `names` under `root`, keyed
    "<run>/<file>"."""
    return {f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for name in sorted(names) for path in sorted(pathlib.Path(root, name).iterdir())}


def main():
    for name in RUNS:
        shutil.rmtree(HERE / name, ignore_errors=True)
        run(name, HERE / name)
        print(f"wrote {HERE / name}", file=sys.stderr)
    record = {**environment(), "files": digests(HERE)}
    (HERE / "digests.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {HERE / 'digests.json'}", file=sys.stderr)


if __name__ == "__main__":
    main()
