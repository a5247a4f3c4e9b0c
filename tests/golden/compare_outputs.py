"""Compare every output file of this tree with those of another revision.

    python3 tests/golden/compare_outputs.py --against REV [--seed N]

REV is checked out with `git worktree` into a temporary directory.  Each
tree then runs the same list of CLI runs in its own interpreter, one tree
after the other, into the same output path, so any path a manifest records
is the same on both sides.  The runs are every preset in both formats, each
followed by a replay of its manifest; the Monte Carlo tomography config of
regenerate.py, likewise; and every warm-up, source and timed operation of
the four benchmark workloads at seed N (default 1), with the configs that
bench/workloads.py generates.  A run's stdout, stderr and exit code go to a
log file that is compared like its outputs.

Each file that differs, or is on one side only, is printed; for a CSV table
or a JSON document also the number of cells (JSON leaves) that differ and
the largest difference between two that parse as numbers.  The exit status
is 1 when any file differs and 0 when none does.  `--against HEAD` in a
clean checkout checks that every output is byte-identical from run to run.
"""

import argparse
import contextlib
import io
import json
import math
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent

# the interpreter of one tree: its src first on the path, then this script
RUN = ("import sys; sys.path[:0] = sys.argv[1:3]; import compare_outputs; "
       "compare_outputs.run_plan(sys.argv[3])")


def write_plan(out, seed):
    """[argv, log] of every run, in order, with the config files they read
    written under `out`."""
    import regenerate
    import workloads

    runs = []
    configs = out / "configs"
    configs.mkdir(parents=True)
    for name, (experiment, preset, config) in regenerate.RUNS.items():
        if preset is not None:
            source = ["--preset", preset]
        else:
            path = configs / f"{name}.json"
            path.write_text(json.dumps(config))
            source = ["--config", str(path)]
        for fmt in ("table", "structured"):
            run = out / "runs" / f"{name}-{fmt}"
            replay = [experiment, "--config", str(run / "manifest.json")]
            for label, argv in ((run.name, [experiment, *source]), (run.name + "-replay", replay)):
                runs.append([[*argv, "--format", fmt, "--out", str(out / "runs" / label)],
                             str(out / "logs" / f"{label}.txt")])
    for name in workloads.WORKLOADS:
        work = str(out / name)
        workload = workloads.generate(name, seed, work)
        workloads.write_configs(workload, work)
        for op in workload.warm + workload.sources + workload.ops:
            runs.append([op.argv, str(out / "logs" / f"{name}-{op.name}.txt")])
    return runs


def run_plan(plan):
    """Run each [argv, log] of the JSON file `plan` through fockfilter.cli,
    writing its exit code, stdout and stderr to its log."""
    from fockfilter import cli

    for argv, log in json.loads(pathlib.Path(plan).read_text()):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # argparse exits; a crash is an output too
                code = f"{type(exc).__name__}: {exc}"
        log = pathlib.Path(log)
        log.parent.mkdir(parents=True, exist_ok=True)
        log.write_text(f"exit {code}\n--- stdout\n{stdout.getvalue()}"
                       f"--- stderr\n{stderr.getvalue()}")


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _leaves(value, key=()):
    if isinstance(value, (dict, list)):
        for k, v in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _leaves(v, key + (k,))
    else:
        yield key, repr(value)


def cells(path):
    """{position: text} of a CSV table's cells or a JSON document's leaves;
    None for any other file."""
    if path.suffix == ".csv":
        return {(i, j): cell for i, line in enumerate(path.read_text().splitlines())
                for j, cell in enumerate(line.split(","))}
    if path.suffix == ".json":
        return dict(_leaves(json.loads(path.read_text())))
    return None


def describe(a, b):
    """How files a and b differ: their differing cells and the largest
    difference between two that are numbers, or "" for other files."""
    ca, cb = cells(a), cells(b)
    if ca is None:
        return ""
    moved = [k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k)]
    gaps = [abs(_number(ca[k]) - _number(cb[k])) for k in moved
            if k in ca and k in cb and None not in (_number(ca[k]), _number(cb[k]))]
    largest = max((g if g == g else math.inf for g in gaps), default=None)
    return (f": {len(moved)} of {len(ca.keys() | cb.keys())} cells differ"
            + (f", largest difference {largest:.3g}" if largest is not None else ""))


def compare(old, new, label):
    """Print each file under `old` and `new` that differs; their count."""
    files = {p.relative_to(root) for root in (old, new) for p in root.rglob("*") if p.is_file()}
    differing = 0
    for rel in sorted(files):
        a, b = old / rel, new / rel
        if not (a.exists() and b.exists()):
            print(f"only in {label if a.exists() else 'this tree'}: {rel}")
        elif a.read_bytes() != b.read_bytes():
            print(f"differs: {rel}{describe(a, b)}")
        else:
            continue
        differing += 1
    print(f"{differing} of {len(files)} files differ from {label}")
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the git revision to compare this tree with")
    parser.add_argument("--seed", type=int, default=1, help="seed of the workloads (default 1)")
    args = parser.parse_args(argv)
    # the runs are listed by this tree's presets and workloads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(HERE)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        rev = tmp / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(rev), args.against], check=True)
        try:
            outs = []
            for side, tree in (("rev", rev), ("this", ROOT)):
                out = tmp / "out"  # both trees write here, so recorded paths match
                plan = tmp / "plan.json"
                plan.write_text(json.dumps(write_plan(out, args.seed)))
                subprocess.run([sys.executable, "-c", RUN, str(tree / "src"), str(HERE),
                                str(plan)], cwd=tree, check=True)
                outs.append(out.rename(tmp / f"out-{side}"))
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(rev)],
                           check=False)
        return 1 if compare(*outs, args.against) else 0


if __name__ == "__main__":
    sys.exit(main())
