"""fockfilter benchmark: the CLI's experiments end to end, and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a fockfilter checkout; it imports the package from
./src and writes only below ./.bench_work.  One operation is one in-process
call of `fockfilter.cli.main([...])` on a generated config, files included.
Operations run in a closed loop (one client, the next run starts when the
previous one ends) over whole passes of the workload's operation list, until
S seconds have passed and at least MIN_OPS operations have run.  Each
operation's files are checked after its timer stops.

--trace 0 prints the end-to-end metrics; the timing ones are scaled to a
fixed machine speed with reference_work() (see bench/README.md).  --trace 1
alternates untraced passes with passes in which every public fockfilter
function is wrapped (bench/tracing.py), pairs starting until S/2 seconds have
passed, and prints per-layer metrics.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics; the line before it
records the environment and run details.
"""

# BLAS is pinned before numpy loads: the benchmark measures one client on
# machines with few cores.
import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy

import checks
import workloads

WORK_DIR = ".bench_work"
SRC_DIR = "src"
MIN_OPS = 100
# Times are scaled to a machine on which reference_work() takes REFERENCE_S,
# using the median reference time of each operation and its neighbours.
REFERENCE_S = 1e-3
SPEED_WINDOW = 5
TAIL_PERCENTILES = (90.0, 99.0, 99.9)
TAIL_BEYOND = 10
SETUP_REPEATS = 5

# a fresh interpreter: import the CLI, then the workload's smallest runs
SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from fockfilter import cli
sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[2])))
"""


def _import_cli():
    """fockfilter.cli from ./src, or None when this is not a checkout."""
    src = os.path.abspath(SRC_DIR)
    if not os.path.isfile(os.path.join(src, "fockfilter", "cli.py")):
        return None
    sys.path.insert(0, src)
    from fockfilter import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        return None
    return cli


def measure_setup(warm_argv):
    """Median wall time of SETUP_REPEATS fresh interpreters doing the set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD, os.path.abspath(SRC_DIR),
                        json.dumps(warm_argv)], check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_op(cli, op):
    """(wall seconds, CPU seconds, stdout, problems) of one CLI run; a
    non-zero exit code or a traceback is a problem."""
    out = io.StringIO()
    problems = []
    with contextlib.redirect_stdout(out):
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception:  # a crash is a failed operation, not a failed benchmark
            code = None
            problems.append(traceback.format_exc(limit=3))
        t1, cpu1 = time.perf_counter(), time.process_time()
    if code != 0 and code is not None:
        problems.append(f"exit code {code}")
    return t1 - t0, cpu1 - cpu0, out.getvalue(), problems


def reference_work():
    """Fixed work of the kinds the CLI does: RNG construction, float
    formatting, complex exponentials and a complex matrix product."""
    for i in range(8):
        numpy.random.default_rng((12345, i)).random()
    text = ",".join("%.17g" % (x / 7.0) for x in range(400))
    a = numpy.exp(1e-3j * numpy.outer(numpy.arange(64.0), numpy.arange(64.0)))
    return len(text) + (a @ a).real[0, 0]


def time_reference():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def speed_scale(refs):
    """Per-operation factor REFERENCE_S / median reference time around it."""
    h = SPEED_WINDOW // 2
    return [REFERENCE_S / statistics.median(refs[max(0, i - h):i + h + 1])
            for i in range(len(refs))]


def timing_metrics(results, scale):
    """Timing metrics of results, each operation's times multiplied by its scale."""
    walls = [r["wall"] * f for r, f in zip(results, scale)]
    cpus = [r["cpu"] * f for r, f in zip(results, scale)]
    return {"latency_p50_s": statistics.median(walls), "latency_tail_s": tail(walls)[1],
            "throughput_ops_s": len(walls) / sum(walls), "cpu_per_op_s": sum(cpus) / len(cpus)}


def run_pass(cli, ops, results, tracer=None):
    for op in ops:
        if tracer is not None:
            tracer.op = len(results)
        wall, cpu, stdout, problems = run_op(cli, op)
        ref = time_reference()
        if not problems:
            problems = checks.check_op(op, stdout)
        results.append({"op": op.name, "wall": wall, "cpu": cpu, "ref": ref,
                        "problems": problems})


def tail(latencies):
    """(percentile, value, ops beyond): the highest of TAIL_PERCENTILES with
    at least TAIL_BEYOND operations above it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            best = (q, ordered[rank - 1], n - rank)
    return best


def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                found[os.path.basename(lib)] = getattr(handle, symbol)()
                break
    return found


def environment(workload, seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}",
            "blas_threads_pinned": BLAS_THREADS, "blas_threads_reported": blas_threads(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "workload": workload, "seed": seed}


END_TO_END_UNITS = {
    "setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s", "throughput_ops_s": "1/s",
    "cpu_per_op_s": "s", "peak_rss_mib": "MiB", "success_ratio": "ratio",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_cli()
    if cli is None:
        print(f"error: no fockfilter source under ./{SRC_DIR}; run from a checkout root",
              file=sys.stderr)
        return 2

    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.generate(args.workload, args.seed, work)
    workloads.write_configs(wl, work)

    setup_s = None if args.trace else measure_setup([op.argv for op in wl.warm])
    for op in wl.warm + wl.sources:
        run_op(cli, op)

    results = []
    start = time.perf_counter()
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        untraced, traced = [], []
        # alternate untraced and traced passes so drift hits both alike
        while time.perf_counter() - start < args.seconds / 2 or not traced:
            run_pass(cli, wl.ops, untraced)
            tracer.install()
            try:
                run_pass(cli, wl.ops, traced, tracer)
            finally:
                tracer.uninstall()
        tracer.dump(os.path.join(work, "spans.json"))
        values = tracer.metrics(len(traced), sum(r["wall"] for r in traced),
                                sum(r["wall"] for r in untraced))
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in values.items()}
        results = untraced + traced
    else:
        while time.perf_counter() - start < args.seconds or len(results) < MIN_OPS:
            run_pass(cli, wl.ops, results)
    with open(os.path.join(work, "ops.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=0)
    failed = [r for r in results if r["problems"]]
    details = {"env": environment(args.workload, args.seed),
               "ops": len(results), "ops_per_pass": len(wl.ops),
               "fail_ratio": len(failed) / len(results),
               "failures": [{"op": r["op"], "problems": r["problems"][:3]} for r in failed[:5]]}
    if not args.trace:
        q, _, beyond = tail([r["wall"] for r in results])
        values = timing_metrics(results, speed_scale([r["ref"] for r in results]))
        details.update(tail_percentile=q, tail_ops_beyond=beyond,
                       unscaled=timing_metrics(results, [1.0] * len(results)),
                       reference_median_s=statistics.median(r["ref"] for r in results))
        values.update(
            setup_s=setup_s,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            success_ratio=1.0 - len(failed) / len(results))
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps(details))
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
