"""Per-operation output checker.

`check_op(op, stdout)` reads the files one CLI run wrote (after its timer has
stopped) together with the summary it printed, and returns a list of
problems; an empty list means the run is correct.  Every table must carry
its fixed header and only finite numbers.  On top of that, per experiment:

- measure-pn: sum(p) + all-OFF = 1 within 1e-12, and every bin, the all-OFF
  bucket included, lies within 5 sigma of the analytic `theory` column.
  sigma is the larger of the file's `ci` (the binomial 1-sigma at the
  estimate, floored at 1/samples) and the binomial 1-sigma at the theory
  value: the first alone is too narrow when a bin holds only a few counts;
- tomography: trace distance of the reconstruction to an independently built
  input state <= 1e-6, no flags, and, when it reconstructs from an earlier
  run's measured.csv, the same reconstruction as that run;
- synthesize: the target weight rises strictly along the tau ladder;
- superposition of a coherent state: purity >= 0.99;
- replay: every file byte-identical to the run whose manifest it replays.

The reference states are computed here with numpy from the manifest, not with
fockfilter, so a defect in the package cannot hide itself.
"""

import json
import math
import os

import numpy as np

HEADERS = {
    "histogram": ["n", "p", "ci", "theory"],
    "input_distribution": ["n", "p"],
    "profile": ["n", "transmission"],
    "summary": ["tau", "p_on", "target_weight", "dominance", "purity"],
    "distribution": ["n", "p", "ci", "theory"],
    "state": ["n", "m", "re", "im"],
    "measured": ["phi", "n", "p"],
    "reconstruction": ["n", "m", "re", "im"],
    "residuals": ["s", "residual", "condition"],
}

# tables each check reads back; all others are only scanned
_KEEP = {"measure-pn": {"histogram"}, "tomography": {"reconstruction", "residuals"},
         "synthesize": {"summary"}, "superposition": {"state"}, "profile": {"profile"}}

TRACE_DISTANCE_LIMIT = 1e-6
PURITY_FLOOR = 0.99
NORMALIZATION_TOL = 1e-12
SIGMAS = 5.0


def expected_tables(manifest):
    experiment = manifest["experiment"]
    if experiment == "measure-pn":
        return {"histogram", "input_distribution"}
    if experiment == "profile":
        return {"profile"}
    if experiment == "superposition":
        return {"distribution", "state"}
    if experiment == "tomography":
        return {"measured", "reconstruction", "residuals"}
    n = len(manifest["config"]["taus"])
    return ({"summary"} | {f"distribution_{i}" for i in range(n)}
            | {f"state_{i}" for i in range(n)})


def _base(name):
    head, _, tail = name.rpartition("_")
    return head if tail.isdigit() else name


def parse_summary(stdout):
    """`key = value` lines the CLI prints, as strings."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _scan_csv(path, keep, problems):
    """Header and finiteness of one CSV; returns its rows as floats if kept."""
    name = os.path.basename(path)[:-4]
    rows = [] if keep else None
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != HEADERS.get(_base(name)):
            problems.append(f"{name}.csv: unexpected header {header}")
            return None
        for lineno, line in enumerate(fh, start=2):
            try:
                values = [float(c) for c in line.rstrip("\n").split(",")]
            except ValueError:
                problems.append(f"{name}.csv:{lineno}: non-numeric cell")
                return None
            if len(values) != len(header) or not all(map(math.isfinite, values)):
                problems.append(f"{name}.csv:{lineno}: non-finite or missing cell")
                return None
            if keep:
                rows.append(values)
    return rows


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def read_outputs(out_dir, fmt, kind, problems):
    """(manifest, {table name: rows or None}) of one run; scans every table."""
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"manifest.json: {exc}")
        return None, {}
    keep = _KEEP.get(kind, set())
    tables = {}
    if fmt == "table":
        for entry in sorted(os.listdir(out_dir)):
            if entry.endswith(".csv"):
                name = entry[:-4]
                tables[name] = _scan_csv(os.path.join(out_dir, entry),
                                         _base(name) in keep, problems)
    else:
        try:
            with open(os.path.join(out_dir, "results.json"), encoding="utf-8") as fh:
                doc = json.load(fh, parse_constant=_reject_constant)
        except (OSError, ValueError) as exc:
            problems.append(f"results.json: {exc}")
            return manifest, {}
        for name, tab in doc.get("tables", {}).items():
            if tab.get("header") != HEADERS.get(_base(name)):
                problems.append(f"results.json {name}: unexpected header {tab.get('header')}")
                tables[name] = None
                continue
            rows = tab["rows"]
            ok = all(len(r) == len(tab["header"])
                     and all(isinstance(v, (int, float)) and math.isfinite(v) for v in r)
                     for r in rows)
            if not ok:
                problems.append(f"results.json {name}: non-finite or missing cell")
            tables[name] = rows if ok and _base(name) in keep else None
    missing = expected_tables(manifest) - set(tables)
    extra = set(tables) - expected_tables(manifest)
    if missing or extra:
        problems.append(f"tables missing {sorted(missing)}, unexpected {sorted(extra)}")
    return manifest, tables


def check_histogram(rows, samples, problems):
    """Normalization and 5-sigma agreement of a measure-pn histogram."""
    total = math.fsum(r[1] for r in rows)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        problems.append(f"histogram: sum(p) + all-OFF = {total!r}, not 1")
    if not rows or rows[-1][0] != -1:
        problems.append("histogram: no all-OFF (n = -1) row")
    for n, p, ci, theory in rows:
        sigma = max(ci, math.sqrt(max(theory * (1.0 - theory), 0.0) / samples))
        if abs(p - theory) > SIGMAS * sigma:
            problems.append(f"histogram n={int(n)}: p={p!r} is {abs(p - theory) / sigma:.1f} "
                            f"sigma from theory {theory!r}")


def reference_state(state, max_fock):
    """Input density matrix truncated to 0..max_fock and renormalized."""
    n = np.arange(max_fock + 1)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    if state["kind"] == "thermal":
        nb = state["mean_n"]
        p = np.exp(n * (math.log(nb) - math.log1p(nb))) if nb > 0 else (n == 0) * 1.0
        return np.diag(p / p.sum()).astype(complex)
    if state["kind"] != "coherent":
        raise ValueError(f"no reference for {state['kind']} states")
    beta = complex(*state["amplitude"])
    if beta == 0:
        c = (n == 0).astype(complex)
    else:
        c = np.exp(n * math.log(abs(beta)) - 0.5 * log_fact) * np.exp(1j * n * np.angle(beta))
    rho = np.outer(c, c.conj())
    return rho / np.trace(rho).real


def matrix_from_rows(rows, dim):
    rho = np.zeros((dim, dim), dtype=complex)
    for n, m, re, im in rows:
        rho[int(n), int(m)] = complex(re, im)
    return rho


def _check_tomography(manifest, tables, summary, source, problems):
    cfg = manifest["config"]
    M = cfg["max_fock"]
    rows = tables.get("reconstruction")
    if rows is None:
        return
    rho = matrix_from_rows(rows, M + 1)
    diff = rho - reference_state(cfg["state"], M)
    distance = 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())
    if not distance <= TRACE_DISTANCE_LIMIT:
        problems.append(f"tomography: trace distance {distance:.3e} > {TRACE_DISTANCE_LIMIT:g}")
    if summary.get("flags", ""):
        problems.append(f"tomography: flags {summary['flags']!r}")
    if source is not None:
        src_problems = []
        _, src_tables = read_outputs(source, "table", "tomography", src_problems)
        for name in ("reconstruction", "residuals"):
            if src_tables.get(name) != tables.get(name):
                problems.append(f"tomography: {name} differs from the run that measured it")
        problems.extend(f"source: {p}" for p in src_problems)


def _check_synthesize(tables, problems):
    rows = tables.get("summary")
    if rows is None:
        return
    taus = [r[0] for r in rows]
    weights = [r[2] for r in rows]
    if any(b >= a for a, b in zip(taus, taus[1:])):
        problems.append(f"synthesize: tau ladder {taus} does not narrow")
    if any(b <= a for a, b in zip(weights, weights[1:])):
        problems.append(f"synthesize: target weights {weights} do not rise strictly")


def _check_superposition(manifest, tables, summary, problems):
    if manifest["config"]["state"]["kind"] != "coherent":
        return
    rows = tables.get("state")
    if rows is None:
        return
    purity = math.fsum(re * re + im * im for _, _, re, im in rows)
    if not purity >= PURITY_FLOOR or not float(summary.get("purity", "nan")) >= PURITY_FLOOR:
        problems.append(f"superposition: purity {purity!r} < {PURITY_FLOOR}")


def _check_profile(tables, problems):
    rows = tables.get("profile")
    if rows is not None and not all(0.0 < t <= 1.0 for _, t in rows):
        problems.append("profile: transmission outside (0, 1]")


def check_content(out_dir, fmt, kind, stdout, source=None):
    """Problems with one run's outputs, by the rules of experiment `kind`."""
    problems = []
    manifest, tables = read_outputs(out_dir, fmt, kind, problems)
    if manifest is None:
        return problems
    summary = parse_summary(stdout)
    if kind == "measure-pn" and tables.get("histogram") is not None:
        check_histogram(tables["histogram"], manifest["config"]["samples"], problems)
    elif kind == "tomography":
        _check_tomography(manifest, tables, summary, source, problems)
    elif kind == "synthesize":
        _check_synthesize(tables, problems)
    elif kind == "superposition":
        _check_superposition(manifest, tables, summary, problems)
    elif kind == "profile":
        _check_profile(tables, problems)
    return problems


def _read_tree(directory):
    tree = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            tree[name] = fh.read()
    return tree


def check_replay(out_dir, source):
    """Problems unless every file of out_dir equals the same file of source."""
    mine, theirs = _read_tree(out_dir), _read_tree(source)
    if sorted(mine) != sorted(theirs):
        return [f"replay wrote {sorted(mine)}, source wrote {sorted(theirs)}"]
    return [f"replay: {name} differs from its source" for name in mine
            if mine[name] != theirs[name]]


def check_op(op, stdout):
    """Problems with the outputs of op (a workloads.Op) after it ran."""
    if op.check["kind"] == "replay":
        problems = check_replay(op.out, op.check["source"])
        return problems + check_content(op.out, op.fmt, op.check["of"]["kind"], stdout)
    return check_content(op.out, op.fmt, op.check["kind"], stdout,
                         source=op.check.get("source"))
