"""Command-line front end: run a named experiment, write deterministic files.

    fockfilter <experiment> [--preset NAME] [--config FILE] [--seed U64]
                            [--out DIR] [--format table|structured]

Experiments: profile, synthesize, superposition, measure-pn, tomography.
Configuration is resolved preset -> config file -> command line, the fully
resolved parameter set is written to <out>/manifest.json, and a manifest is
itself a valid --config, so a run can be reproduced byte-for-byte from its
own output directory.  Exit codes: 0 success, 2 invalid configuration,
3 numerical failure (truncation or degenerate conditioning).
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, fock, tables
from .cascade import CascadeConfig, estimate_photon_distribution
from .cavity import CavityParams, resonant_components, transmission_profile
from .filtering import ProbeDetector, filter_pass, superposition_synthesis_check
from .fock import NumericalError, StateSpec
from .tomography import TomographyPlan, default_gamma_abs, measure_distributions, reconstruct

REQUIRED = object()  # the default of a field that has none and must be given


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description: experiment + canonical parameters."""

    experiment: str
    params: dict
    out_dir: str
    fmt: str

    @property
    def seed(self):
        return int(self.params.get("seed", 0))


# ---------------------------------------------------------------------------
# canonicalization: raw dict -> every field of the experiment, in table order
#
# A parser maps a JSON value and the field's dotted name to the canonical value.
# It checks the JSON type only; the library constructors check ranges.  The
# seed is the exception: exact tomography writes it to the manifest without
# handing it to a constructor, so _seed checks its range with fock._size.


def _real(value, field):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{field} is an integer beyond the float range") from None


def _integer(value, field):
    """An int; a float only when integral, and an int never passes through float."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _seed(value, field):
    """A 64-bit unsigned integer."""
    return fock._size(_integer(value, field), field, high=2 ** 64 - 1)


def _pair(value, field):
    """A complex number as [re, im]; a real number stands for [re, 0.0]."""
    if isinstance(value, list) and len(value) == 2:
        return [_real(value[0], field), _real(value[1], field)]
    return [_real(value, field), 0.0]


def _string(value, field):
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, got {value!r}")
    return value


def _choice(*options):
    def parse(value, field):
        if value not in options:
            raise ValueError(f"{field} must be one of {options}, got {value!r}")
        return value
    return parse


def _reals(value, field):
    if not isinstance(value, list) or not value:
        raise ValueError(f"{field} must be a non-empty list of numbers, got {value!r}")
    return [_real(v, f"{field}[{i}]") for i, v in enumerate(value)]


def _block(fields):
    return lambda value, field: _canonical(fields, value, field)


def _canonical(fields, raw, where=""):
    """The fields of block `raw`, resolved in table order; `where` is its dotted name.

    fields maps each name to (parser, default).  An absent or null field
    takes its default: REQUIRED, a JSON value that is parsed like a given
    one, or a function of the fields resolved before it.  A null default
    stays null.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, got {raw!r}")
    prefix = where + "." if where else ""
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ValueError(f"unknown field {', '.join(prefix + k for k in unknown)}")
    out = {}
    for name, (parse, default) in fields.items():
        value = raw.get(name)
        if value is None:
            if default is REQUIRED:
                raise ValueError(f"{prefix}{name} is required")
            value = default(out) if callable(default) else default
        out[name] = None if value is None else parse(value, prefix + name)
    return out


_MEAN_N = {"mean_n": (_real, 0.0)}
_STATE_KINDS = {"number": {"n": (_integer, 0)}, "coherent": {"amplitude": (_pair, 0.0)},
                "thermal": _MEAN_N, "squeezed_vacuum": _MEAN_N}


def _state(value, field):
    """A state block: its "kind", then the fields of that kind."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object, got {value!r}")
    kind = _choice(*_STATE_KINDS)(value.get("kind"), f"{field}.kind")
    rest = {k: v for k, v in value.items() if k != "kind"}
    return {"kind": kind, **_canonical(_STATE_KINDS[kind], rest, field)}


def _build_state(canon):
    if canon["kind"] == "coherent":
        return StateSpec.coherent(complex(*canon["amplitude"]))
    return StateSpec(**canon)


def _build_probe(params):
    return ProbeDetector(alpha=complex(*params["alpha"]), eta=params["eta"])


# fields shared by several experiments
_STATE = {"state": (_state, REQUIRED)}
_CAVITY = {"cavity": (_block({"tau": (_real, REQUIRED), "psi": (_real, REQUIRED),
                              "chi_t": (_real, REQUIRED)}), REQUIRED)}
_PROBE = {"alpha": (_pair, 20.0), "eta": (_real, 0.8)}
_CUTOFF = {"cutoff": (_integer, None)}
_SEED = {"seed": (_seed, 0)}

# One table per experiment: field -> (parser, default).  Table order is the
# order of the fields in manifest.json.
FIELDS = {
    "profile": {**_CAVITY, "n_max": (_integer, 30)},
    "synthesize": {**_STATE, "taus": (_reals, REQUIRED), "psi": (_real, 0.0),
                   "chi_t": (_real, REQUIRED), **_PROBE, **_CUTOFF},
    "superposition": {**_STATE, **_CAVITY, **_PROBE, **_CUTOFF},
    "measure-pn": {**_STATE, "tau": (_real, REQUIRED), "chi_t": (_real, REQUIRED),
                   **_PROBE, "eta": (_real, 0.4), "n_top": (_integer, 8),
                   "samples": (_integer, 2000), "update_rule": (_string, "exact"), **_SEED},
    "tomography": {
        **_STATE, "max_fock": (_integer, 5),
        "gamma_abs": (_real, lambda c: default_gamma_abs(_build_state(c["state"]).mean_photons)),
        "n_phases": (_integer, lambda c: 2 * c["max_fock"] + 6),
        "n_rows": (_integer, lambda c: 2 * c["max_fock"] + 2),
        "backend": (_choice("exact", "monte_carlo"), "exact"), "samples": (_integer, 20000),
        "cavity": (_block({"tau": (_real, 1e-4), "chi_t": (_real, 0.1)}), {}),
        **_PROBE, **_SEED, "measurements": (_string, None)},
}

EXPERIMENTS = tuple(FIELDS)

# Presets give the bundled reference scenarios a short name.  Each lists only
# the fields whose values differ from the defaults in FIELDS.
PRESETS = {
    "profile": {"fig2": {"cavity": {"tau": 2e-4, "psi": 0.04, "chi_t": 0.01}}},
    "synthesize": {"fig2": {"state": {"kind": "coherent", "amplitude": [2.0, 0.0]},
                            "taus": [0.02, 0.002, 2e-4], "psi": 0.04, "chi_t": 0.01,
                            "cutoff": 30}},
    "superposition": {"two-resonance": {
        "state": {"kind": "coherent", "amplitude": [math.sqrt(2.0), 0.0]},
        "cavity": {"tau": 1e-4, "psi": math.pi / 2, "chi_t": math.pi / 2}}},
    "measure-pn": {
        "fig3-squeezed": {"state": {"kind": "squeezed_vacuum", "mean_n": 1.0},
                          "tau": 1e-3, "chi_t": 0.1},
        "fig3-coherent": {"state": {"kind": "coherent", "amplitude": [math.sqrt(2.0), 0.0]},
                          "tau": 1e-3, "chi_t": 0.1},
        "fig3-thermal": {"state": {"kind": "thermal", "mean_n": 1.0},
                         "tau": 1e-3, "chi_t": 0.1},
    },
    "tomography": {"tomo-coherent": {"state": {"kind": "coherent", "amplitude": [1.0, 0.0]},
                                     "gamma_abs": 1.0}},
}


def resolve_config(experiment, preset=None, config_path=None, seed=None,
                   out_dir=".", fmt="table"):
    """Merge preset and config file, apply --seed, canonicalize."""
    if experiment not in FIELDS:
        raise ValueError(f"unknown experiment {experiment!r}")
    raw = {}
    if preset is not None:
        table = PRESETS[experiment]
        if preset not in table:
            known = ", ".join(sorted(table)) or "(none)"
            raise ValueError(f"unknown preset {preset!r} for {experiment}; known: {known}")
        raw.update(table[preset])
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{config_path} is not valid JSON: {exc}") from exc
        if (isinstance(loaded, dict) and loaded.get("artifact") == "fockfilter"
                and "config" in loaded):
            # a manifest from an earlier run; its experiment must match
            if loaded.get("experiment") != experiment:
                raise ValueError(
                    f"manifest {config_path} describes experiment "
                    f"{loaded.get('experiment')!r}, not {experiment!r}")
            loaded = loaded["config"]
        if not isinstance(loaded, dict):
            raise ValueError(f"{config_path} must contain a JSON object")
        raw.update(loaded)
    if not raw:
        raise ValueError("no configuration: give --preset and/or --config")
    if seed is not None:
        if "seed" not in FIELDS[experiment]:
            raise ValueError(f"experiment {experiment} does not take a seed")
        raw["seed"] = seed
    if fmt not in ("table", "structured"):
        raise ValueError(f'format must be "table" or "structured", got {fmt!r}')
    return ExperimentConfig(experiment=experiment, params=_canonical(FIELDS[experiment], raw),
                            out_dir=out_dir, fmt=fmt)


# ---------------------------------------------------------------------------
# experiment runners: canonical params -> result dict {summary, tables}


def _indexed_rows(*columns, index=None):
    """(n, a[n], b[n], ...) rows as float columns, n = 0 .. len(first column) - 1
    unless `index` gives it."""
    n = np.arange(len(columns[0])) if index is None else index
    return tables.Columns(n, *(np.asarray(c, dtype=float) for c in columns))


def _distribution_table(values, ci, theory, index=None):
    ci = np.zeros(len(values)) if ci is None else ci
    return {"header": ["n", "p", "ci", "theory"],
            "rows": _indexed_rows(values, ci, theory, index=index)}


def _state_table(rho):
    return {"header": ["n", "m", "re", "im"], "rows": tables.density_matrix_rows(rho)}


def _run_profile(params):
    cav = CavityParams(**params["cavity"])
    n_max = params["n_max"]
    prof = transmission_profile(cav, n_max)
    resonant = resonant_components(cav, n_max)
    peak = int(np.argmax(prof))
    return {
        "summary": {
            "n_star": cav.n_star,
            "peak_n": peak,
            "peak_transmission": float(prof[peak]),
            "resonances": "|".join(str(n) for n in resonant),
        },
        "tables": {
            "profile": {"header": ["n", "transmission"],
                        "rows": _indexed_rows(prof)},
        },
    }


def _prepare(params):
    spec = _build_state(params["state"])
    cutoff = params.get("cutoff")
    if cutoff is None:
        return spec, fock.make_state(spec)
    return spec, fock.make_state(spec, cutoff=cutoff, tail=None)


def _run_synthesize(params):
    spec, rho = _prepare(params)
    probe = _build_probe(params)
    theory = np.real(np.diagonal(rho))
    cavities = [CavityParams(tau=tau, psi=params["psi"], chi_t=params["chi_t"])
                for tau in params["taus"]]
    target = round(cavities[0].n_star)
    summary = {"target_n": target, "n_settings": len(cavities)}
    result_tables = {}
    summary_rows = []
    for i, cav in enumerate(cavities):
        res = filter_pass(rho, cav, probe)
        if res.state_on is None:
            raise NumericalError(f"filter at tau = {cav.tau:g} never fires on this input")
        diag = np.real(np.diagonal(res.state_on))
        # a target outside 0..cutoff holds no weight
        on_grid = 0 <= target < diag.size
        weight = float(diag[target]) if on_grid else 0.0
        others = np.delete(diag, target) if on_grid else diag
        largest = float(np.max(others)) if others.size else 0.0
        dominance = weight / largest if largest > 0.0 else math.inf
        summary_rows.append((cav.tau, res.p_on, weight, dominance,
                             fock.purity(res.state_on)))
        result_tables[f"distribution_{i}"] = _distribution_table(diag, None, theory)
        result_tables[f"state_{i}"] = _state_table(res.state_on)
        summary[f"p_on_{i}"] = res.p_on
        summary[f"target_weight_{i}"] = weight
    result_tables["summary"] = {
        "header": ["tau", "p_on", "target_weight", "dominance", "purity"],
        "rows": tables.Columns(*(np.array(c, dtype=float) for c in zip(*summary_rows)))}
    return {"summary": summary, "tables": result_tables}


def _run_superposition(params):
    spec, rho = _prepare(params)
    cav = CavityParams(**params["cavity"])
    probe = _build_probe(params)
    report = superposition_synthesis_check(rho, cav, probe)
    diag = np.real(np.diagonal(report.state_on))
    theory = np.real(np.diagonal(rho))
    return {
        "summary": {
            "resonances": "|".join(str(n) for n in report.resonant_set),
            "p_on": report.p_on,
            "purity": report.purity,
        },
        "tables": {
            "distribution": _distribution_table(diag, None, theory),
            "state": _state_table(report.state_on),
        },
    }


def _run_measure_pn(params):
    spec = _build_state(params["state"])
    cfg = CascadeConfig(
        n_top=params["n_top"], tau=params["tau"], chi_t=params["chi_t"],
        probe=_build_probe(params), samples=params["samples"], rng_seed=params["seed"],
        update_rule=params["update_rule"])
    est = estimate_photon_distribution(spec, cfg)
    # the no-click bucket keeps the histogram normalized; reported as n = -1
    off_ci = max(math.sqrt(est.all_off * (1.0 - est.all_off) / est.samples),
                 1.0 / est.samples)
    histogram = _distribution_table(
        np.append(est.values, est.all_off), np.append(est.ci, off_ci),
        np.append(est.expected, est.all_off_expected),
        index=np.append(np.arange(len(est.values)), -1))
    return {
        "summary": {
            "samples": est.samples,
            "preparations": est.samples,  # one per trial: a trial stops at its click
            "all_off": est.all_off,
            "all_off_expected": est.all_off_expected,
            "seed": params["seed"],
        },
        "tables": {
            "histogram": histogram,
            "input_distribution": {"header": ["n", "p"], "rows": _indexed_rows(est.theory)},
        },
    }


def _measured_columns(rows):
    """phi, n and p of phi,n,p rows, parsed by float(), int() and float()."""
    phi, n, p = zip(*rows) if rows else ((), (), ())
    return list(map(float, phi)), list(map(int, n)), list(map(float, p))


def _read_measured(path, plan):
    """P[j, n] from a phi,n,p table; phases must match the plan's grid.

    Every (phase, n) cell must appear exactly once, with a finite p.  A
    rejection names the first offending row in file order.
    """
    header, rows = tables.read_csv(path)
    if header != ["phi", "n", "p"]:
        raise ValueError(f"{path} must have header phi,n,p, got {','.join(header)}")
    parse_error = None
    try:
        phi, n, p = _measured_columns(rows)
    except ValueError:
        # the rows before the first one that does not parse are checked first
        for end, row in enumerate(rows):
            try:
                _measured_columns([row])
            except ValueError as exc:
                parse_error = exc
                break
        phi, n, p = _measured_columns(rows[:end])
    grid = np.asarray(plan.phases)
    phi_a, n_a, p_a = np.array(phi), np.array(n), np.array(p)
    j = np.argmin(np.abs(grid - phi_a[:, None]), axis=1)
    in_range = (n_a >= 0) & (n_a < plan.n_rows)
    key = j * plan.n_rows + np.where(in_range, n_a, 0).astype(np.intp)
    first = np.zeros(len(key), dtype=bool)
    first[np.unique(key, return_index=True)[1]] = True
    # checked in this order within a row; written so that a NaN phase fails
    failed = np.array([~(np.abs(grid[j] - phi_a) <= 1e-9), ~in_range, ~first,
                       ~np.isfinite(p_a)])
    bad = failed.any(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        messages = (f"phase {phi[i]} is not on the plan's grid",
                    f"row index n = {n[i]} outside 0..{plan.n_rows - 1}",
                    f"{path} repeats the row phi = {phi[i]}, n = {n[i]}",
                    f"{path} has non-finite p = {p[i]} at phi = {phi[i]}, n = {n[i]}")
        raise ValueError(messages[int(np.argmax(failed[:, i]))])
    if parse_error is not None:
        raise parse_error
    if len(key) != plan.n_phases * plan.n_rows:
        raise ValueError(f"{path} does not cover all (phase, n) cells")
    P = np.empty((plan.n_phases, plan.n_rows))
    P[j, n_a] = p_a
    return P


def _run_tomography(params):
    spec = _build_state(params["state"])
    M = params["max_fock"]
    truth = fock.make_state(spec, cutoff=M, tail=None)
    plan = TomographyPlan(gamma_abs=params["gamma_abs"], n_phases=params["n_phases"],
                          max_fock=M, n_rows=params["n_rows"])
    if params["backend"] == "monte_carlo":
        # built once the plan has checked n_rows, so a bad n_rows is named as
        # such and not as the counter's n_top
        counter = CascadeConfig(n_top=plan.n_rows - 1, **params["cavity"],
                                probe=_build_probe(params), samples=params["samples"],
                                rng_seed=params["seed"])
        plan = replace(plan, backend=counter)
    if params["measurements"] is not None:
        P = _read_measured(params["measurements"], plan)
    else:
        P = measure_distributions(truth, plan)
    rec = reconstruct(plan, P)
    measured_rows = tables.Columns(np.repeat(plan.phases, plan.n_rows),
                                   np.tile(np.arange(plan.n_rows), plan.n_phases),
                                   np.asarray(P, dtype=float).ravel())
    return {
        "summary": {
            "gamma_abs": params["gamma_abs"],
            "n_phases": plan.n_phases,
            "n_rows": plan.n_rows,
            "backend": params["backend"],
            "trace": rec.trace,
            "trace_distance_to_input": fock.trace_distance(rec.nu_hat, truth),
            "flags": "|".join(rec.flags),
        },
        "tables": {
            "measured": {"header": ["phi", "n", "p"], "rows": measured_rows},
            "reconstruction": _state_table(rec.nu_hat),
            "residuals": {"header": ["s", "residual", "condition"],
                          "rows": _indexed_rows(rec.residual_norms, rec.condition_numbers)},
        },
    }


_RUNNERS = {
    "profile": _run_profile,
    "synthesize": _run_synthesize,
    "superposition": _run_superposition,
    "measure-pn": _run_measure_pn,
    "tomography": _run_tomography,
}


def run_experiment(cfg):
    """Run cfg's experiment and write its files; returns the result dict."""
    result = _RUNNERS[cfg.experiment](cfg.params)
    result["experiment"] = cfg.experiment
    emit_results(result, cfg)
    return result


def manifest_dict(cfg):
    return {
        "artifact": "fockfilter",
        "version": __version__,
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "format": cfg.fmt,
        "config": cfg.params,
    }


def emit_results(result, cfg):
    """Write tables (or one JSON document) and then manifest.json under
    cfg.out_dir.

    Every text is built, and every output file opened in place, before any
    is written, so a table that is not a `Columns` or a file that cannot be
    opened leaves the directory as it was.  Each table and document is then
    streamed into its file, every block written as it is formed: a write
    holds one block of text and, for a mirrored density matrix, the digit
    slots of its triangle, never a whole file.  A failure part way cuts the
    file being written at the bytes that reached it.  The manifest is
    written last, so one that matches its config says the run finished.
    """
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    texts = {}
    if cfg.fmt == "table":
        for name, tab in result["tables"].items():
            texts[f"{name}.csv"] = tables.table_text(tab["header"], tab["rows"])
    else:
        doc = {"experiment": result["experiment"], "summary": result["summary"],
               "tables": result["tables"]}
        texts["results.json"] = tables.json_text(doc)
    texts["manifest.json"] = tables.json_text(manifest_dict(cfg))
    files = tables.open_in_place([os.path.join(out, name) for name in texts])
    try:
        written = [tables.write_text(fh, text) for fh, text in zip(files, texts.values())]
    finally:
        for fh in files:
            fh.close()
    for key, value in result["summary"].items():
        print(f"{key} = {tables.fmt_cell(value)}")
    return written


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fockfilter",
        description="Photon-number filtering experiments on truncated Fock spaces.")
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="which experiment to run")
    parser.add_argument("--preset", default=None,
                        help="named parameter bundle (see README)")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="JSON parameter file or a manifest.json from a previous run")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed override (measure-pn and tomography)")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current directory)")
    parser.add_argument("--format", default="table", choices=("table", "structured"),
                        help="table: one CSV per table; structured: results.json")
    return parser


@functools.cache
def _parser():
    """The one parser of the process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = resolve_config(args.experiment, preset=args.preset,
                             config_path=args.config, seed=args.seed,
                             out_dir=args.out, fmt=args.format)
        run_experiment(cfg)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
