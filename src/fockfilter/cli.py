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
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, fock, tables
from .cascade import estimate_photon_distribution, tuned_cascade
from .cavity import CavityParams, resonant_components, transmission_profile
from .filtering import ProbeDetector, filter_pass, superposition_synthesis_check
from .fock import NumericalError, StateSpec
from .tomography import (MonteCarloBackend, TomographyPlan, default_gamma_abs,
                         default_phase_grid, measure_distributions, reconstruct)

EXPERIMENTS = ("profile", "synthesize", "superposition", "measure-pn", "tomography")

# Presets give the bundled reference scenarios a short name.  Values are in
# canonical config form already (amplitudes as [re, im] pairs).
PRESETS = {
    "profile": {
        "fig2": {
            "cavity": {"tau": 2e-4, "psi": 0.04, "chi_t": 0.01},
            "n_max": 30,
        },
    },
    "synthesize": {
        "fig2": {
            "state": {"kind": "coherent", "amplitude": [2.0, 0.0]},
            "taus": [0.02, 0.002, 2e-4],
            "psi": 0.04,
            "chi_t": 0.01,
            "alpha": [20.0, 0.0],
            "eta": 0.8,
            "cutoff": 30,
        },
    },
    "superposition": {
        "two-resonance": {
            "state": {"kind": "coherent", "amplitude": [math.sqrt(2.0), 0.0]},
            "cavity": {"tau": 1e-4, "psi": math.pi / 2, "chi_t": math.pi / 2},
            "alpha": [20.0, 0.0],
            "eta": 0.8,
            "cutoff": None,
        },
    },
    "measure-pn": {
        "fig3-squeezed": {
            "state": {"kind": "squeezed_vacuum", "mean_n": 1.0},
            "tau": 1e-3, "chi_t": 0.1,
            "alpha": [20.0, 0.0], "eta": 0.4,
            "n_top": 8, "samples": 2000, "update_rule": "exact", "seed": 0,
        },
        "fig3-coherent": {
            "state": {"kind": "coherent", "amplitude": [math.sqrt(2.0), 0.0]},
            "tau": 1e-3, "chi_t": 0.1,
            "alpha": [20.0, 0.0], "eta": 0.4,
            "n_top": 8, "samples": 2000, "update_rule": "exact", "seed": 0,
        },
        "fig3-thermal": {
            "state": {"kind": "thermal", "mean_n": 1.0},
            "tau": 1e-3, "chi_t": 0.1,
            "alpha": [20.0, 0.0], "eta": 0.4,
            "n_top": 8, "samples": 2000, "update_rule": "exact", "seed": 0,
        },
    },
    "tomography": {
        "tomo-coherent": {
            "state": {"kind": "coherent", "amplitude": [1.0, 0.0]},
            "max_fock": 5,
            "gamma_abs": 1.0,
            "n_phases": 16,
            "n_rows": 12,
            "backend": "exact",
            "samples": 20000,
            "cavity": {"tau": 1e-4, "chi_t": 0.1},
            "alpha": [20.0, 0.0], "eta": 0.8,
            "seed": 0,
            "measurements": None,
        },
    },
}

_SEEDED = ("measure-pn", "tomography")


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
# canonicalization: raw dict -> validated dict with all defaults filled in


def _complex_pair(value, field):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value), 0.0]
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        return [float(value[0]), float(value[1])]
    raise ValueError(f"{field} must be a number or a [re, im] pair, got {value!r}")


def _number(value, field, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    if integer:
        if isinstance(value, float) and value != int(value):
            raise ValueError(f"{field} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _check_keys(block, allowed, where):
    extra = sorted(set(block) - set(allowed))
    if extra:
        raise ValueError(f"unknown {where} keys: {', '.join(extra)}")


def _canonical_state(block):
    if not isinstance(block, dict) or "kind" not in block:
        raise ValueError('state must be an object with a "kind" field')
    kind = block["kind"]
    if kind == "number":
        _check_keys(block, ("kind", "n"), "state")
        return {"kind": "number", "n": _number(block.get("n", 0), "state.n", integer=True)}
    if kind == "coherent":
        _check_keys(block, ("kind", "amplitude"), "state")
        return {"kind": "coherent",
                "amplitude": _complex_pair(block.get("amplitude", 0.0), "state.amplitude")}
    if kind in ("thermal", "squeezed_vacuum"):
        _check_keys(block, ("kind", "mean_n"), "state")
        return {"kind": kind, "mean_n": _number(block.get("mean_n", 0.0), "state.mean_n")}
    raise ValueError(f"unknown state kind {kind!r}")


def _canonical_cavity(block, keys=("tau", "psi", "chi_t")):
    if not isinstance(block, dict):
        raise ValueError("cavity must be an object")
    _check_keys(block, keys, "cavity")
    out = {}
    for k in keys:
        if k not in block:
            raise ValueError(f"cavity.{k} is required")
        out[k] = _number(block[k], f"cavity.{k}")
    return out


def _build_state(canon):
    if canon["kind"] == "number":
        return StateSpec.number(canon["n"])
    if canon["kind"] == "coherent":
        return StateSpec.coherent(complex(*canon["amplitude"]))
    if canon["kind"] == "thermal":
        return StateSpec.thermal(canon["mean_n"])
    return StateSpec.squeezed_vacuum(canon["mean_n"])


def _build_probe(params):
    return ProbeDetector(alpha=complex(*params["alpha"]), eta=params["eta"])


def _canonical_profile(raw):
    _check_keys(raw, ("cavity", "n_max"), "profile")
    if "cavity" not in raw:
        raise ValueError("profile needs a cavity block")
    return {
        "cavity": _canonical_cavity(raw["cavity"]),
        "n_max": _number(raw.get("n_max", 30), "n_max", integer=True),
    }


def _canonical_synthesize(raw):
    _check_keys(raw, ("state", "taus", "tau", "psi", "chi_t", "alpha", "eta", "cutoff"),
                "synthesize")
    if "state" not in raw:
        raise ValueError("synthesize needs a state block")
    if ("taus" in raw) == ("tau" in raw):
        raise ValueError('synthesize needs exactly one of "tau" or "taus"')
    taus = raw["taus"] if "taus" in raw else [raw["tau"]]
    if not isinstance(taus, (list, tuple)) or not taus:
        raise ValueError("taus must be a non-empty list")
    out = {
        "state": _canonical_state(raw["state"]),
        "taus": [_number(t, "taus[]") for t in taus],
        "psi": _number(raw.get("psi", 0.0), "psi"),
        "chi_t": _number(raw["chi_t"], "chi_t") if "chi_t" in raw else None,
        "alpha": _complex_pair(raw.get("alpha", 20.0), "alpha"),
        "eta": _number(raw.get("eta", 0.8), "eta"),
        "cutoff": None if raw.get("cutoff") is None
        else _number(raw["cutoff"], "cutoff", integer=True),
    }
    if out["chi_t"] is None:
        raise ValueError("chi_t is required")
    return out


def _canonical_superposition(raw):
    _check_keys(raw, ("state", "cavity", "alpha", "eta", "cutoff"), "superposition")
    if "state" not in raw or "cavity" not in raw:
        raise ValueError("superposition needs state and cavity blocks")
    return {
        "state": _canonical_state(raw["state"]),
        "cavity": _canonical_cavity(raw["cavity"]),
        "alpha": _complex_pair(raw.get("alpha", 20.0), "alpha"),
        "eta": _number(raw.get("eta", 0.8), "eta"),
        "cutoff": None if raw.get("cutoff") is None
        else _number(raw["cutoff"], "cutoff", integer=True),
    }


def _canonical_measure_pn(raw):
    _check_keys(raw, ("state", "tau", "chi_t", "alpha", "eta", "n_top",
                      "samples", "update_rule", "seed"), "measure-pn")
    for req in ("state", "tau", "chi_t"):
        if req not in raw:
            raise ValueError(f"measure-pn needs {req}")
    rule = raw.get("update_rule", "exact")
    if rule not in ("exact", "good_cavity"):
        raise ValueError(f'update_rule must be "exact" or "good_cavity", got {rule!r}')
    return {
        "state": _canonical_state(raw["state"]),
        "tau": _number(raw["tau"], "tau"),
        "chi_t": _number(raw["chi_t"], "chi_t"),
        "alpha": _complex_pair(raw.get("alpha", 20.0), "alpha"),
        "eta": _number(raw.get("eta", 0.4), "eta"),
        "n_top": _number(raw.get("n_top", 8), "n_top", integer=True),
        "samples": _number(raw.get("samples", 2000), "samples", integer=True),
        "update_rule": rule,
        "seed": _number(raw.get("seed", 0), "seed", integer=True),
    }


def _canonical_tomography(raw):
    _check_keys(raw, ("state", "max_fock", "gamma_abs", "n_phases", "n_rows", "backend",
                      "samples", "cavity", "alpha", "eta", "seed", "measurements"),
                "tomography")
    if "state" not in raw:
        raise ValueError("tomography needs a state block")
    state = _canonical_state(raw["state"])
    max_fock = _number(raw.get("max_fock", 5), "max_fock", integer=True)
    backend = raw.get("backend", "exact")
    if backend not in ("exact", "monte_carlo"):
        raise ValueError(f'backend must be "exact" or "monte_carlo", got {backend!r}')
    gamma_abs = raw.get("gamma_abs")
    if gamma_abs is None:
        gamma_abs = default_gamma_abs(_build_state(state).mean_photons)
    n_phases = raw.get("n_phases")
    if n_phases is None:
        n_phases = 2 * max_fock + 6
    n_rows = raw.get("n_rows")
    if n_rows is None:
        n_rows = 2 * max_fock + 2
    measurements = raw.get("measurements")
    if measurements is not None and not isinstance(measurements, str):
        raise ValueError("measurements must be a file path string")
    out = {
        "state": state,
        "max_fock": max_fock,
        "gamma_abs": _number(gamma_abs, "gamma_abs"),
        "n_phases": _number(n_phases, "n_phases", integer=True),
        "n_rows": _number(n_rows, "n_rows", integer=True),
        "backend": backend,
        "samples": _number(raw.get("samples", 20000), "samples", integer=True),
        "cavity": _canonical_cavity(raw.get("cavity", {"tau": 1e-4, "chi_t": 0.1}),
                                    keys=("tau", "chi_t")),
        "alpha": _complex_pair(raw.get("alpha", 20.0), "alpha"),
        "eta": _number(raw.get("eta", 0.8), "eta"),
        "seed": _number(raw.get("seed", 0), "seed", integer=True),
        "measurements": measurements,
    }
    return out


_CANONICAL = {
    "profile": _canonical_profile,
    "synthesize": _canonical_synthesize,
    "superposition": _canonical_superposition,
    "measure-pn": _canonical_measure_pn,
    "tomography": _canonical_tomography,
}


def resolve_config(experiment, preset=None, config_path=None, seed=None,
                   out_dir=".", fmt="table"):
    """Merge preset and config file, apply --seed, canonicalize."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    raw = {}
    if preset is not None:
        table = PRESETS[experiment]
        if preset not in table:
            known = ", ".join(sorted(table)) or "(none)"
            raise ValueError(f"unknown preset {preset!r} for {experiment}; known: {known}")
        raw.update(json.loads(json.dumps(table[preset])))
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{config_path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError(f"{config_path} must contain a JSON object")
        if loaded.get("artifact") == "fockfilter" and "config" in loaded:
            # a manifest from an earlier run; its experiment must match
            if loaded.get("experiment") != experiment:
                raise ValueError(
                    f"manifest {config_path} describes experiment "
                    f"{loaded.get('experiment')!r}, not {experiment!r}")
            loaded = loaded["config"]
        raw.update(loaded)
    if not raw:
        raise ValueError("no configuration: give --preset and/or --config")
    if seed is not None:
        if experiment not in _SEEDED:
            raise ValueError(f"experiment {experiment} does not take a seed")
        if not (0 <= seed < 2 ** 64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        raw["seed"] = seed
    if fmt not in ("table", "structured"):
        raise ValueError(f'format must be "table" or "structured", got {fmt!r}')
    params = _CANONICAL[experiment](raw)
    return ExperimentConfig(experiment=experiment, params=params,
                            out_dir=out_dir, fmt=fmt)


# ---------------------------------------------------------------------------
# experiment runners: canonical params -> result dict {summary, tables}


def _distribution_table(values, ci, theory):
    rows = []
    for n, p in enumerate(values):
        c = 0.0 if ci is None else float(ci[n])
        rows.append((n, float(p), c, float(theory[n])))
    return {"header": ["n", "p", "ci", "theory"], "rows": rows}


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
                        "rows": [(n, float(p)) for n, p in enumerate(prof)]},
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
    n_star = params["psi"] / params["chi_t"]
    target = int(round(n_star))
    summary = {"target_n": target, "n_settings": len(params["taus"])}
    result_tables = {}
    summary_rows = []
    for i, tau in enumerate(params["taus"]):
        cav = CavityParams(tau=tau, psi=params["psi"], chi_t=params["chi_t"])
        res = filter_pass(rho, cav, probe)
        if res.state_on is None:
            raise NumericalError(f"filter at tau = {tau:g} never fires on this input")
        diag = np.real(np.diagonal(res.state_on))
        weight = float(diag[target]) if target < diag.size else 0.0
        others = np.delete(diag, target) if target < diag.size else diag
        dominance = weight / float(np.max(others)) if others.size else math.inf
        summary_rows.append((float(tau), res.p_on, weight, dominance,
                             fock.purity(res.state_on)))
        result_tables[f"distribution_{i}"] = _distribution_table(diag, None, theory)
        result_tables[f"state_{i}"] = _state_table(res.state_on)
        summary[f"p_on_{i}"] = res.p_on
        summary[f"target_weight_{i}"] = weight
    result_tables["summary"] = {
        "header": ["tau", "p_on", "target_weight", "dominance", "purity"],
        "rows": summary_rows}
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
    cfg = tuned_cascade(
        n_top=params["n_top"], tau=params["tau"], chi_t=params["chi_t"],
        alpha=complex(*params["alpha"]), eta=params["eta"],
        samples=params["samples"], rng_seed=params["seed"],
        update_rule=params["update_rule"])
    est = estimate_photon_distribution(spec, params["n_top"], cfg)
    rows = []
    for n, p in enumerate(est.values):
        rows.append((n, float(p), float(est.ci[n]), float(est.expected[n])))
    # the no-click bucket keeps the histogram normalized; reported as n = -1
    off_ci = max(math.sqrt(est.all_off * (1.0 - est.all_off) / est.samples),
                 1.0 / est.samples)
    rows.append((-1, est.all_off, off_ci, est.all_off_expected))
    return {
        "summary": {
            "samples": est.samples,
            "preparations": est.preparations,
            "all_off": est.all_off,
            "all_off_expected": est.all_off_expected,
            "seed": params["seed"],
        },
        "tables": {
            "histogram": {"header": ["n", "p", "ci", "theory"], "rows": rows},
            "input_distribution": {
                "header": ["n", "p"],
                "rows": [(n, float(p)) for n, p in enumerate(est.theory)]},
        },
    }


def _read_measured(path, plan):
    """P[j, n] from a phi,n,p table; phases must match the plan's grid.

    Every (phase, n) cell must appear exactly once, with a finite p.
    """
    header, rows = tables.read_csv(path)
    if header != ["phi", "n", "p"]:
        raise ValueError(f"{path} must have header phi,n,p, got {','.join(header)}")
    P = np.full((len(plan.phases), plan.n_rows), np.nan)
    grid = np.asarray(plan.phases)
    seen = set()
    for row in rows:
        phi, n, p = float(row[0]), int(row[1]), float(row[2])
        j = int(np.argmin(np.abs(grid - phi)))
        # written so that a NaN phase fails
        if not abs(grid[j] - phi) <= 1e-9:
            raise ValueError(f"phase {phi} is not on the plan's grid")
        if not (0 <= n < plan.n_rows):
            raise ValueError(f"row index n = {n} outside 0..{plan.n_rows - 1}")
        if (j, n) in seen:
            raise ValueError(f"{path} repeats the row phi = {phi}, n = {n}")
        if not math.isfinite(p):
            raise ValueError(f"{path} has non-finite p = {p} at phi = {phi}, n = {n}")
        seen.add((j, n))
        P[j, n] = p
    if np.isnan(P).any():
        raise ValueError(f"{path} does not cover all (phase, n) cells")
    return P


def _run_tomography(params):
    spec = _build_state(params["state"])
    M = params["max_fock"]
    truth = fock.make_state(spec, cutoff=M, tail=None)
    phases = default_phase_grid(M) if params["n_phases"] == 2 * M + 6 else tuple(
        2.0 * math.pi * j / params["n_phases"] for j in range(params["n_phases"]))
    if params["backend"] == "exact":
        backend = "exact"
    else:
        backend = MonteCarloBackend(
            cavity=CavityParams(tau=params["cavity"]["tau"], psi=0.0,
                                chi_t=params["cavity"]["chi_t"]),
            probe=_build_probe(params),
            samples=params["samples"], rng_seed=params["seed"])
    plan = TomographyPlan(gamma_abs=params["gamma_abs"], phases=phases,
                          max_fock=M, n_rows=params["n_rows"], backend=backend)
    if params["measurements"] is not None:
        P = _read_measured(params["measurements"], plan)
    else:
        P = measure_distributions(truth, plan)
    rec = reconstruct(plan, P)
    measured_rows = []
    for j, phi in enumerate(plan.phases):
        for n in range(plan.n_rows):
            measured_rows.append((float(phi), n, float(P[j, n])))
    resid_rows = [(s, float(rec.residual_norms[s]), float(rec.condition_numbers[s]))
                  for s in range(len(rec.residual_norms))]
    return {
        "summary": {
            "gamma_abs": params["gamma_abs"],
            "n_phases": len(plan.phases),
            "n_rows": plan.n_rows,
            "backend": params["backend"],
            "trace": rec.trace,
            "trace_distance_to_input": fock.trace_distance(rec.nu_hat, truth),
            "flags": "|".join(rec.flags),
        },
        "tables": {
            "measured": {"header": ["phi", "n", "p"], "rows": measured_rows},
            "reconstruction": _state_table(rec.nu_hat),
            "residuals": {"header": ["s", "residual", "condition"], "rows": resid_rows},
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
    """Write manifest + tables (or one JSON document) under cfg.out_dir."""
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    written = [tables.write_text(os.path.join(out, "manifest.json"),
                                 tables.json_text(manifest_dict(cfg)) + "\n")]
    if cfg.fmt == "table":
        for name, tab in result["tables"].items():
            text = tables.table_text(tab["header"], tab["rows"])
            written.append(tables.write_text(os.path.join(out, f"{name}.csv"), text))
    else:
        doc = {"experiment": result["experiment"], "summary": result["summary"],
               "tables": result["tables"]}
        written.append(tables.write_text(os.path.join(out, "results.json"),
                                         tables.json_text(doc) + "\n"))
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


def main(argv=None):
    args = build_parser().parse_args(argv)
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
