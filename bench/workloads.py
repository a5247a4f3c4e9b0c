"""Seeded workload generator: one list of CLI operations per workload.

`generate(name, seed, work_dir)` draws every input from
`numpy.random.default_rng(seed)`, so the same seed gives the same operations.
An operation is one `fockfilter.cli.main(argv)` call on a generated config
file; `write_configs` puts those files under `work_dir` before anything is
timed.  The CLI sees only the generated configs, never the seed.

The quantities that set an operation's cost (cutoff, chain length, max_fock,
state kind, output format) sit on a fixed grid with a small seeded jitter, so
two seeds give the same mix of operation sizes and the latency percentiles do
not move with the seed.
The seed chooses the rest: amplitudes and phases, cavity parameters, which
operations use the good-cavity rule, per-operation RNG seeds and the order.
Why each workload exists, and which layer metric each one is meant to move,
is written down in README.md next to this file.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("count", "deep-chain", "tomo-exact", "files")

WHY = {
    "count": "measure-pn at the fig3 preset traffic: cascade sampling does most "
             "of the work and nothing is displaced",
    "deep-chain": "measure-pn with 21-31 stage exact chains on cutoffs 103-195 and "
                  "few trials: filter_pass dominates",
    "tomo-exact": "exact tomography at max_fock 5, 20 and 40: displacement and "
                  "table output dominate, the cascade is bypassed",
    "files": "profile, synthesize ladders, superposition, tomography from a "
             "measured.csv and manifest replays, half of them structured",
}

# Every workload has 10 k + 5 operations per pass.  A run is whole passes, so
# the median and the p90 then fall in the middle of one operation's samples
# instead of on the boundary between two operations' sizes.

# the fig3 preset cascade shared by count and deep-chain
CASCADE = {"tau": 1e-3, "chi_t": 0.1, "alpha": [20.0, 0.0], "eta": 0.4}


@dataclass
class Op:
    """One CLI run: its argv, its output directory and what the checker needs."""

    name: str
    experiment: str
    config: dict
    out: str
    fmt: str = "table"
    seed: int | None = None
    check: dict = field(default_factory=dict)
    config_path: str | None = None

    @property
    def argv(self):
        argv = [self.experiment, "--config", self.config_path, "--out", self.out,
                "--format", self.fmt]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv


@dataclass
class Workload:
    """Timed operations, untimed source runs they read, and tiny warm-up runs."""

    name: str
    ops: list
    sources: list
    warm: list


def _grid(rng, n, lo, hi, jitter=0.25):
    """n values at the centres of n equal slices of [lo, hi], each moved by up
    to +-jitter/2 of a slice.  Returned in slice order."""
    u = rng.random(n) - 0.5
    return lo + (hi - lo) * (np.arange(n) + 0.5 + jitter * u) / n


def _coherent(rng, mean_n):
    phase = rng.uniform(0.0, 2.0 * math.pi)
    a = math.sqrt(mean_n)
    return {"kind": "coherent", "amplitude": [a * math.cos(phase), a * math.sin(phase)]}


def _state(kind, rng, mean_n):
    if kind == "coherent":
        return _coherent(rng, mean_n)
    return {"kind": kind, "mean_n": float(mean_n)}


def _op_seed(rng):
    return int(rng.integers(0, 2 ** 63))


def _count(rng):
    kinds = ("squeezed_vacuum", "coherent", "thermal")
    per_kind = 25
    ops = []
    for kind in kinds:
        means = _grid(rng, per_kind, 0.5, 2.0)
        good = int(rng.integers(4))  # about every fourth op uses the good-cavity rule
        for j, mean_n in enumerate(means):
            cfg = {"state": _state(kind, rng, mean_n), **CASCADE, "n_top": 8,
                   "samples": 2000,
                   "update_rule": "good_cavity" if j % 4 == good else "exact"}
            ops.append(dict(experiment="measure-pn", config=cfg, seed=_op_seed(rng),
                            check={"kind": "measure-pn"}))
    return ops


def _deep_chain(rng):
    n = 45
    means = _grid(rng, n, 4.0, 8.0)
    # a fixed pairing of chain length with mean photon number, so every seed
    # gets the same spread of n_top x cutoff^2
    tops = [20 + (7 * i) % 11 for i in range(n)]
    ops = []
    for mean_n, n_top in zip(means, tops):
        cfg = {"state": {"kind": "thermal", "mean_n": float(mean_n)}, **CASCADE,
               "n_top": n_top, "samples": 300, "update_rule": "exact"}
        ops.append(dict(experiment="measure-pn", config=cfg, seed=_op_seed(rng),
                        check={"kind": "measure-pn"}))
    return ops


def _tomography_config(rng, kind, max_fock, fraction):
    """Exact tomography of a coherent or thermal state with <n> = fraction * M."""
    return {"state": _state(kind, rng, fraction * max_fock), "max_fock": int(max_fock),
            "backend": "exact"}


def _tomo_exact(rng):
    # 11 / 22 / 12: the median lands mid max_fock 20, the p90 inside max_fock 40
    ops = []
    for max_fock, count in ((5, 11), (20, 22), (40, 12)):
        for i, f in enumerate(_grid(rng, count, 0.1, 0.3)):
            kind = ("coherent", "thermal")[i % 2]
            ops.append(dict(experiment="tomography",
                            config=_tomography_config(rng, kind, max_fock, f),
                            check={"kind": "tomography"}))
    return ops


def _profile_config(rng, n_max):
    chi_t = float(rng.uniform(0.005, 0.05))
    return {"cavity": {"tau": float(10 ** rng.uniform(-4, -2)),
                       "psi": chi_t * float(rng.uniform(1.0, 20.0)), "chi_t": chi_t},
            "n_max": int(n_max)}


def _superposition_config(rng, coherent):
    period = int(rng.choice([3, 4]))
    chi_t = 2.0 * math.pi / period
    state = (_coherent(rng, rng.uniform(1.0, 3.0)) if coherent
             else {"kind": "thermal", "mean_n": float(rng.uniform(0.5, 1.5))})
    return {"state": state,
            "cavity": {"tau": float(rng.uniform(5e-5, 2e-4)),
                       "psi": chi_t * int(rng.integers(0, 2)), "chi_t": chi_t},
            "alpha": [20.0, 0.0], "eta": 0.8, "cutoff": None}


def _synthesize_config(rng, cutoff, n_taus):
    """A ladder of narrowing linewidths around a resonance n* in 2..6."""
    n_star = int(rng.integers(2, 7))
    chi_t = float(rng.uniform(0.005, 0.02))
    ratio = float(rng.uniform(1.0, 2.0))
    taus = []
    for _ in range(n_taus):
        taus.append(chi_t * ratio)
        ratio /= float(rng.uniform(3.0, 10.0))
    mean_n = n_star + float(rng.uniform(-1.0, 1.0))
    return {"state": _coherent(rng, mean_n), "taus": taus, "psi": chi_t * n_star,
            "chi_t": chi_t, "alpha": [20.0, 0.0], "eta": 0.8, "cutoff": int(cutoff)}


def _files(rng):
    """16 small operations (profile, superposition); 13 reconstructions at
    max_fock 8 from a measured.csv, whose near-equal cost holds the median;
    16 large ones (exact tomography replays, synthesize ladders) that hold the
    p90.  The reconstructions all write results.json, so the median does not
    sit between two formats; 22 of the 45 operations do."""
    ops = []

    def add(experiment, config, fmt, check, replay=False):
        ops.append(dict(experiment=experiment, config=config, fmt=fmt, check=check,
                        replay=replay))

    for i, n_max in enumerate(_grid(rng, 8, 30, 400)):
        add("profile", _profile_config(rng, round(n_max)), ("table", "structured")[i % 3 == 1],
            {"kind": "profile"}, replay=i in (0, 4))
    for i in range(8):
        add("superposition", _superposition_config(rng, coherent=i % 4 != 3),
            ("table", "structured")[i % 3 == 1], {"kind": "superposition"}, replay=i in (0, 4))
    for i, fraction in enumerate(_grid(rng, 13, 0.1, 0.3)):
        kind = ("coherent", "thermal")[i % 2]
        add("tomography", _tomography_config(rng, kind, 8, fraction), "structured",
            {"kind": "tomography", "measured": True})
    for kind in ("coherent", "thermal"):
        add("tomography", _tomography_config(rng, kind, 8, rng.uniform(0.1, 0.3)), "table",
            {"kind": "tomography"}, replay=True)
    # six ladders on a cutoff grid, six equal ones around the p90 (so it is a
    # quantile of many samples of one size) and the two largest above it
    ladders = [(round(c), 3 + i % 3, ("structured", "table", "table")[i % 3])
               for i, c in enumerate(_grid(rng, 6, 30, 100))]
    ladders += [(120, 4, "table")] * 6 + [(150, 5, "table"), (150, 4, "structured")]
    for i, (cutoff, n_taus, fmt) in enumerate(ladders):
        add("synthesize", _synthesize_config(rng, cutoff, n_taus), fmt,
            {"kind": "synthesize"}, replay=i in (1, 5, 9, 12))
    return ops


_MAKERS = {"count": _count, "deep-chain": _deep_chain, "tomo-exact": _tomo_exact,
             "files": _files}


def _warm_ops(name, root):
    """Smallest runs of each experiment the workload uses, for lazy set-up."""
    tiny = {
        "measure-pn": {"state": {"kind": "thermal", "mean_n": 0.5}, **CASCADE,
                       "n_top": 2, "samples": 20},
        "tomography": {"state": {"kind": "coherent", "amplitude": [0.5, 0.0]},
                       "max_fock": 2},
        "profile": {"cavity": {"tau": 0.01, "psi": 0.1, "chi_t": 0.1}, "n_max": 5},
        "synthesize": {"state": {"kind": "coherent", "amplitude": [1.0, 0.0]},
                       "taus": [0.1, 0.01], "psi": 0.1, "chi_t": 0.1, "cutoff": 8},
        "superposition": {"state": {"kind": "coherent", "amplitude": [1.0, 0.0]},
                          "cavity": {"tau": 1e-4, "psi": 0.0, "chi_t": math.pi / 2}},
    }
    used = {"count": ["measure-pn"], "deep-chain": ["measure-pn"],
            "tomo-exact": ["tomography"], "files": ["profile", "synthesize",
                                                    "superposition", "tomography"]}[name]
    warm = []
    for i, experiment in enumerate(used):
        for fmt in (("table", "structured") if name == "files" else ("table",)):
            warm.append(Op(name=f"warm{i}-{fmt}", experiment=experiment,
                           config=tiny[experiment], fmt=fmt,
                           out=os.path.join(root, "warm", f"{experiment}-{fmt}")))
    return warm


def generate(name, seed, work_dir):
    """Workload `name` for `seed`, with every path below work_dir."""
    if name not in _MAKERS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(seed)
    specs = _MAKERS[name](rng)
    order = rng.permutation(len(specs))
    ops, sources = [], []
    for i, k in enumerate(order):
        spec = dict(specs[k])
        replay = spec.pop("replay", False)
        op = Op(name=f"op{i:03d}-{spec['experiment']}",
                out=os.path.join(work_dir, "ops", f"op{i:03d}"), **spec)
        if replay:
            # the source runs untimed; the timed op replays its manifest
            src = Op(name=op.name + "-source", experiment=op.experiment,
                     config=op.config, fmt=op.fmt, check=op.check,
                     out=os.path.join(work_dir, "sources", op.name))
            sources.append(src)
            op.config = None
            op.config_path = os.path.join(src.out, "manifest.json")
            op.check = {"kind": "replay", "source": src.out, "of": src.check}
        elif op.check.get("measured"):
            # reconstruct from the measured.csv of an untimed exact run
            src = Op(name=op.name + "-source", experiment="tomography",
                     config=op.config, out=os.path.join(work_dir, "sources", op.name),
                     check=op.check)
            sources.append(src)
            op.config = dict(op.config, measurements=os.path.join(src.out, "measured.csv"))
            op.check = {"kind": "tomography", "source": src.out}
        ops.append(op)
    return Workload(name=name, ops=ops, sources=sources,
                    warm=_warm_ops(name, work_dir))


def write_configs(workload, work_dir):
    """Write each op's config file below work_dir and record its path."""
    conf_dir = os.path.join(work_dir, "configs")
    os.makedirs(conf_dir, exist_ok=True)
    for op in workload.warm + workload.sources + workload.ops:
        if op.config is None:
            continue
        op.config_path = os.path.join(conf_dir, op.name + ".json")
        with open(op.config_path, "w", encoding="utf-8") as fh:
            json.dump(op.config, fh, indent=1, sort_keys=True)
