"""Command-line interface: presets, file formats, determinism, exit codes."""

import hashlib
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from fockfilter import _arraytext, cli, fock, tables
from fockfilter.cascade import CascadeConfig
from fockfilter.cavity import CavityParams, transmission_profile
from fockfilter.filtering import ProbeDetector
from fockfilter.tomography import TomographyPlan


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = cli.main([*argv, "--out", str(out)])
    return code, out


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def write_csv(path, header, rows):
    """A comma-separated table of string cells, for hand-edited inputs that
    the table writer, which prints only numbers, cannot write."""
    path.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))


def test_profile_preset(tmp_path):
    code, out = run(tmp_path, "profile", "--preset", "fig2")
    assert code == 0
    header, rows = tables.read_csv(out / "profile.csv")
    assert header == ["n", "transmission"]
    assert len(rows) == 31
    values = [float(r[1]) for r in rows]
    assert values.index(max(values)) == 4


@pytest.mark.parametrize("tau", [1e-160, 1e-200])
def test_profile_below_the_smallest_linewidth(tmp_path, capsys, tau):
    # tau^2 is subnormal at 1e-160 and 0 at 1e-200: the profile printed NaN
    # at n* with a RuntimeWarning, or exited 1 on a ZeroDivisionError
    config = write_config(tmp_path, {"cavity": {"tau": tau, "psi": 0.04, "chi_t": 0.01}})
    code, out = run(tmp_path, "profile", "--config", config)
    assert code == 0
    _, rows = tables.read_csv(out / "profile.csv")
    values = [float(r[1]) for r in rows]
    assert values[4] == 1.0
    assert all(math.isfinite(v) for v in values)
    assert "peak_transmission = 1\n" in capsys.readouterr().out


def test_synthesize_preset_files_and_headers(tmp_path):
    code, out = run(tmp_path, "synthesize", "--preset", "fig2")
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert {"manifest.json", "summary.csv", "distribution_0.csv", "state_0.csv",
            "distribution_2.csv", "state_2.csv"} <= names
    header, rows = tables.read_csv(out / "distribution_2.csv")
    assert header == ["n", "p", "ci", "theory"]
    assert len(rows) == 31
    header, rows = tables.read_csv(out / "state_2.csv")
    assert header == ["n", "m", "re", "im"]
    assert len(rows) == 31 * 31
    # the target component dominates at the smallest linewidth
    weight = {(r[0], r[1]): float(r[2]) for r in rows}
    assert weight[("4", "4")] == pytest.approx(0.7882, abs=1e-4)


def test_floats_survive_text_round_trip(tmp_path):
    _, out = run(tmp_path, "synthesize", "--preset", "fig2")
    _, rows = tables.read_csv(out / "summary.csv")
    for row in rows:
        for cell in row[1:]:
            assert float(cell) == float(repr(float(cell)))


def test_superposition_preset(tmp_path):
    code, out = run(tmp_path, "superposition", "--preset", "two-resonance")
    assert code == 0
    header, rows = tables.read_csv(out / "distribution.csv")
    assert header == ["n", "p", "ci", "theory"]


def test_measure_pn_histogram_has_no_click_row(tmp_path):
    code, out = run(tmp_path, "measure-pn", "--preset", "fig3-squeezed")
    assert code == 0
    header, rows = tables.read_csv(out / "histogram.csv")
    assert header == ["n", "p", "ci", "theory"]
    assert [r[0] for r in rows] == [str(n) for n in range(9)] + ["-1"]
    total = sum(float(r[1]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_measure_pn_summary_counts_one_preparation_per_trial(tmp_path):
    code, out = run(tmp_path, "measure-pn", "--preset", "fig3-coherent",
                    "--format", "structured")
    assert code == 0
    summary = json.loads((out / "results.json").read_text())["summary"]
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert summary["preparations"] == summary["samples"] == config["samples"] == 2000


def test_tomography_preset(tmp_path):
    code, out = run(tmp_path, "tomography", "--preset", "tomo-coherent")
    assert code == 0
    header, rows = tables.read_csv(out / "measured.csv")
    assert header == ["phi", "n", "p"]
    assert len(rows) == 16 * 12
    header, rows = tables.read_csv(out / "residuals.csv")
    assert header == ["s", "residual", "condition"]
    assert len(rows) == 6


def test_runs_are_byte_deterministic(tmp_path):
    _, first = run(tmp_path / "a", "measure-pn", "--preset", "fig3-coherent")
    _, second = run(tmp_path / "b", "measure-pn", "--preset", "fig3-coherent")
    assert read_all(first) == read_all(second)


def test_manifest_reproduces_run_byte_for_byte(tmp_path):
    _, first = run(tmp_path / "a", "measure-pn", "--preset", "fig3-thermal",
                   "--seed", "9")
    _, second = run(tmp_path / "b", "measure-pn",
                    "--config", str(first / "manifest.json"))
    assert read_all(first) == read_all(second)


def test_seed_flag_changes_counts(tmp_path):
    _, a = run(tmp_path / "a", "measure-pn", "--preset", "fig3-coherent")
    _, b = run(tmp_path / "b", "measure-pn", "--preset", "fig3-coherent",
               "--seed", "1")
    assert (a / "histogram.csv").read_bytes() != (b / "histogram.csv").read_bytes()


@pytest.mark.parametrize("experiment,preset,resonances", [
    ("profile", "fig2", "4"), ("superposition", "two-resonance", "1|5|9|13")])
def test_preset_resonant_sets(tmp_path, experiment, preset, resonances):
    run(tmp_path, experiment, "--preset", preset, "--format", "structured")
    doc = json.loads((tmp_path / "out" / "results.json").read_text())
    assert doc["summary"]["resonances"] == resonances


def test_structured_format_writes_single_document(tmp_path):
    code, out = run(tmp_path, "profile", "--preset", "fig2",
                    "--format", "structured")
    assert code == 0
    assert {p.name for p in out.iterdir()} == {"manifest.json", "results.json"}
    doc = json.loads((out / "results.json").read_text())
    assert doc["experiment"] == "profile"
    assert doc["summary"]["peak_n"] == 4
    assert len(doc["tables"]["profile"]["rows"]) == 31


def test_manifest_is_valid_json_with_resolved_config(tmp_path):
    _, out = run(tmp_path, "synthesize", "--preset", "fig2")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifact"] == "fockfilter"
    assert manifest["experiment"] == "synthesize"
    assert manifest["config"]["taus"] == [0.02, 0.002, 2e-4]
    assert manifest["config"]["alpha"] == [20.0, 0.0]


def test_config_file_overrides_preset(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_max": 12}))
    code, out = run(tmp_path, "profile", "--preset", "fig2", "--config", str(cfg))
    assert code == 0
    _, rows = tables.read_csv(out / "profile.csv")
    assert len(rows) == 13


def test_tomography_reads_external_measurements(tmp_path):
    _, first = run(tmp_path / "a", "tomography", "--preset", "tomo-coherent")
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"]["measurements"] = str(first / "measured.csv")
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(manifest["config"]))
    code, second = run(tmp_path / "b", "tomography", "--config", str(cfg))
    assert code == 0
    for name in ("reconstruction.csv", "residuals.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_duplicate_measured_rows_exit_2(tmp_path):
    _, first = run(tmp_path / "a", "tomography", "--preset", "tomo-coherent")
    manifest = json.loads((first / "manifest.json").read_text())
    header, rows = tables.read_csv(first / "measured.csv")
    # every cell present, and (phi, n) of the first row given a second time
    rows.append([rows[0][0], rows[0][1], "0.5"])
    measured = tmp_path / "measured.csv"
    write_csv(measured, header, rows)
    manifest["config"]["measurements"] = str(measured)
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(manifest["config"]))
    code, _ = run(tmp_path / "b", "tomography", "--config", str(cfg))
    assert code == 2


def tomography_config(tmp_path, **changes):
    """(config path, output dir) of a tomo-coherent run; `changes` edit the config."""
    _, first = run(tmp_path / "first", "tomography", "--preset", "tomo-coherent")
    config = json.loads((first / "manifest.json").read_text())["config"]
    config.update(changes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, first


@pytest.mark.parametrize("cell,bad,named", [(2, "nan", "n = 5"), (2, "inf", "n = 5"),
                                            (0, "nan", "phase nan")])
def test_non_finite_measured_value_exits_2(tmp_path, capsys, cell, bad, named):
    # a NaN p must not read as a missing cell, an inf p must not reach the
    # eigensolver, and a NaN phase must not match phase row 0
    measured = tmp_path / "measured.csv"
    cfg, first = tomography_config(tmp_path, measurements=str(measured))
    header, rows = tables.read_csv(first / "measured.csv")
    assert rows[5][1] == "5"
    rows[5][cell] = bad
    write_csv(measured, header, rows)
    capsys.readouterr()
    code, _ = run(tmp_path, "tomography", "--config", str(cfg))
    assert code == 2
    assert named in capsys.readouterr().err


def test_large_displacement_runs_and_flags_rank_deficiency(tmp_path, capsys):
    # |gamma| = 12 displaces the signal block far above the measured rows:
    # the run must finish cleanly and say that the systems are blind
    cfg, _ = tomography_config(tmp_path, gamma_abs=12)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, "tomography", "--config", str(cfg))
    out, err = capsys.readouterr()
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err
    flags = next(line for line in out.splitlines() if line.startswith("flags = "))
    assert "s=0: rank-deficient system" in flags


@pytest.mark.parametrize("argv", [
    ("profile", "--preset", "nope"),
    ("profile",),                                   # no configuration at all
    ("synthesize", "--preset", "fig2", "--seed", "3"),  # unseeded experiment
    ("tomography", "--preset", "tomo-coherent", "--seed", "-1"),
])
def test_invalid_usage_exits_2(tmp_path, argv):
    code, _ = run(tmp_path, *argv)
    assert code == 2


def test_invalid_values_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"cavity": {"tau": 2.0, "psi": 0.0, "chi_t": 0.1}, "n_max": 5}))
    code, _ = run(tmp_path, "profile", "--config", str(cfg))
    assert code == 2
    cfg.write_text(json.dumps(
        {"cavity": {"tau": 0.1, "psi": 0.0, "chi_t": 0.1}, "n_max": 5, "bogus": 1}))
    code, _ = run(tmp_path, "profile", "--config", str(cfg))
    assert code == 2
    cfg.write_text("{not json")
    code, _ = run(tmp_path, "profile", "--config", str(cfg))
    assert code == 2
    cfg.write_text(json.dumps({"artifact": "fockfilter", "experiment": "profile", "config": 5}))
    code, _ = run(tmp_path, "profile", "--config", str(cfg))
    assert code == 2


def test_manifest_for_other_experiment_exits_2(tmp_path):
    _, out = run(tmp_path / "a", "profile", "--preset", "fig2")
    code, _ = run(tmp_path / "b", "synthesize",
                  "--config", str(out / "manifest.json"))
    assert code == 2


def test_numerical_failure_exits_3(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "state": {"kind": "thermal", "mean_n": 1000.0},
        "taus": [0.002], "psi": 0.04, "chi_t": 0.01,
    }))
    code, _ = run(tmp_path, "synthesize", "--config", str(cfg))
    assert code == 3


def test_state_above_the_cutoff_ceiling_exits_3(tmp_path, capsys):
    # asserted first, so that without the ceiling the run below, which would
    # allocate the triangle of a 100001-level state, never starts
    with pytest.raises(fock.CutoffError):
        fock.choose_cutoff(fock.StateSpec.number(fock.CUTOFF_CEILING + 1))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state": {"kind": "number", "n": 100000},
                               "tau": 1e-3, "chi_t": 0.1}))
    code, _ = run(tmp_path, "measure-pn", "--config", str(cfg))
    assert code == 3
    assert f"> {fock.CUTOFF_CEILING}" in capsys.readouterr().err


PLANS_PAST_THE_CEILING = [
    ("exact", "gamma_abs", 1000), ("exact", "n_rows", 10 ** 8),
    # the plan refuses these before a counter of n_rows stages is built
    ("monte_carlo", "n_rows", 5000), ("monte_carlo", "n_rows", 10 ** 8)]


@pytest.mark.parametrize("backend, field, value", PLANS_PAST_THE_CEILING, ids=[
    f"{'' if b == 'exact' else b + '-'}{f}-{v}" for b, f, v in PLANS_PAST_THE_CEILING])
def test_plan_above_the_cutoff_ceiling_exits_3(tmp_path, capsys, backend, field, value):
    # asserted first, so that without the ceiling the run below, which would
    # build a displacement matrix of millions of levels, never starts
    with pytest.raises(fock.CutoffError):
        TomographyPlan(**{**dict(gamma_abs=1.0, n_phases=10, max_fock=2, n_rows=6),
                          field: value})
    capsys.readouterr()
    config = {**VALID["tomography"], "backend": backend, field: value}
    code, out = run(tmp_path, "tomography", "--config", write_config(tmp_path, config))
    assert code == 3
    err = capsys.readouterr().err
    assert field in err and f"> {fock.CUTOFF_CEILING}" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert cli.main(["profile", "--preset", "fig2", "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["profile", "--preset", "fig2", "--out", str(tmp_path / "b"),
                         "--format", "structured"]) == 0
        with pytest.raises(SystemExit):
            cli.main(["profile", "--format", "xml"])
        assert cli.main(["profile", "--preset", "fig2", "--out", str(tmp_path / "c")]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert read_all(tmp_path / "a") == read_all(tmp_path / "c")


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "fockfilter.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("profile", "synthesize", "superposition", "measure-pn", "tomography"):
        assert name in proc.stdout


NO_SCIPY = """
import sys
from fockfilter import cli
assert cli.main(["tomography", "--preset", "tomo-coherent", "--out", "tomo"]) == 0
assert cli.main(["measure-pn", "--preset", "fig3-coherent", "--out", "pn"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_runs_never_import_scipy(tmp_path):
    # scipy is a test-only dependency: a run must not load it
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_manifest_with_control_character_is_valid_json_and_replays(tmp_path):
    # a tab in a path string must be escaped, or the manifest is no JSON
    _, source = run(tmp_path / "a\tb", "tomography", "--preset", "tomo-coherent")
    cfg, _ = tomography_config(tmp_path, measurements=str(source / "measured.csv"))
    code, first = run(tmp_path / "first-replay", "tomography", "--config", str(cfg))
    assert code == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["config"]["measurements"] == str(source / "measured.csv")
    code, second = run(tmp_path / "second-replay", "tomography",
                       "--config", str(first / "manifest.json"))
    assert code == 0
    assert read_all(first) == read_all(second)


def measured_rows(tmp_path):
    """(config path, measured.csv path, header, rows) of a tomo-coherent replay."""
    measured = tmp_path / "measured.csv"
    cfg, first = tomography_config(tmp_path, measurements=str(measured))
    header, rows = tables.read_csv(first / "measured.csv")
    return cfg, measured, header, rows


@pytest.mark.parametrize("cells,named", [(["0", "1"], "line 7 has 2 cells"),
                                         (["0", "5", "0.1", "9"], "line 7 has 4 cells")])
def test_measured_row_with_wrong_cell_count_exits_2(tmp_path, capsys, cells, named):
    cfg, measured, header, rows = measured_rows(tmp_path)
    rows[5] = cells
    write_csv(measured, header, rows)
    capsys.readouterr()
    code, out = run(tmp_path, "tomography", "--config", str(cfg))
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edits,named", [
    ({7: (0, "0.1")}, "phase 0.1 is not on the plan's grid"),
    ({7: (1, "12")}, "row index n = 12 outside 0..11"),
    ({7: (1, "-1")}, "row index n = -1 outside 0..11"),
    ({7: (1, "99999999999999999999")}, "row index n = 99999999999999999999 outside"),
    ({7: (1, "1.5")}, "invalid literal for int() with base 10: '1.5'"),
    ({7: (0, "x")}, "could not convert string to float: 'x'"),
    ({7: (1, "3")}, "repeats the row phi = 0.0, n = 3"),
    ({7: (2, "-inf")}, "non-finite p = -inf at phi = 0.0, n = 7"),
    # the first offending row in file order wins, whatever its fault
    ({3: (0, "0.1"), 9: (1, "1.5")}, "phase 0.1 is not on the plan's grid"),
    ({3: (1, "1.5"), 9: (0, "0.1")}, "invalid literal for int()"),
    ({3: (2, "nan"), 9: (1, "3")}, "non-finite p = nan at phi = 0.0, n = 3"),
    ({3: (1, "99"), 9: (2, "z")}, "row index n = 99 outside"),
])
def test_measured_table_rejections_name_the_first_offending_row(tmp_path, capsys,
                                                                 edits, named):
    cfg, measured, header, rows = measured_rows(tmp_path)
    for i, (cell, value) in edits.items():
        rows[i][cell] = value
    write_csv(measured, header, rows)
    capsys.readouterr()
    code, _ = run(tmp_path, "tomography", "--config", str(cfg))
    assert code == 2
    assert named in capsys.readouterr().err


def test_measured_table_missing_a_cell_exits_2(tmp_path, capsys):
    cfg, measured, header, rows = measured_rows(tmp_path)
    write_csv(measured, header, rows[:-1])
    capsys.readouterr()
    code, _ = run(tmp_path, "tomography", "--config", str(cfg))
    assert code == 2
    assert "does not cover all (phase, n) cells" in capsys.readouterr().err


def test_measured_rows_in_any_order_reconstruct_the_same_state(tmp_path):
    cfg, measured, header, rows = measured_rows(tmp_path)
    write_csv(measured, header, rows[::-1])
    code, out = run(tmp_path, "tomography", "--config", str(cfg))
    assert code == 0
    assert (out / "reconstruction.csv").read_bytes() \
        == (tmp_path / "first" / "out" / "reconstruction.csv").read_bytes()


def test_unknown_update_rule_exits_2_without_files(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"update_rule": "bogus"}))
    capsys.readouterr()
    code, out = run(tmp_path, "measure-pn", "--preset", "fig3-coherent", "--config", str(cfg))
    assert code == 2
    assert "update_rule" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# configuration tables

def write_config(tmp_path, config):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


COHERENT = {"kind": "coherent", "amplitude": [1.0, 0.0]}
VALID = {
    "profile": {"cavity": {"tau": 0.01, "psi": 0.1, "chi_t": 0.1}},
    "synthesize": {"state": COHERENT, "taus": [0.01], "chi_t": 0.1},
    "superposition": {"state": COHERENT,
                      "cavity": {"tau": 1e-4, "psi": 0.0, "chi_t": math.pi / 2}},
    "measure-pn": {"state": COHERENT, "tau": 1e-3, "chi_t": 0.1, "samples": 50},
    "tomography": {"state": COHERENT, "max_fock": 2},
}
MONTE_CARLO = {**VALID["tomography"], "backend": "monte_carlo", "samples": 200}
DROP = object()


def edited(config, path, value):
    """A deep copy of config with the field at dotted `path` set to value (or dropped)."""
    config = json.loads(json.dumps(config))
    *outer, name = path.split(".")
    block = config
    for key in outer:
        block = block.setdefault(key, {})
    if value is DROP:
        block.pop(name, None)
    else:
        block[name] = value
    return config


# experiment: (a required field, a number field, an integer field)
FIELD_KINDS = {
    "profile": ("cavity.psi", "cavity.tau", "n_max"),
    "synthesize": ("chi_t", "psi", "cutoff"),
    "superposition": ("cavity", "eta", "cutoff"),
    "measure-pn": ("tau", "eta", "seed"),
    "tomography": ("state", "gamma_abs", "n_rows"),
}


def common_rejections():
    """experiment, field, bad value, text the message must contain."""
    for experiment, (required, number, integer) in FIELD_KINDS.items():
        yield experiment, "bogus", 1, "bogus"
        yield experiment, required, DROP, required
        yield experiment, number, True, number
        yield experiment, number, "x", number
        yield experiment, integer, math.inf, integer
        yield experiment, integer, 2.5, integer
        if "state" in VALID[experiment]:
            yield experiment, "state.kind", "cat", "state.kind"


REJECTIONS = [
    *common_rejections(),
    ("profile", "cavity.spin", 1, "cavity.spin"),
    ("profile", "cavity", None, "cavity"),
    ("profile", "cavity.tau", 10 ** 400, "cavity.tau"),
    ("synthesize", "taus", [], "taus"),
    ("synthesize", "taus", [0.01, "x"], "taus[1]"),
    ("superposition", "state", 3, "state"),
    ("superposition", "state.kind", DROP, "state.kind"),
    ("superposition", "alpha", [1.0, 2.0, 3.0], "alpha"),
    ("superposition", "cutoff", -math.inf, "cutoff"),
    ("measure-pn", "update_rule", False, "update_rule"),
    ("measure-pn", "state.mean_n", 1.0, "state.mean_n"),   # not a field of coherent
    ("tomography", "backend", "fast", "backend"),
    ("tomography", "measurements", 3, "measurements"),
    ("tomography", "cavity.psi", 0.0, "cavity.psi"),
    # exact tomography builds the counter its manifest records, and so checks it
    ("tomography", "samples", 0, "samples must be >= 1, got 0"),
    ("tomography", "cavity.tau", 5.0, "tau must lie strictly in (0, 1), got 5.0"),
    ("tomography", "cavity.chi_t", -1.0, "chi_t must be finite and > 0, got -1.0"),
    ("tomography", "eta", 0.0, "eta must lie in (0, 1], got 0.0"),
    ("tomography", "alpha", 101, "|alpha| = 101 exceeds the supported range"),
    ("tomography", "seed", -1, "rng_seed must lie in 0..18446744073709551615, got -1"),
    ("tomography", "seed", 2 ** 64, "rng_seed must lie in 0..18446744073709551615, got 1844"),
    ("measure-pn", "seed", -1, "seed"),
]

# sizes past the ceilings, each of which would allocate gigabytes: the value
# run, and the library refusal of one past the ceiling, asserted before the
# run so that without the ceiling the test fails before the CLI allocates
CEILINGS = {
    ("measure-pn", "n_top"): (10 ** 9, lambda: CascadeConfig(
        n_top=fock.CUTOFF_CEILING + 1, tau=1e-3, chi_t=0.1,
        probe=ProbeDetector(alpha=20.0, eta=0.4), samples=1, rng_seed=0)),
    ("profile", "n_max"): (10 ** 10, lambda: transmission_profile(
        CavityParams(tau=0.01, psi=0.1, chi_t=0.1), fock.CUTOFF_CEILING + 1)),
    ("tomography", "n_phases"): (10 ** 9, lambda: TomographyPlan(
        gamma_abs=1.0, n_phases=2 * fock.CUTOFF_CEILING + 2, max_fock=2, n_rows=6)),
}
REJECTIONS += [(e, f, value, f) for (e, f), (value, _) in CEILINGS.items()]
# Monte Carlo tomography builds its counter once the plan has checked n_rows,
# so a bad n_rows is named by the plan and not as the counter's n_top
MONTE_CARLO_REJECTIONS = [
    ("tomography", "n_rows", 0, "n_rows = 0 underdetermines the s = 0 system"),
    ("tomography", "samples", 0, "samples must be >= 1, got 0"),
    ("tomography", "cavity.tau", 1.0, "tau must lie strictly in (0, 1), got 1.0"),
    ("tomography", "eta", 0.0, "eta must lie in (0, 1], got 0.0"),
]
REJECTION_CASES = ([(VALID[row[0]], *row) for row in REJECTIONS]
                   + [(MONTE_CARLO, *row) for row in MONTE_CARLO_REJECTIONS])


@pytest.mark.parametrize("config,experiment,field,value,named", REJECTION_CASES, ids=[
    f"{e}{'' if c is VALID[e] else '-monte_carlo'}-{f}-"
    f"{'absent' if v is DROP else json.dumps(v)[:12]}" for c, e, f, v, _ in REJECTION_CASES])
def test_bad_field_exits_2_naming_it_without_files(tmp_path, capsys, config, experiment,
                                                    field, value, named):
    past, refuse = CEILINGS.get((experiment, field), (None, None))
    if refuse is not None and value == past:
        with pytest.raises(ValueError, match=field):
            refuse()
    cfg = write_config(tmp_path, edited(config, field, value))
    capsys.readouterr()
    code, out = run(tmp_path, experiment, "--config", cfg)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", sorted(VALID))
def test_valid_configs_of_the_rejection_table_run(tmp_path, experiment):
    code, _ = run(tmp_path, experiment, "--config", write_config(tmp_path, VALID[experiment]))
    assert code == 0


NUMBER = {"kind": "number", "n": 1}
# every integer field of every experiment: (experiment, config, field, value)
INTEGER_FIELDS = [
    ("profile", VALID["profile"], "n_max", 12),
    ("synthesize", VALID["synthesize"], "cutoff", 12),
    ("superposition", VALID["superposition"], "cutoff", 12),
    ("measure-pn", VALID["measure-pn"], "n_top", 6),
    ("measure-pn", VALID["measure-pn"], "samples", 60),
    ("measure-pn", VALID["measure-pn"], "seed", 7),
    ("measure-pn", {**VALID["measure-pn"], "state": NUMBER}, "state.n", 2),
    ("tomography", MONTE_CARLO, "max_fock", 3),
    ("tomography", MONTE_CARLO, "n_rows", 9),
    ("tomography", MONTE_CARLO, "n_phases", 11),
    ("tomography", MONTE_CARLO, "samples", 300),
    ("tomography", MONTE_CARLO, "seed", 5),
]


@pytest.mark.parametrize("experiment,config,field,value", INTEGER_FIELDS,
                         ids=[f"{e}-{f}" for e, _, f, _ in INTEGER_FIELDS])
def test_integral_json_floats_run_as_their_integers(tmp_path, experiment, config, field,
                                                    value):
    # the library refuses 12.0 for a size, so the CLI must hand it 12: a
    # config written as 12.0 runs, and writes, exactly what 12 does
    outputs = []
    for given in (value, float(value)):
        cfg = write_config(tmp_path / repr(given), edited(config, field, given))
        code, out = run(tmp_path / repr(given), experiment, "--config", cfg)
        assert code == 0
        outputs.append(read_all(out))
    assert outputs[0] == outputs[1]
    manifest = json.loads(outputs[1]["manifest.json"])["config"]
    for key in field.split("."):
        manifest = manifest[key]
    assert type(manifest) is int and manifest == value


NULLABLE = {
    "profile": ["n_max"],
    "synthesize": ["psi", "alpha", "eta", "cutoff", "state.amplitude"],
    "superposition": ["alpha", "eta", "cutoff"],
    "measure-pn": ["alpha", "eta", "n_top", "samples", "update_rule", "seed"],
    "tomography": ["max_fock", "gamma_abs", "n_phases", "n_rows", "backend", "samples",
                   "cavity", "alpha", "eta", "seed", "measurements", "state.amplitude"],
}


@pytest.mark.parametrize("experiment", sorted(NULLABLE))
def test_null_and_absent_fields_take_the_same_default(tmp_path, experiment):
    absent, null = VALID[experiment], VALID[experiment]
    for field in NULLABLE[experiment]:
        absent = edited(absent, field, DROP)
        null = edited(null, field, None)
    first = cli.resolve_config(experiment, config_path=write_config(tmp_path / "a", absent))
    second = cli.resolve_config(experiment, config_path=write_config(tmp_path / "b", null))
    assert first.params == second.params
    assert str(tables.json_text(first.params)) == str(tables.json_text(second.params))


# sha256 of each preset's manifest.json, as written before the presets were
# reduced to the fields that differ from the defaults
PRESET_MANIFESTS = {
    ("profile", "fig2", "table"):
        "8a0c4360fb3187ffb89f1e896ee331d1d56d93043facf40169a7af226458da72",
    ("profile", "fig2", "structured"):
        "fc32cebeb1bde824b7a63c5924ca3c97bd50bdcc8d6f0d9d8080b20bc70d3d72",
    ("synthesize", "fig2", "table"):
        "cd7c776a46fae97f6d27a8cabfcd918ae35b318a9dc69978d39fc6216c75c1a7",
    ("synthesize", "fig2", "structured"):
        "c7c13b219e043cc34091ff61622c77c1fe0e3ee53864418902d828a509e69089",
    ("superposition", "two-resonance", "table"):
        "824028d256a8d425148bae3971ba74a59684ec689b27cbfa4bf2ccc09eaa9a9d",
    ("superposition", "two-resonance", "structured"):
        "7883891cd92c94b42aa19cfe654949a822990830a5e676fe8bc00c9dba8598ff",
    ("measure-pn", "fig3-squeezed", "table"):
        "2f89812aed0d4712be641b89ae36e2ab3567a9ab9ad85c813ed3d26d76aa11b4",
    ("measure-pn", "fig3-squeezed", "structured"):
        "ef6fa0939ba40c7e420f1b2f22e0544f174f7758e94969c4ddd58b3d5fa111b4",
    ("measure-pn", "fig3-coherent", "table"):
        "a77cee65ec3e02fac598373c0a51d0a131129cad81d76674b0e2dd7d35fca548",
    ("measure-pn", "fig3-coherent", "structured"):
        "9d95342dbb4c88059d7509e94bf7cc341d3c743aa1d8c3dc1748105f2453984d",
    ("measure-pn", "fig3-thermal", "table"):
        "a1659ba9a479d01b5ce7604154add234d5ab05392af616ed37d91c81099644d5",
    ("measure-pn", "fig3-thermal", "structured"):
        "a9e4bcc12b43a78e3a8ce9504a23c3c71698c5ed98536af0ac9f232b5ea1045e",
    ("tomography", "tomo-coherent", "table"):
        "7aa2f64b69de16d87c6877b3e018c1c17ec040b2758a609bc7660e913e014574",
    ("tomography", "tomo-coherent", "structured"):
        "03aad069d53fe5d2e440d19437141faae9cd0081a0df2256610c484282d52098",
}


@pytest.mark.parametrize("experiment,preset,fmt", sorted(PRESET_MANIFESTS))
def test_preset_manifest_bytes_are_pinned(tmp_path, experiment, preset, fmt):
    code, out = run(tmp_path, experiment, "--preset", preset, "--format", fmt)
    assert code == 0
    digest = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    assert digest == PRESET_MANIFESTS[experiment, preset, fmt]


def test_every_preset_has_a_pinned_manifest():
    assert {(e, p) for e, p, _ in PRESET_MANIFESTS} \
        == {(e, p) for e, presets in cli.PRESETS.items() for p in presets}


# ---------------------------------------------------------------------------
# synthesize target bookkeeping

def synthesize(tmp_path, capsys, state, psi, cutoff, fmt="table"):
    cfg = write_config(tmp_path, {"state": state, "taus": [0.002], "psi": psi,
                                  "chi_t": 0.01, "cutoff": cutoff})
    capsys.readouterr()
    code, out = run(tmp_path, "synthesize", "--config", cfg, "--format", fmt)
    return code, out, dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())


def test_synthesize_state_without_weight_off_target_has_infinite_dominance(tmp_path, capsys):
    code, out, summary = synthesize(tmp_path, capsys, {"kind": "number", "n": 4}, 0.04, 6)
    assert code == 0
    assert summary["target_n"] == "4"
    _, rows = tables.read_csv(out / "summary.csv")
    assert float(rows[0][2]) == 1.0
    assert rows[0][3] == "inf"


def test_synthesize_target_below_zero_has_no_weight(tmp_path, capsys):
    code, out, summary = synthesize(tmp_path, capsys, {"kind": "coherent", "amplitude": 2},
                                    -0.04, 12)
    assert code == 0
    assert summary["target_n"] == "-4"
    assert summary["target_weight_0"] == "0"
    _, rows = tables.read_csv(out / "summary.csv")
    assert float(rows[0][2]) == 0.0


def test_non_finite_results_are_json_strings_read_like_the_csv_cell(tmp_path, capsys):
    state = {"kind": "number", "n": 0}
    code, out, _ = synthesize(tmp_path / "json", capsys, state, 0.0, 0, fmt="structured")
    assert code == 0
    doc = json.loads((out / "results.json").read_text())
    row = doc["tables"]["summary"]["rows"][0]
    assert row[3] == "inf"
    code, csv_out, _ = synthesize(tmp_path / "csv", capsys, state, 0.0, 0)
    assert code == 0
    _, rows = tables.read_csv(csv_out / "summary.csv")
    assert [float(cell) for cell in row] == [float(cell) for cell in rows[0]]


def test_overflowing_n_star_exits_2(tmp_path, capsys):
    for experiment, config in [
            ("profile", {"cavity": {"tau": 0.01, "psi": 1e308, "chi_t": 1e-10}}),
            ("synthesize", {"state": COHERENT, "taus": [0.01], "psi": 1e308, "chi_t": 1e-10})]:
        capsys.readouterr()
        code, _ = run(tmp_path, experiment, "--config", write_config(tmp_path, config))
        assert code == 2
        assert "n*" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# every table is a Columns, from the runners to the file

@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_every_table_the_cli_writes_is_columns(tmp_path, monkeypatch, fmt):
    emit, seen = cli.emit_results, []

    def checked(result, cfg):
        for name, tab in result["tables"].items():
            seen.append((cfg.experiment, name))
            assert isinstance(tab["rows"], tables.Columns), (cfg.experiment, name)
        return emit(result, cfg)

    monkeypatch.setattr(cli, "emit_results", checked)
    for experiment, presets in sorted(cli.PRESETS.items()):
        for preset in presets:
            argv = [experiment, "--preset", preset, "--format", fmt]
            assert run(tmp_path / f"{experiment}-{preset}", *argv)[0] == 0
    assert {experiment for experiment, _ in seen} == set(cli.EXPERIMENTS)
    assert {("synthesize", "summary"), ("measure-pn", "histogram"),
            ("tomography", "measured")} <= set(seen)


def test_a_table_that_is_not_columns_is_refused_before_any_file(tmp_path, monkeypatch):
    argv = ["synthesize", "--preset", "fig2"]
    assert run(tmp_path, *argv)[0] == 0
    out = tmp_path / "out"
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
    synthesize = cli._RUNNERS["synthesize"]

    def listed(params):
        result = synthesize(params)
        result["tables"]["summary"]["rows"] = list(result["tables"]["summary"]["rows"])
        return result

    monkeypatch.setitem(cli._RUNNERS, "synthesize", listed)
    with pytest.raises(TypeError, match="Columns"):
        run(tmp_path, *argv)
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()} == before


# ---------------------------------------------------------------------------
# reruns into an existing --out directory rewrite its files in place

PRESET_RUNS = [(e, p, fmt) for e, presets in sorted(cli.PRESETS.items()) for p in sorted(presets)
               for fmt in ("table", "structured")]


@pytest.mark.parametrize("experiment,preset,fmt", PRESET_RUNS)
def test_rerun_into_the_same_directory_gives_the_fresh_bytes(tmp_path, experiment, preset,
                                                            fmt):
    argv = [experiment, "--preset", preset, "--format", fmt]
    assert run(tmp_path / "fresh", *argv)[0] == 0
    assert run(tmp_path / "rerun", *argv)[0] == 0
    assert run(tmp_path / "rerun", *argv)[0] == 0
    assert read_all(tmp_path / "rerun" / "out") == read_all(tmp_path / "fresh" / "out")


def test_rerun_with_shorter_output_leaves_no_stale_tail(tmp_path):
    big = write_config(tmp_path / "big", {"max_fock": 8})
    small = write_config(tmp_path / "small", {"max_fock": 2})
    argv = ["tomography", "--preset", "tomo-coherent", "--format", "structured"]
    assert run(tmp_path / "rerun", *argv, "--config", big)[0] == 0
    longer = read_all(tmp_path / "rerun" / "out")
    assert run(tmp_path / "rerun", *argv, "--config", small)[0] == 0
    assert run(tmp_path / "fresh", *argv, "--config", small)[0] == 0
    rewritten, fresh = read_all(tmp_path / "rerun" / "out"), read_all(tmp_path / "fresh" / "out")
    assert len(rewritten["results.json"]) < len(longer["results.json"])
    assert rewritten == fresh
    assert set(fresh) == {"manifest.json", "results.json"}


def test_directory_in_place_of_an_output_file_exits_2(tmp_path, capsys):
    (tmp_path / "out" / "manifest.json").mkdir(parents=True)
    code, _ = run(tmp_path, "profile", "--preset", "fig2")
    assert code == 2
    assert "manifest.json" in capsys.readouterr().err


def test_an_output_that_cannot_be_opened_leaves_every_file_untouched(tmp_path, capsys):
    argv = ["measure-pn", "--preset", "fig3-thermal"]
    assert run(tmp_path, *argv, "--seed", "4")[0] == 0
    out = tmp_path / "out"
    (out / "input_distribution.csv").unlink()
    (out / "input_distribution.csv").mkdir()
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()
              if p.is_file()}
    code, _ = run(tmp_path, *argv, "--seed", "5")
    assert code == 2
    assert "input_distribution.csv" in capsys.readouterr().err
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()
            if p.is_file()} == before


def test_a_failed_open_removes_the_files_the_run_created(tmp_path):
    out = tmp_path / "out"
    (out / "input_distribution.csv").mkdir(parents=True)
    code, _ = run(tmp_path, "measure-pn", "--preset", "fig3-thermal")
    assert code == 2
    assert [p.name for p in out.iterdir()] == ["input_distribution.csv"]


def test_good_cavity_fock_state_below_n_top_clicks_at_its_own_stage(tmp_path):
    # every trial clicks at stage 5, and no trial reaches the stages after it,
    # where the all-OFF path is dead
    config = write_config(tmp_path, {"state": {"kind": "number", "n": 5},
                                     "update_rule": "good_cavity"})
    code, out = run(tmp_path, "measure-pn", "--preset", "fig3-thermal", "--config", config)
    assert code == 0
    _, rows = tables.read_csv(out / "histogram.csv")
    p = {int(row[0]): float(row[1]) for row in rows}
    assert p[5] == 1.0
    assert sum(p.values()) == 1.0


# ---------------------------------------------------------------------------
# every output is streamed into its file: a write holds a block of text,
# never a whole file, and a failure part way cuts the file being written

def failing_table(monkeypatch, k):
    """Make the k-th table the array path prints, counted from 1, raise."""
    calls, array_text = [], _arraytext.array_text

    def fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise RuntimeError("formatting failed")
        return array_text(*args, **kwargs)

    monkeypatch.setattr(_arraytext, "array_text", fails)


def ladder_config(tmp_path, cutoff):
    """Two 1681-cell states at cutoff 40, each printed by the array path."""
    return write_config(tmp_path, {"state": COHERENT, "taus": [0.002, 2e-4], "psi": 0.04,
                                   "chi_t": 0.01, "cutoff": cutoff})


def test_a_failure_in_the_second_table_of_a_document_cuts_it_there(tmp_path, monkeypatch):
    argv = ["synthesize", "--config", ladder_config(tmp_path, 40), "--format", "structured"]
    assert run(tmp_path, *argv)[0] == 0
    out = tmp_path / "out"
    manifest, full = (out / "manifest.json").read_bytes(), (out / "results.json").read_bytes()
    (out / "results.json").write_bytes(full + b"the longer tail of an older run\n")
    failing_table(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="formatting failed"):
        run(tmp_path, *argv)
    left = (out / "results.json").read_bytes()
    assert len(left) < len(full) and full.startswith(left)
    assert left.endswith(b'"state_1": {\n      "header": [\n        "n",\n        "m",\n'
                         b'        "re",\n        "im"\n      ],\n      "rows": [\n')
    assert (out / "manifest.json").read_bytes() == manifest


def test_a_failure_mid_run_leaves_the_files_not_yet_reached_untouched(tmp_path, monkeypatch):
    assert run(tmp_path / "fresh", "synthesize", "--config", ladder_config(tmp_path, 41))[0] == 0
    assert run(tmp_path, "synthesize", "--config", ladder_config(tmp_path, 40))[0] == 0
    out, fresh = tmp_path / "out", read_all(tmp_path / "fresh" / "out")
    old = read_all(out)
    failing_table(monkeypatch, 1)  # state_0.csv, after distribution_0.csv
    with pytest.raises(RuntimeError, match="formatting failed"):
        run(tmp_path, "synthesize", "--config", ladder_config(tmp_path, 41))
    now = read_all(out)
    assert now["distribution_0.csv"] == fresh["distribution_0.csv"]
    assert len(now["state_0.csv"]) < len(fresh["state_0.csv"])
    assert fresh["state_0.csv"].startswith(now["state_0.csv"])
    # the manifest is written last: it still describes the old run
    for name in ("distribution_1.csv", "state_1.csv", "summary.csv", "manifest.json"):
        assert now[name] == old[name] != fresh[name]


@pytest.mark.parametrize("experiment,preset,fmt", [("tomography", "tomo-coherent", "table"),
                                                   ("synthesize", "fig2", "structured")])
def test_every_output_goes_through_the_traced_writers(tmp_path, monkeypatch, experiment, preset,
                                                      fmt):
    # the benchmark's tracer wraps these three functions by name, binds rows,
    # obj and text, and reads len(text) after the write: every file must pass
    # through them, with len(text) its size, or tables.rows and tables.bytes
    # read 0
    seen = {"table_text": [], "json_text": [], "write_text": []}

    def wrap(name, count):
        fn = getattr(tables, name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen[name].append((count(signature.bind(*args, **kwargs).arguments), result))
            return result

        monkeypatch.setattr(tables, name, traced)

    wrap("table_text", lambda a: len(a["rows"]))
    wrap("json_text", lambda a: sum(len(t["rows"]) for t in a["obj"].get("tables", {}).values()))
    wrap("write_text", lambda a: len(a["text"]))
    code, out = run(tmp_path, experiment, "--preset", preset, "--format", fmt)
    assert code == 0
    assert {os.path.basename(path): size for size, path in seen["write_text"]} \
        == {p.name: p.stat().st_size for p in out.iterdir()}
    assert len(seen["table_text"]) + len(seen["json_text"]) == len(seen["write_text"])
    if fmt == "table":
        rows = sum(len(tables.read_csv(p)[1]) for p in out.glob("*.csv"))
    else:
        doc = json.loads((out / "results.json").read_bytes())
        rows = sum(len(t["rows"]) for t in doc["tables"].values())
    assert rows > 0
    assert sum(n for n, _ in seen["table_text"] + seen["json_text"]) == rows


LADDER = {"state": {"kind": "coherent", "amplitude": [3.0, 1.0]},
          "taus": [0.02, 0.002, 2e-4, 1e-3], "psi": 0.04, "chi_t": 0.01, "cutoff": 150}


@pytest.fixture(scope="module")
def ladder(tmp_path_factory):
    """(result, cfg) of a synthesize ladder at cutoff 150, written once to
    cfg.out_dir as one document: four 151 x 151 states."""
    tmp_path = tmp_path_factory.mktemp("ladder")
    cfg = cli.resolve_config("synthesize", config_path=write_config(tmp_path, LADDER),
                             out_dir=str(tmp_path / "out"), fmt="structured")
    return cli.run_experiment(cfg), cfg


def peak_bytes(write):
    """The peak of the memory allocated while write() runs."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_a_large_document_holds_no_whole_file(ladder):
    result, cfg = ladder
    path = pathlib.Path(cfg.out_dir) / "results.json"
    size = path.stat().st_size
    assert size >= 6_000_000
    peak = peak_bytes(lambda: cli.emit_results(result, cfg))
    assert path.stat().st_size == size
    assert peak < size / 2, (peak, size)


def test_writing_a_large_state_table_holds_no_whole_file(ladder, tmp_path):
    table = ladder[0]["tables"]["state_0"]
    assert len(table["rows"]) == 151 * 151 and table["rows"].mirror is not None
    path = str(tmp_path / "state_0.csv")

    def write():
        [fh] = tables.open_in_place([path])
        tables.write_text(fh, tables.table_text(table["header"], table["rows"]))

    write()
    size = os.path.getsize(path)
    peak = peak_bytes(write)
    assert peak < 2 * size, (peak, size)
