"""Command-line interface: presets, file formats, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from fockfilter import cli, tables


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = cli.main([*argv, "--out", str(out)])
    return code, out


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_profile_preset(tmp_path):
    code, out = run(tmp_path, "profile", "--preset", "fig2")
    assert code == 0
    header, rows = tables.read_csv(out / "profile.csv")
    assert header == ["n", "transmission"]
    assert len(rows) == 31
    values = [float(r[1]) for r in rows]
    assert values.index(max(values)) == 4


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
    assert (first / "reconstruction.csv").read_bytes() \
        == (second / "reconstruction.csv").read_bytes()


def test_duplicate_measured_rows_exit_2(tmp_path):
    _, first = run(tmp_path / "a", "tomography", "--preset", "tomo-coherent")
    manifest = json.loads((first / "manifest.json").read_text())
    header, rows = tables.read_csv(first / "measured.csv")
    # every cell present, and (phi, n) of the first row given a second time
    rows.append([rows[0][0], rows[0][1], "0.5"])
    measured = tmp_path / "measured.csv"
    measured.write_text(tables.table_text(header, rows))
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
    measured.write_text(tables.table_text(header, rows))
    capsys.readouterr()
    code, _ = run(tmp_path, "tomography", "--config", str(cfg))
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_displacement_overflow_exits_3(tmp_path):
    cfg, _ = tomography_config(tmp_path, gamma_abs=12)
    code, _ = run(tmp_path, "tomography", "--config", str(cfg))
    assert code == 3


@pytest.mark.parametrize("argv", [
    ("profile", "--preset", "nope"),
    ("profile",),                                   # no configuration at all
    ("synthesize", "--preset", "fig2", "--seed", "3"),  # unseeded experiment
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


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "fockfilter.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("profile", "synthesize", "superposition", "measure-pn", "tomography"):
        assert name in proc.stdout
