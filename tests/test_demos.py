"""Every narrative demo under demos/ runs to the end with small arguments,
and every name the package root exports resolves."""

import runpy
import sys
from pathlib import Path

import pytest

import fockfilter

DEMOS = Path(__file__).resolve().parent.parent / "demos"

ARGS = {
    "density_matrix_tomography.py": ["--max-fock", "3", "--samples", "200"],
    "fock_superposition.py": [],
    "number_state_synthesis.py": ["--cutoff", "20"],
    "photon_number_measurement.py": ["--samples", "200"],
    "transmission_profile.py": ["--n-max", "6"],
}


def test_every_demo_has_arguments():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(ARGS)


@pytest.mark.parametrize("name", sorted(ARGS))
def test_demo_runs(name, monkeypatch, capsys):
    path = DEMOS / name
    monkeypatch.setattr(sys, "argv", [str(path), *ARGS[name]])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_every_exported_name_resolves():
    assert len(set(fockfilter.__all__)) == len(fockfilter.__all__)
    for name in fockfilter.__all__:
        assert hasattr(fockfilter, name), name
