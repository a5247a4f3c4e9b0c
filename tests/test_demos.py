"""Every narrative demo under demos/ and every python example of README.md
runs to the end, the package root exports exactly the public names below,
each resolves and each function among them has a caller outside the tests,
and no library module imports from the tests."""

import ast
import inspect
import re
import runpy
import sys
from pathlib import Path

import pytest

import fockfilter

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
# the fenced python blocks of README.md, in order
README_EXAMPLES = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)

# the public API: what the CLI, the demos and the README examples need
PUBLIC = [
    "CascadeConfig", "CavityParams", "CutoffError", "DistributionEstimate",
    "FilterResult", "NumericalError", "ProbeDetector", "ReconstructionResult",
    "StateSpec", "SuperpositionReport", "TomographyPlan", "analytic_distribution",
    "cavity_amplitudes", "choose_cutoff", "default_gamma_abs", "derive_seeds",
    "displacement_margin", "displacement_matrix", "estimate_photon_distribution",
    "fidelity_to_pure", "filter_pass", "make_state", "measure_distributions",
    "mode_amplitudes", "photon_distribution", "purity", "reconstruct",
    "resonant_components", "response_matrix", "superposition_synthesis_check",
    "total_phase", "trace_distance", "transmission_profile",
]

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


def test_readme_has_its_three_examples():
    assert len(README_EXAMPLES) == 3


@pytest.mark.parametrize("index", range(len(README_EXAMPLES)))
def test_readme_example_runs(index, capsys):
    code = compile(README_EXAMPLES[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": "__main__"})
    assert capsys.readouterr().out.strip()


def test_every_exported_name_resolves():
    assert len(PUBLIC) == 33
    assert sorted(fockfilter.__all__) == sorted(["__version__", *PUBLIC])
    for name in fockfilter.__all__:
        assert hasattr(fockfilter, name), name


def _loaded_names(trees):
    """Every name the trees use, bare (f) or as an attribute (module.f)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_function_has_a_caller_outside_the_tests():
    # a library module other than its own, another function of its own
    # module, a demo or a README example names it; a function that only
    # the tests call is a test reference (tests/reference.py), not API
    library = {path.stem: ast.parse(path.read_text())
               for path in (ROOT / "src" / "fockfilter").glob("*.py")
               if path.stem != "__init__"}
    outside = [*(ast.parse(path.read_text()) for path in DEMOS.glob("*.py")),
               *map(ast.parse, README_EXAMPLES)]
    uncalled = []
    for name in fockfilter.__all__:
        function = getattr(fockfilter, name)
        if not inspect.isfunction(function):
            continue
        home = function.__module__.rpartition(".")[2]
        callers = [*(tree for stem, tree in library.items() if stem != home), *outside,
                   *(node for node in library[home].body if getattr(node, "name", None) != name)]
        if name not in _loaded_names(callers):
            uncalled.append(name)
    assert uncalled == []


def test_no_library_module_imports_from_the_tests():
    test_modules = {p.stem for p in (ROOT / "tests").glob("*.py")} | {"tests"}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in test_modules, f"{path} imports {name}"
