"""The package root's public names, which are a contract.

Dropping or adding a name is a deliberate change of this list.
"""

import importlib
import shlex
from pathlib import Path

import numpy as np
import pytest

import entrospec
from entrospec.cli import main

from conftest import diag_state, write_state

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "ComplexRoots",
    "DegreeDeficit",
    "DimensionMismatch",
    "EntropyCurve",
    "EntropyOracle",
    "EntrospecError",
    "EquivalenceReport",
    "IllConditioned",
    "LambdaOutOfRange",
    "NotFinite",
    "NotHermitian",
    "NotPositiveSemidefinite",
    "ParseError",
    "PropertyResult",
    "QuantumState",
    "RecoveredSpectrum",
    "SingularEndpoint",
    "Spectrum",
    "TraceNotOne",
    "ValidationError",
    "as_complex_matrix",
    "decide_grid",
    "decide_nodes",
    "decide_spectral",
    "default_nodes",
    "depolarize",
    "determinant_polynomial",
    "entropy_of_spectrum",
    "equal_entropy_pair",
    "fit_determinant_polynomial",
    "load_matrix",
    "oracle_from_spectrum",
    "parse_matrix_file",
    "random_state",
    "random_unitary",
    "recover_spectrum",
    "run_selftest",
    "sample_log2_determinant",
    "save_matrix",
]


def test_all_is_the_pinned_list():
    assert sorted(entrospec.__all__) == PUBLIC_NAMES
    assert len(set(entrospec.__all__)) == len(entrospec.__all__)


def test_every_public_name_resolves_from_the_package_root():
    # each name is the object its defining module holds
    for name in PUBLIC_NAMES:
        module = importlib.import_module(f"entrospec.{entrospec._MODULE_OF[name]}")
        value = getattr(entrospec, name)
        assert value is vars(module)[name], name
        # the module that defines it, not one that imports it
        assert value.__module__ == module.__name__, name


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(entrospec))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from entrospec import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES


def test_unknown_name_raises_attribute_error_naming_it():
    # the constructor has one public name, QuantumState
    for name in ("no_such_name", "validate_state"):
        with pytest.raises(AttributeError, match=name):
            getattr(entrospec, name)


def test_submodules_still_import_from_the_package_root():
    from entrospec import selftest

    assert selftest is importlib.import_module("entrospec.selftest")
    assert selftest.run_selftest is entrospec.run_selftest


# Parameters that were removed: recovery's weights are the fixed grid, the
# fit takes samples, not an oracle, and the deciders take no configuration.
@pytest.mark.parametrize(
    "call",
    [
        lambda oracle, samples, state: entrospec.sample_log2_determinant(oracle, 0.5),
        lambda oracle, samples, state: entrospec.recover_spectrum(oracle, nodes=(0.2, 0.4, 0.6)),
        lambda oracle, samples, state: entrospec.fit_determinant_polynomial(
            samples, 2, nodes=(0.2, 0.4, 0.6)),
        lambda oracle, samples, state: entrospec.fit_determinant_polynomial(oracle),
        lambda oracle, samples, state: entrospec.decide_spectral(state, state, None),
        lambda oracle, samples, state: entrospec.decide_grid(state, state, None),
        lambda oracle, samples, state: entrospec.decide_nodes(state, state, None),
    ],
    ids=["sample-weight", "recover-nodes", "fit-nodes", "fit-oracle", "spectral-config",
         "grid-config", "nodes-config"],
)
def test_retired_parameter_raises_type_error(call):
    state = diag_state(0.75, 0.25)
    oracle = entrospec.oracle_from_spectrum(state.spectrum)
    samples = entrospec.sample_log2_determinant(oracle)
    with pytest.raises(TypeError):
        call(oracle, samples, state)


def test_readme_library_example_runs(capsys):
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "equivalent"


def test_readme_cli_example_runs(tmp_path, monkeypatch, capsys):
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    rng = np.random.default_rng(0)
    state = entrospec.random_state(3, rng)
    u = entrospec.random_unitary(3, rng)
    write_state(tmp_path, "state.json", state.matrix)
    write_state(tmp_path, "a.json", state.matrix)
    write_state(tmp_path, "b.json", u @ state.matrix @ u.conj().T)
    monkeypatch.chdir(tmp_path)
    lines = block.strip().splitlines()
    assert lines
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "entrospec"
        assert main(argv) == 0, line
    capsys.readouterr()
