import dataclasses
import json

import numpy as np
import pytest

import entrospec.matrixio as matrixio
from entrospec import ComplexRoots, decide_spectral, depolarize, selftest
from entrospec.cli import main
from entrospec.selftest import run_selftest

# Each property's generator is keyed [seed, index], so a reorder changes the
# draws of every property it moves: it is as deliberate as an __all__ change.
PROPERTY_NAMES = [
    "eigensolver-reconstruction",
    "depolarized-state",
    "curve-closed-forms",
    "product-degree-bound",
    "deciders",
    "single-point-insufficiency",
    "recovery-roundtrip-analytic",
    "recovery-roundtrip-fd",
    "recovery-permutation-invariance",
    "recovery-noise-bound",
    "matrix-file-roundtrip",
]

def run_property(name, seed=0):
    """One property with the generator run_selftest gives it at this seed."""
    index = PROPERTY_NAMES.index(name)
    return selftest._PROPERTIES[index][1](np.random.default_rng([seed, index]))


def test_property_list_is_pinned():
    assert [name for name, _ in selftest._PROPERTIES] == PROPERTY_NAMES


@pytest.mark.parametrize("seed", range(30))
def test_recovery_noise_bound_holds_at_every_seed(seed):
    passed, _, detail = run_property("recovery-noise-bound", seed)
    assert passed, detail


@pytest.mark.parametrize("seed", range(5))
def test_every_property_passes(seed):
    failed = [(res.name, res.detail) for res in run_selftest(seed) if not res.passed]
    assert failed == []


def test_matrix_file_roundtrip_catches_a_lost_zero_sign(monkeypatch):
    # re + 1j*im turns -0.0 into +0.0, which compares equal as a float
    def sign_losing(text):
        doc = json.loads(text)
        return np.array(doc["re"], dtype=float) + 1j * np.array(doc["im"], dtype=float)

    monkeypatch.setattr(matrixio, "parse_matrix_file", sign_losing)
    passed, _, _ = run_property("matrix-file-roundtrip")
    assert not passed


def test_deciders_catches_a_decider_that_never_answers_equivalent(monkeypatch):
    # a not_equivalent report with no witness, on every pair
    monkeypatch.setattr(selftest, "decide_grid", lambda a, b: decide_spectral(a, depolarize(a, 0.5)))
    passed, _, detail = run_property("deciders")
    assert not passed
    assert "100 wrong verdicts" in detail


def test_deciders_catches_a_decider_that_always_answers_equivalent(monkeypatch):
    # an equivalent report with a witness, on every pair: only the 100
    # distinct pairs get a wrong verdict
    monkeypatch.setattr(selftest, "decide_nodes", lambda a, b: decide_spectral(a, a))
    passed, _, detail = run_property("deciders")
    assert not passed
    assert "100 wrong verdicts" in detail


def test_roundtrip_checks_the_renormalized_sum(monkeypatch):
    exact = selftest.recover_spectrum

    def sums_to_one_plus_1e10(oracle):
        result = exact(oracle)
        values = (result.values[0] + 1e-10,) + result.values[1:]
        return dataclasses.replace(result, values=values)

    monkeypatch.setattr(selftest, "recover_spectrum", sums_to_one_plus_1e10)
    passed, worst, detail = run_property("recovery-roundtrip-analytic")
    assert not passed, detail
    # within the roundtrip bound: only the sum check can catch it
    assert worst <= 1e-6


@pytest.mark.parametrize("seed", [-1, True, 1.0, "42", None])
def test_bad_seed_raises_before_any_property(seed, monkeypatch):
    ran = []
    monkeypatch.setattr(selftest, "_PROPERTIES", (("records", ran.append),))
    with pytest.raises(ValueError, match="seed must be a non-negative int"):
        run_selftest(seed)
    assert ran == []


def test_a_raising_property_fails_and_the_next_still_runs(monkeypatch, capsys):
    # a library error inside one property is that property's failure, not
    # the end of the report
    def passes(rng):
        return True, 0.0, "passes"

    def raises(rng):
        raise ComplexRoots(2.5, 1e-6)

    properties = (("before", passes), ("raises", raises), ("after", passes))
    monkeypatch.setattr(selftest, "_PROPERTIES", properties)
    results = run_selftest(0)
    assert [(res.name, res.passed) for res in results] == [
        ("before", True), ("raises", False), ("after", True)
    ]
    assert results[1].max_residual == float("inf")
    assert results[1].detail == f"raised ComplexRoots: {ComplexRoots(2.5, 1e-6)}"
    assert main(["selftest"]) == 5
    assert "FAIL raises (residual inf)" in capsys.readouterr().err
