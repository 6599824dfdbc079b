import dataclasses
import json

import numpy as np
import pytest

import entrospec.matrixio as matrixio
from entrospec import (
    decide_spectral,
    depolarize,
    fit_determinant_polynomial,
    oracle_from_spectrum,
    random_state,
    sample_log2_determinant,
    selftest,
)
from entrospec.selftest import _noise_gain, run_selftest

# Each property's generator is keyed [seed, index], so a reorder changes the
# draws of every property it moves: it is as deliberate as an __all__ change.
PROPERTY_NAMES = [
    "eigensolver-reconstruction",
    "depolarize-spectrum-map",
    "curve-matches-entropy",
    "derivative-finite-difference",
    "second-derivative-finite-difference",
    "log2-determinant-identity",
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


def _fitted_spectrum(samples, n):
    # recover_spectrum's steps after the fit, for a full-rank spectrum with
    # real roots and no eigenvalue at 1/n: root, map, renormalize, sort
    coeffs, _ = fit_determinant_polynomial(samples, n)
    values = 1.0 / n - 1.0 / (n * np.polynomial.polynomial.polyroots(coeffs).real)
    return np.sort(values / values.sum())


@pytest.mark.parametrize("n", [3, 6])
def test_noise_gain_is_the_recovery_jacobian(n, rng):
    # central differences of the fitted spectrum in each grid sample; the
    # held-out samples do not move the fit, so their columns are zero
    spectrum = random_state(n, rng).spectrum
    samples = sample_log2_determinant(oracle_from_spectrum(spectrum))
    step = 1e-7
    columns = []
    for i in range(len(samples)):
        delta = np.zeros(len(samples))
        delta[i] = step
        up = _fitted_spectrum(samples + delta, n)
        down = _fitted_spectrum(samples - delta, n)
        columns.append((up - down) / (2.0 * step))
    finite_difference = float(np.max(np.abs(np.stack(columns, axis=1)).sum(axis=1)))
    assert abs(finite_difference - _noise_gain(spectrum)) <= 1e-4 * finite_difference


@pytest.mark.parametrize("seed", [-1, True, 1.0, "42", None])
def test_bad_seed_raises_before_any_property(seed, monkeypatch):
    ran = []
    monkeypatch.setattr(selftest, "_PROPERTIES", (("records", ran.append),))
    with pytest.raises(ValueError, match="seed must be a non-negative int"):
        run_selftest(seed)
    assert ran == []
