import json

import numpy as np
import pytest

import entrospec.matrixio as matrixio
import entrospec.recovery as recovery
from entrospec import oracle_from_spectrum, random_state, recover_spectrum, selftest
from entrospec.recovery import VALIDATION_NODES, _fitting_nodes
from entrospec.selftest import _noise_gain, run_selftest

NOISE_INDEX = [name for name, _ in selftest._PROPERTIES].index("recovery-noise-bound")


@pytest.mark.parametrize("seed", range(30))
def test_recovery_noise_bound_holds_at_every_seed(seed):
    # run_selftest's generator for this property at this seed
    _, prop = selftest._PROPERTIES[NOISE_INDEX]
    passed, _, detail = prop(np.random.default_rng([seed, NOISE_INDEX]))
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
    index = [name for name, _ in selftest._PROPERTIES].index("matrix-file-roundtrip")
    _, prop = selftest._PROPERTIES[index]
    passed, _, _ = prop(np.random.default_rng([0, index]))
    assert not passed


@pytest.mark.parametrize("n", [3, 6])
def test_noise_gain_is_the_recovery_jacobian(n, rng, monkeypatch):
    # central differences of recover_spectrum in each fitting sample
    spectrum = random_state(n, rng).spectrum
    fitting = len(_fitting_nodes(n))
    exact = recovery.sample_log2_determinant
    delta = np.zeros(fitting + len(VALIDATION_NODES))
    monkeypatch.setattr(recovery, "sample_log2_determinant", lambda oracle: exact(oracle) + delta)
    oracle = oracle_from_spectrum(spectrum)
    step = 1e-7
    columns = []
    for i in range(fitting):
        delta[i] = step
        up = np.asarray(recover_spectrum(oracle).values)
        delta[i] = -step
        down = np.asarray(recover_spectrum(oracle).values)
        delta[i] = 0.0
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
