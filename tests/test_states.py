import copy
import json
import math
import warnings

import numpy as np
import pytest

from entrospec import (
    NotFinite,
    NotHermitian,
    NotPositiveSemidefinite,
    QuantumState,
    Spectrum,
    TraceNotOne,
    ValidationError,
    as_complex_matrix,
    depolarize,
    oracle_from_spectrum,
    random_state,
    random_unitary,
    recover_spectrum,
)
from entrospec import states
from entrospec.cli import main
from entrospec.errors import LambdaOutOfRange

from conftest import diag_state, ginibre_matrix, refuses, write_state


class TestQuantumStateChecks:
    def test_maximal_mixed_is_valid(self):
        state = QuantumState(np.eye(3) / 3)
        assert state.dimension == 3

    def test_trace_violation(self):
        with refuses(TraceNotOne, "trace is (1.1+0j), differs from 1 by more than 1.0e-09",
                     trace=1.1 + 0j):
            QuantumState(np.diag([0.5, 0.6]))

    def test_negative_eigenvalue(self):
        with refuses(NotPositiveSemidefinite, "matrix is not positive semidefinite: smallest "
                     "eigenvalue -2.000e-01 is below -1.0e-09", min_eigenvalue=-0.2):
            QuantumState(np.diag([1.2, -0.2]))

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with refuses(NotHermitian, "matrix is not Hermitian: max |M - M^*| = 5.000e-01 "
                     "exceeds tolerance 1.0e-10", residual=0.5):
            QuantumState(m)

    def test_stored_matrix_is_exactly_symmetrized(self):
        # a wobble below herm_tol is accepted but must be symmetrized away
        m = np.array([[0.5, 0.25 + 1e-12], [0.25, 0.5]], dtype=np.complex128)
        state = QuantumState(m)
        assert np.array_equal(state.matrix, state.matrix.conj().T)

    def test_rejects_non_square(self):
        with refuses(ValueError, "expected a non-empty square matrix, got shape (2, 3)"):
            QuantumState(np.ones((2, 3)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entry(self, entry):
        # NaN fails every comparison, so without this check it would pass
        # the Hermitian, trace and PSD tests
        m = np.eye(3, dtype=np.complex128) / 3
        m[1, 2] = entry
        value = complex(entry)
        with refuses(NotFinite, f"matrix has 1 non-finite entry; the first is {value!r} at (1, 2)",
                     count=1, first=(1, 2), value=value) as info:
            QuantumState(m)
        assert isinstance(info.value, ValidationError)

    def test_non_finite_check_runs_first(self):
        # also not Hermitian and not of unit trace
        m = np.array([[np.inf, 1.0], [0.0, 5.0]])
        with refuses(NotFinite, "matrix has 1 non-finite entry; the first is (inf+0j) at (0, 0)",
                     count=1, first=(0, 0)):
            QuantumState(m)

    def test_stored_matrix_is_read_only(self):
        # the state caches its eigensystem, so its matrix must not change
        state = QuantumState(np.eye(2) / 2)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0

    def test_does_not_freeze_the_callers_array(self):
        m = np.eye(2, dtype=np.complex128) / 2
        QuantumState(m)
        m[0, 0] = 0.25  # must not raise

    def test_error_messages_carry_residuals(self):
        try:
            QuantumState(np.diag([0.5, 0.6]))
        except TraceNotOne as exc:
            assert "1.1" in str(exc)
        else:
            pytest.fail("expected TraceNotOne")


def _eigh_does_not_converge() -> np.ndarray:
    # Hermitian with unit trace; numpy 2.4's LAPACK eigh gives up on it
    m = np.eye(5, dtype=np.complex128) / 5
    m[0, 2] = m[2, 0] = 5e307
    m[0, 1], m[1, 0] = -4.999999999999975e307j, 4.999999999999975e307j
    m[2, 3], m[3, 2] = -1.07402714e8j, 1.07402714e8j
    return m


_NOT_PSD_NAN = "matrix is not positive semidefinite: smallest eigenvalue nan is below -1.0e-09"

# Each breaks a density-matrix invariant: the matrix, the error it raises, its
# message and the numbers it carries. The last five are finite, but naive
# sums, symmetrization or the eigensolver overflow to inf or NaN.
_INVALID_MATRICES = {
    "nan-entry": (np.diag([0.5, np.nan]), NotFinite,
                  "matrix has 1 non-finite entry; the first is (nan+0j) at (1, 1)",
                  {"count": 1, "first": (1, 1)}),
    "nan-entries": (np.diag([np.nan, np.nan]), NotFinite,
                    "matrix has 2 non-finite entries; the first is (nan+0j) at (0, 0)",
                    {"count": 2, "first": (0, 0)}),
    "not-hermitian": (np.array([[0.5, 0.5], [0.0, 0.5]]), NotHermitian,
                      "matrix is not Hermitian: max |M - M^*| = 5.000e-01 exceeds tolerance "
                      "1.0e-10", {"residual": 0.5}),
    "trace-two": (np.eye(2), TraceNotOne, "trace is (2+0j), differs from 1 by more than 1.0e-09",
                  {"trace": 2 + 0j}),
    "negative-eigenvalue": (np.diag([2.0, -1.0]), NotPositiveSemidefinite,
                            "matrix is not positive semidefinite: smallest eigenvalue -1.000e+00 "
                            "is below -1.0e-09", {"min_eigenvalue": -1.0}),
    "overflow-trace-zero": (np.diag([1e308, -1e308]), TraceNotOne,
                            "trace is 0j, differs from 1 by more than 1.0e-09", {"trace": 0j}),
    "overflow-antisymmetric": (np.array([[0.5, 1e308], [-1e308, 0.5]]), NotHermitian,
                               "matrix is not Hermitian: max |M - M^*| = inf exceeds tolerance "
                               "1.0e-10", {"residual": math.inf}),
    "overflow-trace-sum": (np.diag([1e308, 1e308, -1e308]), TraceNotOne,
                           "trace is (inf+0j), differs from 1 by more than 1.0e-09",
                           {"trace": complex(math.inf, 0.0)}),
    "overflow-modulus": (np.array([[0.5, 1.7e308 * (1 + 1j)], [1.7e308 * (1 - 1j), 0.5]]),
                         NotPositiveSemidefinite, _NOT_PSD_NAN, {"min_eigenvalue": math.nan}),
    "eigh-no-convergence": (_eigh_does_not_converge(), NotPositiveSemidefinite, _NOT_PSD_NAN,
                            {"min_eigenvalue": math.nan}),
}


class TestCheckedConstructor:
    @pytest.mark.parametrize("name", list(_INVALID_MATRICES))
    def test_every_path_to_a_state_checks(self, name, tmp_path, capsys):
        m, error, text, carried = _INVALID_MATRICES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with refuses(error, text, **carried):
                QuantumState(m)
            # the benchmark's name for the constructor refuses alike
            with refuses(error, text, **carried):
                states.validate_state(m)
            path = tmp_path / "state.json"
            path.write_text(json.dumps({"n": len(m), "re": m.real.tolist(), "im": m.imag.tolist()}))
            assert main(["entropy", str(path)]) == 1
        if error is NotFinite:  # json writes NaN as a bare token, which the parser refuses
            row, column = carried["first"]
            text = f"field 're', row {row}, column {column}: non-finite or out-of-range value"
        assert capsys.readouterr().err == f"entrospec: {text}\n"

    def test_trace_error_reads_as_before(self):
        with pytest.raises(TraceNotOne) as exc:
            QuantumState(np.eye(2))
        assert str(exc.value) == "trace is (2+0j), differs from 1 by more than 1.0e-09"

    @pytest.mark.parametrize("n", range(2, 17))
    def test_trace_error_reports_the_checked_sum(self, n, rng):
        # the check sums the diagonal left to right; numpy's trace sums
        # n >= 4 entries pairwise and can differ in the last bit, so the
        # error must report the check's own sum
        for _ in range(10):
            m = np.diag(2.0 * rng.dirichlet(np.ones(n))).astype(np.complex128)
            with pytest.raises(TraceNotOne) as exc:
                QuantumState(m)
            assert exc.value.trace == complex(sum(m.real.diagonal().tolist()))

    @pytest.mark.parametrize(
        "name, error, field, value",
        [
            ("overflow-trace-zero", TraceNotOne, "trace", 0j),
            ("overflow-antisymmetric", NotHermitian, "residual", math.inf),
            ("overflow-trace-sum", TraceNotOne, "trace", complex(math.inf, 0.0)),
            ("overflow-modulus", NotPositiveSemidefinite, "min_eigenvalue", math.nan),
            ("eigh-no-convergence", NotPositiveSemidefinite, "min_eigenvalue", math.nan),
        ],
    )
    def test_overflow_is_a_typed_error_without_warning(self, name, error, field, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as exc:
                QuantumState(_INVALID_MATRICES[name][0])
        assert type(exc.value) is error
        # repr, so that nan matches nan and the printed form is pinned too
        assert repr(getattr(exc.value, field)) == repr(value)

    @pytest.mark.parametrize("solve", ["linalg-error", "nan-above-smallest"])
    def test_failed_eigensolve_is_not_psd(self, solve, monkeypatch):
        # a NaN above the smallest eigenvalue passes the PSD check; the
        # clamped values then sum to NaN, a failed solve like LinAlgError
        def eigh(m):
            if solve == "linalg-error":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return np.array([0.0, np.nan]), np.eye(2, dtype=np.complex128)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with refuses(NotPositiveSemidefinite, _NOT_PSD_NAN, min_eigenvalue=math.nan):
            QuantumState(np.eye(2) / 2)

    def test_dimension_comes_from_the_matrix(self):
        state = QuantumState(np.eye(3) / 3)
        assert state.dimension == 3
        assert repr(state) == "QuantumState(dimension=3)"
        with pytest.raises(TypeError):
            QuantumState(np.eye(3) / 3, 3)

    def test_states_compare_and_hash_by_identity(self):
        a = QuantumState(np.eye(2) / 2)
        assert a == a
        assert a != QuantumState(a.matrix)
        assert a in {a} and QuantumState(a.matrix) not in {a}


def _conjugated_diagonal(values, rng) -> np.ndarray:
    n = len(values)
    u = random_unitary(n, rng)
    return u @ np.diag(np.asarray(values, dtype=np.complex128)) @ u.conj().T


def _near_pure_spectrum(n, rng) -> np.ndarray:
    tiny = 10.0 ** rng.uniform(-14.0, -6.0, size=n - 1)
    return np.concatenate([[1.0 - tiny.sum()], tiny])


def _degenerate_spectrum(n, rng) -> np.ndarray:
    # at most three distinct levels, so most eigenvalues are repeated
    levels = rng.uniform(0.1, 1.0, size=3)
    values = levels[rng.integers(0, 3, size=n)]
    return values / values.sum()


def _ginibre_spectrum(n, rng) -> np.ndarray:
    # the spectrum of G G* / tr(G G*), random_state's law, from G's
    # singular values so that no eigensolver produces the truth
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    squares = np.linalg.svd(g, compute_uv=False) ** 2
    return squares / squares.sum()


_SPECTRUM_FAMILIES = {
    "ginibre": _ginibre_spectrum,
    "near_pure": _near_pure_spectrum,
    "degenerate": _degenerate_spectrum,
}


class TestCachedEigensystem:
    """The LAPACK decomposition states cache, against spectra known by construction."""

    @pytest.mark.parametrize("family", sorted(_SPECTRUM_FAMILIES))
    def test_recovers_constructed_spectrum(self, rng, family):
        # V diag(x) V* has spectrum x; it must come back sorted descending
        for n in range(2, 17):
            x = _SPECTRUM_FAMILIES[family](n, rng)
            state = QuantumState(_conjugated_diagonal(x, rng))
            values, vectors = state.eigensystem
            assert np.max(np.abs(values - np.sort(x)[::-1])) <= 1e-14
            rebuilt = (vectors * values) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - state.matrix)) <= 1e-13

    def test_reconstruction_residual(self, rng):
        for n in (2, 5, 8, 16):
            state = QuantumState(random_state(n, rng).matrix)
            values, vectors = state.eigensystem
            rebuilt = vectors @ np.diag(values) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - state.matrix)) <= 1e-13

    def test_eigenvectors_orthonormal(self, rng):
        state = QuantumState(random_state(7, rng).matrix)
        _, vectors = state.eigensystem
        gram = vectors.conj().T @ vectors
        np.testing.assert_allclose(gram, np.eye(7), atol=1e-12)

    def test_one_by_one(self):
        values, vectors = QuantumState(np.array([[1.0]])).eigensystem
        assert values[0] == 1.0
        assert vectors[0, 0] == 1.0

    def test_hand_computed_two_by_two(self):
        # characteristic polynomial x^2 - x + 3/16 has roots 3/4 and 1/4
        state = QuantumState(np.array([[0.5, 0.25], [0.25, 0.5]]))
        values, _ = state.eigensystem
        np.testing.assert_allclose(values, [0.75, 0.25], atol=1e-14)

    def test_complex_offdiagonal(self):
        m = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
        values, vectors = QuantumState(m).eigensystem
        np.testing.assert_allclose(values, [0.75, 0.25], atol=1e-14)
        rebuilt = vectors @ np.diag(values) @ vectors.conj().T
        np.testing.assert_allclose(rebuilt, m, atol=1e-14)

    def test_returned_arrays_are_read_only(self, rng):
        values, vectors = QuantumState(random_state(4, rng).matrix).eigensystem
        for cached in (values, vectors):
            with pytest.raises(ValueError):
                cached[0] = 0.0


class TestStateSpectrum:
    def test_maximal_mixed(self):
        spectrum = QuantumState(np.eye(4) / 4).spectrum
        np.testing.assert_allclose(spectrum.values, [0.25] * 4, atol=1e-15)
        np.testing.assert_allclose(spectrum.shifted(), 0.0, atol=1e-15)

    def test_already_diagonal(self):
        spectrum = diag_state(0.75, 0.25).spectrum
        np.testing.assert_allclose(spectrum.values, [0.75, 0.25], atol=1e-15)
        np.testing.assert_allclose(spectrum.shifted(), [0.25, -0.25], atol=1e-15)

    def test_hand_computed_spectrum(self):
        state = QuantumState(np.array([[0.5, 0.25], [0.25, 0.5]]))
        spectrum = state.spectrum
        np.testing.assert_allclose(spectrum.values, [0.75, 0.25], atol=1e-12)

    def test_descending_order(self):
        spectrum = diag_state(0.1, 0.5, 0.4).spectrum
        assert list(spectrum.values) == sorted(spectrum.values, reverse=True)

    def test_clamps_and_renormalizes(self):
        state = QuantumState(np.diag([1.0 + 5e-10, -5e-10]))
        spectrum = state.spectrum
        assert all(x >= 0.0 for x in spectrum.values)
        assert abs(sum(spectrum.values) - 1.0) < 1e-15

    def test_shifted_sums_to_zero(self, rng):
        spectrum = random_state(6, rng).spectrum
        assert abs(float(np.sum(spectrum.shifted()))) < 1e-12

    def test_cached_and_read_only(self, rng):
        state = random_state(4, rng)
        assert state.spectrum is state.spectrum
        assert state.eigensystem is state.eigensystem
        for name in ("spectrum", "eigensystem"):
            with pytest.raises(AttributeError):
                setattr(state, name, None)

    def test_eigensystem_descending_with_vectors(self, rng):
        state = random_state(5, rng)
        values, vectors = state.eigensystem
        assert list(values) == sorted(values, reverse=True)
        rebuilt = vectors @ np.diag(values) @ vectors.conj().T
        np.testing.assert_allclose(rebuilt, state.matrix, atol=1e-12)


def _spectrum_test_states(n, rng):
    """Full rank, rank 1, rank 2, I/n and diagonal states with exact zeros of each sign."""
    diagonal = np.arange(n, 0, -1, dtype=np.float64)
    diagonal[1::2] = 0.0
    diagonal /= diagonal.sum()
    # a -0.0 diagonal entry gives a -0.0 eigenvalue, whose sign clip and
    # np.maximum do not treat alike
    return {
        "full-rank": ginibre_matrix(n, n, rng),
        "rank-1": ginibre_matrix(n, 1, rng),
        "rank-2": ginibre_matrix(n, min(2, n), rng),
        "maximally-mixed": np.eye(n) / n,
        "diagonal-zeros": np.diag(diagonal),
        "diagonal-negative-zeros": np.diag(np.where(diagonal == 0.0, -0.0, diagonal)),
    }


@pytest.mark.parametrize("n", range(1, 17))
def test_state_spectrum_is_the_public_constructors_bit_for_bit(n, rng):
    # a state divides its clamped eigenvalues by their exactly rounded sum
    # and turns -0.0 into 0.0; compared by repr and bytes, since -0.0 == 0.0
    for kind, m in _spectrum_test_states(n, rng).items():
        state = QuantumState(m)
        clamped = state.eigensystem[0].clip(0.0, 1.0)
        public = Spectrum(values=clamped / math.fsum(clamped) + 0.0)
        built = state.spectrum
        assert repr(built.values) == repr(public.values), kind
        assert built.as_array().tobytes() == public.as_array().tobytes(), kind
        assert built.shifted().tobytes() == public.shifted().tobytes(), kind
        for array in (built.as_array(), built.shifted()):
            assert not array.flags.writeable, kind
        assert built == public and hash(built) == hash(public), kind
        assert repr(built) == repr(public), kind


def test_one_spectrum_step_per_state_and_per_recovery(rng, monkeypatch):
    # the state and recovery turn their eigenvalue estimates into a
    # spectrum through one private step; the public constructor does not
    calls = []
    step = Spectrum._of_estimates

    def counting(estimates):
        calls.append(estimates)
        return step(estimates)

    monkeypatch.setattr(Spectrum, "_of_estimates", staticmethod(counting))
    state = random_state(4, rng)
    assert len(calls) == 1
    depolarize(state, 0.5)
    assert len(calls) == 2
    result = recover_spectrum(oracle_from_spectrum(state.spectrum))
    assert len(calls) == 3
    Spectrum(values=result.values)
    assert len(calls) == 3


@pytest.mark.parametrize("n", range(1, 25))
def test_maximally_mixed_prints_one_over_n(n, tmp_path, capsys):
    # the exact sum of n copies of 1/n rounds to 1 at every n here; numpy's
    # sum of them does not at n = 6, 7, 13..15 and 19..23
    assert main(["entropy", write_state(tmp_path, "state.json", np.eye(n) / n)]) == 0
    printed = json.loads(capsys.readouterr().out)["spectrum"]
    assert [repr(value) for value in printed] == [repr(1.0 / n)] * n


def test_negative_zero_eigenvalues_print_as_zero(tmp_path, capsys):
    # diag(2/3, 1/3, -0.0, -0.0) printed its spectrum with -0.0, so equiv
    # printed two spectra it had decided equal differently
    paths = []
    for zero in (-0.0, 0.0):
        m = np.diag([2.0 / 3.0, 1.0 / 3.0, zero, zero])
        paths.append(write_state(tmp_path, f"{zero}.json", m))
    assert main(["entropy", paths[0]]) == 0
    # repr, since -0.0 == 0.0
    assert repr(json.loads(capsys.readouterr().out)["spectrum"][2:]) == "[0.0, 0.0]"
    assert main(["equiv", *paths]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert repr(report["spectrum_a"]) == repr(report["spectrum_b"])
    assert "-0.0" not in out


class TestRandomState:
    def test_deterministic_per_seed(self):
        a = random_state(4, np.random.default_rng(42)).matrix
        b = random_state(4, np.random.default_rng(42)).matrix
        assert np.array_equal(a, b)

    def test_output_is_valid(self):
        state = random_state(4, np.random.default_rng(42))
        QuantumState(state.matrix)  # must not raise

    def test_dimension_one(self):
        state = random_state(1, np.random.default_rng(0))
        np.testing.assert_allclose(state.matrix, [[1.0]], atol=1e-15)

    def test_seeds_differ(self):
        a = random_state(4, np.random.default_rng(1)).matrix
        b = random_state(4, np.random.default_rng(2)).matrix
        assert not np.array_equal(a, b)

    def test_rejects_nonpositive_dimension(self):
        with refuses(ValueError, "dimension must be positive, got 0"):
            random_state(0, np.random.default_rng(0))


class TestRandomUnitary:
    def test_unitarity(self):
        u = random_unitary(3, np.random.default_rng(7))
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) <= 1e-12

    def test_deterministic_per_seed(self):
        a = random_unitary(5, np.random.default_rng(9))
        b = random_unitary(5, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_dimension_one_has_unit_modulus(self):
        u = random_unitary(1, np.random.default_rng(3))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_maximal_mixed_is_fixed_point(self, rng):
        u = random_unitary(4, rng)
        conjugated = u @ (np.eye(4) / 4) @ u.conj().T
        np.testing.assert_allclose(conjugated, np.eye(4) / 4, atol=1e-12)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_nonpositive_dimension(self, n):
        with refuses(ValueError, f"dimension must be positive, got {n}"):
            random_unitary(n, np.random.default_rng(0))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_is_one_phase_fixed_qr_of_one_draw(self, n, rng):
        # one Ginibre draw, one QR, R's diagonal phases moved onto Q's columns
        twin = copy.deepcopy(rng)
        g = twin.standard_normal((n, n)) + 1j * twin.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        u = random_unitary(n, rng)
        assert u.tobytes() == (q * (d / np.abs(d))).tobytes()
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) <= 1e-13


class TestDepolarize:
    def test_zero_weight_gives_maximal_mixed(self, rng):
        state = random_state(3, rng)
        mixed = depolarize(state, 0.0)
        np.testing.assert_allclose(mixed.matrix, np.eye(3) / 3, atol=1e-15)

    def test_full_weight_is_identity_map(self, rng):
        state = random_state(3, rng)
        assert np.array_equal(depolarize(state, 1.0).matrix, state.matrix)

    def test_halfway_arithmetic(self):
        mixed = depolarize(diag_state(1.0, 0.0), 0.5)
        np.testing.assert_allclose(mixed.matrix, np.diag([0.75, 0.25]), atol=1e-15)

    @pytest.mark.parametrize("lam", [-0.1, 1.1])
    def test_rejects_out_of_range(self, lam, rng):
        with refuses(LambdaOutOfRange, f"lambda = {lam!r} is outside [0, 1]", lam=lam):
            depolarize(random_state(2, rng), lam)


def test_every_state_matrix_is_read_only(rng):
    # a write after the cached spectrum was read would leave it stale
    state = random_state(3, rng)
    state.spectrum
    for matrix in (state.matrix, depolarize(state, 0.5).matrix):
        with pytest.raises(ValueError):
            matrix[:] = np.eye(3) / 3


def test_as_complex_matrix_accepts_lists():
    m = as_complex_matrix([[1, 0], [0, 1]])
    assert m.dtype == np.complex128


def test_as_complex_matrix_rejects_vector():
    with refuses(ValueError, "expected a non-empty square matrix, got shape (2,)"):
        as_complex_matrix([1.0, 2.0])


def test_as_complex_matrix_rejects_empty():
    for build in (as_complex_matrix, QuantumState):
        with refuses(ValueError, "expected a non-empty square matrix, got shape (0, 0)"):
            build(np.zeros((0, 0)))


def test_spectrum_value_access():
    spectrum = Spectrum(values=(0.75, 0.25))
    assert spectrum.dimension == 2
    np.testing.assert_allclose(spectrum.as_array(), [0.75, 0.25])


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_spectrum_arrays_are_built_once_and_read_only(n, rng):
    values = tuple(random_state(n, rng).spectrum.values)
    spectrum = Spectrum(values=values)
    assert spectrum.as_array() is spectrum.as_array()
    assert spectrum.shifted() is spectrum.shifted()
    assert spectrum.as_array().tobytes() == np.asarray(values, dtype=np.float64).tobytes()
    expected_shift = np.asarray(values, dtype=np.float64) - 1.0 / n
    assert spectrum.shifted().tobytes() == expected_shift.tobytes()
    for array in (spectrum.as_array(), spectrum.shifted()):
        assert array.dtype == np.float64
        with pytest.raises(ValueError):
            array[0] = 0.0
    # the arrays take no part in equality or hashing
    twin = Spectrum(values=values)
    assert twin == spectrum and hash(twin) == hash(spectrum)
    assert repr(spectrum) == f"Spectrum(values={values!r})"


@pytest.mark.parametrize("make", [list, np.array], ids=["list", "ndarray"])
def test_spectrum_stores_values_as_a_float_tuple(make):
    # a list or an ndarray gives the same Spectrum as the tuple, hash included
    values = (0.5, 0.3, 0.2)
    spectrum = Spectrum(values=make(values))
    assert type(spectrum.values) is tuple
    assert all(type(value) is float for value in spectrum.values)
    assert spectrum == Spectrum(values=values)
    assert hash(spectrum) == hash(Spectrum(values=values))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectrum_rejects_non_finite_values(bad):
    with refuses(ValueError, f"spectrum values must be finite, got ({bad!r}, 1.0)"):
        Spectrum(values=(bad, 1.0))


def test_spectrum_rejects_empty_values():
    # unchecked, the flat-spectrum shift divides by zero in every curve
    with refuses(ValueError, "spectrum must have at least one value"):
        Spectrum(values=())
