import math
import warnings

import numpy as np
from numpy.polynomial.polynomial import polyval
import pytest

from entrospec import (
    EntropyOracle,
    Spectrum,
    determinant_polynomial,
    fit_determinant_polynomial,
    oracle_from_spectrum,
    random_state,
    recover_spectrum,
    sample_log2_determinant,
)
from entrospec.errors import ComplexRoots, DegreeDeficit, IllConditioned
from entrospec.recovery import VALIDATION_NODES, _fitting_nodes

from conftest import diag_state


def _direct_determinant_error(include_derivative):
    # sampled log2 determinant vs the expanded polynomial at every node
    spectrum = diag_state(0.4, 0.3, 0.2, 0.1).spectrum
    samples = sample_log2_determinant(oracle_from_spectrum(spectrum, include_derivative))
    nodes = np.array((*_fitting_nodes(4), *VALIDATION_NODES))
    direct = np.log2(polyval(nodes, determinant_polynomial(spectrum)))
    return float(np.max(np.abs(samples - direct)))


class TestSampleLog2Determinant:
    """One sample per node: the n + 5 fitting nodes, then the held-out nodes."""

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_one_sample_per_node(self, n, rng):
        samples = sample_log2_determinant(oracle_from_spectrum(random_state(n, rng).spectrum))
        assert samples.shape == (n + 9,)
        assert samples.dtype == np.float64

    def test_maximally_mixed_is_constant(self):
        oracle = oracle_from_spectrum(diag_state(0.25, 0.25, 0.25, 0.25).spectrum)
        assert np.max(np.abs(sample_log2_determinant(oracle) - (-8.0))) <= 1e-12

    def test_matches_direct_determinant(self):
        assert _direct_determinant_error(include_derivative=True) <= 1e-12

    def test_finite_difference_fallback(self):
        assert _direct_determinant_error(include_derivative=False) <= 1e-7

    def test_weight_is_not_a_parameter(self):
        # the nodes are fixed by the method, not passed in
        oracle = oracle_from_spectrum(diag_state(0.75, 0.25).spectrum)
        with pytest.raises(TypeError):
            sample_log2_determinant(oracle, 0.5)


class TestDefaultRecoveryConfig:
    """The default fitting nodes and the oracle's dimension check."""

    def test_node_layout(self):
        # with an analytic derivative the fit queries it once per node:
        # n + 5 fitting nodes in [0.1, 0.9], then the held-out nodes
        base = oracle_from_spectrum(diag_state(0.4, 0.3, 0.2, 0.1).spectrum)
        queried = []

        def derivative(lam):
            queried.append(lam)
            return base.derivative_fn(lam)

        fit_determinant_polynomial(EntropyOracle(base.value_fn, derivative, 4))
        nodes, held_out = queried[:9], queried[9:]
        assert all(0.1 <= x <= 0.9 for x in nodes)
        assert all(b > a for a, b in zip(nodes, nodes[1:]))
        assert tuple(held_out) == VALIDATION_NODES

    def test_nodes_are_not_a_parameter(self):
        # the fitting nodes are fixed by the method, not passed in
        oracle = oracle_from_spectrum(diag_state(0.75, 0.25).spectrum)
        for call in (recover_spectrum, fit_determinant_polynomial):
            with pytest.raises(TypeError):
                call(oracle, nodes=(0.2, 0.4, 0.6))

    def test_rejects_nonpositive_dimension(self):
        # unchecked, 0 divides by zero in the fit and True runs as n = 1
        for dimension in (0, -1, True, 2.0):
            with pytest.raises(ValueError, match="dimension"):
                EntropyOracle(lambda lam: 0.0, None, dimension)


class TestFitDeterminantPolynomial:
    def test_maximally_mixed_fits_constant(self):
        oracle = oracle_from_spectrum(diag_state(*[0.25] * 4).spectrum)
        coeffs, residual = fit_determinant_polynomial(oracle)
        assert coeffs[0] == (1.0 / 4.0) ** 4
        assert np.max(np.abs(coeffs[1:])) <= 1e-9
        assert residual <= 1e-9

    def test_hand_expanded_coefficients(self):
        oracle = oracle_from_spectrum(diag_state(0.75, 0.25).spectrum)
        coeffs, _ = fit_determinant_polynomial(oracle)
        np.testing.assert_allclose(coeffs, (0.25, 0.0, -0.0625), atol=1e-8)

    def test_constant_coefficient_is_pinned(self, rng):
        state = random_state(5, rng)
        coeffs, _ = fit_determinant_polynomial(oracle_from_spectrum(state.spectrum))
        assert coeffs[0] == (1.0 / 5.0) ** 5

    def test_roundtrip_against_direct_expansion(self, rng):
        for n in range(2, 7):
            spectrum = random_state(n, rng).spectrum
            direct = determinant_polynomial(spectrum)
            fitted, residual = fit_determinant_polynomial(oracle_from_spectrum(spectrum))
            assert fitted.shape == direct.shape == (n + 1,)
            np.testing.assert_allclose(fitted, direct, atol=1e-8)
            assert residual <= 1e-8

    def test_inconsistent_oracle_is_rejected(self, rng):
        # a smooth non-polynomial wobble in the curve cannot be matched by
        # any degree-n polynomial, so the held-out residual must blow up
        spectrum = random_state(3, rng).spectrum
        base = oracle_from_spectrum(spectrum)
        corrupt = EntropyOracle(
            value_fn=lambda lam: base.value_fn(lam) + 0.01 * math.sin(40.0 * lam),
            derivative_fn=lambda lam: base.derivative_fn(lam)
            + 0.4 * math.cos(40.0 * lam),
            dimension=3,
        )
        with pytest.raises(IllConditioned) as info:
            fit_determinant_polynomial(corrupt)
        assert info.value.residual > 1e-3

    def test_nonpositive_prediction_is_rejected(self):
        # a bump on (0.3, 0.4) pulls the fit to -0.148 at the held-out node
        # 0.35, where the log of the prediction is undefined
        oracle = EntropyOracle(
            value_fn=lambda lam: 40.0 if 0.3 < lam < 0.4 else 0.0,
            derivative_fn=lambda lam: 0.0,
            dimension=2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditioned) as info:
                fit_determinant_polynomial(oracle)
        assert info.value.residual == math.inf


class TestOneOraclePass:
    """The fit reads the oracle once: every fitting node, then the held-out nodes."""

    @pytest.mark.parametrize("include_derivative", [True, False])
    def test_query_order(self, include_derivative):
        base = oracle_from_spectrum(diag_state(0.4, 0.3, 0.2, 0.1).spectrum, include_derivative)
        queried = []

        def value(lam):
            queried.append(lam)
            return base.value_fn(lam)

        oracle = EntropyOracle(value, base.derivative_fn, 4)
        fit_determinant_polynomial(oracle)
        expected = (*_fitting_nodes(4).tolist(), *VALIDATION_NODES)
        # a finite-difference sample reads lam + h, lam - h, then lam itself
        step = 1 if include_derivative else 3
        assert len(queried) == step * len(expected)
        assert tuple(queried[step - 1::step]) == expected

    def test_nonpositive_prediction_still_reads_every_held_out_node(self):
        # the bump oracle of test_nonpositive_prediction_is_rejected: its fit
        # is negative at 0.35, and the nodes after it are read all the same
        queried = []

        def value(lam):
            queried.append(lam)
            return 40.0 if 0.3 < lam < 0.4 else 0.0

        with pytest.raises(IllConditioned) as info:
            fit_determinant_polynomial(EntropyOracle(value, lambda lam: 0.0, 2))
        assert info.value.residual == math.inf
        assert tuple(queried[-len(VALIDATION_NODES):]) == VALIDATION_NODES
        assert all(queried.count(lam) == 1 for lam in VALIDATION_NODES)


class TestRecoverSpectrum:
    def test_maximally_mixed_trims_everything(self):
        result = recover_spectrum(oracle_from_spectrum(diag_state(*[0.25] * 4).spectrum))
        assert result.values == (0.25, 0.25, 0.25, 0.25)
        assert result.trimmed_degree == 4
        assert result.residual <= 1e-9

    def test_two_level_state(self):
        result = recover_spectrum(oracle_from_spectrum(diag_state(0.75, 0.25).spectrum))
        np.testing.assert_allclose(result.values, (0.75, 0.25), atol=1e-8)
        assert result.trimmed_degree == 0

    def test_eigenvalue_at_mean_is_trimmed(self):
        # diag(1/2, 1/3, 1/6): the middle eigenvalue sits exactly at 1/n,
        # its factor is constant, and the determinant polynomial drops to
        # degree 2; trimming must restore it
        result = recover_spectrum(oracle_from_spectrum(diag_state(0.5, 1 / 3, 1 / 6).spectrum))
        assert result.trimmed_degree == 1
        np.testing.assert_allclose(result.values, (0.5, 1 / 3, 1 / 6), atol=1e-8)

    def test_permutation_invariance(self, rng):
        values = tuple(random_state(4, rng).spectrum.values)
        shuffled = tuple(np.array(values)[rng.permutation(4)])
        a = recover_spectrum(oracle_from_spectrum(Spectrum(values=values)))
        b = recover_spectrum(oracle_from_spectrum(Spectrum(values=shuffled)))
        np.testing.assert_allclose(a.values, b.values, atol=1e-10)

    def test_output_is_sorted_and_normalized(self, rng):
        result = recover_spectrum(oracle_from_spectrum(random_state(6, rng).spectrum))
        values = np.array(result.values)
        assert np.all(values[:-1] >= values[1:])
        assert abs(float(np.sum(values)) - 1.0) <= 1e-12
        assert result.sum_drift <= 1e-5

    def test_complex_roots_are_reported(self):
        # synthetic oracle whose exact determinant polynomial is
        # 1/4 + lam^2/16, with roots at +-2i
        oracle = EntropyOracle(
            value_fn=lambda lam: -0.5 * math.log2(0.25 + 0.0625 * lam * lam),
            derivative_fn=lambda lam: 0.0,
            dimension=2,
        )
        with pytest.raises(ComplexRoots) as info:
            recover_spectrum(oracle)
        assert info.value.max_imag > 1.0

    def test_nan_oracle_is_rejected(self):
        # NaN fails every comparison, so without an explicit check it
        # passes the residual bound and the coefficient trim and comes
        # back as the flat spectrum
        oracle = EntropyOracle(
            value_fn=lambda lam: math.nan, derivative_fn=lambda lam: math.nan, dimension=4
        )
        with pytest.raises(IllConditioned):
            recover_spectrum(oracle)

    def test_overflowing_oracle_is_rejected(self):
        # log2 det = 4 * 300 at every node; 2**1200 is not a float
        oracle = EntropyOracle(
            value_fn=lambda lam: -300.0, derivative_fn=lambda lam: 0.0, dimension=4
        )
        with pytest.raises(IllConditioned):
            recover_spectrum(oracle)

    def test_nan_at_validation_nodes_is_rejected(self, rng):
        base = oracle_from_spectrum(random_state(4, rng).spectrum)
        held_out = set(VALIDATION_NODES)
        oracle = EntropyOracle(
            value_fn=lambda lam: math.nan if lam in held_out else base.value_fn(lam),
            derivative_fn=base.derivative_fn,
            dimension=4,
        )
        with pytest.raises(IllConditioned):
            recover_spectrum(oracle)

    def test_infinite_coefficients_are_rejected(self):
        # every sample is finite, but the least-squares fit comes back with
        # infinite coefficients; unchecked, the polynomial reads NaN at the
        # held-out nodes, passes the residual bound, has every coefficient
        # trimmed and comes back as the flat spectrum
        oracle = EntropyOracle(
            value_fn=lambda lam: -170.0 * (0.5 + lam) / 1.4,
            derivative_fn=lambda lam: 0.0,
            dimension=6,
        )
        with pytest.raises(IllConditioned) as info:
            recover_spectrum(oracle)
        assert info.value.residual == math.inf

    def test_all_clipped_spectrum_is_rejected(self):
        # exact determinant polynomial (1/4)(1 - lam/0.95)(1 - lam/0.98):
        # both roots map to negative eigenvalues, which clip to zero and
        # leave nothing to normalize
        def det(lam):
            return 0.25 * (1.0 - lam / 0.95) * (1.0 - lam / 0.98)

        oracle = EntropyOracle(
            value_fn=lambda lam: -0.5 * math.log2(det(lam)),
            derivative_fn=lambda lam: 0.0,
            dimension=2,
        )
        with pytest.raises(DegreeDeficit, match="every recovered eigenvalue clipped to zero"):
            recover_spectrum(oracle)


def test_recovered_as_spectrum(rng):
    result = recover_spectrum(oracle_from_spectrum(random_state(3, rng).spectrum))
    spectrum = Spectrum(values=result.values)
    assert isinstance(spectrum, Spectrum)
    assert spectrum.values == result.values
    assert spectrum.dimension == 3
