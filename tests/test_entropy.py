import math

import numpy as np
from numpy.polynomial.polynomial import polyval
import pytest

from entrospec import (
    EntropyCurve,
    Spectrum,
    determinant_polynomial,
    entropy_of_spectrum,
    random_state,
    validate_state,
)
from entrospec.entropy import CURVE_GRID, _curve_entropies
from entrospec.errors import LambdaOutOfRange, SingularEndpoint

from conftest import diag_state

# entropy of the spectrum (3/4, 1/4), written in closed form
TWO_STATE_ENTROPY = 2.0 - 0.75 * math.log2(3.0)


class TestEntropyOfSpectrum:
    def test_pure_state_is_zero(self):
        assert entropy_of_spectrum(Spectrum(values=(1.0, 0.0, 0.0))) == 0.0

    def test_uniform_is_log2_n(self):
        spectrum = Spectrum(values=(0.125,) * 8)
        assert entropy_of_spectrum(spectrum) == pytest.approx(3.0, abs=1e-12)

    def test_three_quarters_split(self):
        value = entropy_of_spectrum(Spectrum(values=(0.75, 0.25)))
        assert value == pytest.approx(TWO_STATE_ENTROPY, abs=1e-12)

    def test_range_on_random_spectra(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            entropy = entropy_of_spectrum(random_state(n, rng).spectrum)
            assert 0.0 <= entropy <= math.log2(n) + 1e-12


class TestVonNeumannEntropy:
    def test_maximal_mixed_qubit(self):
        assert entropy_of_spectrum(validate_state(np.eye(2) / 2).spectrum) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rank_one_projector(self):
        assert entropy_of_spectrum(diag_state(1.0, 0.0).spectrum) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_matrix(self):
        state = validate_state(np.array([[0.5, 0.25], [0.25, 0.5]]))
        assert entropy_of_spectrum(state.spectrum) == pytest.approx(TWO_STATE_ENTROPY, abs=1e-12)


class TestEntropyCurveValue:
    def test_weight_zero_is_log2_n(self, rng):
        for n in (2, 5, 8):
            curve = EntropyCurve(random_state(n, rng).spectrum)
            assert curve.value(0.0) == pytest.approx(math.log2(n), abs=1e-12)

    def test_maximal_mixed_is_constant(self):
        curve = EntropyCurve(Spectrum(values=(0.25,) * 4))
        for lam in (0.0, 0.3, 0.7, 1.0):
            assert curve.value(lam) == pytest.approx(2.0, abs=1e-12)

    def test_pure_qubit_at_half_weight(self):
        curve = EntropyCurve(Spectrum(values=(1.0, 0.0)))
        assert curve.value(0.5) == pytest.approx(TWO_STATE_ENTROPY, abs=1e-12)

    def test_non_increasing_along_the_line(self, rng):
        curve = EntropyCurve(random_state(5, rng).spectrum)
        samples = [curve.value(lam) for lam in np.linspace(0.0, 1.0, 40)]
        assert all(b <= a + 1e-12 for a, b in zip(samples, samples[1:]))

    def test_domain_check(self):
        curve = EntropyCurve(Spectrum(values=(0.5, 0.5)))
        with pytest.raises(LambdaOutOfRange):
            curve.value(1.5)

    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, math.nan, math.inf])
    @pytest.mark.parametrize("method", ["value", "derivative", "second_derivative"])
    def test_scalar_domain_check(self, method, bad):
        # the three scalar evaluators share one check on the weight
        curve = EntropyCurve(Spectrum(values=(0.75, 0.25)))
        with pytest.raises(LambdaOutOfRange):
            getattr(curve, method)(bad)

    @pytest.mark.parametrize("n", [2, 9])
    def test_pure_state_entropy_is_positive_zero(self, n):
        # the sum of zero terms is -0.0 before the kernel adds + 0.0
        spectrum = Spectrum(values=(1.0,) + (0.0,) * (n - 1))
        curve = EntropyCurve(spectrum)
        for x in (entropy_of_spectrum(spectrum), curve.value(1.0)):
            assert x == 0.0 and math.copysign(1.0, x) == 1.0


def _low_rank_spectrum(n, rank, rng) -> Spectrum:
    top = rng.uniform(0.1, 1.0, size=rank)
    values = np.concatenate([np.sort(top / top.sum())[::-1], np.zeros(n - rank)])
    return Spectrum(values=tuple(values.tolist()))


class TestEntropyCurveValues:
    """The stacked kernel ``_decide`` runs, against the scalar ``value``."""

    def test_bitwise_equal_to_value(self, rng):
        # the sizes straddle 8 because numpy sums pairwise from 8 terms on,
        # so a sum taken two ways would show here
        spectra = [
            random_state(n, rng).spectrum for n in (1, 2, 3, 7, 8, 9, 16, 17)
        ]
        spectra += [
            _low_rank_spectrum(n, r, rng)
            for n, r in ((2, 1), (4, 2), (9, 3), (16, 5), (16, 15))
        ]
        spectra += [Spectrum(values=(1.0, 0.0, 0.0)), Spectrum(values=(0.25,) * 4)]
        # out of the usual descending order, zeros first
        spectra += [Spectrum(values=(0.0, 0.25, 0.0, 0.75))]
        # lam = 1 is where zero eigenvalues make the mixed spectrum singular
        lams = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 29), [1.0, 0.0]])
        for spectrum in spectra:
            curve = EntropyCurve(spectrum)
            expected = np.array([curve.value(float(lam)) for lam in lams])
            got = _curve_entropies(lams, spectrum.shifted())
            assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestArrayWeights:
    """Each curve method takes an array of weights and answers entry by entry."""

    METHODS = ("value", "derivative", "second_derivative", "log2_determinant")

    def test_array_matches_float_and_checks_every_weight(self, rng):
        spectra = [random_state(n, rng).spectrum for n in (1, 2, 3, 7, 8, 9, 16, 24)]
        spectra += [_low_rank_spectrum(n, r, rng) for n, r in ((2, 1), (9, 3), (16, 15))]
        spectra += [Spectrum(values=(0.4, 0.4, 0.2, 0.0)), Spectrum(values=(0.25,) * 4)]
        for lams in (CURVE_GRID[1:], rng.uniform(0.0, 1.0, (3, 7))):
            for spectrum in spectra:
                curve = EntropyCurve(spectrum)
                for method in self.METHODS:
                    got = getattr(curve, method)(lams)
                    expected = [getattr(curve, method)(lam) for lam in lams.ravel().tolist()]
                    assert got.shape == lams.shape and got.dtype == np.float64
                    assert got.ravel().tobytes() == np.array(expected).tobytes()

        curve = EntropyCurve(Spectrum(values=(1.0, 0.0)))
        for method in self.METHODS:
            bad = 0.0 if method == "log2_determinant" else 1.5
            with pytest.raises(LambdaOutOfRange) as info:
                getattr(curve, method)(np.array([0.2, bad, -0.1, 0.5]))
            assert info.value.lam == bad
        with pytest.raises(SingularEndpoint) as info:
            curve.derivative(np.array([0.3, 0.9, 1.0]))
        assert info.value.lam == 1.0


class TestPowerSumExpansion:
    """The curve's Taylor series at weight 0 in the power sums of the shifts.

    With t_i = n·lam·u_i, each mixed eigenvalue is (1 + t_i)/n and
    S(lam)·ln 2 = ln n − (1/n)·Σ_{k≥2} (−1)^k (n·lam)^k p_k / (k(k − 1)),
    p_k = Σ u_i^k, which converges while max|t_i| < 1.
    """

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("lam", [0.01, 0.05])
    def test_series_matches_value(self, n, lam, rng):
        spectra = [random_state(n, rng).spectrum for _ in range(8)]
        spectra += [_low_rank_spectrum(n, rank, rng) for rank in sorted({1, n // 2})]
        checked = 0
        for spectrum in spectra:
            t = n * lam * spectrum.shifted()
            t_max = float(np.abs(t).max())
            # keep the terms below 2**-k, well inside the radius of convergence
            if t_max >= 0.5:
                continue
            series = 0.0
            k = 2
            while n * t_max**k >= 1e-20:
                series += float(((-t) ** k).sum()) / (k * (k - 1))
                k += 1
            expected = math.log(n) - series / n
            got = EntropyCurve(spectrum).value(lam) * math.log(2.0)
            assert abs(got - expected) <= 4e-15, (spectrum.values, got - expected)
            checked += 1
        assert checked >= 8


class TestEntropyCurveDerivatives:
    def test_derivative_zero_at_origin(self, rng):
        for _ in range(5):
            state = random_state(int(rng.integers(2, 9)), rng)
            curve = EntropyCurve(state.spectrum)
            assert abs(curve.derivative(0.0)) <= 1e-12

    def test_maximal_mixed_derivatives_vanish(self):
        curve = EntropyCurve(Spectrum(values=(1.0 / 3.0,) * 3))
        for lam in (0.0, 0.4, 0.9):
            assert curve.derivative(lam) == pytest.approx(0.0, abs=1e-12)
            assert curve.second_derivative(lam) == pytest.approx(0.0, abs=1e-12)

    def test_derivative_matches_finite_difference(self):
        curve = EntropyCurve(Spectrum(values=(1.0, 0.0)))
        step = 1e-6
        fd = (curve.value(0.5 + step) - curve.value(0.5 - step)) / (2 * step)
        assert abs(curve.derivative(0.5) - fd) <= 1e-6

    def test_second_derivative_matches_finite_difference(self):
        curve = EntropyCurve(Spectrum(values=(1.0, 0.0)))
        step = 1e-4
        fd = (curve.value(0.5 + step) - 2 * curve.value(0.5) + curve.value(0.5 - step)) / step**2
        assert abs(curve.second_derivative(0.5) - fd) <= 1e-5

    def test_second_derivative_closed_form_at_origin(self, rng):
        spectrum = random_state(4, rng).spectrum
        curve = EntropyCurve(spectrum)
        u = spectrum.shifted()
        expected = -4.0 * float(np.sum(u * u)) / math.log(2.0)
        assert curve.second_derivative(0.0) == pytest.approx(expected, rel=1e-12)
        assert curve.second_derivative(0.0) < 0.0

    def test_concavity_on_random_states(self, rng):
        curve = EntropyCurve(random_state(6, rng).spectrum)
        for lam in np.linspace(0.0, 0.99, 15):
            assert curve.second_derivative(float(lam)) <= 0.0

    def test_singular_endpoint_for_rank_deficient_state(self):
        curve = EntropyCurve(Spectrum(values=(1.0, 0.0)))
        with pytest.raises(SingularEndpoint):
            curve.derivative(1.0)
        with pytest.raises(SingularEndpoint):
            curve.second_derivative(1.0)

    def test_full_rank_state_is_fine_at_weight_one(self):
        curve = EntropyCurve(Spectrum(values=(0.75, 0.25)))
        assert math.isfinite(curve.derivative(1.0))
        assert math.isfinite(curve.second_derivative(1.0))


class TestLog2Determinant:
    def test_maximal_mixed(self):
        curve = EntropyCurve(Spectrum(values=(0.25,) * 4))
        for lam in (0.1, 0.5, 0.9):
            assert curve.log2_determinant(lam) == pytest.approx(-8.0, abs=1e-12)

    def test_against_direct_product(self):
        curve = EntropyCurve(Spectrum(values=(0.75, 0.25)))
        direct = math.log2((0.5 * 0.25 + 0.5) * (0.5 * (-0.25) + 0.5))
        assert abs(curve.log2_determinant(0.5) - direct) <= 1e-9

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.2])
    def test_open_interval_only(self, lam):
        curve = EntropyCurve(Spectrum(values=(0.75, 0.25)))
        with pytest.raises(LambdaOutOfRange):
            curve.log2_determinant(lam)


class TestDeterminantPolynomial:
    def test_maximal_mixed_is_constant(self):
        coeffs = determinant_polynomial(Spectrum(values=(1.0 / 3.0,) * 3))
        np.testing.assert_allclose(coeffs, [1.0 / 27.0, 0.0, 0.0, 0.0], atol=1e-17)

    def test_hand_expansion(self):
        coeffs = determinant_polynomial(Spectrum(values=(0.75, 0.25)))
        np.testing.assert_allclose(coeffs, [0.25, 0.0, -0.0625], atol=1e-15)

    def test_constant_coefficient(self, rng):
        for n in (2, 4, 6):
            spectrum = random_state(n, rng).spectrum
            coeffs = determinant_polynomial(spectrum)
            assert coeffs[0] == pytest.approx((1.0 / n) ** n, rel=1e-12)

    def test_leading_coefficient_is_shift_product(self, rng):
        spectrum = random_state(5, rng).spectrum
        coeffs = determinant_polynomial(spectrum)
        assert coeffs[-1] == pytest.approx(float(np.prod(spectrum.shifted())), rel=1e-10)

    def test_positive_below_weight_one(self, rng):
        spectrum = random_state(4, rng).spectrum
        coeffs = determinant_polynomial(spectrum)
        assert np.all(polyval(np.linspace(0.0, 0.999, 25), coeffs) > 0.0)

    def test_evaluation_matches_log_identity(self, rng):
        spectrum = random_state(4, rng).spectrum
        coeffs = determinant_polynomial(spectrum)
        curve = EntropyCurve(spectrum)
        for lam in rng.uniform(0.05, 0.95, size=20):
            lam = float(lam)
            assert abs(float(polyval(lam, coeffs)) - 2.0 ** curve.log2_determinant(lam)) <= 1e-9

    def test_degree(self):
        coeffs = determinant_polynomial(Spectrum(values=(0.6, 0.3, 0.1)))
        assert coeffs.shape == (4,)
        assert coeffs.dtype == np.float64

