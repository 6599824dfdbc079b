import math
import re
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
from entrospec.entropy import CURVE_GRID
from entrospec.errors import ComplexRoots, DegreeDeficit, IllConditioned
from entrospec.recovery import FD_STEP, _noise_gain, _spectrum_of_coefficients

from conftest import diag_state

# recovery samples the curve grid's rows j = 1..63 and holds out j = 8, 16, ..., 56
ROWS = CURVE_GRID[1:]
HELD_OUT = CURVE_GRID[8:57:8]


def _bump(lams):
    # 40 bits on (0.3, 0.4), 0 elsewhere: no entropy curve looks like this
    return np.where((0.3 < lams) & (lams < 0.4), 40.0, 0.0)


def _fit(oracle):
    return fit_determinant_polynomial(sample_log2_determinant(oracle), oracle.dimension)


def _direct_determinant_error(include_derivative):
    # sampled log2 determinant vs the expanded polynomial at every grid row
    spectrum = diag_state(0.4, 0.3, 0.2, 0.1).spectrum
    samples = sample_log2_determinant(oracle_from_spectrum(spectrum, include_derivative))
    direct = np.log2(polyval(ROWS, determinant_polynomial(spectrum)))
    return float(np.max(np.abs(samples - direct)))


class TestSampleLog2Determinant:
    """One sample per grid row after 0, in ascending order, for every n."""

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_one_sample_per_node(self, n, rng):
        samples = sample_log2_determinant(oracle_from_spectrum(random_state(n, rng).spectrum))
        assert samples.shape == (63,)
        assert samples.dtype == np.float64

    def test_maximally_mixed_is_constant(self):
        oracle = oracle_from_spectrum(diag_state(0.25, 0.25, 0.25, 0.25).spectrum)
        assert np.max(np.abs(sample_log2_determinant(oracle) - (-8.0))) <= 1e-12

    def test_matches_direct_determinant(self):
        assert _direct_determinant_error(include_derivative=True) <= 1e-12

    def test_finite_difference_fallback(self):
        assert _direct_determinant_error(include_derivative=False) <= 1e-7


class TestGridRowsAndDimension:
    """The sampled grid rows and the dimension check of the oracle and the fit."""

    def test_node_layout(self):
        # with an analytic derivative, recovery queries it once on every
        # row: the grid's 63 rows after 0, ascending, the held-out ones included
        base = oracle_from_spectrum(diag_state(0.4, 0.3, 0.2, 0.1).spectrum)
        queried = []

        def derivative(lams):
            queried.append(lams.copy())
            return base.derivative_fn(lams)

        recover_spectrum(EntropyOracle(base.value_fn, derivative, 4))
        (rows,) = queried
        assert rows.tolist() == ROWS.tolist() == [0.9 * j / 63 for j in range(1, 64)]
        assert set(HELD_OUT.tolist()) <= set(rows.tolist()) and len(HELD_OUT) == 7

    def test_rejects_nonpositive_dimension(self):
        # unchecked, 0 divides by zero in the fit and True runs as n = 1
        samples = sample_log2_determinant(oracle_from_spectrum(diag_state(1.0).spectrum))
        for dimension in (0, -1, True, 2.0):
            with pytest.raises(ValueError, match="dimension"):
                EntropyOracle(lambda lam: 0.0, None, dimension)
            with pytest.raises(ValueError, match="dimension"):
                fit_determinant_polynomial(samples, dimension)


class TestFitDeterminantPolynomial:
    def test_maximally_mixed_fits_constant(self):
        oracle = oracle_from_spectrum(diag_state(*[0.25] * 4).spectrum)
        coeffs, residual = _fit(oracle)
        assert coeffs[0] == (1.0 / 4.0) ** 4
        assert np.max(np.abs(coeffs[1:])) <= 1e-9
        assert residual <= 1e-9

    def test_hand_expanded_coefficients(self):
        oracle = oracle_from_spectrum(diag_state(0.75, 0.25).spectrum)
        coeffs, _ = _fit(oracle)
        np.testing.assert_allclose(coeffs, (0.25, 0.0, -0.0625), atol=1e-8)

    def test_constant_coefficient_is_pinned(self, rng):
        state = random_state(5, rng)
        coeffs, _ = _fit(oracle_from_spectrum(state.spectrum))
        assert coeffs[0] == (1.0 / 5.0) ** 5

    def test_roundtrip_against_direct_expansion(self, rng):
        for n in range(2, 7):
            spectrum = random_state(n, rng).spectrum
            direct = determinant_polynomial(spectrum)
            fitted, residual = _fit(oracle_from_spectrum(spectrum))
            assert fitted.shape == direct.shape == (n + 1,)
            np.testing.assert_allclose(fitted, direct, atol=1e-8)
            assert residual <= 1e-8

    def test_inconsistent_oracle_is_rejected(self, rng):
        # a smooth non-polynomial wobble in the curve cannot be matched by
        # any degree-n polynomial, so the held-out residual must blow up
        spectrum = random_state(3, rng).spectrum
        base = oracle_from_spectrum(spectrum)
        corrupt = EntropyOracle(
            value_fn=lambda lams: base.value_fn(lams) + 0.01 * np.sin(40.0 * lams),
            derivative_fn=lambda lams: base.derivative_fn(lams)
            + 0.4 * np.cos(40.0 * lams),
            dimension=3,
        )
        with pytest.raises(IllConditioned) as info:
            _fit(corrupt)
        assert info.value.residual > 1e-3

    def test_nonpositive_prediction_is_rejected(self):
        # a bump on (0.3, 0.4) pulls the fit to -0.051 at the held-out row
        # 0.9 * 24 / 63 = 0.343, where the log of the prediction is undefined
        oracle = EntropyOracle(value_fn=_bump, derivative_fn=np.zeros_like, dimension=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditioned) as info:
                _fit(oracle)
        assert info.value.residual == math.inf

    def test_fits_every_row_but_the_held_out_ones(self):
        # a change at a held-out row moves only the residual; a change at
        # any other row moves the coefficients
        samples = sample_log2_determinant(oracle_from_spectrum(diag_state(0.6, 0.3, 0.1).spectrum))
        coeffs, residual = fit_determinant_polynomial(samples, 3)
        for row in range(63):
            nudged = samples.copy()
            nudged[row] += 1e-6
            got, got_residual = fit_determinant_polynomial(nudged, 3)
            held_out = (row + 1) % 8 == 0
            assert np.array_equal(got, coeffs) == held_out
            assert (got_residual > residual + 5e-7) == held_out

    def test_rejects_a_sample_array_of_another_shape(self):
        samples = sample_log2_determinant(oracle_from_spectrum(diag_state(0.75, 0.25).spectrum))
        for bad in (samples[:-1], samples[:13], samples.reshape(7, 9)):
            with pytest.raises(ValueError, match="63 samples"):
                fit_determinant_polynomial(bad, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_sample(self, bad):
        samples = sample_log2_determinant(oracle_from_spectrum(diag_state(0.75, 0.25).spectrum))
        for row in (0, 7, 62):
            corrupt = samples.copy()
            corrupt[row] = bad
            # the error names the first non-finite sample, not a later one
            corrupt[row + 1:] = math.nan
            with pytest.raises(IllConditioned) as info:
                fit_determinant_polynomial(corrupt, 2)
            assert repr(info.value.residual) == repr(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (math.nan, "log2-determinant sample nan at grid row 6 is not finite"),
            (2000.0, "log2-determinant sample 2000.0 at grid row 6 overflows as 2**sample"),
        ],
    )
    def test_a_refused_sample_is_named_with_its_grid_row(self, bad, message):
        # -2.0 is I/2's log2 determinant at every row; sample 5 is grid row 6,
        # which the fit solves on, so 2**2000.0 is taken and overflows
        samples = np.full(63, -2.0)
        samples[5] = bad
        with pytest.raises(IllConditioned) as info:
            fit_determinant_polynomial(samples, 2)
        assert str(info.value) == message
        assert repr(info.value.residual) == repr(bad)

    def test_residual_refusal_text(self):
        # grid row 8 is held out: its sample, 1.0 above I/2's -2.0, leaves the
        # fit unchanged and misses its prediction by 1.0
        samples = np.full(63, -2.0)
        samples[7] = -1.0
        with pytest.raises(IllConditioned) as info:
            fit_determinant_polynomial(samples, 2)
        assert str(info.value) == (
            "polynomial fit residual 1.000e+00 exceeds 1.0e-03; "
            "samples are inconsistent with a degree-n determinant curve"
        )


class TestOneOraclePass:
    """Recovery calls each oracle callable once, on every grid row after 0."""

    @staticmethod
    def _recording(fn, calls):
        def recorded(lams):
            calls.append(lams.copy())
            return fn(lams)

        return recorded

    @pytest.mark.parametrize("include_derivative", [True, False])
    def test_query_order(self, include_derivative):
        # 2 calls with the analytic derivative; with finite differences, 3
        # value calls: every row plus its step, minus it, then the rows
        base = oracle_from_spectrum(diag_state(0.4, 0.3, 0.2, 0.1).spectrum, include_derivative)
        values, derivatives = [], []
        derivative_fn = None
        if include_derivative:
            derivative_fn = self._recording(base.derivative_fn, derivatives)
        recover_spectrum(EntropyOracle(self._recording(base.value_fn, values), derivative_fn, 4))
        assert len(values) + len(derivatives) == (2 if include_derivative else 3)
        h = FD_STEP * ROWS
        probes = [ROWS] if include_derivative else [ROWS + h, ROWS - h, ROWS]
        assert [v.tobytes() for v in values] == [p.tobytes() for p in probes]
        expected = [ROWS.tobytes()] if include_derivative else []
        assert [d.tobytes() for d in derivatives] == expected

    def test_nonpositive_prediction_still_reads_every_held_out_node(self):
        # the bump oracle of test_nonpositive_prediction_is_rejected, aimed at
        # the held-out row 0.343: its fit is negative there, and every row,
        # each held-out one included, is read once before the fit
        values = []
        with pytest.raises(IllConditioned) as info:
            recover_spectrum(EntropyOracle(self._recording(_bump, values), np.zeros_like, 2))
        assert info.value.residual == math.inf
        assert 0.3 < HELD_OUT[2] < 0.4
        (rows,) = values
        assert rows.tolist() == ROWS.tolist()
        assert all(rows.tolist().count(lam) == 1 for lam in HELD_OUT.tolist())


class TestRecoverSpectrum:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_maximally_mixed_trims_everything(self, n):
        # exact for every n <= 12, as README says; n = 13 raises ComplexRoots.
        # The exact sum of n copies of 1/n rounds to 1, so exact is 1/n itself
        spectrum = diag_state(*[1.0 / n] * n).spectrum
        result = recover_spectrum(oracle_from_spectrum(spectrum))
        assert result.values == spectrum.values == (1.0 / n,) * n
        assert result.trimmed_degree == n
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
            value_fn=lambda lams: -0.5 * np.log2(0.25 + 0.0625 * lams * lams),
            derivative_fn=np.zeros_like,
            dimension=2,
        )
        with pytest.raises(ComplexRoots) as info:
            recover_spectrum(oracle)
        assert info.value.max_imag > 1.0

    def test_nan_oracle_is_rejected(self):
        # NaN fails every comparison, so without an explicit check it
        # passes the residual bound and the coefficient trim and comes
        # back as the flat spectrum
        def nans(lams):
            return np.full_like(lams, math.nan)

        oracle = EntropyOracle(value_fn=nans, derivative_fn=nans, dimension=4)
        with pytest.raises(IllConditioned):
            recover_spectrum(oracle)

    def test_overflowing_oracle_is_rejected(self):
        # log2 det = 4 * 300 at every node; 2**1200 is not a float
        oracle = EntropyOracle(
            value_fn=lambda lams: np.full_like(lams, -300.0), derivative_fn=np.zeros_like,
            dimension=4,
        )
        with pytest.raises(IllConditioned):
            recover_spectrum(oracle)

    def test_nan_at_validation_nodes_is_rejected(self, rng):
        base = oracle_from_spectrum(random_state(4, rng).spectrum)
        oracle = EntropyOracle(
            value_fn=lambda lams: np.where(np.isin(lams, HELD_OUT), math.nan, base.value_fn(lams)),
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
            value_fn=lambda lams: -170.0 * (0.5 + lams) / 1.4,
            derivative_fn=np.zeros_like,
            dimension=6,
        )
        with pytest.raises(IllConditioned) as info:
            recover_spectrum(oracle)
        assert info.value.residual == math.inf
        # which coefficient overflows first is up to the LAPACK build
        assert re.fullmatch(r"fitted coefficient of degree \d is inf, not finite", str(info.value))

    def test_all_clipped_spectrum_is_rejected(self):
        # exact determinant polynomial (1/4)(1 - lam/0.95)(1 - lam/0.98):
        # both roots map to negative eigenvalues, which clip to zero and
        # leave nothing to normalize
        def det(lams):
            return 0.25 * (1.0 - lams / 0.95) * (1.0 - lams / 0.98)

        oracle = EntropyOracle(
            value_fn=lambda lams: -0.5 * np.log2(det(lams)),
            derivative_fn=np.zeros_like,
            dimension=2,
        )
        with pytest.raises(DegreeDeficit, match=r"clamped to \[0, 1\] sum to 0\.0; nothing is left"):
            recover_spectrum(oracle)

    def test_nan_root_is_rejected(self, monkeypatch):
        # a NaN root passes the imaginary-part check and every clamp, so the
        # estimates sum to NaN, which is refused rather than returned as values
        def polyroots(coeffs):
            return np.array([complex(math.nan, 0.0)] * (len(coeffs) - 1))

        monkeypatch.setattr(np.polynomial.polynomial, "polyroots", polyroots)
        oracle = oracle_from_spectrum(diag_state(0.75, 0.25).spectrum)
        with pytest.raises(DegreeDeficit) as info:
            recover_spectrum(oracle)
        assert math.isnan(info.value.values[0])
        assert math.isnan(info.value.clamped_sum)
        assert str(info.value).endswith("clamped to [0, 1] sum to nan; nothing is left to normalize")


@pytest.mark.parametrize("n", [3, 6])
def test_noise_gain_is_the_recovery_jacobian(n, rng):
    # central differences of the fit and recover_spectrum's root step in each
    # grid sample; the held-out samples do not move the fit, so their columns
    # are zero
    spectrum = random_state(n, rng).spectrum
    samples = sample_log2_determinant(oracle_from_spectrum(spectrum))

    def fitted_spectrum(samples):
        coeffs, _ = fit_determinant_polynomial(samples, n)
        return _spectrum_of_coefficients(coeffs, n)[0].as_array()

    step = 1e-7
    columns = []
    for i in range(len(samples)):
        delta = np.zeros(len(samples))
        delta[i] = step
        up = fitted_spectrum(samples + delta)
        down = fitted_spectrum(samples - delta)
        columns.append((up - down) / (2.0 * step))
    finite_difference = float(np.max(np.abs(np.stack(columns, axis=1)).sum(axis=1)))
    assert abs(finite_difference - _noise_gain(spectrum)) <= 1e-4 * finite_difference


def test_recovered_as_spectrum(rng):
    result = recover_spectrum(oracle_from_spectrum(random_state(3, rng).spectrum))
    spectrum = Spectrum(values=result.values)
    assert isinstance(spectrum, Spectrum)
    assert spectrum.values == result.values
    assert spectrum.dimension == 3
