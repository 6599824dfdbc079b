import math

import numpy as np
import pytest

from entrospec import (
    EntropyOracle,
    RecoveryConfig,
    Spectrum,
    default_recovery_config,
    determinant_polynomial,
    fit_determinant_polynomial,
    hermitian_spectrum,
    oracle_from_spectrum,
    oracle_from_state,
    random_state,
    recover_spectrum,
    sample_log2_determinant,
)
from entrospec.errors import ComplexRoots, IllConditioned, OracleDomain

from conftest import diag_state


class TestSampleLog2Determinant:
    def test_maximally_mixed_is_constant(self):
        oracle = oracle_from_state(diag_state(0.25, 0.25, 0.25, 0.25))
        cfg = default_recovery_config(4)
        for lam in (0.1, 0.5, 0.9):
            assert abs(sample_log2_determinant(oracle, lam, cfg) - (-8.0)) <= 1e-12

    def test_matches_direct_determinant(self):
        # diag(0.75, 0.25) mixed at weight 0.5 has eigenvalues 0.625, 0.375
        oracle = oracle_from_state(diag_state(0.75, 0.25))
        cfg = default_recovery_config(2)
        expected = math.log2(0.625 * 0.375)
        assert abs(sample_log2_determinant(oracle, 0.5, cfg) - expected) <= 1e-12

    def test_finite_difference_fallback(self):
        oracle = oracle_from_state(diag_state(0.75, 0.25), include_derivative=False)
        assert oracle.derivative_fn is None
        cfg = default_recovery_config(2)
        expected = math.log2(0.625 * 0.375)
        assert abs(sample_log2_determinant(oracle, 0.5, cfg) - expected) <= 1e-7

    @pytest.mark.parametrize("lam", [0.0, -0.1, 0.95, 1.0])
    def test_rejects_weights_outside_domain(self, lam):
        oracle = oracle_from_state(diag_state(0.5, 0.5))
        cfg = default_recovery_config(2)
        with pytest.raises(OracleDomain):
            sample_log2_determinant(oracle, lam, cfg)


class TestDefaultRecoveryConfig:
    def test_node_layout(self):
        cfg = default_recovery_config(4)
        assert len(cfg.nodes) == 9
        assert all(0.1 <= x <= 0.9 for x in cfg.nodes)
        assert all(b > a for a, b in zip(cfg.nodes, cfg.nodes[1:]))
        assert len(cfg.validation_nodes) == 4

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            default_recovery_config(0)


class TestRecoveryConfigValidation:
    def test_rejects_bad_lambda_max(self):
        for lambda_max in (0.0, 1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                RecoveryConfig(nodes=(0.2, 0.4, 0.6), lambda_max=lambda_max)

    def test_rejects_nodes_outside_domain(self):
        with pytest.raises(ValueError):
            RecoveryConfig(nodes=(0.0, 0.4, 0.6))
        with pytest.raises(ValueError):
            RecoveryConfig(nodes=(0.2, 0.4, 0.95), lambda_max=0.9)
        with pytest.raises(ValueError):
            RecoveryConfig(nodes=(0.2, math.nan, 0.6))

    def test_rejects_empty_node_sets(self):
        # with no held-out node the residual reads 0.0 and its bound never fires
        for nodes, held_out in (((), (0.3,)), ((0.2, 0.4, 0.6), ())):
            with pytest.raises(ValueError, match="must not be empty"):
                RecoveryConfig(nodes=nodes, validation_nodes=held_out)

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            RecoveryConfig(nodes=(0.2, 0.4, 0.4))

    def test_rejects_bad_validation_nodes(self):
        for held_out in ((0.3, 1.2), (0.3, math.inf)):
            with pytest.raises(ValueError):
                RecoveryConfig(nodes=(0.2, 0.4, 0.6), validation_nodes=held_out)

    def test_rejects_nonpositive_thresholds(self):
        with pytest.raises(ValueError):
            RecoveryConfig(nodes=(0.2, 0.4, 0.6), fd_step=0.0)
        with pytest.raises(ValueError):
            RecoveryConfig(nodes=(0.2, 0.4, 0.6), coeff_trim_tol=-1e-7)
        for value in (math.nan, math.inf):
            for name in ("fd_step", "coeff_trim_tol", "root_imag_tol"):
                with pytest.raises(ValueError, match="finite and positive"):
                    RecoveryConfig(nodes=(0.2, 0.4, 0.6), **{name: value})


class TestFitDeterminantPolynomial:
    def test_maximally_mixed_fits_constant(self):
        oracle = oracle_from_state(diag_state(*[0.25] * 4))
        poly, residual = fit_determinant_polynomial(oracle, default_recovery_config(4))
        assert poly.coefficients[0] == (1.0 / 4.0) ** 4
        assert max(abs(c) for c in poly.coefficients[1:]) <= 1e-9
        assert residual <= 1e-9

    def test_hand_expanded_coefficients(self):
        oracle = oracle_from_state(diag_state(0.75, 0.25))
        poly, _ = fit_determinant_polynomial(oracle, default_recovery_config(2))
        np.testing.assert_allclose(poly.coefficients, (0.25, 0.0, -0.0625), atol=1e-8)

    def test_constant_coefficient_is_pinned(self, rng):
        state = random_state(5, rng)
        poly, _ = fit_determinant_polynomial(
            oracle_from_state(state), default_recovery_config(5)
        )
        assert poly.coefficients[0] == (1.0 / 5.0) ** 5

    def test_roundtrip_against_direct_expansion(self, rng):
        for n in range(2, 7):
            spectrum = hermitian_spectrum(random_state(n, rng))
            direct = determinant_polynomial(spectrum)
            fitted, residual = fit_determinant_polynomial(
                oracle_from_spectrum(spectrum), default_recovery_config(n)
            )
            np.testing.assert_allclose(
                fitted.coefficients, direct.coefficients, atol=1e-8
            )
            assert residual <= 1e-8

    def test_requires_enough_nodes(self):
        oracle = oracle_from_state(diag_state(0.4, 0.3, 0.2, 0.1))
        cfg = RecoveryConfig(nodes=(0.2, 0.4, 0.6, 0.8))
        with pytest.raises(ValueError):
            fit_determinant_polynomial(oracle, cfg)

    def test_inconsistent_oracle_is_rejected(self, rng):
        # a smooth non-polynomial wobble in the curve cannot be matched by
        # any degree-n polynomial, so the held-out residual must blow up
        spectrum = hermitian_spectrum(random_state(3, rng))
        base = oracle_from_spectrum(spectrum)
        corrupt = EntropyOracle(
            value_fn=lambda lam: base.value_fn(lam) + 0.01 * math.sin(40.0 * lam),
            derivative_fn=lambda lam: base.derivative_fn(lam)
            + 0.4 * math.cos(40.0 * lam),
            dimension=3,
        )
        with pytest.raises(IllConditioned) as info:
            fit_determinant_polynomial(corrupt, default_recovery_config(3))
        assert info.value.residual > 1e-3


class TestRecoverSpectrum:
    def test_maximally_mixed_trims_everything(self):
        result = recover_spectrum(oracle_from_state(diag_state(*[0.25] * 4)))
        assert result.values == (0.25, 0.25, 0.25, 0.25)
        assert result.trimmed_degree == 4
        assert result.residual <= 1e-9

    def test_two_level_state(self):
        result = recover_spectrum(oracle_from_state(diag_state(0.75, 0.25)))
        np.testing.assert_allclose(result.values, (0.75, 0.25), atol=1e-8)
        assert result.trimmed_degree == 0

    def test_eigenvalue_at_mean_is_trimmed(self):
        # diag(1/2, 1/3, 1/6): the middle eigenvalue sits exactly at 1/n,
        # its factor is constant, and the determinant polynomial drops to
        # degree 2; trimming must restore it
        result = recover_spectrum(oracle_from_state(diag_state(0.5, 1 / 3, 1 / 6)))
        assert result.trimmed_degree == 1
        np.testing.assert_allclose(result.values, (0.5, 1 / 3, 1 / 6), atol=1e-8)

    def test_analytic_roundtrip(self, rng):
        for _ in range(5):
            spectrum = hermitian_spectrum(random_state(5, rng))
            result = recover_spectrum(oracle_from_spectrum(spectrum))
            err = np.max(np.abs(np.array(result.values) - spectrum.as_array()))
            assert err <= 1e-6

    def test_finite_difference_roundtrip(self, rng):
        for _ in range(5):
            spectrum = hermitian_spectrum(random_state(4, rng))
            result = recover_spectrum(
                oracle_from_spectrum(spectrum, include_derivative=False)
            )
            err = np.max(np.abs(np.array(result.values) - spectrum.as_array()))
            assert err <= 1e-4

    def test_permutation_invariance(self, rng):
        values = tuple(hermitian_spectrum(random_state(4, rng)).values)
        shuffled = tuple(np.array(values)[rng.permutation(4)])
        a = recover_spectrum(oracle_from_spectrum(Spectrum(values=values)))
        b = recover_spectrum(oracle_from_spectrum(Spectrum(values=shuffled)))
        np.testing.assert_allclose(a.values, b.values, atol=1e-10)

    def test_output_is_sorted_and_normalized(self, rng):
        result = recover_spectrum(oracle_from_state(random_state(6, rng)))
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
        base = oracle_from_state(random_state(4, rng))
        cfg = default_recovery_config(4)
        held_out = set(cfg.validation_nodes)
        oracle = EntropyOracle(
            value_fn=lambda lam: math.nan if lam in held_out else base.value_fn(lam),
            derivative_fn=base.derivative_fn,
            dimension=4,
        )
        with pytest.raises(IllConditioned):
            recover_spectrum(oracle, cfg)


def test_recovered_as_spectrum(rng):
    result = recover_spectrum(oracle_from_state(random_state(3, rng)))
    spectrum = Spectrum(values=result.values)
    assert isinstance(spectrum, Spectrum)
    assert spectrum.values == result.values
    assert spectrum.dimension == 3
