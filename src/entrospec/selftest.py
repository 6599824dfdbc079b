"""Deterministic self-test suite behind the CLI selftest command.

Each property mirrors one of the library's documented invariants and runs
on seeded random fixtures: a given (seed, tolerance) pair always produces
the identical report, so two runs of the CLI can be compared byte for
byte. Residuals are reported next to pass/fail so threshold margins stay
visible instead of collapsing to a boolean.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .entropy import (
    EntropyCurve,
    determinant_polynomial,
    second_derivative_times_determinant,
    von_neumann_entropy,
)
from .equivalence import (
    EquivalenceConfig,
    _sorted_distance,
    decide_grid,
    decide_nodes,
    decide_spectral,
    equal_entropy_pair,
)
from .errors import EntrospecError
from .matrixio import load_matrix, save_matrix
from .recovery import (
    EntropyOracle,
    _chebyshev_nodes,
    oracle_from_state,
    recover_spectrum,
)
from .states import (
    QuantumState,
    depolarize,
    hermitian_eigensystem,
    hermitian_spectrum,
    random_state,
    random_unitary,
    validate_state,
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    max_residual: float
    detail: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "detail": self.detail,
        }


def _result(name: str, passed, residual, detail: str) -> PropertyResult:
    return PropertyResult(
        name=name, passed=bool(passed), max_residual=float(residual), detail=detail
    )


def _random_dim(rng: np.random.Generator, high: int = 8) -> int:
    return int(rng.integers(2, high + 1))


def _conjugate(state: QuantumState, u: np.ndarray) -> QuantumState:
    return validate_state(u @ state.matrix @ u.conj().T)


def _spectral_distance(a: QuantumState, b: QuantumState) -> float:
    return _sorted_distance(hermitian_spectrum(a), hermitian_spectrum(b))


# ---------------------------------------------------------------------------
# state-core invariants


def _prop_eigensolver_reconstruction(name, rng, entropy_tol):
    bound = 1e-10
    worst = 0.0
    for n in (2, 3, 5, 8, 12, 16):
        state = random_state(n, rng)
        values, vectors = hermitian_eigensystem(state)
        rebuilt = vectors @ np.diag(values) @ vectors.conj().T
        worst = max(worst, float(np.max(np.abs(rebuilt - state.matrix))))
    return _result(name, worst <= bound, worst, "V D V* vs input, n up to 16, bound 1e-10")


def _prop_depolarize_spectrum_map(name, rng, entropy_tol):
    bound = 1e-10
    worst = 0.0
    for _ in range(20):
        n = _random_dim(rng)
        state = random_state(n, rng)
        lam = float(rng.uniform(0.0, 1.0))
        base = hermitian_spectrum(state).as_array()
        expected = np.sort(lam * base + (1.0 - lam) / n)[::-1]
        got = hermitian_spectrum(depolarize(state, lam)).as_array()
        worst = max(worst, float(np.max(np.abs(got - expected))))
    return _result(name, worst <= bound, worst, "mixed spectrum is the affine image, bound 1e-10")


def _prop_spectrum_unitary_invariance(name, rng, entropy_tol):
    bound = 1e-9
    worst = 0.0
    for _ in range(20):
        n = _random_dim(rng)
        state = random_state(n, rng)
        rotated = _conjugate(state, random_unitary(n, rng))
        worst = max(worst, _spectral_distance(state, rotated))
    return _result(name, worst <= bound, worst, "conjugation leaves the spectrum, bound 1e-9")


def _prop_random_state_validity(name, rng, entropy_tol):
    worst = 0.0
    failures = 0
    for _ in range(20):
        n = _random_dim(rng)
        state = random_state(n, rng)
        m = state.matrix
        try:
            validate_state(m)
        except EntrospecError:
            failures += 1
            continue
        herm = float(np.max(np.abs(m - m.conj().T)))
        trace_dev = abs(float(np.trace(m).real) - 1.0)
        min_eig = float(np.min(hermitian_eigensystem(state)[0]))
        worst = max(worst, herm, trace_dev, max(0.0, -min_eig))
    return _result(
        name, failures == 0 and worst <= 1e-9, worst,
        "20 random draws pass all state invariants",
    )


# ---------------------------------------------------------------------------
# entropy invariants


def _prop_curve_matches_entropy(name, rng, entropy_tol):
    bound = 1e-10
    worst = 0.0
    for _ in range(50):
        n = _random_dim(rng)
        state = random_state(n, rng)
        lam = float(rng.uniform(0.0, 1.0))
        curve = EntropyCurve(hermitian_spectrum(state))
        direct = von_neumann_entropy(depolarize(state, lam))
        worst = max(worst, abs(curve.value(lam) - direct))
    return _result(name, worst <= bound, worst, "curve value vs mixed-state entropy, bound 1e-10")


def _prop_derivative_fd(name, rng, entropy_tol):
    bound = 1e-6
    step = 1e-6
    worst = 0.0
    for _ in range(15):
        n = _random_dim(rng)
        curve = EntropyCurve(hermitian_spectrum(random_state(n, rng)))
        for lam in (0.2, 0.5, 0.8):
            fd = (curve.value(lam + step) - curve.value(lam - step)) / (2 * step)
            worst = max(worst, abs(curve.derivative(lam) - fd))
    return _result(name, worst <= bound, worst, "first derivative vs central difference, bound 1e-6")


def _prop_second_derivative_fd(name, rng, entropy_tol):
    bound = 1e-5
    step = 1e-4
    worst = 0.0
    for _ in range(15):
        n = _random_dim(rng)
        curve = EntropyCurve(hermitian_spectrum(random_state(n, rng)))
        for lam in (0.2, 0.5, 0.8):
            fd = (
                curve.value(lam + step) - 2.0 * curve.value(lam) + curve.value(lam - step)
            ) / (step * step)
            worst = max(worst, abs(curve.second_derivative(lam) - fd))
    return _result(name, worst <= bound, worst, "second derivative vs central difference, bound 1e-5")


def _prop_log2_determinant_identity(name, rng, entropy_tol):
    bound = 1e-9
    worst = 0.0
    for _ in range(20):
        n = _random_dim(rng)
        spectrum = hermitian_spectrum(random_state(n, rng))
        curve = EntropyCurve(spectrum)
        for lam in np.arange(0.1, 0.95, 0.1):
            lam = float(lam)
            direct = float(np.sum(np.log2(lam * spectrum.shifted() + 1.0 / n)))
            worst = max(worst, abs(curve.log2_determinant(lam) - direct))
    return _result(
        name, worst <= bound, worst,
        "n(lam S' - S) vs direct log-product, 9 nodes, bound 1e-9",
    )


def _prop_product_degree_bound(name, rng, entropy_tol):
    bound = 1e-8
    worst = 0.0
    for n in range(2, 7):
        for _ in range(5):
            spec_a = hermitian_spectrum(random_state(n, rng))
            spec_b = hermitian_spectrum(random_state(n, rng))
            curve_a, curve_b = EntropyCurve(spec_a), EntropyCurve(spec_b)
            poly_a, poly_b = determinant_polynomial(spec_a), determinant_polynomial(spec_b)
            ts = np.asarray(_chebyshev_nodes(2 * n + 3, 0.05, 0.95))
            y = np.array(
                [
                    (curve_a.second_derivative(float(t)) - curve_b.second_derivative(float(t)))
                    * float(poly_a(float(t)))
                    * float(poly_b(float(t)))
                    for t in ts
                ]
            )
            scale = max(float(np.max(np.abs(y))), 1e-300)
            vander = np.polynomial.polynomial.polyvander(ts, 2 * n - 2)
            coeffs, _, _, _ = np.linalg.lstsq(vander, y, rcond=None)
            rel = float(np.max(np.abs(vander @ coeffs - y))) / scale
            over = np.polynomial.polynomial.polyvander(ts, 2 * n)
            over_coeffs, _, _, _ = np.linalg.lstsq(over, y, rcond=None)
            top = float(np.max(np.abs(over_coeffs[-2:])))
            worst = max(worst, rel, top)
    return _result(
        name, worst <= bound, worst,
        "gap-curvature times both determinants fits at degree 2n-2, bound 1e-8",
    )


def _prop_curvature_product_coefficient(name, rng, entropy_tol):
    bound = 1e-10
    worst = 0.0
    for _ in range(20):
        n = _random_dim(rng)
        spectrum = hermitian_spectrum(random_state(n, rng))
        coeffs = second_derivative_times_determinant(spectrum)
        worst = max(worst, abs(float(coeffs[-1])))
    return _result(
        name, worst <= bound, worst,
        "top coefficient of curvature-determinant product vanishes, bound 1e-10",
    )


# ---------------------------------------------------------------------------
# equivalence invariants


def _prop_equivalent_pairs(name, rng, entropy_tol):
    cfg = EquivalenceConfig(entropy_tol=entropy_tol)
    worst = 0.0
    failures = 0
    for _ in range(100):
        n = _random_dim(rng)
        state = random_state(n, rng)
        rotated = _conjugate(state, random_unitary(n, rng))
        for decide in (decide_spectral, decide_grid, decide_nodes):
            report = decide(state, rotated, cfg)
            if not report.equivalent or report.witness is None:
                failures += 1
            worst = max(worst, report.max_entropy_gap)
    return _result(
        name, failures == 0, worst,
        "100 conjugate pairs equivalent under all three methods",
    )


def _prop_distinct_pairs_flagged(name, rng, entropy_tol):
    cfg = EquivalenceConfig(entropy_tol=entropy_tol)
    tightest = float("inf")
    failures = 0
    count = 0
    while count < 100:
        n = _random_dim(rng)
        a = random_state(n, rng)
        b = random_state(n, rng)
        if _spectral_distance(a, b) < 1e-3:
            continue
        count += 1
        report = decide_nodes(a, b, cfg)
        if report.equivalent:
            failures += 1
        tightest = min(tightest, report.max_entropy_gap)
    return _result(
        name, failures == 0, tightest,
        "100 distinct pairs flagged by the node test; residual is the smallest max-gap seen",
    )


def _prop_method_agreement(name, rng, entropy_tol):
    cfg = EquivalenceConfig(entropy_tol=entropy_tol)
    disagreements = 0
    for index in range(40):
        n = _random_dim(rng)
        a = random_state(n, rng)
        if index % 2 == 0:
            b = _conjugate(a, random_unitary(n, rng))
        else:
            b = random_state(n, rng)
        verdicts = {
            decide(a, b, cfg).verdict
            for decide in (decide_spectral, decide_grid, decide_nodes)
        }
        if len(verdicts) != 1:
            disagreements += 1
    return _result(
        name, disagreements == 0, float(disagreements),
        "three methods agree on 40 mixed pairs",
    )


def _prop_witness_residuals(name, rng, entropy_tol):
    worst_conj = 0.0
    worst_unitary = 0.0
    cfg = EquivalenceConfig(entropy_tol=entropy_tol)
    for _ in range(20):
        n = _random_dim(rng)
        state = random_state(n, rng)
        rotated = _conjugate(state, random_unitary(n, rng))
        report = decide_nodes(state, rotated, cfg)
        if report.witness is None:
            return _result(
                name, False, float("inf"),
                "conjugate pair not decided equivalent at this tolerance, no witness",
            )
        w = report.witness
        worst_conj = max(
            worst_conj,
            float(np.max(np.abs(state.matrix - w @ rotated.matrix @ w.conj().T))),
        )
        worst_unitary = max(
            worst_unitary,
            float(np.max(np.abs(w @ w.conj().T - np.eye(n)))),
        )
    passed = worst_conj <= 1e-8 and worst_unitary <= 1e-10
    return _result(
        name, passed, max(worst_conj, worst_unitary),
        f"conjugation residual {worst_conj:.3e} (bound 1e-8), "
        f"unitarity residual {worst_unitary:.3e} (bound 1e-10)",
    )


def _prop_single_point_insufficiency(name, rng, entropy_tol):
    a, b = equal_entropy_pair(3)
    entropy_gap = abs(von_neumann_entropy(a) - von_neumann_entropy(b))
    distance = _spectral_distance(a, b)
    report = decide_nodes(a, b, EquivalenceConfig(entropy_tol=entropy_tol))
    passed = (
        entropy_gap <= entropy_tol
        and distance >= 1e-3
        and not report.equivalent
    )
    return _result(
        name, passed, entropy_gap,
        f"entropies agree at full weight (gap {entropy_gap:.3e}) yet spectra differ "
        f"by {distance:.3e}; node test max gap {report.max_entropy_gap:.3e}",
    )


# ---------------------------------------------------------------------------
# spectrum-recovery invariants


def _roundtrip_worst(rng, include_derivative: bool, count: int) -> float:
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 7))
        state = random_state(n, rng)
        truth = hermitian_spectrum(state).as_array()
        oracle = oracle_from_state(state, include_derivative=include_derivative)
        recovered = np.asarray(recover_spectrum(oracle).values)
        worst = max(worst, float(np.max(np.abs(recovered - truth))))
    return worst


def _prop_recovery_roundtrip_analytic(name, rng, entropy_tol):
    worst = _roundtrip_worst(rng, True, 50)
    return _result(name, worst <= 1e-6, worst, "50 roundtrips with analytic derivative, bound 1e-6")


def _prop_recovery_roundtrip_fd(name, rng, entropy_tol):
    worst = _roundtrip_worst(rng, False, 50)
    return _result(name, worst <= 1e-4, worst, "50 roundtrips with finite differences, bound 1e-4")


def _prop_recovery_permutation_invariance(name, rng, entropy_tol):
    bound = 1e-8
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        state = random_state(n, rng)
        rotated = _conjugate(state, random_unitary(n, rng))
        rec_a = np.asarray(recover_spectrum(oracle_from_state(state)).values)
        rec_b = np.asarray(recover_spectrum(oracle_from_state(rotated)).values)
        worst = max(worst, float(np.max(np.abs(rec_a - rec_b))))
    return _result(
        name, worst <= bound, worst,
        "recovery sees only the spectrum, not the eigenbasis, bound 1e-8",
    )


def _noisy_oracle(state: QuantumState, eps: float, rng: np.random.Generator) -> EntropyOracle:
    curve = EntropyCurve(hermitian_spectrum(state))

    def value_fn(lam: float) -> float:
        return curve.value(lam) + eps * float(rng.uniform(-1.0, 1.0))

    def derivative_fn(lam: float) -> float:
        return curve.derivative(lam) + eps * float(rng.uniform(-1.0, 1.0))

    return EntropyOracle(
        value_fn=value_fn, derivative_fn=derivative_fn, dimension=state.dimension
    )


def _prop_recovery_noise_bound(name, rng, entropy_tol):
    worst_ratio = 0.0
    worst_err = 0.0
    dims = (2, 3, 4, 5, 6, 2, 3, 4, 5, 6)
    for eps in (1e-10, 1e-8):
        for n in dims:
            state = random_state(n, rng)
            truth = hermitian_spectrum(state).as_array()
            oracle = _noisy_oracle(state, eps, rng)
            try:
                recovered = np.asarray(recover_spectrum(oracle).values)
            except EntrospecError as exc:
                return _result(
                    name, False, float("inf"),
                    f"recovery failed under eps={eps:g} noise: {exc}",
                )
            err = float(np.max(np.abs(recovered - truth)))
            worst_err = max(worst_err, err)
            worst_ratio = max(worst_ratio, err / (1e3 * eps * n))
    return _result(
        name, worst_ratio <= 1.0, worst_err,
        f"error stays below 1e3 * eps * n for eps in (1e-10, 1e-8); "
        f"worst fraction of the bound {worst_ratio:.3f}",
    )


def _prop_recovery_sum_rule(name, rng, entropy_tol):
    worst_drift = 0.0
    worst_sum = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        result = recover_spectrum(oracle_from_state(random_state(n, rng)))
        worst_sum = max(worst_sum, abs(sum(result.values) - 1.0))
        worst_drift = max(worst_drift, result.sum_drift)
    passed = worst_sum <= 1e-12 and worst_drift <= 1e-5
    return _result(
        name, passed, worst_drift,
        f"renormalized sums exact to {worst_sum:.1e}; pre-renormalization drift bound 1e-5",
    )


# ---------------------------------------------------------------------------
# cli invariants


def _prop_matrix_file_roundtrip(name, rng, entropy_tol):
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "matrix.json")
        for index in range(50):
            n = int(rng.integers(1, 9))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if index % 7 == 0:
                m[0, 0] = (1.0 / 3.0) + 1e-300j
            if index % 11 == 0:
                m[-1, -1] = -0.0 + 1e16j
            save_matrix(path, m)
            if not np.array_equal(m, load_matrix(path)):
                mismatches += 1
    return _result(
        name, mismatches == 0, float(mismatches),
        "50 write-read roundtrips are bit-exact",
    )


_PROPERTIES = (
    ("eigensolver-reconstruction", _prop_eigensolver_reconstruction),
    ("depolarize-spectrum-map", _prop_depolarize_spectrum_map),
    ("spectrum-unitary-invariance", _prop_spectrum_unitary_invariance),
    ("random-state-validity", _prop_random_state_validity),
    ("curve-matches-entropy", _prop_curve_matches_entropy),
    ("derivative-finite-difference", _prop_derivative_fd),
    ("second-derivative-finite-difference", _prop_second_derivative_fd),
    ("log2-determinant-identity", _prop_log2_determinant_identity),
    ("product-degree-bound", _prop_product_degree_bound),
    ("curvature-product-coefficient", _prop_curvature_product_coefficient),
    ("equivalent-pairs-all-methods", _prop_equivalent_pairs),
    ("distinct-pairs-flagged", _prop_distinct_pairs_flagged),
    ("method-agreement", _prop_method_agreement),
    ("witness-residuals", _prop_witness_residuals),
    ("single-point-insufficiency", _prop_single_point_insufficiency),
    ("recovery-roundtrip-analytic", _prop_recovery_roundtrip_analytic),
    ("recovery-roundtrip-fd", _prop_recovery_roundtrip_fd),
    ("recovery-permutation-invariance", _prop_recovery_permutation_invariance),
    ("recovery-noise-bound", _prop_recovery_noise_bound),
    ("recovery-sum-rule", _prop_recovery_sum_rule),
    ("matrix-file-roundtrip", _prop_matrix_file_roundtrip),
)


def run_selftest(
    seed: int, entropy_tol: float = EquivalenceConfig.entropy_tol
) -> list[PropertyResult]:
    """Run every property at the given seed; deterministic per (seed, tol)."""
    results = []
    for index, (name, prop) in enumerate(_PROPERTIES):
        rng = np.random.default_rng([seed, index])
        try:
            results.append(prop(name, rng, entropy_tol))
        except EntrospecError as exc:
            results.append(_result(name, False, float("inf"), f"raised {type(exc).__name__}: {exc}"))
    return results
