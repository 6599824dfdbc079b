"""Deterministic self-test suite behind the CLI selftest command.

The paper's criterion needs one spectrum per state and one entropy curve per
spectrum. The selftest lets a user check that their own numpy, LAPACK, float
format and file I/O reproduce that chain: each property runs
platform-dependent code (an eigensolve, a curve evaluation, a fit, a file
roundtrip) on seeded random fixtures at the library's fixed tolerances and
returns (passed, residual, detail). A given seed always produces the
identical report, so two runs of the CLI can be compared byte for byte.
Residuals are reported next to pass/fail so threshold margins stay visible
instead of collapsing to a boolean.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .entropy import CURVE_GRID, EntropyCurve, determinant_polynomial, entropy_of_spectrum
from .equivalence import (
    ENTROPY_TOL,
    _sorted_distance,
    decide_grid,
    decide_nodes,
    decide_spectral,
    equal_entropy_pair,
)
from .errors import EntrospecError
from .matrixio import load_matrix, save_matrix
from .recovery import EntropyOracle, _noise_gain, oracle_from_spectrum, recover_spectrum
from .states import QuantumState, depolarize, random_state, random_unitary


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    max_residual: float
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


def _random_dim(rng: np.random.Generator, high: int = 8) -> int:
    return int(rng.integers(2, high + 1))


def _conjugate_pair(rng, high: int = 8) -> tuple[QuantumState, QuantumState]:
    n = _random_dim(rng, high)
    state = random_state(n, rng)
    u = random_unitary(n, rng)
    return state, QuantumState(u @ state.matrix @ u.conj().T)


# ---------------------------------------------------------------------------
# state-core invariants


def _prop_eigensolver_reconstruction(rng):
    bound = 1e-10
    worst = 0.0
    for n in (2, 3, 5, 8, 12, 16):
        state = random_state(n, rng)
        values, vectors = state.eigensystem
        rebuilt = vectors @ np.diag(values) @ vectors.conj().T
        worst = max(worst, float(np.max(np.abs(rebuilt - state.matrix))))
    return worst <= bound, worst, "V D V* vs input, n up to 16, bound 1e-10"


def _prop_depolarized_state(rng):
    bound = 1e-10
    worst_spectrum = 0.0
    worst_entropy = 0.0
    for _ in range(50):
        n = _random_dim(rng)
        state = random_state(n, rng)
        lam = float(rng.uniform(0.0, 1.0))
        mixed = depolarize(state, lam).spectrum
        expected = np.sort(lam * state.spectrum.as_array() + (1.0 - lam) / n)[::-1]
        worst_spectrum = max(worst_spectrum, float(np.max(np.abs(mixed.as_array() - expected))))
        curve = EntropyCurve(state.spectrum)
        worst_entropy = max(worst_entropy, abs(curve.value(lam) - entropy_of_spectrum(mixed)))
    return (
        worst_spectrum <= bound and worst_entropy <= bound,
        max(worst_spectrum, worst_entropy),
        f"50 depolarized states: mixed spectrum vs the affine image {worst_spectrum:.3e}, "
        f"curve value vs mixed-state entropy {worst_entropy:.3e}, bound 1e-10 each",
    )


# ---------------------------------------------------------------------------
# entropy invariants


def _prop_curve_closed_forms(rng):
    lams = np.array((0.2, 0.5, 0.8))
    nodes = np.arange(0.1, 0.95, 0.1)
    worst_first = worst_second = worst_log2_det = 0.0
    for _ in range(20):
        n = _random_dim(rng)
        spectrum = random_state(n, rng).spectrum
        curve = EntropyCurve(spectrum)
        step = 1e-6
        fd = (curve.value(lams + step) - curve.value(lams - step)) / (2 * step)
        worst_first = max(worst_first, float(np.max(np.abs(curve.derivative(lams) - fd))))
        step = 1e-4
        fd = (
            curve.value(lams + step) - 2.0 * curve.value(lams) + curve.value(lams - step)
        ) / (step * step)
        worst_second = max(
            worst_second, float(np.max(np.abs(curve.second_derivative(lams) - fd)))
        )
        direct = np.log2(np.multiply.outer(nodes, spectrum.shifted()) + 1.0 / n).sum(axis=-1)
        gaps = curve.log2_determinant(nodes) - direct
        worst_log2_det = max(worst_log2_det, float(np.max(np.abs(gaps))))
    return (
        worst_first <= 1e-6 and worst_second <= 1e-5 and worst_log2_det <= 1e-9,
        max(worst_first, worst_second, worst_log2_det),
        f"20 curves: S' vs central difference {worst_first:.3e} (bound 1e-6), S'' vs "
        f"central difference {worst_second:.3e} (bound 1e-5), n(lam S' - S) vs direct "
        f"log-product at 9 nodes {worst_log2_det:.3e} (bound 1e-9)",
    )


def _prop_product_degree_bound(rng):
    bound = 1e-8
    worst = 0.0
    for n in range(2, 7):
        for _ in range(5):
            spec_a = random_state(n, rng).spectrum
            spec_b = random_state(n, rng).spectrum
            curve_a, curve_b = EntropyCurve(spec_a), EntropyCurve(spec_b)
            det_a, det_b = determinant_polynomial(spec_a), determinant_polynomial(spec_b)
            gaps = curve_a.second_derivative(CURVE_GRID) - curve_b.second_derivative(CURVE_GRID)
            polyval = np.polynomial.polynomial.polyval
            y = gaps * polyval(CURVE_GRID, det_a) * polyval(CURVE_GRID, det_b)
            scale = max(float(np.max(np.abs(y))), 1e-300)
            vander = np.polynomial.polynomial.polyvander(CURVE_GRID, 2 * n - 2)
            coeffs, _, _, _ = np.linalg.lstsq(vander, y, rcond=None)
            rel = float(np.max(np.abs(vander @ coeffs - y))) / scale
            over = np.polynomial.polynomial.polyvander(CURVE_GRID, 2 * n)
            over_coeffs, _, _, _ = np.linalg.lstsq(over, y, rcond=None)
            top = float(np.max(np.abs(over_coeffs[-2:])))
            worst = max(worst, rel, top)
    return (
        worst <= bound, worst,
        "gap-curvature times both determinants fits at degree 2n-2, bound 1e-8",
    )


# ---------------------------------------------------------------------------
# equivalence invariants


def _distinct_pair(rng) -> tuple[QuantumState, QuantumState]:
    while True:
        n = _random_dim(rng)
        a, b = random_state(n, rng), random_state(n, rng)
        if _sorted_distance(a.spectrum, b.spectrum) >= 1e-3:
            return a, b


def _prop_deciders(rng):
    conjugate = [_conjugate_pair(rng) for _ in range(100)]
    distinct = [_distinct_pair(rng) for _ in range(100)]
    wrong = 0
    worst_distance = max(_sorted_distance(a.spectrum, b.spectrum) for a, b in conjugate)
    worst_conj = 0.0
    worst_unitary = 0.0
    tightest = float("inf")
    for expected, pairs in ((True, conjugate), (False, distinct)):
        for a, b in pairs:
            for decide in (decide_spectral, decide_grid, decide_nodes):
                report = decide(a, b)
                w = report.witness
                if report.equivalent != expected or (w is not None) != expected:
                    wrong += 1
                elif w is not None:
                    worst_conj = max(
                        worst_conj, float(np.max(np.abs(a.matrix - w @ b.matrix @ w.conj().T)))
                    )
                    worst_unitary = max(
                        worst_unitary, float(np.max(np.abs(w @ w.conj().T - np.eye(a.dimension))))
                    )
                elif decide is not decide_spectral:
                    # the spectral decider tests no curve point and reports 0.0
                    tightest = min(tightest, report.max_entropy_gap)
    passed = wrong == 0 and worst_distance <= 1e-9 and worst_conj <= 1e-8 and worst_unitary <= 1e-10
    return (
        passed, max(worst_distance, worst_conj, worst_unitary),
        f"100 conjugate and 100 distinct pairs under all three methods, {wrong} wrong "
        f"verdicts or witnesses; conjugate spectral distance {worst_distance:.3e} "
        f"(bound 1e-9), conjugation residual {worst_conj:.3e} (bound 1e-8), unitarity "
        f"residual {worst_unitary:.3e} (bound 1e-10); smallest distinct max-gap "
        f"{tightest:.3e} (t1, t2)",
    )


def _prop_single_point_insufficiency(rng):
    a, b = equal_entropy_pair(3)
    entropy_gap = abs(entropy_of_spectrum(a.spectrum) - entropy_of_spectrum(b.spectrum))
    distance = _sorted_distance(a.spectrum, b.spectrum)
    report = decide_nodes(a, b)
    passed = (
        entropy_gap <= ENTROPY_TOL
        and distance >= 1e-3
        and not report.equivalent
    )
    return (
        passed, entropy_gap,
        f"entropies agree at full weight (gap {entropy_gap:.3e}) yet spectra differ "
        f"by {distance:.3e}; node test max gap {report.max_entropy_gap:.3e}",
    )


# ---------------------------------------------------------------------------
# spectrum-recovery invariants


def _roundtrip(rng, include_derivative: bool, bound: float, what: str):
    """50 roundtrips within ``bound``, each summing to 1 within 1e-12 with drift at most 1e-5."""
    worst = 0.0
    worst_sum = 0.0
    worst_drift = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        state = random_state(n, rng)
        truth = state.spectrum.as_array()
        oracle = oracle_from_spectrum(state.spectrum, include_derivative=include_derivative)
        result = recover_spectrum(oracle)
        worst = max(worst, float(np.max(np.abs(np.asarray(result.values) - truth))))
        worst_sum = max(worst_sum, abs(sum(result.values) - 1.0))
        worst_drift = max(worst_drift, result.sum_drift)
    passed = worst <= bound and worst_sum <= 1e-12 and worst_drift <= 1e-5
    return (
        passed, worst,
        f"50 roundtrips with {what}; renormalized sums exact to "
        f"{worst_sum:.1e} (bound 1e-12), pre-renormalization drift {worst_drift:.1e} "
        f"(bound 1e-5)",
    )


def _prop_recovery_roundtrip_analytic(rng):
    return _roundtrip(rng, True, 1e-6, "analytic derivative, bound 1e-6")


def _prop_recovery_roundtrip_fd(rng):
    return _roundtrip(rng, False, 1e-4, "finite differences, bound 1e-4")


def _prop_recovery_permutation_invariance(rng):
    bound = 1e-8
    worst = 0.0
    for _ in range(10):
        state, rotated = _conjugate_pair(rng, 6)
        rec_a = np.asarray(recover_spectrum(oracle_from_spectrum(state.spectrum)).values)
        rec_b = np.asarray(recover_spectrum(oracle_from_spectrum(rotated.spectrum)).values)
        worst = max(worst, float(np.max(np.abs(rec_a - rec_b))))
    return worst <= bound, worst, "recovery sees only the spectrum, not the eigenbasis, bound 1e-8"


def _noisy_oracle(state: QuantumState, eps: float, rng: np.random.Generator) -> EntropyOracle:
    """An oracle whose every answer carries its own uniform noise in [-eps, eps]."""
    curve = EntropyCurve(state.spectrum)

    def noisy(fn):
        return lambda lams: fn(lams) + eps * rng.uniform(-1.0, 1.0, lams.shape)

    return EntropyOracle(noisy(curve.value), noisy(curve.derivative), state.dimension)


def _prop_recovery_noise_bound(rng):
    lam_max = float(CURVE_GRID[-1])
    worst_ratio = 0.0
    worst_err = 0.0
    dims = (2, 3, 4, 5, 6, 2, 3, 4, 5, 6)
    for eps in (1e-10, 1e-8):
        for n in dims:
            state = random_state(n, rng)
            truth = state.spectrum.as_array()
            oracle = _noisy_oracle(state, eps, rng)
            recovered = np.asarray(recover_spectrum(oracle).values)
            err = float(np.max(np.abs(recovered - truth)))
            # noise eps on S and on S' moves each sample n (lam S' - S) by
            # at most n (1 + lam) eps
            bound = _noise_gain(state.spectrum) * n * (1.0 + lam_max) * eps
            worst_err = max(worst_err, err)
            worst_ratio = max(worst_ratio, err / bound)
    return (
        worst_ratio <= 1.0, worst_err,
        f"error stays below ||A||inf * n(1 + {lam_max}) * eps, A the first-order "
        f"gain from fitting samples to spectrum, for eps in (1e-10, 1e-8); "
        f"worst fraction of the bound {worst_ratio:.3f}",
    )


# ---------------------------------------------------------------------------
# cli invariants


def _prop_matrix_file_roundtrip(rng):
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "matrix.json")
        for index in range(50):
            n = int(rng.integers(1, 9))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if index % 7 == 0:
                m[0, 0] = (1.0 / 3.0) + 1e-300j
            if index % 11 == 0:
                # complex(), since -0.0 + 1e16j adds +0.0 to the real part
                m[-1, -1] = complex(-0.0, 1e16)
            save_matrix(path, m)
            # bit patterns, since -0.0 == 0.0 as floats
            if not np.array_equal(m.view(np.uint64), load_matrix(path).view(np.uint64)):
                mismatches += 1
    return mismatches == 0, float(mismatches), "50 write-read roundtrips are bit-exact"


_PROPERTIES = (
    ("eigensolver-reconstruction", _prop_eigensolver_reconstruction),
    ("depolarized-state", _prop_depolarized_state),
    ("curve-closed-forms", _prop_curve_closed_forms),
    ("product-degree-bound", _prop_product_degree_bound),
    ("deciders", _prop_deciders),
    ("single-point-insufficiency", _prop_single_point_insufficiency),
    ("recovery-roundtrip-analytic", _prop_recovery_roundtrip_analytic),
    ("recovery-roundtrip-fd", _prop_recovery_roundtrip_fd),
    ("recovery-permutation-invariance", _prop_recovery_permutation_invariance),
    ("recovery-noise-bound", _prop_recovery_noise_bound),
    ("matrix-file-roundtrip", _prop_matrix_file_roundtrip),
)


def run_selftest(seed: int) -> list[PropertyResult]:
    """Run every property at the given seed; deterministic per seed.

    The seed must be a non-negative int (not a bool); anything else raises
    ValueError before any property runs.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    results = []
    for index, (name, prop) in enumerate(_PROPERTIES):
        rng = np.random.default_rng([seed, index])
        try:
            passed, residual, detail = prop(rng)
        except EntrospecError as exc:
            passed, residual, detail = False, float("inf"), f"raised {type(exc).__name__}: {exc}"
        results.append(
            PropertyResult(
                name=name, passed=bool(passed), max_residual=float(residual), detail=detail
            )
        )
    return results
