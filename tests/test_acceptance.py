"""End-to-end acceptance checks.

One test per shipped criterion, each printing a single line of the form
``CRITERION k: PASS`` or ``CRITERION k: FAIL - reason`` so a log scan shows
the verdict table at a glance. Tolerances are pinned inline; runtime
budgets are asserted where the criterion carries one.
"""

import json
import math
import time

import numpy as np
from numpy.polynomial.polynomial import polyval

from entrospec import (
    EntropyCurve,
    QuantumState,
    decide_grid,
    decide_nodes,
    decide_spectral,
    determinant_polynomial,
    entropy_of_spectrum,
    equal_entropy_pair,
    oracle_from_spectrum,
    random_state,
    random_unitary,
    recover_spectrum,
    run_selftest,
)
from entrospec.equivalence import ENTROPY_TOL

from conftest import conjugate


def _verdict(number, failures):
    if failures:
        print(f"CRITERION {number}: FAIL - {'; '.join(failures)}")
    else:
        print(f"CRITERION {number}: PASS")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _rng(criterion):
    return np.random.default_rng([criterion, 20260814])


def _spectral_distance(a, b):
    return float(
        np.max(np.abs(a.spectrum.as_array() - b.spectrum.as_array()))
    )


def _chebyshev(count, low, high):
    k = np.arange(1, count + 1)
    x = np.cos((2 * k - 1) * np.pi / (2 * count))
    return np.sort(0.5 * (low + high) + 0.5 * (high - low) * x)


def test_criterion_1_entropy_range():
    rng = _rng(1)
    failures = []
    start = time.perf_counter()
    for index in range(200):
        n = 2 + index % 7
        entropy = entropy_of_spectrum(random_state(n, rng).spectrum)
        if not 0.0 <= entropy <= math.log2(n) + 1e-12:
            failures.append(f"entropy {entropy!r} outside [0, log2({n})]")
            break
    for n in range(2, 9):
        gap = abs(entropy_of_spectrum(QuantumState(np.eye(n) / n).spectrum) - math.log2(n))
        if gap > 1e-12:
            failures.append(f"maximally mixed entropy off by {gap:.2e} at n={n}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s over the 1s budget")
    _verdict(1, failures)


def test_criterion_2_log_determinant_identity():
    rng = _rng(2)
    failures = []
    worst = 0.0
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(2, 9))
        spectrum = random_state(n, rng).spectrum
        curve = EntropyCurve(spectrum)
        shifted = np.asarray(spectrum.shifted())
        for j in range(1, 10):
            lam = j / 10
            direct = float(np.sum(np.log2(lam * shifted + 1.0 / n)))
            worst = max(worst, abs(curve.log2_determinant(lam) - direct))
    if worst > 1e-9:
        failures.append(f"identity gap {worst:.2e} over tolerance 1e-9")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s over the 1s budget")
    _verdict(2, failures)


def test_criterion_3_conjugate_pairs_match_on_grid():
    rng = _rng(3)
    failures = []
    worst = 0.0
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 9))
        state = random_state(n, rng)
        rotated = conjugate(state, random_unitary(n, rng))
        report = decide_grid(state, rotated)
        worst = max(worst, report.max_entropy_gap)
        if not report.equivalent:
            failures.append("a conjugate pair was not decided equivalent")
            break
    if worst > 1e-10:
        failures.append(f"max grid gap {worst:.2e} over tolerance 1e-10")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s over the 5s budget")
    _verdict(3, failures)


def test_criterion_4_node_test_detection():
    rng = _rng(4)
    failures = []
    start = time.perf_counter()

    accepted = 0
    while accepted < 100:
        n = int(rng.integers(2, 9))
        a = random_state(n, rng)
        b = random_state(n, rng)
        distance = _spectral_distance(a, b)
        if distance < 1e-3:
            continue
        accepted += 1
        if decide_nodes(a, b).equivalent:
            failures.append(
                f"distinct pair (spectral distance {distance:.2e}) passed the node test"
            )
            break

    # Three levels is the smallest dimension with distinct spectra of equal
    # entropy: a two-level spectrum is (x, 1 - x) with x in [0.5, 1], and
    # binary entropy is strictly decreasing there, so one entropy value
    # pins the sorted spectrum. With three levels the entropy is one
    # equation in two free eigenvalues, and the pair below differs while
    # the single node lam = 1 cannot tell it apart.
    crafted_a, crafted_b = equal_entropy_pair(3)
    full_weight_gap = abs(
        entropy_of_spectrum(crafted_a.spectrum) - entropy_of_spectrum(crafted_b.spectrum)
    )
    if full_weight_gap > 1e-12:
        failures.append(
            f"crafted pair entropies differ by {full_weight_gap:.2e} at full weight"
        )
    crafted_distance = _spectral_distance(crafted_a, crafted_b)
    if crafted_distance < 1e-3:
        failures.append(
            f"crafted pair is not distinct (spectral distance {crafted_distance:.2e})"
        )
    crafted_report = decide_nodes(crafted_a, crafted_b)
    full_weight_node_gap = dict(crafted_report.per_node_gaps)[1.0]
    if full_weight_node_gap > ENTROPY_TOL:
        failures.append(
            "single-node check at full weight does not pass the crafted pair "
            f"(gap {full_weight_node_gap:.2e})"
        )
    if crafted_report.verdict != "not_equivalent":
        failures.append(
            "crafted three-level pair with equal entropy at full weight was "
            f"not flagged (max node gap {crafted_report.max_entropy_gap:.2e})"
        )

    # Boundary: in two levels the same construction returns the reference
    # spectrum twice, and the node test must accept it with a witness.
    boundary_a, boundary_b = equal_entropy_pair(2)
    boundary_distance = _spectral_distance(boundary_a, boundary_b)
    if boundary_distance > 1e-12:
        failures.append(
            f"two-level boundary pair spectra differ by {boundary_distance:.2e}"
        )
    boundary_report = decide_nodes(boundary_a, boundary_b)
    if boundary_report.verdict != "equivalent" or boundary_report.witness is None:
        failures.append("two-level boundary pair was not accepted with a witness")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s over the 5s budget")
    _verdict(4, failures)


def test_criterion_5_witness_validity():
    rng = _rng(5)
    failures = []
    deciders = (decide_spectral, decide_grid, decide_nodes)
    worst_residual = 0.0
    worst_unitarity = 0.0
    for index in range(100):
        n = int(rng.integers(2, 9))
        sigma = random_state(n, rng)
        rho = conjugate(sigma, random_unitary(n, rng))
        report = deciders[index % 3](rho, sigma)
        if not report.equivalent or report.witness is None:
            failures.append("equivalent verdict arrived without a witness")
            break
        w = report.witness
        worst_residual = max(
            worst_residual,
            float(np.max(np.abs(rho.matrix - w @ sigma.matrix @ w.conj().T))),
        )
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(w @ w.conj().T - np.eye(n))))
        )
    if worst_residual > 1e-8:
        failures.append(f"conjugation residual {worst_residual:.2e} over 1e-8")
    if worst_unitarity > 1e-10:
        failures.append(f"unitarity residual {worst_unitarity:.2e} over 1e-10")
    _verdict(5, failures)


def test_criterion_6_curvature_product_degree_bound():
    rng = _rng(6)
    failures = []
    worst_rel = 0.0
    worst_top = 0.0
    start = time.perf_counter()
    for n in range(2, 7):
        for _ in range(20):
            spec_a = random_state(n, rng).spectrum
            spec_b = random_state(n, rng).spectrum
            curve_a, curve_b = EntropyCurve(spec_a), EntropyCurve(spec_b)
            det_a, det_b = determinant_polynomial(spec_a), determinant_polynomial(spec_b)
            ts = _chebyshev(2 * n + 3, 0.05, 0.95)
            gaps = np.array(
                [curve_a.second_derivative(float(t)) - curve_b.second_derivative(float(t))
                 for t in ts]
            )
            samples = gaps * polyval(ts, det_a) * polyval(ts, det_b)
            scale = max(float(np.max(np.abs(samples))), 1e-300)
            vander = np.polynomial.polynomial.polyvander(ts, 2 * n - 2)
            coeffs, _, _, _ = np.linalg.lstsq(vander, samples, rcond=None)
            worst_rel = max(
                worst_rel, float(np.max(np.abs(vander @ coeffs - samples))) / scale
            )
            over = np.polynomial.polynomial.polyvander(ts, 2 * n)
            over_coeffs, _, _, _ = np.linalg.lstsq(over, samples, rcond=None)
            worst_top = max(worst_top, float(np.max(np.abs(over_coeffs[-2:]))))
    if worst_rel > 1e-8:
        failures.append(f"degree-(2n-2) fit residual {worst_rel:.2e} over 1e-8")
    if worst_top > 1e-8:
        failures.append(f"over-fit top coefficients {worst_top:.2e} over 1e-8")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s over the 10s budget")
    _verdict(6, failures)


def test_criterion_7_recovery_roundtrip():
    rng = _rng(7)
    failures = []
    worst_analytic = 0.0
    worst_fd = 0.0
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(2, 7))
        spectrum = random_state(n, rng).spectrum
        truth = spectrum.as_array()
        analytic = recover_spectrum(oracle_from_spectrum(spectrum))
        worst_analytic = max(
            worst_analytic, float(np.max(np.abs(np.asarray(analytic.values) - truth)))
        )
        fd = recover_spectrum(oracle_from_spectrum(spectrum, include_derivative=False))
        worst_fd = max(worst_fd, float(np.max(np.abs(np.asarray(fd.values) - truth))))
    if worst_analytic > 1e-6:
        failures.append(f"analytic-oracle error {worst_analytic:.2e} over 1e-6")
    if worst_fd > 1e-4:
        failures.append(f"finite-difference error {worst_fd:.2e} over 1e-4")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s over the 10s budget")
    _verdict(7, failures)


def test_criterion_8_selftest_reproducibility():
    failures = []
    first = run_selftest(42)
    second = run_selftest(42)
    failed_names = [r.name for r in first if not r.passed]
    if failed_names:
        failures.append("selftest failures at seed 42: " + ", ".join(failed_names))
    serialize = lambda results: json.dumps(
        [r.to_dict() for r in results], sort_keys=True
    )
    if serialize(first) != serialize(second):
        failures.append("two selftest runs at seed 42 differ byte for byte")
    _verdict(8, failures)
