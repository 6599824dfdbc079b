"""Recovering a state's eigenvalues from black-box entropy-curve access.

The determinant of the depolarized state is a degree-n polynomial in the
mixing weight whose base-2 log equals n * (lam * S' - S), where S is the
entropy curve. Given only an oracle for S (and optionally S'), the
pipeline samples that log-determinant at well-conditioned nodes, fits the
polynomial by least squares on a Vandermonde system, extracts its roots
through the companion matrix, and maps each root r back to an eigenvalue
1/n - 1/(n r). Trailing coefficients below the trim threshold correspond
to eigenvalues exactly equal to 1/n (their linear factors are constant)
and are counted separately instead of being rooted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .entropy import DeterminantPolynomial, EntropyCurve
from .errors import ComplexRoots, DegreeDeficit, IllConditioned, OracleDomain
from .states import QuantumState, Spectrum, hermitian_spectrum

FIT_RESIDUAL_BOUND = 1e-3
LAMBDA_MAX = 0.9
VALIDATION_NODES = (0.15, 0.35, 0.55, 0.75)
FD_STEP = 1e-6
COEFF_TRIM_TOL = 1e-7
ROOT_IMAG_TOL = 1e-6


@dataclass(frozen=True)
class EntropyOracle:
    """Black-box access to one state's entropy curve.

    ``value_fn`` maps a mixing weight in (0, 1) to entropy in bits;
    ``derivative_fn``, when present, maps it to the curve's first
    derivative. Without ``derivative_fn`` the sampler falls back to
    central finite differences of ``value_fn``.
    """

    value_fn: Callable[[float], float]
    derivative_fn: Optional[Callable[[float], float]]
    dimension: int

    def __post_init__(self):
        if (isinstance(self.dimension, bool) or not isinstance(self.dimension, int)
                or self.dimension < 1):
            raise ValueError(f"dimension must be a positive int, got {self.dimension!r}")


def oracle_from_state(
    state: QuantumState, include_derivative: bool = True
) -> EntropyOracle:
    """Wrap a concrete state as an entropy oracle (closed-form curve)."""
    return oracle_from_spectrum(hermitian_spectrum(state), include_derivative)


def oracle_from_spectrum(
    spectrum: Spectrum, include_derivative: bool = True
) -> EntropyOracle:
    curve = EntropyCurve(spectrum)
    return EntropyOracle(
        value_fn=curve.value,
        derivative_fn=curve.derivative if include_derivative else None,
        dimension=spectrum.dimension,
    )


def _chebyshev_nodes(count: int, low: float, high: float) -> tuple[float, ...]:
    """Chebyshev points mapped to [low, high], sorted ascending."""
    k = np.arange(1, count + 1)
    x = np.cos((2 * k - 1) * np.pi / (2 * count))
    mapped = 0.5 * (low + high) + 0.5 * (high - low) * x
    return tuple(float(v) for v in np.sort(mapped))


def _checked_nodes(nodes) -> tuple[float, ...]:
    """Fitting nodes as floats: non-empty, distinct, all in (0, LAMBDA_MAX]."""
    values = tuple(float(x) for x in nodes)
    if not values:
        raise ValueError("nodes must not be empty")
    if len(set(values)) != len(values):
        raise ValueError("nodes must be distinct")
    if any(not 0.0 < x <= LAMBDA_MAX for x in values):
        raise ValueError(f"nodes must lie in (0, {LAMBDA_MAX}], got {values}")
    return values


@dataclass(frozen=True)
class RecoveredSpectrum:
    """Result of a recovery run.

    ``residual`` is the max absolute log2-determinant mismatch at the
    held-out validation nodes; ``trimmed_degree`` counts eigenvalues
    recovered as exactly 1/n through coefficient trimming; ``sum_drift``
    is how far the recovered values summed from 1 before the final
    renormalization.
    """

    values: tuple[float, ...]
    residual: float
    trimmed_degree: int
    sum_drift: float

    @property
    def dimension(self) -> int:
        return len(self.values)


def sample_log2_determinant(oracle: EntropyOracle, lam: float) -> float:
    """Sample the log2 determinant of the mixed state at one weight.

    Computes n * (lam * S'(lam) - S(lam)) from the oracle. The derivative
    comes from ``derivative_fn`` when available, otherwise from a central
    difference with step FD_STEP * max(lam, 0.1), shrunk as needed so both
    probe points stay inside (0, 1). A non-finite sample raises
    IllConditioned: no fit can be trusted on it.
    """
    if not 0.0 < lam <= LAMBDA_MAX:
        raise OracleDomain(lam, f"(0, {LAMBDA_MAX}]")
    n = oracle.dimension
    if oracle.derivative_fn is not None:
        derivative = oracle.derivative_fn(lam)
    else:
        h = FD_STEP * max(lam, 0.1)
        h = min(h, 0.5 * lam, 0.5 * (1.0 - lam))
        if h <= 0.0:
            raise OracleDomain(lam, "(0, 1) with room for finite differences")
        derivative = (oracle.value_fn(lam + h) - oracle.value_fn(lam - h)) / (2.0 * h)
    log2_det = n * (lam * derivative - oracle.value_fn(lam))
    if not math.isfinite(log2_det):
        raise IllConditioned(log2_det, FIT_RESIDUAL_BOUND)
    return log2_det


def fit_determinant_polynomial(
    oracle: EntropyOracle, nodes: Optional[Sequence[float]] = None
) -> tuple[DeterminantPolynomial, float]:
    """Least-squares fit of the degree-n determinant polynomial.

    Evaluates 2**(sampled log2 determinant) at the fitting nodes, solves
    the Vandermonde least-squares system for coefficients of degree 0..n,
    then pins the constant coefficient to its analytically known value
    (1/n)^n. Returns the polynomial and the validation residual: the max
    log2-determinant mismatch at the held-out VALIDATION_NODES. Raises
    IllConditioned when that residual exceeds FIT_RESIDUAL_BOUND, which
    signals a noisy or inconsistent oracle rather than a fixable fit, when
    2**sample overflows, and when a fitted coefficient is not finite.
    """
    n = oracle.dimension
    # default: n + 5 Chebyshev nodes, which keep the Vandermonde system well
    # conditioned, clear of the removable singularity at 0 and of weight 1,
    # where the determinant vanishes for rank-deficient states
    nodes = np.asarray(
        _chebyshev_nodes(n + 5, 0.1, LAMBDA_MAX) if nodes is None else _checked_nodes(nodes)
    )
    if len(nodes) < n + 1:
        raise ValueError(
            f"need at least {n + 1} fitting nodes for dimension {n}, "
            f"got {len(nodes)}"
        )

    samples = np.empty(len(nodes))
    for i, lam in enumerate(nodes):
        log2_det = sample_log2_determinant(oracle, float(lam))
        try:
            samples[i] = 2.0 ** log2_det
        except OverflowError:  # no state's sample does: its log2 det is <= 0
            raise IllConditioned(log2_det, FIT_RESIDUAL_BOUND) from None
    vander = np.polynomial.polynomial.polyvander(nodes, n)
    coeffs, _, _, _ = np.linalg.lstsq(vander, samples, rcond=None)
    if not np.all(np.isfinite(coeffs)):
        raise IllConditioned(math.inf, FIT_RESIDUAL_BOUND)
    coeffs[0] = (1.0 / n) ** n

    poly = DeterminantPolynomial(
        coefficients=tuple(float(c) for c in coeffs), dimension=n
    )

    residual = 0.0
    for lam in VALIDATION_NODES:
        predicted = float(poly(lam))
        if not predicted > 0.0:
            residual = math.inf
            break
        observed = sample_log2_determinant(oracle, lam)
        residual = max(residual, abs(float(np.log2(predicted)) - observed))
    if not residual <= FIT_RESIDUAL_BOUND:
        raise IllConditioned(residual, FIT_RESIDUAL_BOUND)
    return poly, residual


def recover_spectrum(
    oracle: EntropyOracle, nodes: Optional[Sequence[float]] = None
) -> RecoveredSpectrum:
    """Reconstruct the full sorted spectrum from the entropy oracle.

    Fits the determinant polynomial at ``nodes`` (default: see
    fit_determinant_polynomial), trims trailing coefficients below
    COEFF_TRIM_TOL relative to the largest one (each trimmed degree is an
    eigenvalue exactly 1/n: a zero shift makes its factor the constant
    1/n, lowering the polynomial degree), roots the remainder via the
    companion matrix, and maps every root r to the eigenvalue
    1/n - 1/(n r). The values are clamped to [0, 1], sorted descending,
    and renormalized to unit sum.
    """
    n = oracle.dimension
    poly, residual = fit_determinant_polynomial(oracle, nodes)
    coeffs = np.asarray(poly.coefficients)

    threshold = COEFF_TRIM_TOL * float(np.max(np.abs(coeffs)))
    effective_degree = 0
    for k in range(n, -1, -1):
        if abs(coeffs[k]) > threshold:
            effective_degree = k
            break
    trimmed = n - effective_degree

    if effective_degree == 0:
        eigenvalues = np.full(n, 1.0 / n)
    else:
        # the leading coefficient is nonzero, so there are exactly
        # effective_degree roots
        roots = np.polynomial.polynomial.polyroots(coeffs[: effective_degree + 1])
        max_imag = float(np.max(np.abs(roots.imag)))
        if max_imag > ROOT_IMAG_TOL:
            raise ComplexRoots(max_imag, ROOT_IMAG_TOL)
        shifts = -1.0 / (n * roots.real)
        eigenvalues = np.concatenate(
            [shifts + 1.0 / n, np.full(trimmed, 1.0 / n)]
        )

    eigenvalues = np.clip(eigenvalues, 0.0, 1.0)
    total = float(np.sum(eigenvalues))
    drift = abs(total - 1.0)
    if total <= 0.0:
        raise DegreeDeficit(0, n)
    eigenvalues = np.sort(eigenvalues / total)[::-1]
    return RecoveredSpectrum(
        values=tuple(float(x) for x in eigenvalues),
        residual=residual,
        trimmed_degree=trimmed,
        sum_drift=drift,
    )
