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
from typing import Callable, Optional

import numpy as np

from .entropy import EntropyCurve
from .errors import ComplexRoots, DegreeDeficit, IllConditioned
from .states import Spectrum

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


def oracle_from_spectrum(
    spectrum: Spectrum, include_derivative: bool = True
) -> EntropyOracle:
    curve = EntropyCurve(spectrum)
    return EntropyOracle(
        value_fn=curve.value,
        derivative_fn=curve.derivative if include_derivative else None,
        dimension=spectrum.dimension,
    )


def _chebyshev_nodes(count: int, low: float, high: float) -> np.ndarray:
    """Chebyshev points mapped to [low, high], sorted ascending."""
    k = np.arange(1, count + 1)
    x = np.cos((2 * k - 1) * np.pi / (2 * count))
    return np.sort(0.5 * (low + high) + 0.5 * (high - low) * x)


def _fitting_nodes(n: int) -> np.ndarray:
    """The n + 5 Chebyshev nodes on [0.1, LAMBDA_MAX] that the fit samples.

    They keep the Vandermonde system well conditioned, clear of the
    removable singularity at 0 and of weight 1, where the determinant
    vanishes for rank-deficient states.
    """
    return _chebyshev_nodes(n + 5, 0.1, LAMBDA_MAX)


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


def sample_log2_determinant(oracle: EntropyOracle) -> np.ndarray:
    """Sample the log2 determinant of the mixed state at the method's nodes.

    Returns n * (lam * S'(lam) - S(lam)) at the n + 5 fitting nodes, then at
    the held-out VALIDATION_NODES, reading the oracle node by node in that
    order. The derivative comes from ``derivative_fn`` when available,
    otherwise from a central difference with step FD_STEP * lam; every node
    lies in [0.1, LAMBDA_MAX], so both probe points stay inside (0, 1). A
    non-finite sample raises IllConditioned: no fit can be trusted on it.
    """
    n = oracle.dimension
    log2_dets = []
    for lam in (*_fitting_nodes(n).tolist(), *VALIDATION_NODES):
        if oracle.derivative_fn is not None:
            derivative = oracle.derivative_fn(lam)
        else:
            h = FD_STEP * lam
            derivative = (oracle.value_fn(lam + h) - oracle.value_fn(lam - h)) / (2.0 * h)
        log2_det = n * (lam * derivative - oracle.value_fn(lam))
        if not math.isfinite(log2_det):
            raise IllConditioned(log2_det, FIT_RESIDUAL_BOUND)
        log2_dets.append(log2_det)
    return np.array(log2_dets)


def fit_determinant_polynomial(oracle: EntropyOracle) -> tuple[np.ndarray, float]:
    """Least-squares fit of the degree-n determinant polynomial.

    Reads the oracle in one pass (see sample_log2_determinant). Evaluates
    2**(sampled log2 determinant) at the fitting nodes, solves the
    Vandermonde least-squares system for the ascending coefficients of
    degree 0..n, then pins the constant coefficient to its analytically
    known value (1/n)^n. Returns the coefficient array and the validation
    residual: the max log2-determinant mismatch at the held-out nodes, inf
    if a prediction there is not positive. Raises IllConditioned when that
    residual exceeds FIT_RESIDUAL_BOUND, which signals a noisy or
    inconsistent oracle rather than a fixable fit, when 2**sample
    overflows, and when a fitted coefficient is not finite.
    """
    n = oracle.dimension
    nodes = _fitting_nodes(n)

    log2_dets = sample_log2_determinant(oracle)
    samples = np.empty(len(nodes))
    for i, log2_det in enumerate(log2_dets[: len(nodes)].tolist()):
        try:
            samples[i] = 2.0 ** log2_det
        except OverflowError:  # no state's sample does: its log2 det is <= 0
            raise IllConditioned(log2_det, FIT_RESIDUAL_BOUND) from None
    vander = np.polynomial.polynomial.polyvander(nodes, n)
    coeffs, _, _, _ = np.linalg.lstsq(vander, samples, rcond=None)
    if not np.all(np.isfinite(coeffs)):
        raise IllConditioned(math.inf, FIT_RESIDUAL_BOUND)
    coeffs[0] = (1.0 / n) ** n

    predicted = np.polynomial.polynomial.polyval(VALIDATION_NODES, coeffs)
    residual = math.inf
    if np.all(predicted > 0.0):
        observed = log2_dets[len(nodes):]
        residual = float(np.max(np.abs(np.log2(predicted) - observed)))
    if not residual <= FIT_RESIDUAL_BOUND:
        raise IllConditioned(residual, FIT_RESIDUAL_BOUND)
    return coeffs, residual


def recover_spectrum(oracle: EntropyOracle) -> RecoveredSpectrum:
    """Reconstruct the full sorted spectrum from the entropy oracle.

    Fits the determinant polynomial (see fit_determinant_polynomial),
    trims trailing coefficients below COEFF_TRIM_TOL relative to the
    largest one (each trimmed degree is an eigenvalue exactly 1/n: a zero
    shift makes its factor the constant 1/n, lowering the polynomial
    degree), roots the remainder via the companion matrix, and maps every
    root r to the eigenvalue 1/n - 1/(n r). The values are clamped to
    [0, 1], sorted descending, and renormalized to unit sum.
    """
    n = oracle.dimension
    coeffs, residual = fit_determinant_polynomial(oracle)
    kept = np.polynomial.polynomial.polytrim(
        coeffs, COEFF_TRIM_TOL * float(np.max(np.abs(coeffs)))
    )
    effective_degree = len(kept) - 1
    trimmed = n - effective_degree

    if effective_degree == 0:
        eigenvalues = np.full(n, 1.0 / n)
    else:
        # the leading coefficient is nonzero, so there are exactly
        # effective_degree roots
        roots = np.polynomial.polynomial.polyroots(kept)
        max_imag = float(np.max(np.abs(roots.imag)))
        if max_imag > ROOT_IMAG_TOL:
            raise ComplexRoots(max_imag, ROOT_IMAG_TOL)
        shifts = -1.0 / (n * roots.real)
        eigenvalues = np.concatenate(
            [shifts + 1.0 / n, np.full(trimmed, 1.0 / n)]
        )

    clipped = np.clip(eigenvalues, 0.0, 1.0)
    total = float(np.sum(clipped))
    if total <= 0.0:
        raise DegreeDeficit(tuple(eigenvalues.tolist()))
    drift = abs(total - 1.0)
    eigenvalues = np.sort(clipped / total)[::-1]
    return RecoveredSpectrum(
        values=tuple(float(x) for x in eigenvalues),
        residual=residual,
        trimmed_degree=trimmed,
        sum_drift=drift,
    )
