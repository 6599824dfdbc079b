"""Recovering a state's eigenvalues from black-box entropy-curve access.

The determinant of the depolarized state is a degree-n polynomial in the
mixing weight whose base-2 log equals n * (lam * S' - S), where S is the
entropy curve. Given only an oracle for S (and optionally S'), called on
all 63 rows of the library's curve grid after 0 (``CURVE_GRID``, the rows
the ``curve`` command writes) at once, two calls with S' and three
without, the pipeline samples that log-determinant there, fits the
polynomial by least squares on a Vandermonde system over 56 of those rows
while holding out every 8th, extracts its roots through the companion
matrix, and maps each root r back to an eigenvalue 1/n - 1/(n r).
Trailing coefficients below the trim threshold correspond to eigenvalues
exactly equal to 1/n (their linear factors are constant) and are counted
separately instead of being rooted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .entropy import CURVE_GRID, EntropyCurve
from .errors import ComplexRoots, DegreeDeficit, IllConditioned
from .states import Spectrum

FIT_RESIDUAL_BOUND = 1e-3
FD_STEP = 1e-6
COEFF_TRIM_TOL = 1e-7
ROOT_IMAG_TOL = 1e-6

# which of the sampled grid rows j = 1..63 the fit holds out: j = 8, 16, ..., 56
_HELD_OUT = np.arange(1, len(CURVE_GRID)) % 8 == 0
_HELD_OUT.setflags(write=False)


def _check_dimension(n) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension must be a positive int, got {n!r}")


@dataclass(frozen=True)
class EntropyOracle:
    """Black-box access to one state's entropy curve.

    ``value_fn`` maps a float64 array of mixing weights in (0, 1) to their
    entropies in bits; ``derivative_fn``, when present, to the curve's
    first derivatives. Without it the sampler falls back to central
    finite differences of ``value_fn``.
    """

    value_fn: Callable[[np.ndarray], np.ndarray]
    derivative_fn: Optional[Callable[[np.ndarray], np.ndarray]]
    dimension: int

    def __post_init__(self):
        _check_dimension(self.dimension)


def oracle_from_spectrum(
    spectrum: Spectrum, include_derivative: bool = True
) -> EntropyOracle:
    curve = EntropyCurve(spectrum)
    return EntropyOracle(
        value_fn=curve.value,
        derivative_fn=curve.derivative if include_derivative else None,
        dimension=spectrum.dimension,
    )


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
    """Sample the log2 determinant of the mixed state on the curve grid.

    Returns n * (lam * S'(lam) - S(lam)) at the 63 rows of CURVE_GRID after
    0, for every n, each oracle call taking all those rows at once. The
    derivative comes from one ``derivative_fn`` call when available, and
    ``value_fn`` is then called once; otherwise from a central difference
    with step h = FD_STEP * lam, and ``value_fn`` is called three times, on
    lam + h, lam - h, then lam, all inside (0, 1) for lam in (0, 0.9].
    """
    lams = CURVE_GRID[1:]
    if oracle.derivative_fn is not None:
        derivative = oracle.derivative_fn(lams)
    else:
        h = FD_STEP * lams
        derivative = (oracle.value_fn(lams + h) - oracle.value_fn(lams - h)) / (2.0 * h)
    return oracle.dimension * (lams * derivative - oracle.value_fn(lams))


def fit_determinant_polynomial(log2_dets: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Least-squares fit of the degree-n determinant polynomial to grid samples.

    ``log2_dets`` holds the log2 determinant of a dimension-``n`` state at
    the 63 rows of CURVE_GRID after 0, as sample_log2_determinant returns
    it; another shape, or an ``n`` that is not a positive int, raises
    ValueError. Evaluates 2**sample at the 56 rows that are not held out,
    solves the Vandermonde least-squares system for the ascending
    coefficients of degree 0..n, then pins the constant coefficient to its
    analytically known value (1/n)^n. Returns the coefficient array and
    the validation residual: the max log2-determinant mismatch at the 7
    held-out rows (every 8th), inf if a prediction there is not positive.
    Raises IllConditioned on a non-finite sample, when 2**sample
    overflows, when a fitted coefficient is not finite, and when the
    residual exceeds FIT_RESIDUAL_BOUND, which signals a noisy or
    inconsistent oracle rather than a fixable fit.
    """
    _check_dimension(n)
    nodes = CURVE_GRID[1:]
    log2_dets = np.asarray(log2_dets, dtype=np.float64)
    if log2_dets.shape != nodes.shape:
        raise ValueError(f"expected {len(nodes)} samples, one per grid row after 0, "
                         f"got shape {log2_dets.shape}")
    finite = np.isfinite(log2_dets)
    if not finite.all():
        raise IllConditioned(float(log2_dets[~finite][0]), FIT_RESIDUAL_BOUND)

    # Python's pow, one sample at a time: numpy's power and exp2 differ from
    # it in the last bit on 10651 and 10671 of 200,000 uniform exponents in
    # [-120, 0] (numpy 2.4.6), and vectorizing changed recovered spectra
    fit_rows = log2_dets[~_HELD_OUT]
    try:
        samples = np.array([2.0 ** log2_det for log2_det in fit_rows.tolist()])
    except OverflowError:  # no state's sample does: its log2 det is <= 0
        raise IllConditioned(float(fit_rows.max()), FIT_RESIDUAL_BOUND) from None
    vander = np.polynomial.polynomial.polyvander(nodes[~_HELD_OUT], n)
    coeffs, _, _, _ = np.linalg.lstsq(vander, samples, rcond=None)
    if not np.all(np.isfinite(coeffs)):
        raise IllConditioned(math.inf, FIT_RESIDUAL_BOUND)
    coeffs[0] = (1.0 / n) ** n

    predicted = np.polynomial.polynomial.polyval(nodes[_HELD_OUT], coeffs)
    residual = math.inf
    if np.all(predicted > 0.0):
        residual = float(np.max(np.abs(np.log2(predicted) - log2_dets[_HELD_OUT])))
    if not residual <= FIT_RESIDUAL_BOUND:
        raise IllConditioned(residual, FIT_RESIDUAL_BOUND)
    return coeffs, residual


def recover_spectrum(oracle: EntropyOracle) -> RecoveredSpectrum:
    """Reconstruct the full sorted spectrum from the entropy oracle.

    Samples the curve grid (see sample_log2_determinant), fits the
    determinant polynomial to the samples (see fit_determinant_polynomial),
    trims trailing coefficients below COEFF_TRIM_TOL relative to the
    largest one (each trimmed degree is an eigenvalue exactly 1/n: a zero
    shift makes its factor the constant 1/n, lowering the polynomial
    degree), roots the remainder via the companion matrix, and maps every
    root r to the eigenvalue 1/n - 1/(n r). The values are clamped to
    [0, 1], sorted descending, and renormalized to unit sum.
    """
    n = oracle.dimension
    coeffs, residual = fit_determinant_polynomial(sample_log2_determinant(oracle), n)
    kept = np.polynomial.polynomial.polytrim(
        coeffs, COEFF_TRIM_TOL * float(np.max(np.abs(coeffs)))
    )
    effective_degree = len(kept) - 1
    trimmed = n - effective_degree

    # the leading coefficient is nonzero, so there are exactly
    # effective_degree roots: none when every eigenvalue is 1/n
    roots = np.polynomial.polynomial.polyroots(kept)
    max_imag = float(np.max(np.abs(roots.imag), initial=0.0))
    if max_imag > ROOT_IMAG_TOL:
        raise ComplexRoots(max_imag, ROOT_IMAG_TOL)
    shifts = -1.0 / (n * roots.real)
    eigenvalues = np.concatenate([shifts + 1.0 / n, np.full(trimmed, 1.0 / n)])

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
