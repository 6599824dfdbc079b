"""Density matrices, their one checked constructor, and eigendecomposition.

Each state is decomposed once, by LAPACK through ``np.linalg.eigh``, when
it is constructed (the PSD check reads the eigenvalues). The result is
cached on the state, and the stored matrix is read-only so the cache
cannot go stale; spectra, eigenbases, entropies, curves and unitary
witnesses all read that one decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    LambdaOutOfRange,
    NotFinite,
    NotHermitian,
    NotPositiveSemidefinite,
    SingularSample,
    TraceNotOne,
)

# Any square complex ndarray; functions below coerce to this.
ComplexMatrix = np.ndarray


# QuantumState's thresholds (Hermiticity residual, trace error, most
# negative eigenvalue).
HERM_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-9


def as_complex_matrix(data) -> ComplexMatrix:
    """Coerce array-like input to a square complex128 matrix.

    Raises ValueError if the input is not square, two-dimensional and
    non-empty.
    """
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a density matrix, sorted descending, summing to 1.

    Only finiteness is checked (ValueError), not the order or the sum.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        if not all(map(math.isfinite, self.values)):
            raise ValueError(f"spectrum values must be finite, got {self.values!r}")

    @property
    def dimension(self) -> int:
        return len(self.values)

    def shifted(self) -> np.ndarray:
        """Deviations u_i = x_i - 1/n from the flat spectrum. Sum to 0."""
        n = self.dimension
        return np.asarray(self.values, dtype=np.float64) - 1.0 / n

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A density matrix, checked when it is constructed, and its dimension.

    Checks run in a fixed order so error reporting is deterministic:
    finite entries, Hermiticity, unit trace, positive semidefiniteness;
    every comparison fails on NaN. A matrix within ``HERM_TOL`` of
    Hermitian is symmetrized to M/2 + M^*/2 (halved first, so no finite
    entry overflows) and stored as a read-only copy, so the eigensystem
    cached by the PSD check cannot go stale. States compare by identity.
    """

    matrix: ComplexMatrix = field(repr=False)
    dimension: int = field(init=False)

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        finite = np.isfinite(m)
        if not finite.all():
            bad = np.argwhere(~finite)
            first = (int(bad[0][0]), int(bad[0][1]))
            raise NotFinite(len(bad), first, complex(m[first]))

        half = 0.5 * m
        half_adjoint = half.conj().T
        herm_residual = 2.0 * float(np.max(np.abs(half - half_adjoint)))
        if not herm_residual <= HERM_TOL:
            raise NotHermitian(herm_residual, HERM_TOL)
        m = half + half_adjoint

        # n finite diagonal entries can still sum past the double range
        with np.errstate(over="ignore", invalid="ignore"):
            trace = complex(np.trace(m))
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise TraceNotOne(trace, TRACE_TOL)

        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dimension", m.shape[0])
        try:
            min_eig = float(self._eigensystem[0][-1])
        except np.linalg.LinAlgError:  # entries near the double range; no state has any
            min_eig = math.nan
        if not min_eig >= -PSD_TOL:
            raise NotPositiveSemidefinite(min_eig, PSD_TOL)

    @cached_property
    def _eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues descending and matching eigenvector columns, read-only."""
        values, vectors = np.linalg.eigh(self.matrix)
        values, vectors = values[::-1], vectors[:, ::-1]
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors


def validate_state(data) -> QuantumState:
    """The checked state of ``data``; the same as ``QuantumState(data)``."""
    return QuantumState(data)


def hermitian_spectrum(state: QuantumState) -> Spectrum:
    """Spectrum of a validated state: clamped to [0, 1] and renormalized.

    Clamping removes the tiny negative round-off the PSD check already
    bounded by ``PSD_TOL``; renormalization by the clamped sum (at least
    1 - (n+1) * 1e-9 on a checked state) restores an exact unit sum so
    entropy formulas downstream see a genuine probability vector.
    Clamping and scaling keep the cached descending order.
    """
    values, _ = state._eigensystem
    clamped = np.clip(values, 0.0, 1.0)
    clamped = clamped / float(np.sum(clamped))
    return Spectrum(values=tuple(clamped.tolist()))


def hermitian_eigensystem(state: QuantumState) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns.

    Both arrays are the state's cached, read-only decomposition.
    """
    return state._eigensystem


def random_state(n: int, rng: np.random.Generator) -> QuantumState:
    """Draw a full-rank random density matrix of dimension n.

    Uses the Ginibre construction: G has i.i.d. standard complex Gaussian
    entries, and G G^* / tr(G G^*) is a valid state with probability 1.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return QuantumState(m / np.trace(m).real)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-distributed n x n unitary.

    QR-decomposes a complex Ginibre matrix and normalizes the phases of
    R's diagonal so the distribution is exactly Haar. Retries up to three
    times on the measure-zero event of a singular draw.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    for _ in range(3):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r)
        if np.any(np.abs(diag) < 1e-12):
            continue
        return q * (diag / np.abs(diag))
    raise SingularSample(f"could not draw a nonsingular {n} x {n} Ginibre matrix")


def depolarize(state: QuantumState, lam: float) -> QuantumState:
    """Mix a state toward maximal mixedness: lam * rho + (1 - lam)/n * I."""
    if not 0.0 <= lam <= 1.0:
        raise LambdaOutOfRange(lam, "[0, 1]")
    n = state.dimension
    mixed = lam * state.matrix + (1.0 - lam) / n * np.eye(n, dtype=np.complex128)
    return QuantumState(mixed)


def check_same_dimension(a: QuantumState, b: QuantumState) -> int:
    """Return the shared dimension or raise DimensionMismatch."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(a.dimension, b.dimension)
    return a.dimension
