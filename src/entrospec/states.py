"""Density matrices, their validation, and eigendecomposition.

Each state is decomposed once, by LAPACK through ``np.linalg.eigh``, the
first time anything asks for its eigenvalues (validation does, for the PSD
check). The result is cached on the state, and ``QuantumState`` makes its
matrix read-only so the cache cannot go stale; spectra, eigenbases,
entropies, curves and unitary witnesses all read that one decomposition.
"""

from __future__ import annotations

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


# validate_state's thresholds (Hermiticity residual, trace error, most
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
    """Eigenvalues of a density matrix, sorted descending, summing to 1."""

    values: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.values)

    def shifted(self) -> np.ndarray:
        """Deviations u_i = x_i - 1/n from the flat spectrum. Sum to 0."""
        n = self.dimension
        return np.asarray(self.values, dtype=np.float64) - 1.0 / n

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True)
class QuantumState:
    """A validated density matrix together with its dimension.

    The eigensystem is computed on first use and cached, so the matrix
    must not change afterwards: construction makes it read-only in place.
    """

    matrix: ComplexMatrix = field(repr=False)
    dimension: int

    def __post_init__(self):
        if self.matrix.shape != (self.dimension, self.dimension):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"dimension {self.dimension}"
            )
        self.matrix.setflags(write=False)

    @cached_property
    def _eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues descending and matching eigenvector columns, read-only."""
        values, vectors = np.linalg.eigh(self.matrix)
        values, vectors = values[::-1], vectors[:, ::-1]
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors


def validate_state(data) -> QuantumState:
    """Check density-matrix invariants and return a validated state.

    Checks run in a fixed order so error reporting is deterministic:
    finite entries first (NaN fails every comparison below, so it would
    otherwise pass them all), then Hermiticity, then unit trace, then
    positive semidefiniteness. A matrix within ``HERM_TOL`` of Hermitian
    is symmetrized to (M + M^*) / 2 before further checks, so downstream
    code always sees an exactly Hermitian matrix. The stored matrix is a
    read-only copy, and the eigendecomposition made for the PSD check
    stays cached on the returned state.
    """
    m = as_complex_matrix(data)

    finite = np.isfinite(m)
    if not finite.all():
        bad = np.argwhere(~finite)
        first = (int(bad[0][0]), int(bad[0][1]))
        raise NotFinite(len(bad), first, complex(m[first]))

    herm_residual = float(np.max(np.abs(m - m.conj().T)))
    if herm_residual > HERM_TOL:
        raise NotHermitian(herm_residual, HERM_TOL)
    m = 0.5 * (m + m.conj().T)

    trace = complex(np.trace(m))
    if abs(trace - 1.0) > TRACE_TOL:
        raise TraceNotOne(trace, TRACE_TOL)

    state = QuantumState(matrix=m, dimension=m.shape[0])
    min_eig = float(state._eigensystem[0][-1])
    if min_eig < -PSD_TOL:
        raise NotPositiveSemidefinite(min_eig, PSD_TOL)

    return state


def hermitian_spectrum(state: QuantumState) -> Spectrum:
    """Spectrum of a validated state: clamped to [0, 1] and renormalized.

    Clamping removes the tiny negative round-off a PSD check already
    bounded by ``PSD_TOL``; renormalization restores an exact unit sum so
    entropy formulas downstream see a genuine probability vector.
    Clamping and scaling keep the cached descending order.
    """
    values, _ = state._eigensystem
    clamped = np.clip(values, 0.0, 1.0)
    total = float(np.sum(clamped))
    if total <= 0.0:
        raise NotPositiveSemidefinite(float(values[-1]), PSD_TOL)
    clamped = clamped / total
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
    m = m / np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return QuantumState(matrix=m, dimension=n)


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
    return QuantumState(matrix=mixed, dimension=n)


def check_same_dimension(a: QuantumState, b: QuantumState) -> int:
    """Return the shared dimension or raise DimensionMismatch."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(a.dimension, b.dimension)
    return a.dimension
