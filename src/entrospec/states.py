"""Density matrices, their validation, and eigendecomposition.

Each state is decomposed once, by LAPACK through ``np.linalg.eigh``, the
first time anything asks for its eigenvalues (validation does, for the PSD
check). The result is cached on the state, and ``QuantumState`` makes its
matrix read-only so the cache cannot go stale; spectra, eigenbases,
entropies, curves and unitary witnesses all read that one decomposition.

``jacobi_eigh``, a hand-rolled cyclic Jacobi iteration for complex
Hermitian matrices, is kept as the independent reference that the tests
and the selftest check the LAPACK path against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    LambdaOutOfRange,
    NoConvergence,
    NotFinite,
    NotHermitian,
    NotPositiveSemidefinite,
    SingularSample,
    TraceNotOne,
)

# Any square complex ndarray; functions below coerce to this.
ComplexMatrix = np.ndarray


# validate_state's thresholds (Hermiticity residual, trace error, most
# negative eigenvalue) and the stopping rule of the jacobi_eigh reference.
HERM_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


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


def _off_diagonal_norm(a: np.ndarray) -> float:
    """Frobenius norm of the strictly off-diagonal part."""
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(np.abs(off) ** 2)))


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Apply one complex Jacobi rotation zeroing a[p, q], in place.

    The rotation is G = [[c, -s*alpha], [s*conj(alpha), c]] acting on
    columns (p, q), where alpha = a[p, q] / |a[p, q]| carries the phase
    and (c, s) is the classical real Jacobi pair for the modulus.
    """
    apq = a[p, q]
    alpha = apq / abs(apq)
    tau = (a[p, p].real - a[q, q].real) / (2.0 * abs(apq))
    if tau == 0.0:
        t = 1.0
    else:
        t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c

    # Column update: A <- A G
    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p + s * np.conj(alpha) * col_q
    a[:, q] = -s * alpha * col_p + c * col_q

    # Row update: A <- G^* A
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p + s * alpha * row_q
    a[q, :] = -s * np.conj(alpha) * row_p + c * row_q

    # Accumulate eigenvectors: V <- V G
    vcol_p = v[:, p].copy()
    vcol_q = v[:, q].copy()
    v[:, p] = c * vcol_p + s * np.conj(alpha) * vcol_q
    v[:, q] = -s * alpha * vcol_p + c * vcol_q


def jacobi_eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a complex Hermitian matrix by cyclic Jacobi.

    Sweeps over all upper-triangle pairs (p, q) in row order, annihilating
    each pivot with a complex plane rotation, until the off-diagonal
    Frobenius norm falls below ``JACOBI_TOL``. Returns ``(values,
    vectors)`` with real eigenvalues sorted ascending and the matching
    orthonormal eigenvectors in the columns of ``vectors``.

    Raises NoConvergence after ``JACOBI_MAX_SWEEPS`` sweeps. In exact
    arithmetic cyclic Jacobi converges quadratically; 100 sweeps is far
    beyond anything a Hermitian matrix of this size needs.
    """
    a = as_complex_matrix(matrix).copy()
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)

    if n == 1:
        return np.array([a[0, 0].real]), v

    for _ in range(JACOBI_MAX_SWEEPS):
        if _off_diagonal_norm(a) <= JACOBI_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) == 0.0:
                    continue
                _rotate(a, v, p, q)
    else:
        off = _off_diagonal_norm(a)
        if off > JACOBI_TOL:
            raise NoConvergence(JACOBI_MAX_SWEEPS, off, JACOBI_TOL)

    values = np.diag(a).real.copy()
    order = np.argsort(values)
    return values[order], v[:, order]


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
