"""Density matrices, their one checked constructor, and their spectra.

Each state is decomposed once, by LAPACK through ``np.linalg.eigh``, when
it is constructed: the PSD check reads the eigenvalues, and the state
stores the result as ``eigensystem`` and, clamped and renormalized, as
``spectrum``. The stored matrix is read-only, so neither can go stale.
Entropies, curves, oracles and the deciders all read that one spectrum,
and unitary witnesses read the eigenvectors.

``QuantumState(data)`` is the one way to build a state. It builds its
spectrum on the clamped float64 array itself, and skips the pass of the
public ``Spectrum(values=...)`` constructor that checks each value is
finite: values clipped to [0, 1] and divided by their positive sum are
finite. A sum that is not positive (NaN from a failed solve) raises
``NotPositiveSemidefinite``, as a solve that LAPACK gives up on does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    LambdaOutOfRange,
    NotFinite,
    NotHermitian,
    NotPositiveSemidefinite,
    TraceNotOne,
)

# QuantumState's thresholds (Hermiticity residual, trace error, most
# negative eigenvalue).
HERM_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-9


def as_complex_matrix(data) -> np.ndarray:
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

    Any iterable of reals is stored as a tuple of Python floats, so equal
    values compare and hash equal. Only non-emptiness and finiteness are
    checked (ValueError), not the order or the sum. The values as a float64
    array and their shifts are built once, here, and handed out read-only.

    A ``QuantumState`` builds its spectrum only with ``_of_array``, which
    skips the finiteness check: its values are eigenvalues clipped to
    [0, 1] and divided by their sum, which the state has checked is
    positive, so each is finite by construction. Both paths set the fields
    in ``_store``.
    """

    values: tuple[float, ...]
    _array: np.ndarray = field(init=False, repr=False, compare=False)
    _shifted: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(map(float, self.values))
        if not values:
            raise ValueError("spectrum must have at least one value")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"spectrum values must be finite, got {values!r}")
        self._store(np.array(values, dtype=np.float64))

    @classmethod
    def _of_array(cls, array: np.ndarray) -> Spectrum:
        """The spectrum on a non-empty, finite float64 array, which it keeps; nothing is checked."""
        spectrum = object.__new__(cls)
        spectrum._store(array)
        return spectrum

    def _store(self, array: np.ndarray) -> None:
        """Set ``values``, ``_array`` and ``_shifted`` from ``array``, which becomes read-only."""
        shifted = array - 1.0 / len(array)
        array.setflags(write=False)
        shifted.setflags(write=False)
        object.__setattr__(self, "values", tuple(array.tolist()))
        object.__setattr__(self, "_array", array)
        object.__setattr__(self, "_shifted", shifted)

    @property
    def dimension(self) -> int:
        return len(self.values)

    def shifted(self) -> np.ndarray:
        """Deviations u_i = x_i - 1/n from the flat spectrum, read-only. Sum to 0."""
        return self._shifted

    def as_array(self) -> np.ndarray:
        """The values as a read-only float64 array."""
        return self._array


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A density matrix, checked when it is constructed, and its dimension.

    Checks run in a fixed order so error reporting is deterministic:
    finite entries, Hermiticity, unit trace, positive semidefiniteness;
    every comparison fails on NaN. A matrix within ``HERM_TOL`` of
    Hermitian is symmetrized to M/2 + M^*/2 (halved first, so no finite
    entry overflows) and stored as a read-only copy. States compare by
    identity.

    ``eigensystem`` is the eigenvalues, descending, and their eigenvector
    columns, both read-only. ``spectrum`` is the eigenvalues clamped to
    [0, 1], which removes the round-off the PSD check bounded by
    ``PSD_TOL``, and renormalized by the clamped sum (at least
    1 - (n+1) * 1e-9) to an exact unit sum, with -0.0 made 0.0; the order
    stays descending. A failed solve raises ``NotPositiveSemidefinite``
    with a NaN smallest eigenvalue.
    """

    matrix: np.ndarray = field(repr=False)
    dimension: int = field(init=False)
    eigensystem: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    spectrum: Spectrum = field(init=False, repr=False)

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        finite = np.isfinite(m)
        if not np.logical_and.reduce(finite, axis=None):
            bad = np.argwhere(~finite)
            first = (int(bad[0][0]), int(bad[0][1]))
            raise NotFinite(len(bad), first, complex(m[first]))

        half = 0.5 * m
        half_adjoint = half.conj().T
        herm_residual = 2.0 * float(np.maximum.reduce(np.abs(half - half_adjoint), axis=None))
        if not herm_residual <= HERM_TOL:
            raise NotHermitian(herm_residual, HERM_TOL)
        m = half + half_adjoint

        # A float sum of the (now real) diagonal overflows without a warning;
        # the error reports numpy's trace, which sums n >= 4 terms pairwise.
        if not abs(sum(m.real.diagonal().tolist()) - 1.0) <= TRACE_TOL:
            with np.errstate(over="ignore", invalid="ignore"):
                raise TraceNotOne(complex(np.trace(m)), TRACE_TOL)

        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dimension", m.shape[0])
        try:
            values, vectors = np.linalg.eigh(m)
        except np.linalg.LinAlgError:  # entries near the double range; no state has any
            raise NotPositiveSemidefinite(math.nan, PSD_TOL) from None
        values, vectors = values[::-1], vectors[:, ::-1]
        if not values[-1] >= -PSD_TOL:
            raise NotPositiveSemidefinite(float(values[-1]), PSD_TOL)
        values.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "eigensystem", (values, vectors))
        clamped = values.clip(0.0, 1.0)
        total = float(np.add.reduce(clamped))
        if not total > 0.0:  # a NaN above the smallest eigenvalue
            raise NotPositiveSemidefinite(math.nan, PSD_TOL)
        clamped /= total
        clamped += 0.0  # -0.0 becomes 0.0; every other value is unchanged
        object.__setattr__(self, "spectrum", Spectrum._of_array(clamped))


def validate_state(data) -> QuantumState:
    """``QuantumState(data)``, kept for ``perfbench/workloads.py`` alone; not a public name.

    A function, not an alias, so that the benchmark's tracer times it.
    """
    return QuantumState(data)


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
    R's diagonal so the distribution is exactly Haar.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def depolarize(state: QuantumState, lam: float) -> QuantumState:
    """Mix a state toward maximal mixedness: lam * rho + (1 - lam)/n * I."""
    if not 0.0 <= lam <= 1.0:
        raise LambdaOutOfRange(lam, "[0, 1]")
    n = state.dimension
    mixed = lam * state.matrix + (1.0 - lam) / n * np.eye(n, dtype=np.complex128)
    return QuantumState(mixed)
