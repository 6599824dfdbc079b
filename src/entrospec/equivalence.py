"""Deciding unitary equivalence of two states from entropy data.

Two states are unitarily equivalent exactly when their eigenvalue multisets
coincide. This module offers three deciders:

* ``decide_spectral`` compares sorted spectra directly (the oracle).
* ``decide_grid`` compares the two entropy curves on the 63 rows of
  CURVE_GRID after 0, the weights 0.9 * j / 63, j = 1..63.
* ``decide_nodes`` compares entropy at the 2n fixed mixing weights i/(2n),
  i = 1..2n, the finitary test.

All three share one verdict rule: a pair is equivalent iff the sorted
spectral distance is at most SPECTRUM_TOL and, for the curve deciders,
every entropy gap is at most ENTROPY_TOL. Whenever a decider answers
"equivalent" it also constructs an explicit unitary witness U with
rho = U sigma U*, built from the two eigenbases.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .entropy import CURVE_GRID, _curve_entropies, entropy_of_spectrum
from .errors import DimensionMismatch
from .states import QuantumState, Spectrum

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"

# The verdict rule's floating-point thresholds: the per-node entropy gap in
# bits, and the sorted spectral distance, which every decider tests.
ENTROPY_TOL = 1e-9
SPECTRUM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Outcome of one equivalence decision.

    ``per_node_gaps`` lists (mixing weight, |entropy gap|) for every tested
    node; it is empty for the spectral method, which tests no curve points.
    ``witness`` is present exactly when the verdict is "equivalent".
    Reports compare and hash by identity, as the witness array cannot.
    """

    verdict: str
    method: str
    max_entropy_gap: float
    per_node_gaps: tuple[tuple[float, float], ...]
    spectrum_a: tuple[float, ...]
    spectrum_b: tuple[float, ...]
    witness: np.ndarray | None

    @property
    def equivalent(self) -> bool:
        return self.verdict == EQUIVALENT

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "method": self.method,
            "max_entropy_gap": self.max_entropy_gap,
            "per_node_gaps": [[lam, gap] for lam, gap in self.per_node_gaps],
            "spectrum_a": list(self.spectrum_a),
            "spectrum_b": list(self.spectrum_b),
            "entropy_tol": ENTROPY_TOL,
            "spectrum_tol": SPECTRUM_TOL,
        }
        if self.witness is not None:
            out["witness"] = {
                "re": self.witness.real.tolist(),
                "im": self.witness.imag.tolist(),
            }
        else:
            out["witness"] = None
        return out


@functools.cache
def default_nodes(n: int) -> np.ndarray:
    """The 2n weights i/(2n), i = 1..2n, of decide_nodes, as float64; includes 1.0.

    The array is built once per n and is read-only, so every call with one
    n returns the same array.

    In exact arithmetic any 2n - 2 distinct weights in (0, 1] separate
    distinct spectra. The gap g between two curves has g(0) = g'(0) = 0,
    and g'' is a rational function whose numerator has degree at most
    2n - 3, so by Rolle's theorem g has at most 2n - 3 zeros in (0, 1]
    unless it vanishes identically. In floating point ENTROPY_TOL sets the
    resolution instead, since a gap moves only as the square of a spectral
    perturbation.
    """
    nodes = np.arange(1, 2 * n + 1) / (2 * n)
    nodes.setflags(write=False)
    return nodes


def _sorted_distance(spec_a: Spectrum, spec_b: Spectrum) -> float:
    """Largest entrywise gap between two descending spectra."""
    return float(np.maximum.reduce(np.abs(spec_a.as_array() - spec_b.as_array())))


def _decide(
    rho: QuantumState,
    sigma: QuantumState,
    method: str,
    nodes: np.ndarray | None = None,
) -> EquivalenceReport:
    """The one decision body: one dimension check, one read of each spectrum.

    Entropy values move only as the square of a spectral perturbation, so
    gaps within ENTROPY_TOL with a distance above SPECTRUM_TOL mean the
    pair lies below the curve test's resolution: it is not_equivalent.
    """
    if rho.dimension != sigma.dimension:
        raise DimensionMismatch(rho.dimension, sigma.dimension)
    spec_a, spec_b = rho.spectrum, sigma.spectrum
    distance = _sorted_distance(spec_a, spec_b)

    equivalent = distance <= SPECTRUM_TOL
    if nodes is None:
        max_gap, gaps = 0.0, ()
    else:
        # both curves in one pass: column 0 is rho's, column 1 sigma's
        curves = _curve_entropies(nodes, np.array((spec_a.shifted(), spec_b.shifted())))
        gap_values = np.abs(curves[:, 0] - curves[:, 1]).tolist()
        gaps = tuple(zip(nodes.tolist(), gap_values))
        max_gap = max(gap_values)
        equivalent = equivalent and max_gap <= ENTROPY_TOL

    # The witness U = V_rho V_sigma* maps sigma's k-th eigenvector onto
    # rho's; both eigenbases are ordered by descending eigenvalue. Within a
    # degenerate eigenvalue group any alignment works: conjugation only sees
    # the group eigenspace, and the residual bound, not a particular
    # permutation, is the contract.
    witness = rho.eigensystem[1] @ sigma.eigensystem[1].conj().T if equivalent else None
    return EquivalenceReport(
        verdict=EQUIVALENT if equivalent else NOT_EQUIVALENT,
        method=method,
        max_entropy_gap=max_gap,
        per_node_gaps=gaps,
        spectrum_a=spec_a.values,
        spectrum_b=spec_b.values,
        witness=witness,
    )


def decide_spectral(rho: QuantumState, sigma: QuantumState) -> EquivalenceReport:
    """Equivalence by direct sorted-spectrum comparison.

    No entropy values are tested, so per_node_gaps is empty and
    max_entropy_gap is reported as 0.0.
    """
    return _decide(rho, sigma, "spectral")


def decide_grid(rho: QuantumState, sigma: QuantumState) -> EquivalenceReport:
    """Equivalence by entropy-curve agreement on the library's curve grid.

    Compares the curves on CURVE_GRID's 63 rows after 0, the weights
    lam_j = 0.9 * j / 63, j = 1..63, which are the rows the ``curve``
    command writes and recovery samples (at 0 every curve reads log2 n).
    Verdict is "equivalent" iff every gap is at most ENTROPY_TOL and the
    sorted spectra agree within SPECTRUM_TOL; a witness is then attached.
    """
    return _decide(rho, sigma, "grid", CURVE_GRID[1:])


def decide_nodes(rho: QuantumState, sigma: QuantumState) -> EquivalenceReport:
    """Equivalence by entropy agreement at the 2n nodes i/(2n).

    The node set includes lam = 1. That node is each curve's value at weight
    1, which equals ``entropy_of_spectrum`` of the state up to rounding.
    """
    return _decide(rho, sigma, "nodes", default_nodes(rho.dimension))


# the decider behind each ``equiv --mode``
DECIDERS = {"spectral": decide_spectral, "t1": decide_grid, "t2": decide_nodes}


def equal_entropy_pair(n: int) -> tuple[QuantumState, QuantumState]:
    """Two diagonal states whose entropies agree to 1e-12 at full weight.

    Dimension 3: the reference spectrum is (0.5, 0.4, 0.1); bisection over
    the family (t, t, 1 - 2t), t in (1/3, 1/2), matches its entropy at a
    genuinely different spectrum. Entropy agreement at the single node
    lam = 1 therefore proves nothing, while the full 2n-node comparison
    separates the pair.

    Dimension 2: the reference spectrum is (0.9, 0.1) and the family is
    (0.5 + t, 0.5 - t), t in (0, 0.5). Binary entropy is strictly
    decreasing in t, so the bisection can only land back on (0.9, 0.1):
    in dimension 2 an entropy value determines the sorted spectrum
    outright, and the returned pair has equal spectra. The case is kept
    because it documents that boundary.
    """
    if n == 2:
        reference = (0.9, 0.1)

        def family(t: float) -> tuple[float, ...]:
            return (0.5 + t, 0.5 - t)

        lo, hi = 1e-12, 0.5 - 1e-12
    elif n == 3:
        reference = (0.5, 0.4, 0.1)

        def family(t: float) -> tuple[float, ...]:
            return (t, t, 1.0 - 2.0 * t)

        lo, hi = 1.0 / 3.0 + 1e-12, 0.5 - 1e-12
    else:
        raise ValueError(
            f"matched-entropy construction is defined for n = 2 or 3, got {n}"
        )

    target = entropy_of_spectrum(Spectrum(values=reference))

    # Entropy is strictly decreasing in t along both families, so plain
    # bisection on the sign of the difference converges.
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if entropy_of_spectrum(Spectrum(values=tuple(sorted(family(mid), reverse=True)))) > target:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    matched = tuple(sorted(family(t), reverse=True))

    state_a = QuantumState(np.diag(np.asarray(reference, dtype=np.complex128)))
    state_b = QuantumState(np.diag(np.asarray(matched, dtype=np.complex128)))
    return state_a, state_b
