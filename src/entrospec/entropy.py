"""Entropy of a state and of its depolarized family, in closed form.

Mixing a state with weight ``lam`` toward the maximally mixed state moves
each eigenvalue x_i to lam * u_i + 1/n, where u_i = x_i - 1/n are the
shifted eigenvalues (they sum to zero). Every quantity here is a closed
form over those shifts: the entropy curve, its first two derivatives, and
the determinant of the mixed state, which is a degree-n polynomial in lam
whose log the recovery pipeline can sample from entropy values alone.

All entropies are in bits. Natural-log constants appear only as 1/ln 2
inside derivative formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LambdaOutOfRange, SingularEndpoint
from .states import Spectrum

_LN2 = float(np.log(2.0))


def entropy_of_spectrum(spectrum: Spectrum) -> float:
    """Entropy -sum x_i log2 x_i of an eigenvalue vector, in bits.

    Entries <= 0 contribute exactly zero (explicit branch, not a limit),
    so pure states give 0.0 with no NaN anywhere.
    """
    xs = spectrum.as_array()
    pos = xs[xs > 0.0]
    # + 0.0 keeps a pure state's entropy from printing as -0.0
    return float(-np.sum(pos * np.log2(pos))) + 0.0


@dataclass(frozen=True)
class EntropyCurve:
    """Evaluator for the entropy of one state's depolarized family.

    ``value(lam)`` is the entropy in bits of the state mixed with weight
    ``lam`` toward maximal mixedness; ``derivative`` and
    ``second_derivative`` are its closed-form first and second derivatives
    in ``lam``; ``log2_determinant`` is the base-2 log determinant of the
    mixed state, defined on the open interval (0, 1).
    """

    spectrum: Spectrum

    @property
    def dimension(self) -> int:
        return self.spectrum.dimension

    def _mixed_eigenvalues(self, lam: float) -> np.ndarray:
        return lam * self.spectrum.shifted() + 1.0 / self.dimension

    def value(self, lam: float) -> float:
        """Entropy in bits at mixing weight lam, for lam in [0, 1]."""
        if not 0.0 <= lam <= 1.0:
            raise LambdaOutOfRange(lam, "[0, 1]")
        w = self._mixed_eigenvalues(lam)
        pos = w[w > 0.0]
        return float(-np.sum(pos * np.log2(pos))) + 0.0

    def values(self, lams) -> np.ndarray:
        """Entropy in bits at every weight of a 1-D array, in one pass.

        Bitwise equal to ``[value(lam) for lam in lams]``: each row sums
        the same positive terms, in the same order, as ``value`` does, and
        numpy's summation order depends on the number of terms, so rows
        are grouped by that number. Raises LambdaOutOfRange, naming the
        first offending weight, if any weight lies outside [0, 1].
        """
        lams = np.asarray(lams, dtype=np.float64).reshape(-1)
        outside = ~((lams >= 0.0) & (lams <= 1.0))
        if outside.any():
            raise LambdaOutOfRange(float(lams[outside][0]), "[0, 1]")
        w = np.multiply.outer(lams, self.spectrum.shifted()) + 1.0 / self.dimension
        positive = w > 0.0
        safe = np.where(positive, w, 1.0)
        terms = safe * np.log2(safe)
        counts = positive.sum(axis=1)
        if (counts < self.dimension).any():
            # move each row's positive terms to its front, keeping their order
            order = np.argsort(~positive, axis=1, kind="stable")
            terms = np.take_along_axis(terms, order, axis=1)
        out = np.empty(lams.shape[0])
        for k in set(counts.tolist()):
            rows = counts == k
            out[rows] = -terms[rows, :k].sum(axis=1)
        return out + 0.0

    def derivative(self, lam: float) -> float:
        """First derivative: -sum_i u_i log2(lam * u_i + 1/n).

        The mixed eigenvalues stay positive for lam < 1, so the only
        singular point is lam = 1 on a rank-deficient state.
        """
        w = self._positive_mixed_eigenvalues(lam, "entropy curve derivative")
        u = self.spectrum.shifted()
        return float(-np.sum(u * np.log2(w)))

    def second_derivative(self, lam: float) -> float:
        """Second derivative: -sum_i u_i^2 / (ln2 * (lam * u_i + 1/n)).

        Nonpositive everywhere: entropy is concave along the mixing line.
        """
        w = self._positive_mixed_eigenvalues(
            lam, "entropy curve second derivative"
        )
        u = self.spectrum.shifted()
        return float(-np.sum(u * u / w) / _LN2)

    def log2_determinant(self, lam: float) -> float:
        """Base-2 log of det of the mixed state, for lam in (0, 1).

        Computed as n * (lam * derivative - value), which is algebraically
        the same as summing log2 over the mixed eigenvalues but uses only
        quantities observable from the entropy curve itself. That makes
        this method the reference implementation of what the recovery
        pipeline samples from a black-box oracle.
        """
        if not 0.0 < lam < 1.0:
            raise LambdaOutOfRange(lam, "(0, 1)")
        n = self.dimension
        return n * (lam * self.derivative(lam) - self.value(lam))

    def _positive_mixed_eigenvalues(self, lam: float, what: str) -> np.ndarray:
        if not 0.0 <= lam <= 1.0:
            raise LambdaOutOfRange(lam, "[0, 1]")
        w = self._mixed_eigenvalues(lam)
        if np.any(w <= 0.0):
            raise SingularEndpoint(lam, what)
        return w


@dataclass(frozen=True)
class DeterminantPolynomial:
    """det of the depolarized state as a polynomial in the mixing weight.

    Coefficients are ascending. The constant term is (1/n)^n (the
    determinant of the maximally mixed state) and the leading term is the
    product of the shifted eigenvalues, which vanishes whenever some
    eigenvalue equals 1/n.
    """

    coefficients: tuple[float, ...]
    dimension: int

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, lam):
        return np.polynomial.polynomial.polyval(
            lam, np.asarray(self.coefficients)
        )


def determinant_polynomial(spectrum: Spectrum) -> DeterminantPolynomial:
    """Expand prod_i (lam * u_i + 1/n) by convolving the linear factors."""
    n = spectrum.dimension
    coeffs = np.array([1.0])
    for u in spectrum.shifted():
        coeffs = np.convolve(coeffs, np.array([1.0 / n, float(u)]))
    return DeterminantPolynomial(
        coefficients=tuple(float(c) for c in coeffs), dimension=n
    )


def second_derivative_times_determinant(spectrum: Spectrum) -> np.ndarray:
    """Ascending coefficients of (curve second derivative) * (det polynomial).

    Multiplying the second derivative by the determinant polynomial clears
    every denominator, leaving -1/ln2 * sum_i u_i^2 * prod_{j != i} of the
    remaining linear factors. Nominally that has degree n - 1, but the
    top coefficient is -(sum_i u_i) * (prod_i u_i) / ln2, which vanishes
    because the shifts sum to zero; the true degree is at most n - 2. The
    returned array has length n (degrees 0 .. n-1) so the vanishing of the
    last entry is itself checkable.
    """
    n = spectrum.dimension
    u = spectrum.shifted()
    total = np.zeros(n)
    for i in range(n):
        partial = np.array([1.0])
        for j in range(n):
            if j != i:
                partial = np.convolve(partial, np.array([1.0 / n, float(u[j])]))
        total += (u[i] * u[i]) * partial
    return -total / _LN2
