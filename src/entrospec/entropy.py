"""Entropy of a state and of its depolarized family, in closed form.

Mixing a state with weight ``lam`` toward the maximally mixed state moves
each eigenvalue x_i to lam * u_i + 1/n, where u_i = x_i - 1/n are the
shifted eigenvalues (they sum to zero). Every quantity here is a closed
form over those shifts: the entropy curve, its first two derivatives, and
the determinant of the mixed state, which is a degree-n polynomial in lam
whose log the recovery pipeline can sample from entropy values alone.

All entropies are in bits, and every one of them, of a spectrum or along
the curve, is the same sum, in which zero eigenvalues add exact zeros.
Natural-log constants appear only as 1/ln 2 inside derivative formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LambdaOutOfRange, SingularEndpoint
from .states import Spectrum

_LN2 = float(np.log(2.0))


def _entropy_bits(w: np.ndarray) -> np.ndarray | float:
    """-sum w log2 w over the last axis, in bits: the one entropy sum.

    Entries <= 0 add an exact 0 (explicit branch, not a limit), so pure
    states give 0.0 with no NaN anywhere.
    """
    safe = np.where(w > 0.0, w, 1.0)
    # + 0.0 keeps a pure state's entropy from printing as -0.0
    return -(safe * np.log2(safe)).sum(axis=-1) + 0.0


def _curve_entropies(lams: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """Entropy in bits at each weight of one shifted spectrum (n,) or a stack (k, n).

    The result has shape ``lams.shape``, then (k,) for a stack. Weights are unchecked.
    """
    return _entropy_bits(np.multiply.outer(lams, shifted) + 1.0 / shifted.shape[-1])


def entropy_of_spectrum(spectrum: Spectrum) -> float:
    """Entropy -sum x_i log2 x_i of an eigenvalue vector, in bits."""
    return float(_entropy_bits(spectrum.as_array()))


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
        if not 0.0 <= lam <= 1.0:
            raise LambdaOutOfRange(lam, "[0, 1]")
        return lam * self.spectrum.shifted() + 1.0 / self.dimension

    def value(self, lam: float) -> float:
        """Entropy in bits at mixing weight lam, for lam in [0, 1]."""
        return float(_entropy_bits(self._mixed_eigenvalues(lam)))

    def derivative(self, lam: float) -> float:
        """First derivative: -sum_i u_i log2(lam * u_i + 1/n).

        The mixed eigenvalues stay positive for lam < 1, so the only
        singular point is lam = 1 on a rank-deficient state.
        """
        w = self._positive_mixed_eigenvalues(lam, "entropy curve derivative")
        u = self.spectrum.shifted()
        return float(-(u * np.log2(w)).sum())

    def second_derivative(self, lam: float) -> float:
        """Second derivative: -sum_i u_i^2 / (ln2 * (lam * u_i + 1/n)).

        Nonpositive everywhere: entropy is concave along the mixing line.
        """
        w = self._positive_mixed_eigenvalues(
            lam, "entropy curve second derivative"
        )
        u = self.spectrum.shifted()
        return float(-(u * u / w).sum() / _LN2)

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
        w = self._mixed_eigenvalues(lam)
        if (w <= 0.0).any():
            raise SingularEndpoint(lam, what)
        return w


def determinant_polynomial(spectrum: Spectrum) -> np.ndarray:
    """Ascending coefficients of det of the depolarized state, a polynomial in lam.

    Expands prod_i (lam * u_i + 1/n) by convolving the linear factors into
    a float64 array of length n + 1, in numpy's convention (evaluate with
    ``np.polynomial.polynomial.polyval``). The constant term is (1/n)^n,
    the determinant of the maximally mixed state, and the leading term is
    the product of the shifted eigenvalues, which vanishes whenever some
    eigenvalue equals 1/n.
    """
    n = spectrum.dimension
    coeffs = np.array([1.0])
    for u in spectrum.shifted():
        coeffs = np.convolve(coeffs, np.array([1.0 / n, float(u)]))
    return coeffs

