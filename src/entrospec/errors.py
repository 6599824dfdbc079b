"""Exception types raised across the package.

Every error carries enough context (dimension, residual, offending value)
to diagnose the failure without re-running the computation.
"""

from __future__ import annotations


class EntrospecError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(EntrospecError):
    """A density-matrix invariant failed."""


class NotFinite(ValidationError):
    def __init__(self, count: int, first: tuple[int, int], value: complex):
        self.count = count
        self.first = first
        self.value = value
        super().__init__(
            f"matrix has {count} non-finite {'entry' if count == 1 else 'entries'}; "
            f"the first is {value!r} at {first}"
        )


class NotHermitian(ValidationError):
    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"matrix is not Hermitian: max |M - M^*| = {residual:.3e} "
            f"exceeds tolerance {tol:.1e}"
        )


class NotPositiveSemidefinite(ValidationError):
    def __init__(self, min_eigenvalue: float, tol: float):
        self.min_eigenvalue = min_eigenvalue
        self.tol = tol
        super().__init__(
            f"matrix is not positive semidefinite: smallest eigenvalue "
            f"{min_eigenvalue:.3e} is below -{tol:.1e}"
        )


class TraceNotOne(ValidationError):
    def __init__(self, trace: complex, tol: float):
        self.trace = trace
        self.tol = tol
        super().__init__(
            f"trace is {trace!r}, differs from 1 by more than {tol:.1e}"
        )


class LambdaOutOfRange(EntrospecError):
    """Mixing parameter outside the domain of the requested quantity."""

    def __init__(self, lam: float, domain: str):
        self.lam = lam
        self.domain = domain
        super().__init__(f"lambda = {lam!r} is outside {domain}")


class SingularEndpoint(EntrospecError):
    """Quantity undefined at this endpoint (division by lambda, log of 0)."""

    def __init__(self, lam: float, what: str):
        self.lam = lam
        self.what = what
        super().__init__(f"{what} is undefined at lambda = {lam!r}")


class DimensionMismatch(EntrospecError):
    def __init__(self, n_left: int, n_right: int):
        self.n_left = n_left
        self.n_right = n_right
        super().__init__(
            f"states live in different dimensions: {n_left} vs {n_right}"
        )


class IllConditioned(EntrospecError):
    """The fit cannot be trusted. ``residual`` is the number the failed check compared:
    the held-out residual, against ``bound``, or the sample or coefficient ``reason`` names."""

    def __init__(self, residual: float, bound: float, reason: str = ""):
        self.residual = residual
        self.bound = bound
        super().__init__(reason or f"polynomial fit residual {residual:.3e} exceeds {bound:.1e}; "
                         f"samples are inconsistent with a degree-n determinant curve")


class ComplexRoots(EntrospecError):
    """Recovered polynomial has roots too far from the real axis."""

    def __init__(self, max_imag: float, tol: float):
        self.max_imag = max_imag
        self.tol = tol
        super().__init__(
            f"fitted polynomial has a root with |imag| = {max_imag:.3e} "
            f"(tolerance {tol:.1e}); cannot map to a real spectrum"
        )


class DegreeDeficit(EntrospecError):
    """The recovered eigenvalues, clamped to [0, 1], sum to 0.0 or NaN: nothing to normalize."""

    def __init__(self, values: tuple[float, ...], clamped_sum: float):
        self.values = values
        self.clamped_sum = clamped_sum
        listed = ", ".join(f"{v:.3e}" for v in values)
        super().__init__(f"recovered eigenvalues ({listed}) clamped to [0, 1] sum to "
                         f"{clamped_sum!r}; nothing is left to normalize")


class ParseError(EntrospecError):
    """Matrix file or CLI input could not be parsed."""
