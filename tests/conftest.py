import numpy as np
import pytest

from entrospec import QuantumState, validate_state


def diag_state(*eigenvalues: float) -> QuantumState:
    """Build a diagonal state from eigenvalues (handy for exact fixtures)."""
    return validate_state(np.diag(np.asarray(eigenvalues, dtype=np.complex128)))


def conjugate(state: QuantumState, u: np.ndarray) -> QuantumState:
    """The validated state u rho u*."""
    return validate_state(u @ state.matrix @ u.conj().T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
