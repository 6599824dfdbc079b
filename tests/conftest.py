import numpy as np
import pytest

from entrospec import QuantumState


def diag_state(*eigenvalues: float) -> QuantumState:
    """Build a diagonal state from eigenvalues (handy for exact fixtures)."""
    return QuantumState(np.diag(np.asarray(eigenvalues, dtype=np.complex128)))


def conjugate(state: QuantumState, u: np.ndarray) -> QuantumState:
    """The validated state u rho u*."""
    return QuantumState(u @ state.matrix @ u.conj().T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
