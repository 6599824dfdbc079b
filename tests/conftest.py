import contextlib
import re

import numpy as np
import pytest

from entrospec import QuantumState, save_matrix


def diag_state(*eigenvalues: float) -> QuantumState:
    """Build a diagonal state from eigenvalues (handy for exact fixtures)."""
    return QuantumState(np.diag(np.asarray(eigenvalues, dtype=np.complex128)))


def conjugate(state: QuantumState, u: np.ndarray) -> QuantumState:
    """The validated state u rho u*."""
    return QuantumState(u @ state.matrix @ u.conj().T)


def ginibre_matrix(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """G G* / tr(G G*) for an n x rank complex Gaussian G: a rank-``rank`` density matrix."""
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def write_state(tmp_path, name, matrix) -> str:
    """Save ``matrix`` as the matrix file ``name`` in ``tmp_path`` and return its path."""
    path = tmp_path / name
    save_matrix(str(path), np.asarray(matrix, dtype=complex))
    return str(path)


@contextlib.contextmanager
def refuses(error, text, **carried):
    """The block must raise exactly ``error`` with message ``text``, and each keyword
    names an attribute whose repr must equal the given value's (so NaN matches NaN).

    ``text`` is the full message, or a compiled pattern that must match all of it
    where the message embeds words of the json decoder, argparse or the OS, or a
    number a LAPACK solve produced.
    """
    with pytest.raises(error) as info:
        yield info
    message = str(info.value)
    assert type(info.value) is error
    assert text.fullmatch(message) if isinstance(text, re.Pattern) else message == text, message
    for name, value in carried.items():
        assert repr(getattr(info.value, name)) == repr(value), name


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
