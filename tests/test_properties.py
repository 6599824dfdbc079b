"""Property tests of the state constructor, the deciders and the matrix files.

Every pair is built from a drawn seed through random_state and
random_unitary, so a failing example replays from its seed alone.
Examples are derandomized and few, which keeps the suite's run time and
outcome fixed.
"""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entrospec import (
    QuantumState,
    ValidationError,
    decide_grid,
    decide_nodes,
    decide_spectral,
    hermitian_spectrum,
    load_matrix,
    random_state,
    random_unitary,
    save_matrix,
    validate_state,
)

from conftest import conjugate, diag_state

DECIDERS = (decide_spectral, decide_grid, decide_nodes)
PROPERTY = settings(deadline=None, max_examples=40, derandomize=True, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=8)


@PROPERTY
@given(seed=seeds, weights=st.lists(st.just(0.0) | st.floats(1e-6, 1.0), min_size=2, max_size=8))
def test_constructor_accepts_every_conjugated_simplex_point(seed, weights):
    # x on the simplex, exact zeros included; V diag(x) V* has spectrum x
    assume(sum(weights) > 0.0)
    x = np.asarray(weights) / sum(weights)
    u = random_unitary(len(x), np.random.default_rng(seed))
    state = validate_state(u @ np.diag(x) @ u.conj().T)
    assert np.array_equal(state.matrix, state.matrix.conj().T)
    assert not state.matrix.flags.writeable
    spectrum = hermitian_spectrum(state).as_array()
    assert np.max(np.abs(spectrum - np.sort(x)[::-1])) <= 1e-13


# entries up to the double range, where naive sums and symmetrization overflow
huge = st.floats(min_value=-1e308, max_value=1e308) | st.floats(min_value=-1.0, max_value=1.0)


@PROPERTY
@given(data=st.data(), n=st.integers(min_value=1, max_value=4), hermitian=st.booleans())
def test_constructor_raises_or_returns_a_finite_spectrum(data, n, hermitian):
    grid = arrays(np.float64, (n, n), elements=huge, fill=st.nothing())
    m = data.draw(grid) + 1j * data.draw(grid)
    if hermitian:
        m = 0.5 * m + 0.5 * m.conj().T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            state = QuantumState(m)
        except ValidationError:
            return
        spectrum = hermitian_spectrum(state).as_array()
    assert np.isfinite(spectrum).all()
    assert abs(spectrum.sum() - 1.0) <= 1e-12


@PROPERTY
@given(seed=seeds, n=dims, kind=st.sampled_from(["conjugate", "independent"]))
def test_deciders_answer_and_equivalent_verdicts_carry_a_witness(seed, n, kind):
    rng = np.random.default_rng(seed)
    sigma = random_state(n, rng)
    if kind == "conjugate":
        rho = conjugate(sigma, random_unitary(n, rng))
    else:
        rho = random_state(n, rng)
    for decide in DECIDERS:
        report = decide(rho, sigma)
        if kind == "conjugate":
            assert report.equivalent
        if report.equivalent:
            u = report.witness
            residual = np.max(np.abs(rho.matrix - u @ sigma.matrix @ u.conj().T))
            assert residual <= 1e-8
        else:
            assert report.witness is None


# The lower end sits above the default spectrum_tol of 1e-8: at a split of
# exactly 1e-8 the sorted distance equals the tolerance and rounding decides.
@PROPERTY
@given(seed=seeds, n=dims, exponent=st.floats(min_value=np.log10(2e-8), max_value=-5.0))
def test_split_degenerate_pair_is_not_equivalent(seed, n, exponent):
    # two equal top eigenvalues, and the same pair split by +-delta
    rng = np.random.default_rng(seed)
    delta = 10.0**exponent
    spectrum = hermitian_spectrum(random_state(n, rng)).as_array()
    merged = spectrum.copy()
    merged[:2] = 0.5 * (spectrum[0] + spectrum[1])
    split = merged.copy()
    split[:2] += (delta, -delta)
    a = conjugate(diag_state(*merged), random_unitary(n, rng))
    b = conjugate(diag_state(*split), random_unitary(n, rng))
    for decide in DECIDERS:
        report = decide(a, b)
        assert not report.equivalent
        assert report.witness is None


# -0.0 on its own, since floats() alone seldom draws it: the parser must
# assemble the matrix componentwise to keep its sign
finite_doubles = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)


@PROPERTY
@given(data=st.data(), n=st.integers(min_value=1, max_value=8))
def test_matrix_file_roundtrip_is_bit_exact(tmp_path_factory, data, n):
    grid = arrays(np.float64, (n, n), elements=finite_doubles, fill=st.nothing())
    matrix = np.empty((n, n), dtype=np.complex128)
    matrix.real = data.draw(grid)
    matrix.imag = data.draw(grid)
    path = str(tmp_path_factory.getbasetemp() / "roundtrip.json")
    save_matrix(path, matrix)
    loaded = load_matrix(path)
    assert loaded.shape == (n, n)
    assert loaded.view(np.uint64).tobytes() == matrix.view(np.uint64).tobytes()
