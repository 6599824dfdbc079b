import numpy as np
import pytest

from entrospec import (
    EntropyCurve,
    QuantumState,
    Spectrum,
    decide_grid,
    decide_nodes,
    decide_spectral,
    default_nodes,
    depolarize,
    entropy_of_spectrum,
    equal_entropy_pair,
    oracle_from_spectrum,
    random_state,
    random_unitary,
)
from entrospec.entropy import CURVE_GRID
from entrospec.equivalence import ENTROPY_TOL, SPECTRUM_TOL, _decide
from entrospec.errors import DimensionMismatch

from conftest import conjugate, diag_state, ginibre_matrix, refuses

_MISMATCH = "states live in different dimensions: {} vs {}"


class TestDeciderWitness:
    def test_identity_pair(self, rng):
        state = random_state(3, rng)
        w = decide_spectral(state, state).witness
        assert np.max(np.abs(state.matrix - w @ state.matrix @ w.conj().T)) <= 1e-8

    def test_conjugate_pair_residuals(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 9))
            sigma = random_state(n, rng)
            rho = conjugate(sigma, random_unitary(n, rng))
            w = decide_spectral(rho, sigma).witness
            assert np.max(np.abs(rho.matrix - w @ sigma.matrix @ w.conj().T)) <= 1e-8
            assert np.max(np.abs(w @ w.conj().T - np.eye(n))) <= 1e-10

    def test_basis_swap(self):
        # same spectrum written in the flipped basis
        rho = diag_state(0.75, 0.25)
        sigma = diag_state(0.25, 0.75)
        w = decide_spectral(rho, sigma).witness
        assert np.max(np.abs(rho.matrix - w @ sigma.matrix @ w.conj().T)) <= 1e-8

    def test_degenerate_spectrum(self, rng):
        # repeated eigenvalues: any in-group alignment must still conjugate
        base = diag_state(0.4, 0.4, 0.2)
        rotated = conjugate(base, random_unitary(3, rng))
        w = decide_spectral(base, rotated).witness
        assert np.max(np.abs(base.matrix - w @ rotated.matrix @ w.conj().T)) <= 1e-8

    def test_rejects_distinct_spectra(self):
        report = decide_spectral(diag_state(1.0, 0.0), diag_state(0.5, 0.5))
        assert not report.equivalent
        assert report.witness is None


class TestDecideGrid:
    def test_conjugate_pair(self, rng):
        state = random_state(4, rng)
        rotated = conjugate(state, random_unitary(4, rng))
        report = decide_grid(state, rotated)
        assert report.equivalent
        assert report.method == "grid"
        assert report.max_entropy_gap <= 1e-12
        assert report.witness is not None
        assert len(report.per_node_gaps) == 63

    def test_grid_stays_inside_open_interval(self, rng):
        state = random_state(2, rng)
        report = decide_grid(state, state)
        lams = [lam for lam, _ in report.per_node_gaps]
        # the grid's rows after 0, so inside (0, 1) with its last row at 0.9
        assert 0.0 < min(lams) and max(lams) == 0.9 < 1.0

    def test_pure_vs_mixed_gap(self):
        report = decide_grid(diag_state(1.0, 0.0), diag_state(0.5, 0.5))
        assert not report.equivalent
        assert report.max_entropy_gap >= 0.5
        assert report.witness is None

    def test_same_state_carries_witness(self, rng):
        state = random_state(3, rng)
        report = decide_grid(state, state)
        assert report.equivalent and report.witness is not None

    def test_entropy_gap_shrinks_toward_origin(self, rng):
        # both curves start at log2(n), so gaps near weight zero are small:
        # a sanity check that the grid decider probes genuinely distinct
        # information at different weights
        a, b = random_state(4, rng), random_state(4, rng)
        report = decide_grid(a, b)
        gaps = [gap for _, gap in report.per_node_gaps]
        assert gaps[0] < gaps[-1]

    def test_dimension_mismatch(self, rng):
        with refuses(DimensionMismatch, _MISMATCH.format(2, 3), n_left=2, n_right=3):
            decide_grid(random_state(2, rng), random_state(3, rng))


class TestDecideNodes:
    def test_conjugate_pair_default_nodes(self, rng):
        state = random_state(3, rng)
        rotated = conjugate(state, random_unitary(3, rng))
        report = decide_nodes(state, rotated)
        assert report.equivalent
        assert report.method == "nodes"
        assert [lam for lam, _ in report.per_node_gaps] == default_nodes(3).tolist()
        assert max(gap for _, gap in report.per_node_gaps) <= 1e-12

    def test_default_nodes_shape(self):
        nodes = default_nodes(3)
        assert nodes.dtype == np.float64
        assert nodes.tolist() == [1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6, 1.0]
        assert np.all(np.diff(nodes) > 0.0)

    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    def test_default_nodes_are_built_once_and_read_only(self, n):
        # t2 shares one array per n, so no caller may change it
        nodes = default_nodes(n)
        assert not nodes.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.5
        assert default_nodes(n).tobytes() == nodes.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 64])
    def test_tested_weights_are_default_nodes_bitwise(self, n):
        # each weight is the correctly rounded i / (2n), the same bits as
        # Python's true division
        state = QuantumState(np.eye(n) / n)
        tested = np.array([lam for lam, _ in decide_nodes(state, state).per_node_gaps])
        rounded = np.array([i / (2 * n) for i in range(1, 2 * n + 1)])
        assert tested.tobytes() == default_nodes(n).tobytes() == rounded.tobytes()

    def test_distinct_pair_flagged(self, rng):
        report = decide_nodes(random_state(3, rng), random_state(3, rng))
        assert not report.equivalent

    def test_dimension_mismatch(self, rng):
        # the nodes follow the first state's dimension; the check still fires
        for left, right in ((2, 3), (3, 2)):
            with refuses(DimensionMismatch, _MISMATCH.format(left, right),
                         n_left=left, n_right=right):
                decide_nodes(random_state(left, rng), random_state(right, rng))


class TestDecideSpectral:
    def test_report_shape(self, rng):
        state = random_state(3, rng)
        report = decide_spectral(state, state)
        assert report.method == "spectral"
        assert report.per_node_gaps == ()
        assert report.max_entropy_gap == 0.0
        assert report.equivalent and report.witness is not None

    def test_to_dict_serializes_witness(self, rng):
        state = random_state(2, rng)
        doc = decide_spectral(state, state).to_dict()
        assert doc["verdict"] == "equivalent"
        assert isinstance(doc["witness"]["re"], list)
        doc_neg = decide_spectral(diag_state(1.0, 0.0), diag_state(0.5, 0.5)).to_dict()
        assert doc_neg["witness"] is None

    def test_conjugate_pair(self, rng):
        state = random_state(4, rng)
        rotated = conjugate(state, random_unitary(4, rng))
        assert decide_spectral(state, rotated).equivalent

    def test_pure_vs_mixed(self):
        assert not decide_spectral(diag_state(1.0, 0.0), diag_state(0.5, 0.5)).equivalent

    def test_diagonal_vs_hand_computed(self):
        offdiag = QuantumState(np.array([[0.5, 0.25], [0.25, 0.5]]))
        assert decide_spectral(diag_state(0.75, 0.25), offdiag).equivalent

    def test_dimension_mismatch(self, rng):
        with refuses(DimensionMismatch, _MISMATCH.format(2, 3), n_left=2, n_right=3):
            decide_spectral(random_state(2, rng), random_state(3, rng))


@pytest.mark.parametrize(
    "decide", [decide_spectral, decide_grid, decide_nodes], ids=["spectral", "grid", "nodes"]
)
@pytest.mark.parametrize("delta", [2 * SPECTRUM_TOL, 3e-8, 1e-7, 1e-6, 1e-5])
def test_split_degenerate_pair_is_not_equivalent(rng, decide, delta):
    # entropy values move only as delta**2, so every curve gap passes
    # ENTROPY_TOL while the spectra differ by delta > SPECTRUM_TOL
    a = conjugate(diag_state(0.4, 0.4, 0.2), random_unitary(3, rng))
    b = conjugate(diag_state(0.4 + delta, 0.4 - delta, 0.2), random_unitary(3, rng))
    report = decide(a, b)
    assert not report.equivalent
    assert report.witness is None
    assert report.max_entropy_gap <= ENTROPY_TOL


@pytest.mark.parametrize(
    "decide", [decide_spectral, decide_grid, decide_nodes], ids=["spectral", "grid", "nodes"]
)
def test_split_within_spectrum_tol_is_equivalent(rng, decide):
    # the other side of the boundary above: half SPECTRUM_TOL is within the
    # verdict rule, so the pair is equivalent and carries a witness
    delta = 0.5 * SPECTRUM_TOL
    a = conjugate(diag_state(0.4, 0.4, 0.2), random_unitary(3, rng))
    b = conjugate(diag_state(0.4 + delta, 0.4 - delta, 0.2), random_unitary(3, rng))
    report = decide(a, b)
    assert report.equivalent
    w = report.witness
    assert np.max(np.abs(a.matrix - w @ b.matrix @ w.conj().T)) <= 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 23: the verdict compares clamped, renormalized spectra, "
    "while the witness residual sees the raw eigenvalues",
)
def test_boundary_pair_witness_meets_the_stated_bound():
    # rho is valid, but its raw eigenvalues sit 0.99e-9 (within PSD_TOL and
    # TRACE_TOL) from its stored spectrum s; sigma moves s by just under
    # SPECTRUM_TOL. Every mode answers equivalent, with residual 1.099e-8
    rho = diag_state(0.5 + 0.99e-9, 0.5 + 0.99e-9, -0.99e-9)
    s = rho.spectrum.values
    sigma = diag_state(s[0] - 9.9999e-9, s[1] + 9.9999e-9, 0.0)
    residuals = {}
    for decide in (decide_spectral, decide_grid, decide_nodes):
        report = decide(rho, sigma)
        if report.equivalent:
            w = report.witness
            residuals[report.method] = np.max(np.abs(rho.matrix - w @ sigma.matrix @ w.conj().T))
    assert all(residual <= 1e-8 for residual in residuals.values()), residuals


@pytest.mark.parametrize(
    "decide", [decide_spectral, decide_grid, decide_nodes], ids=["spectral", "grid", "nodes"]
)
def test_tolerances_are_constants(decide):
    # the report echoes the module constants
    state = diag_state(0.75, 0.25)
    report = decide(state, state)
    assert not hasattr(report, "entropy_tol") and not hasattr(report, "spectrum_tol")
    doc = report.to_dict()
    assert (doc["entropy_tol"], doc["spectrum_tol"]) == (ENTROPY_TOL, SPECTRUM_TOL) == (1e-9, 1e-8)


@pytest.mark.parametrize(
    "decide", [decide_spectral, decide_grid, decide_nodes], ids=["spectral", "grid", "nodes"]
)
def test_reports_compare_and_hash_by_identity(rng, decide):
    # an equivalent report holds a witness array, which has no truth value
    # and no hash, so reports are compared as objects, not field by field
    state = random_state(3, rng)
    for other in (conjugate(state, random_unitary(3, rng)), random_state(3, rng)):
        report = decide(state, other)
        assert report == report
        assert report != decide(state, other)
        assert len({report, decide(state, other)}) == 2


class TestEqualEntropyPair:
    def test_three_level_pair_matches_entropy_but_not_spectrum(self):
        a, b = equal_entropy_pair(3)
        assert abs(entropy_of_spectrum(a.spectrum) - entropy_of_spectrum(b.spectrum)) <= 1e-12
        sa = a.spectrum.as_array()
        sb = b.spectrum.as_array()
        assert float(np.max(np.abs(sa - sb))) >= 0.05

    def test_three_level_pair_is_flagged_by_node_test(self):
        a, b = equal_entropy_pair(3)
        report = decide_nodes(a, b)
        assert not report.equivalent
        # ... while the gap at full weight alone is far below tolerance
        full_weight_gap = dict(report.per_node_gaps)[1.0]
        assert full_weight_gap <= 1e-12

    def test_two_level_family_collapses_to_the_reference(self):
        # With two eigenvalues summing to 1, the entropy at full mixing
        # weight pins the sorted spectrum, so entropy matching can only
        # reproduce (0.9, 0.1) itself.
        a, b = equal_entropy_pair(2)
        sa = a.spectrum.as_array()
        sb = b.spectrum.as_array()
        assert abs(entropy_of_spectrum(a.spectrum) - entropy_of_spectrum(b.spectrum)) <= 1e-12
        assert float(np.max(np.abs(sa - sb))) <= 1e-12

    def test_unsupported_dimension(self):
        with refuses(ValueError, "matched-entropy construction is defined for n = 2 or 3, got 4"):
            equal_entropy_pair(4)


def test_depolarized_pairs_preserve_equivalence(rng):
    # mixing both states by the same weight preserves the verdict
    state = random_state(3, rng)
    rotated = conjugate(state, random_unitary(3, rng))
    assert decide_nodes(depolarize(state, 0.6), depolarize(rotated, 0.6)).equivalent


def test_one_eigensolve_per_state(rng, monkeypatch):
    # validation decomposes each state once; everything after reads that
    rho = QuantumState(random_state(8, rng).matrix)
    sigma = conjugate(rho, random_unitary(8, rng))
    other = QuantumState(random_state(8, rng).matrix)

    calls = []

    def counting(name, solver):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return solver(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))

    for decide in (decide_nodes, decide_grid, decide_spectral):
        assert decide(rho, sigma).witness is not None
        assert not decide(rho, other).equivalent
    entropy_of_spectrum(rho.spectrum)
    curve = EntropyCurve(rho.spectrum)
    for lam in default_nodes(8):
        curve.value(lam)
    oracle_from_spectrum(rho.spectrum).value_fn(0.5)
    assert calls == []

    # the counters do see the solve of a state not yet decomposed
    QuantumState(rho.matrix)
    assert calls == ["eigh"]


def test_one_spectrum_read_per_state(rng, monkeypatch):
    # each state builds its spectrum once, when it is constructed; no
    # decision builds another. Both ways to build a spectrum, the public
    # constructor and a state's build from its clamped eigenvalues, store
    # the fields through _store, so it counts every spectrum built
    built = []
    store = Spectrum._store

    def counting(self, array):
        built.append(self)
        store(self, array)

    monkeypatch.setattr(Spectrum, "_store", counting)
    rho = random_state(6, rng)
    sigma = conjugate(rho, random_unitary(6, rng))
    other = random_state(6, rng)
    assert len(built) == 3
    assert all(b is s.spectrum for b, s in zip(built, (rho, sigma, other)))
    for decide in (decide_spectral, decide_grid, decide_nodes):
        for pair, equivalent in (((rho, sigma), True), ((rho, other), False)):
            report = decide(*pair)
            assert report.equivalent is equivalent
            assert (report.witness is not None) is equivalent
    assert len(built) == 3


def _degenerate_state(n, rng):
    # two levels, the larger one repeated: (2, 2, ..., 2, 1) / (2n - 1)
    values = np.full(n, 2.0)
    values[-1] = 1.0
    return conjugate(diag_state(*(values / values.sum())), random_unitary(n, rng))


def test_grid_nodes_are_a_read_only_constant():
    # t1 compares on the curve grid's 63 rows after 0
    expected = np.array([0.9 * j / 63 for j in range(64)])
    assert CURVE_GRID.tobytes() == expected.tobytes()
    for grid in (CURVE_GRID, CURVE_GRID[1:]):
        with pytest.raises(ValueError):
            grid[0] = 0.5
    state = random_state(3, np.random.default_rng(0))
    tested = np.array([lam for lam, _ in decide_grid(state, state).per_node_gaps])
    assert tested.tobytes() == expected[1:].tobytes()


@pytest.mark.parametrize("n", range(1, 17))
def test_fused_curve_pass_is_bitwise_two_curve_passes(n, rng):
    # _decide evaluates both curves in one stacked pass; every gap must be
    # the bits of the difference of the scalar EntropyCurve.value at each node
    states = [random_state(n, rng), _degenerate_state(n, rng)]
    states += [QuantumState(ginibre_matrix(n, rank, rng)) for rank in (1, 2, 3) if rank <= n]
    states.append(conjugate(states[0], random_unitary(n, rng)))
    for nodes in (default_nodes(n), CURVE_GRID[1:]):
        # each state's scalar values, once for all of its pairs
        values = [np.array([EntropyCurve(s.spectrum).value(lam) for lam in nodes])
                  for s in states]
        for a, value_a in zip(states, values):
            for b, value_b in zip(states, values):
                report = _decide(a, b, "nodes", nodes)
                expected = np.abs(value_a - value_b)
                got = np.array([gap for _, gap in report.per_node_gaps])
                assert got.tobytes() == expected.tobytes()
                assert report.max_entropy_gap == expected.max()
