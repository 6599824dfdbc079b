import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entrospec import (
    EntropyOracle,
    decide_grid,
    oracle_from_spectrum,
    random_state,
    random_unitary,
    recover_spectrum,
    save_matrix,
    selftest,
    validate_state,
)
from entrospec.cli import main
from entrospec.entropy import CURVE_GRID
from entrospec.equivalence import ENTROPY_TOL, SPECTRUM_TOL
from entrospec.errors import ParseError
from entrospec.matrixio import load_matrix, parse_matrix_file


def write_state(tmp_path, name, matrix):
    path = tmp_path / name
    save_matrix(str(path), np.asarray(matrix, dtype=complex))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropyCommand:
    def test_maximally_mixed(self, tmp_path, capsys):
        path = write_state(tmp_path, "mixed.json", np.eye(2) / 2)
        code, out, _ = run(capsys, ["entropy", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2
        assert payload["entropy_bits"] == 1.0
        assert payload["spectrum"] == [0.5, 0.5]

    def test_pure_state(self, tmp_path, capsys):
        path = write_state(tmp_path, "pure.json", np.diag([1.0, 0.0]))
        code, out, _ = run(capsys, ["entropy", path])
        assert code == 0
        assert json.loads(out)["entropy_bits"] == 0.0
        assert '"entropy_bits": 0.0' in out

    def test_off_diagonal_state(self, tmp_path, capsys):
        path = write_state(tmp_path, "plus.json", [[0.5, 0.25], [0.25, 0.5]])
        code, out, _ = run(capsys, ["entropy", path])
        assert code == 0
        expected = 2.0 - 0.75 * math.log2(3.0)
        assert abs(json.loads(out)["entropy_bits"] - expected) <= 1e-12

    def test_invalid_state_exits_1(self, tmp_path, capsys):
        path = write_state(tmp_path, "bad.json", np.diag([0.7, 0.7]))
        code, _, err = run(capsys, ["entropy", path])
        assert code == 1
        assert "entrospec:" in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run(capsys, ["entropy", str(tmp_path / "nope.json")])
        assert code == 1
        assert "entrospec:" in err


def read_csv(path):
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestCurveCommand:
    def test_csv_layout(self, tmp_path, capsys):
        state = write_state(tmp_path, "s.json", np.diag([0.75, 0.25]))
        out_csv = str(tmp_path / "curve.csv")
        code, out, _ = run(capsys, ["curve", state, "--out", out_csv])
        assert code == 0
        summary = json.loads(out)
        assert summary == {"n": 2, "points": 64, "a": 0.9, "out": out_csv}

        header, rows = read_csv(out_csv)
        assert header == "lambda,entropy_bits,f_prime,log2_p"
        assert len(rows) == 64
        lams = [float(row[0]) for row in rows]
        assert lams == [0.9 * j / 63 for j in range(64)] == CURVE_GRID.tolist()
        assert lams[0] == 0.0 and lams[-1] == 0.9
        # log2_p is only defined for a positive weight
        assert rows[0][3] == ""
        assert all(row[3] != "" for row in rows[1:])
        # mixing toward I/n can only raise entropy, so the column decreases
        entropies = [float(row[1]) for row in rows]
        assert all(a >= b - 1e-12 for a, b in zip(entropies, entropies[1:]))
        assert all(row[2] != "" for row in rows)

    def test_pure_state_has_every_derivative(self, tmp_path, capsys):
        # at weight <= 0.9 every mixed eigenvalue is at least 0.1 / n, so
        # even a pure state's derivative is finite
        state = write_state(tmp_path, "pure.json", np.diag([1.0, 0.0, 0.0]))
        out_csv = str(tmp_path / "curve.csv")
        code, _, _ = run(capsys, ["curve", state, "--out", out_csv])
        assert code == 0
        _, rows = read_csv(out_csv)
        assert len(rows) == 64
        assert all(math.isfinite(float(row[2])) for row in rows)
        assert rows[0][3] == ""
        assert all(math.isfinite(float(row[3])) for row in rows[1:])

    def test_maximally_mixed_curve_is_flat(self, tmp_path, capsys):
        state = write_state(tmp_path, "mixed.json", np.eye(2) / 2)
        out_csv = str(tmp_path / "curve.csv")
        code, _, _ = run(capsys, ["curve", state, "--out", out_csv])
        assert code == 0
        _, rows = read_csv(out_csv)
        assert len(rows) == 64
        assert all(abs(float(row[1]) - 1.0) <= 1e-15 for row in rows)

    @pytest.mark.parametrize("flags", [["--a", "0.0"], ["--a", "1.2"], ["--points", "1"]])
    def test_bad_grid_flags_exit_1(self, tmp_path, capsys, flags):
        # the grid is fixed: --a and --points are not options at any value
        state = write_state(tmp_path, "s.json", np.eye(2) / 2)
        out_csv = str(tmp_path / "c.csv")
        code, out, err = run(capsys, ["curve", state, *flags, "--out", out_csv])
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    def test_missing_out_flag_exits_1(self, tmp_path, capsys):
        state = write_state(tmp_path, "s.json", np.eye(2) / 2)
        code, _, _ = run(capsys, ["curve", state])
        assert code == 1


def test_curve_t1_and_recovery_read_one_grid(tmp_path, capsys):
    # the curve CSV's weights after row 0, the weights of t1's gaps and the
    # weights recovery queries are the same 63 floats, bit for bit
    matrix = np.diag([0.5, 0.3, 0.2])
    out_csv = str(tmp_path / "curve.csv")
    code, _, _ = run(capsys, ["curve", write_state(tmp_path, "s.json", matrix), "--out", out_csv])
    assert code == 0
    _, rows = read_csv(out_csv)
    curve = np.array([float(row[0]) for row in rows[1:]])

    state = validate_state(matrix)
    t1 = np.array([lam for lam, _ in decide_grid(state, state).per_node_gaps])

    base = oracle_from_spectrum(state.spectrum)
    queried = []

    def value(lams):
        queried.append(lams.copy())
        return base.value_fn(lams)

    recover_spectrum(EntropyOracle(value, base.derivative_fn, 3))
    (recovery,) = queried

    assert curve.shape == (63,)
    assert curve.tobytes() == t1.tobytes() == recovery.tobytes()


class TestEquivCommand:
    def test_same_state_is_equivalent(self, tmp_path, capsys, rng):
        matrix = random_state(3, rng).matrix
        a = write_state(tmp_path, "a.json", matrix)
        b = write_state(tmp_path, "b.json", matrix)
        code, out, _ = run(capsys, ["equiv", a, b])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "equivalent"
        assert payload["method"] == "nodes"
        witness = np.asarray(payload["witness"]["re"]) + 1j * np.asarray(
            payload["witness"]["im"]
        )
        assert np.max(np.abs(witness @ witness.conj().T - np.eye(3))) <= 1e-10
        residual = matrix - witness @ matrix @ witness.conj().T
        assert np.max(np.abs(residual)) <= 1e-8

    def test_report_echoes_the_tolerance_constants_and_grid(self, tmp_path, capsys):
        a = write_state(tmp_path, "a.json", np.diag([0.75, 0.25]))
        code, out, _ = run(capsys, ["equiv", a, a, "--mode", "t1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["entropy_tol"] == ENTROPY_TOL
        assert payload["spectrum_tol"] == SPECTRUM_TOL
        nodes = [lam for lam, _ in payload["per_node_gaps"]]
        assert nodes == [0.9 * j / 63 for j in range(1, 64)]

    @pytest.mark.parametrize("mode", ["spectral", "t1", "t2"])
    def test_all_modes_agree_on_equivalent_pair(self, tmp_path, capsys, mode):
        a = write_state(tmp_path, "a.json", np.diag([0.75, 0.25]))
        b = write_state(tmp_path, "b.json", [[0.5, 0.25], [0.25, 0.5]])
        code, out, _ = run(capsys, ["equiv", a, b, "--mode", mode])
        assert code == 0
        assert json.loads(out)["verdict"] == "equivalent"

    @pytest.mark.parametrize("mode", ["spectral", "t1", "t2"])
    def test_all_modes_reject_distinct_pair(self, tmp_path, capsys, mode):
        a = write_state(tmp_path, "a.json", np.diag([1.0, 0.0]))
        b = write_state(tmp_path, "b.json", np.eye(2) / 2)
        code, out, _ = run(capsys, ["equiv", a, b, "--mode", mode])
        assert code == 3
        payload = json.loads(out)
        assert payload["verdict"] == "not_equivalent"
        assert payload["witness"] is None

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        a = write_state(tmp_path, "a.json", np.eye(2) / 2)
        b = write_state(tmp_path, "b.json", np.eye(3) / 3)
        code, _, err = run(capsys, ["equiv", a, b])
        assert code == 2
        assert "entrospec:" in err

    def test_wrong_node_count_exits_1(self, tmp_path, capsys):
        # t2 always tests the 2n nodes i/(2n): --nodes is not an option
        a = write_state(tmp_path, "a.json", np.eye(2) / 2)
        code, out, err = run(
            capsys, ["equiv", a, a, "--mode", "t2", "--nodes", "0.25", "0.5", "0.75"]
        )
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("flag", ["--a", "--points", "--entropy-tol", "--spectrum-tol"])
    def test_grid_flags_exit_1(self, tmp_path, capsys, flag):
        # t1's grid is fixed: the 63 weights 0.9 j / 63, j = 1..63, and
        # the verdict rule's tolerances are ENTROPY_TOL and SPECTRUM_TOL
        a = write_state(tmp_path, "a.json", np.eye(2) / 2)
        code, out, err = run(capsys, ["equiv", a, a, "--mode", "t1", flag, "8"])
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    def test_bad_mode_exits_1(self, tmp_path, capsys):
        a = write_state(tmp_path, "a.json", np.eye(2) / 2)
        code, _, _ = run(capsys, ["equiv", a, a, "--mode", "bogus"])
        assert code == 1

    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        capsys.readouterr()


class TestRecoverCommand:
    def test_analytic_two_level(self, tmp_path, capsys):
        state = write_state(tmp_path, "s.json", np.diag([0.75, 0.25]))
        code, out, _ = run(capsys, ["recover", state])
        assert code == 0
        payload = json.loads(out)
        assert payload["derivative"] == "analytic"
        assert payload["linf_error"] <= 1e-8
        assert payload["trimmed_degree"] == 0
        np.testing.assert_allclose(payload["recovered_spectrum"], [0.75, 0.25], atol=1e-8)

    def test_analytic_random_state(self, tmp_path, capsys, rng):
        state = write_state(tmp_path, "s.json", random_state(4, rng).matrix)
        code, out, _ = run(capsys, ["recover", state])
        assert code == 0
        payload = json.loads(out)
        assert payload["linf_error"] <= 1e-6
        assert payload["validation_residual"] <= 1e-8
        assert payload["sum_drift"] <= 1e-5

    def test_finite_difference_mode(self, tmp_path, capsys, rng):
        state = write_state(tmp_path, "s.json", random_state(3, rng).matrix)
        code, out, _ = run(capsys, ["recover", state, "--derivative", "fd"])
        assert code == 0
        payload = json.loads(out)
        assert payload["derivative"] == "fd"
        assert payload["linf_error"] <= 1e-4

    def test_unrecoverable_24_level_state_exits_4(self, tmp_path, capsys, rng):
        # at n = 24 the degree-24 fit is too ill-conditioned for the default
        # pipeline: the run must stop with a recovery error, not a junk
        # spectrum or a traceback
        state = write_state(tmp_path, "s.json", random_state(24, rng).matrix)
        code, out, err = run(capsys, ["recover", state])
        assert code == 4
        assert out == ""
        assert "entrospec:" in err
        assert "Traceback" not in err

    def test_bad_nodes_exit_1(self, tmp_path, capsys):
        # the fitting nodes are fixed: --nodes is not an option
        state = write_state(tmp_path, "s.json", np.diag([0.75, 0.25]))
        code, out, err = run(capsys, ["recover", state, "--nodes", "0.2", "0.2", "0.4"])
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err


class TestSelftestCommand:
    def test_failing_property_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr(
            selftest, "_PROPERTIES", (("always-fails", lambda rng: (False, 1.0, "fails")),)
        )
        code, out, err = run(capsys, ["selftest"])
        assert code == 5
        payload = json.loads(out)
        assert payload["all_passed"] is False
        assert [p["name"] for p in payload["properties"]] == ["always-fails"]
        assert "FAIL always-fails" in err

    def test_nan_tolerance_exits_1(self, capsys):
        # --entropy-tol is not a selftest option: every property runs at the
        # library defaults
        code, out, err = run(capsys, ["selftest", "--entropy-tol", "nan"])
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err


    def test_negative_seed_exits_1(self, capsys):
        code, out, err = run(capsys, ["selftest", "--seed", "-1"])
        assert code == 1
        assert out == ""
        assert "seed must be a non-negative int, got -1" in err
        assert "Traceback" not in err


class TestSelftestDefaultSeed:
    def test_default(self, capsys, monkeypatch):
        draws = []

        def records(rng):
            draws.append(rng.random())
            return True, 0.0, "records"

        monkeypatch.setattr(selftest, "_PROPERTIES", (("records", records),))
        code, out, _ = run(capsys, ["selftest"])
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["all_passed", "properties", "seed"]
        assert payload["seed"] == 42
        assert draws == [np.random.default_rng([42, 0]).random()]


class TestMatrixFiles:
    def test_roundtrip_is_exact(self, tmp_path, rng):
        matrix = random_state(4, rng).matrix.copy()
        matrix[0, 1] = complex(-0.0, 1e-300)
        matrix[1, 0] = complex(1 / 3, 1e16)
        path = tmp_path / "m.json"
        save_matrix(str(path), matrix)
        loaded = load_matrix(str(path))
        assert np.array_equal(loaded, matrix)
        assert np.array_equal(np.signbit(loaded.real), np.signbit(matrix.real))

    @pytest.mark.parametrize("entry", [np.nan, complex(0.0, np.inf)])
    def test_save_rejects_non_finite_without_writing(self, tmp_path, entry):
        # load_matrix rejects non-finite values, so save_matrix must not write them
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="non-finite"):
            save_matrix(str(path), np.array([[entry]]))
        assert not path.exists()

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_matrix_file("{not json")

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError):
            parse_matrix_file("[1, 2, 3]")

    def test_missing_field(self):
        with pytest.raises(ParseError, match="im"):
            parse_matrix_file('{"n": 1, "re": [[1.0]]}')

    @pytest.mark.parametrize("n_value", ["0", "-2", "true", "1.5", '"2"'])
    def test_bad_dimension_field(self, n_value):
        text = '{"n": %s, "re": [[1.0]], "im": [[0.0]]}' % n_value
        with pytest.raises(ParseError, match="positive integer"):
            parse_matrix_file(text)

    def test_ragged_rows(self):
        with pytest.raises(ParseError, match="row 1"):
            parse_matrix_file('{"n": 2, "re": [[1, 0], [0]], "im": [[0,0],[0,0]]}')

    def test_non_number_entry(self):
        with pytest.raises(ParseError, match="not a number"):
            parse_matrix_file('{"n": 1, "re": [["x"]], "im": [[0]]}')

    def test_bool_entry_rejected(self):
        with pytest.raises(ParseError, match="not a number"):
            parse_matrix_file('{"n": 1, "re": [[true]], "im": [[0]]}')

    @pytest.mark.parametrize(
        "content",
        [
            b'{"n": 1000000, "re": [], "im": []}',
            b'{"n": 1, "re": [[' + b"9" * 400 + b']], "im": [[0]]}',
            b'{"n": 1, "re": [[' + b"9" * 5000 + b']], "im": [[0]]}',
            b"[" * 100000,
            b'{"n": 1, "re": [[1.0]], "im": [[0]]}\xff',
        ],
        ids=["huge-n", "int-beyond-double", "int-beyond-digit-limit", "deep-nesting",
             "not-utf8"],
    )
    def test_hostile_file_is_a_parse_error(self, tmp_path, capsys, content):
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        with pytest.raises(ParseError):
            load_matrix(str(path))
        code, _, err = run(capsys, ["entropy", str(path)])
        assert code == 1
        assert "Traceback" not in err

    def test_non_finite_entry(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_matrix_file('{"n": 1, "re": [[Infinity]], "im": [[0]]}')


SRC = Path(__file__).resolve().parent.parent / "src"

# run the command's argv through main, then report the exit code and which
# entrospec modules got loaded
_LOADS_CHILD = """
import contextlib, io, json, sys
from entrospec.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("entrospec"))]))
"""


def _child_json(tmp_path, code, *argv):
    """The JSON that ``python -c code argv...`` prints, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


class TestCommandLoadsOnlyItsLayers:
    """A CLI child imports the layers its command runs, and no other."""

    @pytest.mark.parametrize(
        "argv, runs, never",
        [
            (["entropy", "a.json"], {"entropy"}, {"equivalence", "recovery", "selftest"}),
            (["curve", "a.json", "--out", "c.csv"], {"entropy"},
             {"equivalence", "recovery", "selftest"}),
            (["equiv", "a.json", "a.json"], {"equivalence"}, {"recovery", "selftest"}),
            (["recover", "a.json"], {"recovery"}, {"equivalence", "selftest"}),
        ],
        ids=["entropy", "curve", "equiv", "recover"],
    )
    def test_command_module_set(self, tmp_path, argv, runs, never):
        write_state(tmp_path, "a.json", np.diag([0.5, 0.3, 0.2]))
        code, modules = _child_json(tmp_path, _LOADS_CHILD, *argv)
        loaded = {m.removeprefix("entrospec.") for m in modules}
        assert code == 0
        assert runs <= loaded
        assert not never & loaded, modules

    def test_bare_package_import_loads_no_numpy_and_no_submodule(self, tmp_path):
        child = ("import json, sys, entrospec; "
                 "print(json.dumps(['numpy' in sys.modules, "
                 "sorted(m for m in sys.modules if m.startswith('entrospec'))]))")
        assert _child_json(tmp_path, child) == [False, ["entrospec"]]


def _child_env(**extra):
    """A child's environment: src/ on the path and stdout block-buffered.

    PYTHONUNBUFFERED is dropped unless given, as for any user who has not
    set it, so a child's output reaches a pipe only when it is flushed.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), **extra)
    return env


def _cli_child(argv, cwd, env=None, prefix=(), **kwargs):
    """``python -m entrospec.cli argv...`` as a process, stderr as bytes."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([*prefix, sys.executable, "-m", "entrospec.cli", *argv],
                          env=_child_env(**(env or {})), cwd=cwd, stderr=subprocess.PIPE,
                          **kwargs)


class TestProcessExit:
    """A CLI process ends without teardown and still reports as main() does."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["entropy", "a.json"], 0),
            (["curve", "a.json", "--out", "c.csv"], 0),
            (["equiv", "a.json", "conj.json"], 0),
            (["entropy", "bad.json"], 1),
            (["equiv", "a.json", "two.json"], 2),
            (["equiv", "a.json", "other.json"], 3),
            (["recover", "n24.json"], 4),
        ],
        ids=["entropy", "curve", "equiv", "malformed", "dimension", "distinct", "recover-n24"],
    )
    def test_child_matches_main(self, tmp_path, monkeypatch, capsys, argv, expected):
        rng = np.random.default_rng(0)
        a = random_state(4, rng).matrix
        u = random_unitary(4, rng)
        write_state(tmp_path, "a.json", a)
        write_state(tmp_path, "conj.json", u @ a @ u.conj().T)
        write_state(tmp_path, "other.json", random_state(4, rng).matrix)
        write_state(tmp_path, "two.json", np.eye(2) / 2)
        write_state(tmp_path, "n24.json", random_state(24, rng).matrix)
        (tmp_path / "bad.json").write_text('{"n": 2, "re": [[1, 0]', encoding="utf-8")
        monkeypatch.chdir(tmp_path)

        code, out, err = run(capsys, argv)
        csv = (tmp_path / "c.csv").read_bytes() if "curve" in argv else None
        proc = _cli_child(argv, tmp_path)
        assert code == expected
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (code, out.encode(), err)
        assert "Traceback" not in err
        if csv is not None:
            assert (tmp_path / "c.csv").read_bytes() == csv
            assert len(csv.splitlines()) == 65

    def test_closed_stdout_exits_0(self, tmp_path):
        path = write_state(tmp_path, "a.json", np.diag([0.5, 0.3, 0.2]))
        proc = _cli_child(["equiv", path, path], tmp_path,
                          prefix=["sh", "-c", 'exec "$@" >&-', "sh"])
        assert (proc.returncode, proc.stderr) == (0, b"")

    # main flushes its JSON as it prints it, so the failed write raises inside
    # main and is reported there, block-buffered or not
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["write-fails", "flush-fails"])
    def test_broken_pipe(self, tmp_path, unbuffered):
        path = write_state(tmp_path, "a.json", np.diag([0.5, 0.3, 0.2]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _cli_child(["equiv", path, path], tmp_path, stdout=write_end,
                              env={"PYTHONUNBUFFERED": "1"} if unbuffered else None)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"entrospec: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_disk(self, tmp_path):
        path = write_state(tmp_path, "a.json", np.diag([0.5, 0.3, 0.2]))
        with open("/dev/full", "wb") as full:
            proc = _cli_child(["entropy", path], tmp_path, stdout=full)
        assert (proc.returncode, proc.stderr) == (
            1, b"entrospec: [Errno 28] No space left on device\n")

    # with fd 2 closed, sys.stderr is None and print(file=None) writes to the
    # block-buffered stdout: the error line and selftest's status lines must
    # still reach it before the process ends
    def test_closed_stderr_loses_nothing(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"n": 2, "re": [[1, 0]', encoding="utf-8")
        closed = ["sh", "-c", 'exec "$@" 2>&-', "sh"]
        proc = _cli_child(["entropy", "bad.json"], tmp_path, prefix=closed)
        both_open = _cli_child(["entropy", "bad.json"], tmp_path)
        assert proc.returncode == both_open.returncode == 1
        assert proc.stdout == both_open.stderr
        assert proc.stdout.startswith(b"entrospec: not valid JSON: ")
        assert proc.stdout.count(b"\n") == 1

        argv = ["selftest", "--seed", "0"]
        proc = _cli_child(argv, tmp_path, prefix=closed)
        both_open = _cli_child(argv, tmp_path)
        assert proc.returncode == both_open.returncode == 0
        assert proc.stdout == both_open.stderr + both_open.stdout

    @pytest.mark.parametrize("raises", [False, True], ids=["command", "uncaught-exception"])
    def test_atexit_runs_only_after_an_uncaught_exception(self, tmp_path, raises):
        write_state(tmp_path, "a.json", np.diag([0.5, 0.3, 0.2]))
        child = """
import atexit, sys
from entrospec import cli
def raising(args):
    raise RuntimeError("not an entrospec error")
if sys.argv.pop(1) == "raise":
    cli._COMMANDS["entropy"] = raising
atexit.register(print, "atexit ran", file=sys.stderr)
cli.process_main()
"""
        proc = subprocess.run([sys.executable, "-c", child, "raise" if raises else "run",
                               "entropy", "a.json"],
                              env=_child_env(), cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == (1 if raises else 0)
        assert ("atexit ran" in proc.stderr) is raises
        assert ("RuntimeError: not an entrospec error" in proc.stderr) is raises


def test_selftest_child_leaves_no_temporary_files(tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = _cli_child(["selftest", "--seed", "0"], tmp_path, env={"TMPDIR": str(tmpdir)},
                      stdout=subprocess.DEVNULL)
    assert proc.returncode == 0
    assert list(tmpdir.iterdir()) == []
