import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entrospec import (
    EntropyOracle,
    QuantumState,
    decide_grid,
    oracle_from_spectrum,
    random_state,
    random_unitary,
    recover_spectrum,
    save_matrix,
    selftest,
)
from entrospec.cli import main
from entrospec.entropy import CURVE_GRID
from entrospec.equivalence import ENTROPY_TOL, SPECTRUM_TOL
from entrospec.errors import ParseError
from entrospec.matrixio import load_matrix, parse_matrix_file

from conftest import refuses, write_state

# a refusal that embeds the json decoder's own words, and the finiteness refusal
_NOT_JSON = re.compile(r"not valid JSON: .+")
_OUT_OF_RANGE = "field '{}', row 0, column 0: non-finite or out-of-range value"


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
        assert err == "entrospec: trace is (1.4+0j), differs from 1 by more than 1.0e-09\n"

    def test_missing_file_exits_1(self, tmp_path, capsys):
        path = str(tmp_path / "nope.json")
        code, _, err = run(capsys, ["entropy", path])
        assert code == 1
        assert re.fullmatch(rf"entrospec: cannot read {re.escape(path)}: \[Errno 2\] .+\n", err)


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

    def test_missing_out_flag_exits_1(self, tmp_path, capsys):
        state = write_state(tmp_path, "s.json", np.eye(2) / 2)
        code, out, err = run(capsys, ["curve", state])
        assert code == 1 and out == ""
        assert err == "entrospec: the following arguments are required: --out\n"


def test_curve_t1_and_recovery_read_one_grid(tmp_path, capsys):
    # the curve CSV's weights after row 0, the weights of t1's gaps and the
    # weights recovery queries are the same 63 floats, bit for bit
    matrix = np.diag([0.5, 0.3, 0.2])
    out_csv = str(tmp_path / "curve.csv")
    code, _, _ = run(capsys, ["curve", write_state(tmp_path, "s.json", matrix), "--out", out_csv])
    assert code == 0
    _, rows = read_csv(out_csv)
    curve = np.array([float(row[0]) for row in rows[1:]])

    state = QuantumState(matrix)
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

    def test_bad_mode_exits_1(self, tmp_path, capsys):
        a = write_state(tmp_path, "a.json", np.eye(2) / 2)
        code, out, err = run(capsys, ["equiv", a, a, "--mode", "bogus"])
        assert code == 1 and out == ""
        # argparse's own words, which Python versions quote differently
        assert re.fullmatch(r"entrospec: argument --mode: invalid choice: 'bogus' \(choose from "
                            r".+\)\n", err)

    def test_missing_subcommand_exits_1(self, capsys):
        code, out, err = run(capsys, [])
        assert code == 1 and out == ""
        assert err == "entrospec: the following arguments are required: command\n"


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

    def test_negative_seed_exits_1(self, capsys):
        code, out, err = run(capsys, ["selftest", "--seed", "-1"])
        assert code == 1
        assert out == ""
        assert err == "entrospec: seed must be a non-negative int, got -1\n"


# Options that were removed: t1's grid, curve's grid, recovery's and t2's
# nodes are fixed by their method, and the verdict rule's tolerances are
# ENTROPY_TOL and SPECTRUM_TOL. Each is an unrecognized argument at any value.
@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "a.json", "--a", "0.0", "--out", "c.csv"],
        ["curve", "a.json", "--a", "1.2", "--out", "c.csv"],
        ["curve", "a.json", "--points", "1", "--out", "c.csv"],
        ["equiv", "a.json", "a.json", "--mode", "t2", "--nodes", "0.25", "0.5", "0.75"],
        *(["equiv", "a.json", "a.json", "--mode", "t1", flag, "8"]
          for flag in ("--a", "--points", "--entropy-tol", "--spectrum-tol")),
        ["recover", "a.json", "--nodes", "0.2", "0.2", "0.4"],
        ["selftest", "--entropy-tol", "nan"],
    ],
    ids=["curve-a-0", "curve-a-1.2", "curve-points", "equiv-nodes", "t1-a", "t1-points",
         "t1-entropy-tol", "t1-spectrum-tol", "recover-nodes", "selftest-entropy-tol"],
)
def test_retired_option_exits_1(tmp_path, monkeypatch, capsys, argv):
    write_state(tmp_path, "a.json", np.diag([0.75, 0.25]))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


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
        with refuses(ValueError, "cannot save a matrix with non-finite entries"):
            save_matrix(str(path), np.array([[entry]]))
        assert not path.exists()

    def test_invalid_json(self):
        with refuses(ParseError, _NOT_JSON):
            parse_matrix_file("{not json")

    def test_top_level_must_be_object(self):
        with refuses(ParseError, "top level must be a JSON object with keys n, re, im"):
            parse_matrix_file("[1, 2, 3]")

    def test_missing_field(self):
        with refuses(ParseError, "missing required field(s): im"):
            parse_matrix_file('{"n": 1, "re": [[1.0]]}')

    @pytest.mark.parametrize("n_value", ["0", "-2", "true", "1.5", '"2"'])
    def test_bad_dimension_field(self, n_value):
        text = '{"n": %s, "re": [[1.0]], "im": [[0.0]]}' % n_value
        got = repr(json.loads(n_value))
        with refuses(ParseError, f"field 'n' must be a positive integer, got {got}"):
            parse_matrix_file(text)

    def test_ragged_rows(self):
        with refuses(ParseError, "field 're', row 1: expected 2 entries, got 1"):
            parse_matrix_file('{"n": 2, "re": [[1, 0], [0]], "im": [[0,0],[0,0]]}')

    def test_non_number_entry(self):
        with refuses(ParseError, "field 're', row 0, column 0: not a number: 'x'"):
            parse_matrix_file('{"n": 1, "re": [["x"]], "im": [[0]]}')

    def test_bool_entry_rejected(self):
        with refuses(ParseError, "field 're', row 0, column 0: not a number: True"):
            parse_matrix_file('{"n": 1, "re": [[true]], "im": [[0]]}')

    @pytest.mark.parametrize(
        "content, text",
        [
            (b'{"n": 1000000, "re": [], "im": []}', "field 're' must be a list of 1000000 rows"),
            (b'{"n": 1, "re": [[' + b"9" * 400 + b']], "im": [[0]]}', _OUT_OF_RANGE.format("re")),
            (b'{"n": 1, "re": [[' + b"9" * 5000 + b']], "im": [[0]]}', _NOT_JSON),
            (b"[" * 100000, _NOT_JSON),
            # the codec's words, after the path
            (b'{"n": 1, "re": [[1.0]], "im": [[0]]}\xff',
             re.compile(r"cannot read .+/hostile\.json: 'utf-8' codec can't decode .+")),
            (b'{"n": 2, "re": [1, [0, 0]], "im": [[0, 0], [0, 0]]}',
             "field 're', row 0: expected 2 entries, got int"),
            (b'{"n": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]}',
             "field 're' must be a list of 2 rows"),
            (b'{"n": 1, "re": [[1.0]], "im": [[NaN]]}', _OUT_OF_RANGE.format("im")),
            (b'{"n": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0]]}',
             "field 'im' must be a list of 2 rows"),
            (b'{"n": 1, "re": [[1.0]], "im": [[null]]}',
             "field 'im', row 0, column 0: not a number: None"),
            (b'{"n": 1}', "missing required field(s): re, im"),
        ],
        ids=["huge-n", "int-beyond-double", "int-beyond-digit-limit", "deep-nesting",
             "not-utf8", "row-not-a-list", "too-few-rows", "non-finite-im", "im-too-few-rows",
             "null-im-entry", "re-and-im-missing"],
    )
    def test_hostile_file_is_a_parse_error(self, tmp_path, capsys, content, text):
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        with refuses(ParseError, text) as info:
            load_matrix(str(path))
        code, out, err = run(capsys, ["entropy", str(path)])
        assert (code, out, err) == (1, "", f"entrospec: {info.value}\n")

    def test_non_finite_entry(self):
        with refuses(ParseError, _OUT_OF_RANGE.format("re")):
            parse_matrix_file('{"n": 1, "re": [[Infinity]], "im": [[0]]}')


SRC = Path(__file__).resolve().parent.parent / "src"


def _child(args, cwd, env=None, prefix=(), **kwargs):
    """``python args...`` in a fresh interpreter, stdout and stderr piped.

    src/ is on the path. PYTHONUNBUFFERED is dropped unless ``env`` sets it,
    as for any user who has not set it, so a child's output reaches a pipe
    only when it is flushed.
    """
    child_env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    child_env.update(PYTHONPATH=str(SRC), **(env or {}))
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([*prefix, sys.executable, *args], env=child_env, cwd=cwd, **kwargs)


class TestCommandLoadsOnlyItsLayers:
    """A bare import loads no layer; each command's layers are pinned by the
    process table's children (``_LAYERS``)."""

    def test_bare_package_import_loads_no_numpy_and_no_submodule(self, tmp_path):
        child = ("import json, sys, entrospec; "
                 "print(json.dumps(['numpy' in sys.modules, "
                 "sorted(m for m in sys.modules if m.startswith('entrospec'))]))")
        proc = _child(["-c", child], tmp_path, check=True)
        assert json.loads(proc.stdout) == [False, ["entrospec"]]


# `python -m entrospec.cli`, run as -m runs it, with an atexit handler that
# prints only if the process ends through the interpreter. os._exit first
# lists the entrospec modules loaded, as JSON in modules.json next to TMPDIR.
# With RAISE set, the entropy command raises an error main does not catch,
# printed as one line.
_ENTRY = """
import atexit, json, os, runpy, sys
def _exit(code, exit=os._exit):
    with open(os.path.join(os.environ["TMPDIR"], os.pardir, "modules.json"), "w") as f:
        json.dump(sorted(m for m in sys.modules if m.startswith("entrospec")), f)
    exit(code)
os._exit = _exit
if os.environ.get("RAISE"):
    import entrospec.entropy
    def entropy_of_spectrum(spectrum):
        raise RuntimeError("not an entrospec error")
    entrospec.entropy.entropy_of_spectrum = entropy_of_spectrum
    sys.excepthook = lambda kind, value, tb: print(f"{kind.__name__}: {value}", file=sys.stderr)
atexit.register(print, "atexit ran", file=sys.stderr)
runpy.run_module("entrospec.cli", run_name="__main__", alter_sys=True)
"""


def _raising(spectrum):
    raise RuntimeError("not an entrospec error")


# name: argv, main's exit code, and how main's stdout (else its stderr) starts
_ARGV = {
    "entropy": (["entropy", "a.json"], 0, '{\n  "n": 4,'),
    "curve": (["curve", "a.json", "--out", "c.csv"], 0, '{\n  "n": 4,'),
    "equiv": (["equiv", "a.json", "conj.json"], 0, '{\n  "n": 4,\n  "verdict": "equivalent"'),
    "malformed": (["entropy", "bad.json"], 1, "entrospec: not valid JSON: "),
    "dimension": (["equiv", "a.json", "two.json"], 2, "entrospec: states live in different"),
    "dimension-16": (["equiv", "two.json", "n16.json"], 2, "entrospec: states live in different"),
    "distinct": (["equiv", "a.json", "other.json"], 3, '{\n  "n": 4,\n  "verdict": "not_equiv'),
    "recover-n24": (["recover", "n24.json"], 4, "entrospec: "),
    "help": (["--help"], 0, "usage: entrospec [-h]"),
    "equiv-help": (["equiv", "-h"], 0, "usage: entrospec equiv [-h]"),
    "selftest": (["selftest", "--seed", "0"], 0, '{\n  "seed": 0,\n  "all_passed": true,'),
    "uncaught-exception": (["entropy", "a.json"], 1, "RuntimeError: not an entrospec error"),
}

# name: the layers its child loads, and the layers it never loads
_LAYERS = {
    "entropy": ({"entropy"}, {"equivalence", "recovery", "selftest"}),
    "curve": ({"entropy"}, {"equivalence", "recovery", "selftest"}),
    "equiv": ({"equivalence"}, {"recovery", "selftest"}),
    "recover-n24": ({"recovery"}, {"equivalence", "selftest"}),
}

# a stream setup: the shell's redirection of the child's stdout or stderr (the
# test makes the broken pipe), and the error of a failed write to stdout
_SETUPS = {"default": ("", None), "stdout-closed": (">&-", None), "stderr-closed": ("2>&-", None),
           "stderr-read-only": ("2</dev/null", None), "broken-pipe": ("", "[Errno 32] Broken pipe"),
           "full": (">/dev/full", "[Errno 28] No space left on device")}


def _reported(setup, code, out, err):
    """A child's exit code, stdout and stderr in ``setup``, from main's in
    process, by README's rule for that setup ("" for a stream not read)."""
    failed = _SETUPS[setup][1]
    if failed and out:
        # the report or help raises inside main, which exits 1 with the error
        return 1, "", f"{err}entrospec: {failed}\n"
    # stderr closed: the error line goes to stdout, selftest skips its status lines
    return {"default": (code, out, err), "stderr-closed": (code, out or err, ""),
            "stderr-read-only": (code, out, "")}.get(setup, (code, "", err))


def _row(name, setup="default", **env):
    """A table row: ``name``'s argv in ``setup``, ``env`` added to the child's."""
    suffix = "" if setup == "default" else f"-{setup}"
    suffix += "-unbuffered" if env.get("PYTHONUNBUFFERED") else ""
    return pytest.param(name, setup, env, id=name + suffix, marks=pytest.mark.skipif(
        setup == "full" and not os.path.exists("/dev/full"), reason="needs /dev/full"))


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """The table's state files, written once: its children and main read them."""
    path = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    a, u = random_state(4, rng).matrix, random_unitary(4, rng)
    states = {"a": a, "conj": u @ a @ u.conj().T, "other": random_state(4, rng).matrix,
              "two": np.eye(2) / 2, "n24": random_state(24, rng).matrix,
              "n16": random_state(16, rng).matrix}
    for stem, matrix in states.items():
        write_state(path, f"{stem}.json", matrix)
    (path / "bad.json").write_text('{"n": 2, "re": [[1, 0]', encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def main_runs():
    """name: main's exit code, stdout, stderr and CSV bytes in process, run
    once for all of the name's rows."""
    return {}


def _main_in_process(monkeypatch, capsys, name, env):
    """main on ``name``'s argv in the current directory, checked against the
    table's code and start."""
    if "RAISE" in env:
        monkeypatch.setattr("entrospec.entropy.entropy_of_spectrum", _raising)
    argv, expected, starts = _ARGV[name]
    try:
        code, out, err = run(capsys, argv)
    except RuntimeError as exc:
        # main does not catch it, so the child ends through the
        # interpreter: exit 1, the error, then the atexit handlers
        code, out, err = 1, capsys.readouterr().out, f"RuntimeError: {exc}\natexit ran\n"
    else:
        # main prints its report or else its one error line, and no traceback
        assert "Traceback" not in err and (out or err.count("\n") == 1)
        assert (out == "") == err.startswith("entrospec: ")
    assert code == expected and (out or err).startswith(starts)
    csv = Path("c.csv").read_bytes() if "curve" in argv else None
    return code, out, err, csv


class TestProcessExit:
    """A CLI child reports what main() does in process, by one rule for each
    stream setup, ends without teardown and leaves no temporary files."""

    @pytest.mark.parametrize(
        "name, setup, env",
        [
            *map(_row, ["entropy", "curve", "equiv", "malformed", "dimension", "distinct",
                        "recover-n24", "help", "equiv-help"]),
            _row("uncaught-exception", RAISE="1"),
            _row("equiv", "stdout-closed"),
            _row("equiv", "broken-pipe", PYTHONUNBUFFERED="1"),
            _row("equiv", "broken-pipe"),
            _row("entropy", "full"),
            *(_row(name, "full", **env) for name in ("help", "equiv-help")
              for env in ({}, {"PYTHONUNBUFFERED": "1"})),
            _row("malformed", "stderr-closed"),
            _row("selftest", "stderr-closed"),
            _row("selftest", "stderr-read-only"),
            _row("dimension-16", "stderr-read-only"),
            _row("recover-n24", "stderr-read-only"),
        ],
    )
    def test_child_matches_main(self, tmp_path, monkeypatch, capsys, cli_dir, main_runs,
                                name, setup, env):
        monkeypatch.chdir(cli_dir)
        # the help's line width, for this process and the child alike
        monkeypatch.setenv("COLUMNS", "80")
        if name not in main_runs:
            main_runs[name] = _main_in_process(monkeypatch, capsys, name, env)
        argv = _ARGV[name][0]
        code, out, err, csv = main_runs[name]
        if csv is not None:
            (cli_dir / "c.csv").unlink()

        (tmp_path / "tmp").mkdir()
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "wb") as broken_pipe:
            proc = _child(["-c", _ENTRY, *argv], cli_dir,
                          env={"TMPDIR": str(tmp_path / "tmp"), **env},
                          prefix=["sh", "-c", f'exec "$@" {_SETUPS[setup][0]}', "sh"],
                          stdout=broken_pipe if setup == "broken-pipe" else subprocess.PIPE)
        child = (proc.returncode, (proc.stdout or b"").decode(), proc.stderr.decode())
        assert child == _reported(setup, code, out, err)
        assert list((tmp_path / "tmp").iterdir()) == []
        if csv is not None:
            assert (cli_dir / "c.csv").read_bytes() == csv
            assert len(csv.splitlines()) == 65
        if name in _LAYERS:
            runs, never = _LAYERS[name]
            modules = json.loads((tmp_path / "modules.json").read_text(encoding="utf-8"))
            loaded = {m.removeprefix("entrospec.") for m in modules}
            assert runs <= loaded
            assert not never & loaded, modules

    @pytest.mark.parametrize(
        "argv, code, stream, starts",
        [
            (["entropy", "a.json"], 0, "stdout", b'{\n  "n": 3,'),
            (["entropy", "bad.json"], 1, "stderr", b"entrospec: not valid JSON: "),
        ],
        ids=["command", "entrospec-error"],
    )
    def test_atexit_runs_only_after_an_uncaught_exception(self, tmp_path, argv, code, stream,
                                                          starts):
        # process_main called as the console script calls it; the table's
        # uncaught-exception row is the case where the handlers do run
        write_state(tmp_path, "a.json", np.diag([0.5, 0.3, 0.2]))
        (tmp_path / "bad.json").write_text('{"n": 2, "re": [[1, 0]', encoding="utf-8")
        child = ('import atexit, sys; from entrospec import cli; '
                 'atexit.register(print, "atexit ran", file=sys.stderr); cli.process_main()')
        proc = _child(["-c", child, *argv], tmp_path)
        assert proc.returncode == code
        assert getattr(proc, stream).startswith(starts)
        assert b"atexit ran" not in proc.stderr
