"""Seeded inputs, op execution and ground-truth checks for the three workloads.

Every input is generated from the seed before timing starts, with numpy
only; the library under test sees the generated matrices, spectra and
files and nothing else. Expected answers come from how each input was
built (equivalent or not) or from numpy at generation time (reference
spectra), never from the library.

A pool of ops is cut into blocks. The timed loop runs whole blocks, so a
block is the unit that keeps the op mix of a partial pass close to the
mix of the pool: in-process blocks hold one op per dimension.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from entrospec import cli, equivalence, matrixio, recovery, states
from entrospec.errors import EntrospecError

OK, RAISED, WRONG = "ok", "raised", "wrong"

WITNESS_TOL = 1e-8
ANALYTIC_TOL = 1e-6
FD_TOL = 1e-4
CLI_SPECTRUM_TOL = 1e-9
CHILD_TIMEOUT_S = 60.0
# Largest n at which every full-rank spectrum is recovered within tolerance,
# less one dimension of margin (300 draws per n: analytic passes to 11, fd to 7).
RECOVERY_SUPPORTED_N = {"analytic": 10, "fd": 6}
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Outcome:
    """Checked result of one op.

    ``error`` is the exception type name (or ``exit <code>`` for a child
    process) of a raised op, or a short reason for a wrong one. ``err``
    is the recovery L-inf error (1.0 when no spectrum came back), and
    ``verdict`` the decider's verdict when one was returned.
    """

    status: str
    error: str | None = None
    err: float | None = None
    verdict: str | None = None
    crashed: bool = False


@dataclass
class Pool:
    """A workload's generated ops, their blocks and the inputs' digest."""

    ops: list
    blocks: list[list[int]]
    digest: str
    files: dict[str, np.ndarray] = field(default_factory=dict)


def _apportion(count: int, shares: dict[str, float]) -> list[str]:
    """Exactly ``count`` labels in the given shares (largest remainder)."""
    raw = {k: count * s for k, s in shares.items()}
    counts = {k: int(v) for k, v in raw.items()}
    by_remainder = sorted(shares, key=lambda k: raw[k] - counts[k], reverse=True)
    for k in by_remainder[: count - sum(counts.values())]:
        counts[k] += 1
    return [k for k in shares for _ in range(counts[k])]


def _ginibre(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return 0.5 * (m + m.conj().T)


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _conjugate(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    c = u @ m @ u.conj().T
    return 0.5 * (c + c.conj().T)


def _spectrum(m: np.ndarray, rank: int | None = None) -> np.ndarray:
    """Descending, clipped, unit-sum eigenvalues; exact zeros past ``rank``."""
    values = np.clip(np.sort(np.linalg.eigvalsh(m))[::-1], 0.0, None)
    if rank is not None:
        values[rank:] = 0.0
    return values / values.sum()


def _count_labels(labels: list[str]) -> list[tuple[str, int]]:
    return [(k, labels.count(k)) for k in dict.fromkeys(labels)]


def _low_rank(rng: np.random.Generator, n: int) -> int:
    return int(rng.integers(1, min(3, n - 1) + 1))


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _check_call(fn) -> tuple[float, object, BaseException | None]:
    """Time ``fn()``; return its latency, result and the exception it raised."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # classified by the caller, never swallowed
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


def _raised(exc: BaseException) -> Outcome:
    return Outcome(RAISED, type(exc).__name__, crashed=not isinstance(exc, EntrospecError))


# --------------------------------------------------------------------------
# equiv-stream


EQUIV_DIMS = tuple(range(2, 17))
EQUIV_KINDS = {"conjugate": 0.45, "independent": 0.45, "low-rank": 0.05,
               "near-degenerate": 0.05}
EQUIV_MODES = {"t2": 0.6, "t1": 0.2, "spectral": 0.2}
DECIDERS = {"t2": "decide_nodes", "t1": "decide_grid", "spectral": "decide_spectral"}


@dataclass(frozen=True)
class EquivOp:
    n: int
    kind: str
    mode: str
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    expected: str


class EquivStream:
    """validate_state on both states, then one decider, on a seeded pair."""

    name = "equiv-stream"
    default_blocks = 6
    # Ops take 20-150 ms and each of the 90 inputs runs 10 times or more in
    # 50 s; its fastest run is its cost outside the host's slow spells.
    input_latency = "min"
    tail_percentile = 90.0

    def build(self, seed: int, blocks: int | None = None) -> Pool:
        blocks = blocks or self.default_blocks
        rng = np.random.default_rng(seed)
        count = blocks * len(EQUIV_DIMS)
        labels = [
            (kind, mode)
            for kind, c in _count_labels(_apportion(count, EQUIV_KINDS))
            for mode in _apportion(c, EQUIV_MODES)
        ]
        # Dealing the grouped labels round-robin over the dimensions gives
        # every n nearly the same mix, so the seed moves costs very little.
        order = [int(n) for n in rng.permutation(EQUIV_DIMS)]
        per_dim = {n: [] for n in order}
        for j, (kind, mode) in enumerate(labels):
            n = order[j % len(order)]
            per_dim[n].append(self._pair(rng, n, kind, mode))
        for n in order:
            per_dim[n] = [per_dim[n][i] for i in rng.permutation(blocks)]
        ops = [per_dim[int(n)][b] for b in range(blocks) for n in rng.permutation(EQUIV_DIMS)]
        size = len(EQUIV_DIMS)
        return Pool(
            ops=ops,
            blocks=[list(range(b * size, (b + 1) * size)) for b in range(blocks)],
            digest=_digest(p for op in ops for p in (op.n, op.kind, op.mode, op.a, op.b)),
        )

    @staticmethod
    def _pair(rng, n: int, kind: str, mode: str) -> EquivOp:
        if kind in ("conjugate", "low-rank"):
            rank = n if kind == "conjugate" else _low_rank(rng, n)
            b = _ginibre(rng, n, rank)
            a = _conjugate(_haar(rng, n), b)
            expected = equivalence.EQUIVALENT
        elif kind == "independent":
            a, b = _ginibre(rng, n, n), _ginibre(rng, n, n)
            expected = equivalence.NOT_EQUIVALENT
        else:
            # Two equal top eigenvalues in A; the same pair split by +-delta in B.
            s = _spectrum(_ginibre(rng, n, n))
            delta = 10.0 ** rng.uniform(-7.0, -5.0)
            mean = 0.5 * (s[0] + s[1])
            sa, sb = s.copy(), s.copy()
            sa[:2] = mean
            sb[:2] = (mean + delta, mean - delta)
            a = _conjugate(_haar(rng, n), np.diag(sa).astype(np.complex128))
            b = _conjugate(_haar(rng, n), np.diag(sb).astype(np.complex128))
            expected = equivalence.NOT_EQUIVALENT
        return EquivOp(n, kind, mode, a, b, expected)

    def setup(self, pool: Pool, workdir: Path) -> None:
        pass

    def warm_up(self, pool: Pool) -> None:
        for op in pool.ops:
            if op.n <= 3:
                self.run(op)

    def run(self, op: EquivOp) -> tuple[float, Outcome]:
        decide = getattr(equivalence, DECIDERS[op.mode])

        def call():
            return decide(states.validate_state(op.a), states.validate_state(op.b))

        latency, report, exc = _check_call(call)
        if exc is not None:
            return latency, _raised(exc)
        if report.verdict != op.expected:
            return latency, Outcome(WRONG, "verdict", verdict=report.verdict)
        u = report.witness
        if report.equivalent and (
            u is None or not np.max(np.abs(op.a - u @ op.b @ u.conj().T)) <= WITNESS_TOL
        ):
            return latency, Outcome(WRONG, "witness", verdict=report.verdict)
        return latency, Outcome(OK, verdict=report.verdict)

    @staticmethod
    def known_defect(op: EquivOp, outcome: Outcome) -> bool:
        """t1 and t2 raise WitnessInconsistency on near-degenerate pairs."""
        return op.kind == "near-degenerate" and outcome.error == "WitnessInconsistency"

    @staticmethod
    def label(op: EquivOp) -> str:
        return op.mode


# --------------------------------------------------------------------------
# recover-oracle


RECOVER_DIMS = tuple(range(2, 25))
RECOVER_KINDS = {"ginibre": 0.9, "low-rank": 0.1}
RECOVER_ORACLES = {"analytic": 0.75, "fd": 0.25}


@dataclass(frozen=True)
class RecoverOp:
    n: int
    kind: str
    oracle: str
    spectrum: states.Spectrum = field(repr=False)
    reference: np.ndarray = field(repr=False)


class RecoverOracle:
    """recover_spectrum on an oracle built from a generated spectrum."""

    name = "recover-oracle"
    default_blocks = 160
    # Ops take 1-3 ms and each input runs about 10 times in 50 s. A stall
    # outlasts one op, and the fastest of such short runs is itself noisy.
    input_latency = "median"
    tail_percentile = 99.0

    def build(self, seed: int, blocks: int | None = None) -> Pool:
        blocks = blocks or self.default_blocks
        rng = np.random.default_rng(seed)
        per_dim = {}
        for n in RECOVER_DIMS:
            labels = [
                (kind, oracle)
                for kind, c in _count_labels(_apportion(blocks, RECOVER_KINDS))
                for oracle in _apportion(c, RECOVER_ORACLES)
            ]
            per_dim[n] = [self._op(rng, n, *labels[i]) for i in rng.permutation(blocks)]
        ops = [per_dim[int(n)][b] for b in range(blocks) for n in rng.permutation(RECOVER_DIMS)]
        size = len(RECOVER_DIMS)
        return Pool(
            ops=ops,
            blocks=[list(range(b * size, (b + 1) * size)) for b in range(blocks)],
            digest=_digest(p for op in ops for p in (op.n, op.kind, op.oracle, op.reference)),
        )

    @staticmethod
    def _op(rng, n: int, kind: str, oracle: str) -> RecoverOp:
        if kind == "ginibre":
            values = _spectrum(_ginibre(rng, n, n))
        else:
            rank = _low_rank(rng, n)
            values = _spectrum(_ginibre(rng, n, rank), rank)
        spectrum = states.Spectrum(values=tuple(float(x) for x in values))
        return RecoverOp(n, kind, oracle, spectrum, spectrum.as_array())

    def setup(self, pool: Pool, workdir: Path) -> None:
        pass

    def warm_up(self, pool: Pool) -> None:
        for i in pool.blocks[0]:
            self.run(pool.ops[i])

    def run(self, op: RecoverOp) -> tuple[float, Outcome]:
        def call():
            oracle = recovery.oracle_from_spectrum(op.spectrum, op.oracle == "analytic")
            return recovery.recover_spectrum(oracle)

        latency, result, exc = _check_call(call)
        if exc is not None:
            outcome = _raised(exc)
            return latency, Outcome(outcome.status, outcome.error, err=1.0,
                                    crashed=outcome.crashed)
        err = float(np.max(np.abs(np.asarray(result.values) - op.reference)))
        tol = ANALYTIC_TOL if op.oracle == "analytic" else FD_TOL
        if not err <= tol:
            return latency, Outcome(WRONG, "linf", err=err)
        return latency, Outcome(OK, err=err)

    @staticmethod
    def known_defect(op: RecoverOp, outcome: Outcome) -> bool:
        """Recovery conditioning collapses with n, sooner for repeated roots.

        Low-rank spectra (a root of multiplicity n - rank at weight 1) are
        recovered only at n = 2.
        """
        if op.kind == "low-rank":
            return op.n >= 3
        return op.n > RECOVERY_SUPPORTED_N[op.oracle]

    @staticmethod
    def label(op: RecoverOp) -> str:
        return "recover"


def max_ok_n(records) -> int:
    """Largest n such that every analytic-oracle op at dimension <= n passed."""
    failed = [op.n for op, _, out in records
              if getattr(op, "oracle", None) == "analytic" and out.status != OK]
    dims = [op.n for op, _, _ in records if getattr(op, "oracle", None) == "analytic"]
    if not dims:
        return 0
    return min(failed) - 1 if failed else max(dims)


# --------------------------------------------------------------------------
# cli-oneshot


CLI_DIMS = (2, 4, 8, 16)
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_DIMENSION, cli.EXIT_NOT_EQUIVALENT,
              cli.EXIT_RECOVERY, cli.EXIT_SELFTEST}
MALFORMED_TEXT = '{"n": 2, "re": [[0.5, 0.0], [0.0'


@dataclass(frozen=True)
class CliOp:
    command: str
    n: int
    args: tuple[str, ...]
    expected_exit: int
    check: str


class CliOneshot:
    """One ``python -m entrospec.cli`` child process per op, one at a time.

    The pool is one pass of 23 calls: entropy, equiv on an equivalent and
    on a distinct pair, recover and curve for each n in CLI_DIMS, plus a
    malformed file, a non-Hermitian file and a dimension mismatch. Each
    call is a block of its own, so a run ends within one call of
    ``--seconds``; every input's latency is the median of its runs, so a
    partial last pass does not tilt the mix.
    """

    name = "cli-oneshot"
    input_latency = "median"
    tail_percentile = 90.0

    def build(self, seed: int, blocks: int | None = None) -> Pool:
        rng = np.random.default_rng(seed)
        files: dict[str, np.ndarray] = {}
        ops = []
        for n in CLI_DIMS:
            base = _ginibre(rng, n, n)
            files[f"s{n}"] = base
            files[f"s{n}-conj"] = _conjugate(_haar(rng, n), base)
            files[f"s{n}-other"] = _ginibre(rng, n, n)
            ops += [
                CliOp("entropy", n, ("entropy", f"file:s{n}"), cli.EXIT_OK, "entropy"),
                CliOp("equiv", n, ("equiv", f"file:s{n}", f"file:s{n}-conj"),
                      cli.EXIT_OK, "equivalent"),
                CliOp("equiv", n, ("equiv", f"file:s{n}", f"file:s{n}-other"),
                      cli.EXIT_NOT_EQUIVALENT, "not_equivalent"),
                CliOp("recover", n, ("recover", f"file:s{n}"), cli.EXIT_OK, "recover"),
                CliOp("curve", n, ("curve", f"file:s{n}", "--out", f"out:curve{n}.csv"),
                      cli.EXIT_OK, "curve"),
            ]
        files["nonherm"] = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=np.complex128)
        ops += [
            CliOp("entropy", 2, ("entropy", "file:malformed"), cli.EXIT_INPUT, "error"),
            CliOp("entropy", 2, ("entropy", "file:nonherm"), cli.EXIT_INPUT, "error"),
            CliOp("equiv", 2, ("equiv", "file:s2", "file:s4"), cli.EXIT_DIMENSION, "error"),
        ]
        ops = [ops[i] for i in rng.permutation(len(ops))]
        return Pool(
            ops=ops,
            blocks=[[i] for i in range(len(ops))],
            digest=_digest([repr(op) for op in ops]
                           + [p for k in sorted(files) for p in (k, files[k])]),
            files=files,
        )

    def setup(self, pool: Pool, workdir: Path) -> None:
        self.workdir = workdir
        self.pool_files = pool.files
        for name, matrix in pool.files.items():
            matrixio.save_matrix(str(workdir / f"{name}.json"), matrix)
        (workdir / "malformed.json").write_text(MALFORMED_TEXT, encoding="utf-8")
        self.env = child_env()

    def argv(self, op: CliOp) -> list[str]:
        out = []
        for arg in op.args:
            kind, _, name = arg.partition(":")
            if kind == "file":
                out.append(str(self.workdir / f"{name}.json"))
            elif kind == "out":
                out.append(str(self.workdir / name))
            else:
                out.append(arg)
        return out

    def warm_up(self, pool: Pool) -> None:
        self.run(next(op for op in pool.ops if op.check == "entropy"))

    def run(self, op: CliOp) -> tuple[float, Outcome]:
        cmd = [sys.executable, "-m", "entrospec.cli", *self.argv(op)]
        latency, proc = run_child(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT)
        if "Traceback (most recent call last)" in proc.stderr:
            return latency, Outcome(RAISED, f"exit {proc.returncode}", crashed=True)
        return latency, self.check(op, proc.returncode, proc.stdout)

    def run_in_process(self, op: CliOp) -> tuple[float, Outcome]:
        """``cli.main(argv)`` in this process, stdout and stderr captured."""
        out = io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(self.argv(op))

        latency, code, exc = _check_call(call)
        if exc is not None:
            return latency, _raised(exc)
        return latency, self.check(op, code, out.getvalue())

    def check(self, op: CliOp, code: int, stdout: str) -> Outcome:
        """Exit code against the CLI's table, then the JSON answer."""
        if code != op.expected_exit:
            if op.expected_exit in (cli.EXIT_OK, cli.EXIT_NOT_EQUIVALENT) and code in (
                cli.EXIT_INPUT, cli.EXIT_DIMENSION, cli.EXIT_RECOVERY
            ):
                return Outcome(RAISED, f"exit {code}",
                               err=1.0 if op.check == "recover" else None)
            return Outcome(WRONG, f"exit {code}", crashed=code not in EXIT_CODES)
        if op.check == "error":
            return Outcome(OK) if stdout == "" else Outcome(WRONG, "stdout")
        try:
            return self._check_doc(op, json.loads(stdout))
        except (ValueError, KeyError, TypeError):
            return Outcome(WRONG, "output", crashed=True)

    def _check_doc(self, op: CliOp, doc: dict) -> Outcome:
        a = self.pool_files[f"s{op.n}"]
        truth = _spectrum(a)
        if op.check == "entropy":
            pos = truth[truth > 0]
            good = (_close(doc["spectrum"], truth, CLI_SPECTRUM_TOL)
                    and abs(doc["entropy_bits"] - float(-np.sum(pos * np.log2(pos))))
                    <= CLI_SPECTRUM_TOL)
            return Outcome(OK) if good else Outcome(WRONG, "entropy")
        if op.check in ("equivalent", "not_equivalent"):
            if doc["verdict"] != op.check:
                return Outcome(WRONG, "verdict", verdict=doc["verdict"])
            if op.check == "equivalent":
                u = np.asarray(doc["witness"]["re"]) + 1j * np.asarray(doc["witness"]["im"])
                b = self.pool_files[f"s{op.n}-conj"]
                if not np.max(np.abs(a - u @ b @ u.conj().T)) <= WITNESS_TOL:
                    return Outcome(WRONG, "witness", verdict=doc["verdict"])
            return Outcome(OK, verdict=doc["verdict"])
        if op.check == "recover":
            err = float(np.max(np.abs(np.asarray(doc["recovered_spectrum"]) - truth)))
            return Outcome(OK, err=err) if err <= ANALYTIC_TOL else Outcome(WRONG, "linf", err=err)
        return self._check_curve(op, doc, truth)

    def _check_curve(self, op: CliOp, doc: dict, truth: np.ndarray) -> Outcome:
        path = Path(self.argv(op)[-1])
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        lam = np.array([float(r.split(",")[0]) for r in rows])
        got = np.array([float(r.split(",")[1]) for r in rows])
        w = lam[:, None] * (truth - 1.0 / op.n)[None, :] + 1.0 / op.n
        with np.errstate(divide="ignore", invalid="ignore"):
            want = -np.sum(np.where(w > 0, w * np.log2(w), 0.0), axis=1)
        good = (doc["out"] == str(path) and len(rows) == 64
                and np.allclose(lam, 0.9 * np.arange(64) / 63, rtol=0, atol=1e-15)
                and np.max(np.abs(got - want)) <= CLI_SPECTRUM_TOL)
        return Outcome(OK) if good else Outcome(WRONG, "curve")

    @staticmethod
    def known_defect(op: CliOp, outcome: Outcome) -> bool:
        """``recover`` (analytic oracle) past the supported dimension."""
        return op.check == "recover" and op.n > RECOVERY_SUPPORTED_N["analytic"]

    @staticmethod
    def label(op: CliOp) -> str:
        return op.command


def _close(values, truth: np.ndarray, tol: float) -> bool:
    values = np.asarray(values, dtype=np.float64)
    return values.shape == truth.shape and float(np.max(np.abs(values - truth))) <= tol


def run_child(cmd: list[str], capture_output: bool = False,
              **kwargs) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child to its end; return its wall time in seconds and its result.

    ``subprocess.run(timeout=...)`` polls for the child's exit with sleeps
    of up to 50 ms, which would round the times measured here to 50 ms.
    This waits for the exit without polling and kills the child from a
    timer once CHILD_TIMEOUT_S has passed.
    """
    if capture_output:
        kwargs.update(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    start = time.perf_counter()
    with subprocess.Popen(cmd, **kwargs) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            timer.cancel()
        latency = time.perf_counter() - start
    return latency, subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def child_env() -> dict[str, str]:
    """The parent's environment (threads already pinned) with src importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def make_workdir(name: str) -> Path:
    path = ROOT / "perfbench" / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


WORKLOADS = {w.name: w for w in (EquivStream, RecoverOracle, CliOneshot)}
