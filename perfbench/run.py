"""Benchmark for entrospec: three seeded workloads against the public API.

Usage, from the repository root:

    python3 perfbench/run.py --workload equiv-stream --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (closed loop, one client, one process; see workloads.py):

* ``equiv-stream``: validate two states, then one decider (t2 60%, t1 20%,
  spectral 20%) on n = 2..16; mostly eigensolve time.
* ``recover-oracle``: spectrum recovery from an entropy oracle on
  n = 2..24; oracle sampling, fit and roots, no eigensolve.
* ``cli-oneshot``: one ``python -m entrospec.cli`` child per op; mostly
  interpreter start, the numpy import and JSON parsing.

``--trace 0`` measures for ``--seconds`` in whole blocks and prints the
end-to-end metrics, each made from one latency per input: the fastest or
the median of its timed runs, as the workload's ``input_latency`` says.
Each op's time is first scaled to a nominal host speed with a reference
kernel timed after every block (``reference_factors``); the unscaled
figures are printed too.
``--trace 1`` is a separate run that times one untraced and one traced
pass over the pool and prints the per-layer metrics (tracing.py). Every result line before the last is for people;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``attempted`` is the number of distinct inputs in the pool and ``failed``
the number of them that raised or returned a wrong answer. Every input
runs at least once: those the timed phase did not reach run untimed
after it, and every run of every input is checked. The outcome of an
input does not depend on how many blocks fit in ``--seconds``, so the two
counts repeat exactly at one seed. ``correct`` is false when an op
crashed (an exception that is not an ``EntrospecError``, or unparseable
CLI output), failed outside the known defects each workload names in
``known_defect``, or gave different outcomes on different runs of one
input.

The BLAS and OpenMP thread counts are pinned to 1 here, before numpy
loads, and in every child; at most one child runs at a time.
"""

from __future__ import annotations

import os

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402  (after the thread pins, which must precede numpy)
import dataclasses  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_SEED = 1
HELDOUT_SEED = 20261017
SETUP_RUNS = 7
PROBE_RUNS = 5

if not (SRC / "entrospec" / "__init__.py").is_file():
    sys.exit(f"perfbench: no library source at {SRC / 'entrospec'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import entrospec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import OK, RAISED, WRONG  # noqa: E402

if Path(entrospec.__file__).resolve().parent != (SRC / "entrospec").resolve():
    sys.exit(f"perfbench: imported entrospec from {entrospec.__file__}, not {SRC}")


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
        "child_processes_at_once": 1,
    }


# How one input's timed runs make its latency; each workload names one.
INPUT_LATENCY = {"min": min, "median": statistics.median}
# The reference kernel's median time on the baseline machine. Timed metrics
# are scaled by this over the kernel's median time in the run, so they read
# as on that machine at that speed (see README, "Environment and noise").
REFERENCE_NOMINAL_MS = 2.5


def tail(latencies_ms: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank ``percentile`` of the latencies, and how many lie beyond it.

    Each workload fixes its percentile (``tail_percentile``); one picked
    from the sample count would jump when the count crosses a threshold.
    """
    ordered = sorted(latencies_ms)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_ops(workload, pool, indices, tracer=None, in_process=False) -> list[tuple]:
    """Run the ops in order; return ``(op, latency_s, outcome)`` per op."""
    run = workload.run_in_process if in_process else workload.run
    records = []
    for i in indices:
        op = pool.ops[i]
        if tracer is not None:
            tracer.begin_op(i)
        try:
            latency, outcome = run(op)
        finally:
            if tracer is not None:
                tracer.end_op()
        records.append((op, latency, outcome))
    return records


_REFERENCE_MATRICES = [m + m.T for m in np.random.default_rng(0).standard_normal((20, 8, 8))]


def reference_ms() -> float:
    """Time one pass of a fixed kernel, in ms: interpreted arithmetic and small numpy calls.

    The kernel is the benchmark's own and never changes, so its time in a
    run measures how fast the host was running during that run.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    for m in _REFERENCE_MATRICES:
        np.linalg.eigh(m)
        m @ m
    return 1e3 * (time.perf_counter() - start)


def reference_factors(pool, references: list[float]) -> list[float]:
    """One factor per timed op: the nominal reference time over the local one.

    The local time is the median of the five reference runs nearest the
    op's block, so a change of the host's speed within a run is followed.
    """
    factors = []
    for k in range(len(references)):
        local = statistics.median(references[max(0, k - 2):k + 3])
        factors += [REFERENCE_NOMINAL_MS / local] * len(pool.blocks[k % len(pool.blocks)])
    return factors


def timed_phase(workload, pool, seconds: float) -> tuple[list[tuple], float, list[float]]:
    """Whole blocks, cycling through the pool, until ``seconds`` have passed.

    The reference kernel runs after every block. Returns the records, the
    wall seconds spent in blocks, and the reference times.
    """
    records, references = [], []
    start = time.perf_counter()
    block = 0
    while True:
        records += run_ops(workload, pool, pool.blocks[block % len(pool.blocks)])
        block += 1
        references.append(reference_ms())
        wall = time.perf_counter() - start
        if wall >= seconds:
            return records, wall - 1e-3 * sum(references), references


def pass_indices(pool) -> list[int]:
    return [i for block in pool.blocks for i in block]


def by_input(workload, pool, records) -> tuple[dict, list[tuple]]:
    """Timed latencies per pool input, and one checked record per input.

    The timed phase runs the pool's blocks in order, so record k is pool
    input ``pass_indices(pool)[k % len(pool)]``. Inputs it did not reach run
    here, untimed. An input's record is its first failing run if it has one.
    """
    latencies, outcomes = {}, {}
    for i, (_, latency, outcome) in zip(itertools.cycle(pass_indices(pool)), records):
        latencies.setdefault(i, []).append(latency)
        outcomes.setdefault(i, []).append(outcome)
    missed = [i for i in pass_indices(pool) if i not in outcomes]
    for i, (_, _, outcome) in zip(missed, run_ops(workload, pool, missed)):
        outcomes[i] = [outcome]
    per_input = []
    for i in pass_indices(pool):
        runs = outcomes[i]
        worst = next((o for o in runs if o.status != OK), runs[0])
        if len({(o.status, o.error) for o in runs}) > 1:
            worst = dataclasses.replace(worst, crashed=True, error=f"inconsistent {worst.error}")
        per_input.append((pool.ops[i], None, worst))
    return latencies, per_input


def counts(workload, records) -> dict:
    raised = [o.error for _, _, o in records if o.status == RAISED]
    wrong = [o.error for _, _, o in records if o.status == WRONG]
    unexplained = [
        (type(op).__name__, op.n, workload.label(op), o.status, o.error)
        for op, _, o in records
        if o.crashed or (o.status != OK and not workload.known_defect(op, o))
    ]
    return {
        "attempted": len(records),
        "ok": len(records) - len(raised) - len(wrong),
        "raised": len(raised),
        "raised_by_type": {k: raised.count(k) for k in sorted(set(raised))},
        "wrong": len(wrong),
        "wrong_by_reason": {k: wrong.count(k) for k in sorted(set(wrong))},
        "unexplained_failures": sorted(set(unexplained))[:20],
    }


def setup(name: str, seed: int, blocks: int | None = None):
    """Build the inputs, write files, warm up; everything before the first timed op."""
    workload = workloads.WORKLOADS[name]()
    pool = workload.build(seed, blocks)
    workdir = workloads.make_workdir(name)
    workload.setup(pool, workdir)
    workload.warm_up(pool)
    return workload, pool, workdir


def setup_seconds(name: str, seed: int) -> list[float]:
    """Wall time of fresh processes that only set up: interpreter start to first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS):
        seconds, proc = workloads.run_child(cmd, stdout=subprocess.DEVNULL, cwd=HERE.parent)
        proc.check_returncode()
        times.append(seconds)
    return times


def child_s(code: str) -> float:
    """Wall time of one ``python -c code`` child, in seconds."""
    seconds, proc = workloads.run_child([sys.executable, "-c", code],
                                        env=workloads.child_env(), cwd=HERE.parent)
    proc.check_returncode()
    return seconds


def end_to_end(name: str, seed: int, seconds: float, blocks: int | None = None) -> dict:
    setups = setup_seconds(name, seed)
    workload, pool, workdir = setup(name, seed, blocks)
    try:
        records, wall, references = timed_phase(workload, pool, seconds)
        factors = reference_factors(pool, references)
        scaled = [(op, f * lat, o) for (op, lat, o), f in zip(records, factors)]
        timed, per_input = by_input(workload, pool, scaled)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    c = counts(workload, per_input)
    stat = INPUT_LATENCY[workload.input_latency]
    latency_ms = {i: 1e3 * stat(v) for i, v in timed.items()}
    passed = {i: o.status == OK for i, (_, _, o) in zip(pass_indices(pool), per_input)}
    values = list(latency_ms.values())
    percentile = workload.tail_percentile
    tail_ms, beyond = tail(values, percentile)
    timed_ok = sum(o.status == OK for _, _, o in records)
    failed = c["raised"] + c["wrong"]
    metrics = {
        "ops_per_s": (sum(passed[i] for i in latency_ms) / (1e-3 * sum(values)), "ops/s"),
        "p50_ms": (statistics.median(values), "ms"),
        "tail_ms": (tail_ms, "ms"),
        "ok_rate": (c["ok"] / c["attempted"], "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    report = {
        "workload": name, "seed": seed, "digest": pool.digest, "seconds": seconds,
        "wall_s": wall, "pool_ops": len(pool.ops), "fail_rate": failed / c["attempted"],
        "input_latency": workload.input_latency, "timed_inputs": len(timed),
        "runs_per_input": statistics.median(len(v) for v in timed.values()),
        "timed_ops": len(records), "timed_ok": timed_ok,
        "timed_fail_rate": 1.0 - timed_ok / len(records),
        "wall_ops_per_s": timed_ok / wall,
        "raw_p50_ms": 1e3 * statistics.median(lat for _, lat, _ in records),
        "reference_ms": statistics.median(references), "reference_runs": len(references),
        "reference_factor": statistics.median(factors),
        "tail_percentile": percentile, "tail_beyond": beyond,
        "setup_s_samples": setups, **c, "machine": machine_facts(),
    }
    per = f"{workload.input_latency} of its runs"
    lines = [
        f"reference kernel = {report['reference_ms']:.6g} ms (median of {len(references)}, "
        f"nominal {REFERENCE_NOMINAL_MS:g} ms; op times below are scaled by "
        f"{report['reference_factor']:.6g}, the median factor)",
        f"ops_per_s = {metrics['ops_per_s'][0]:.6g} ops/s (one pass, each input at the {per}; "
        f"unscaled wall clock {report['wall_ops_per_s']:.6g})",
        f"p50_ms = {metrics['p50_ms'][0]:.6g} ms (over {len(timed)} inputs, each the {per}; "
        f"unscaled median op {report['raw_p50_ms']:.6g}; {len(records)} timed ops)",
        f"tail_ms = {tail_ms:.6g} ms (p{percentile:g} over the same, {beyond} inputs beyond it)",
        f"fail_rate = {report['fail_rate']:.6g} ratio "
        f"(raised {c['raised']}, wrong {c['wrong']}, of {c['attempted']} inputs)",
        f"ok_rate = {metrics['ok_rate'][0]:.6g} ratio",
        f"setup_s = {metrics['setup_s'][0]:.6g} s (median of {len(setups)})",
    ]
    if name == "recover-oracle":
        report["max_ok_n"] = workloads.max_ok_n(per_input)
        lines.append(f"max_ok_n = {report['max_ok_n']} dimension")
    return _result(report, metrics, lines, c)


def traced(name: str, seed: int, blocks: int | None = None) -> tuple[dict, list]:
    """One untraced and one traced pass over the pool, interleaved by op.

    Running each op untraced and then traced keeps machine drift and
    first-call costs out of the tracing overhead. For the CLI both passes
    call ``cli.main`` in this process, and each op also runs once as a
    child process next to the interpreter and import probes it is split into.
    """
    workload, pool, workdir = setup(name, seed, blocks)
    in_process = name == "cli-oneshot"
    tracer = tracing.Tracer()
    untraced_records, records, children, probes = [], [], [], []
    try:
        for i in pass_indices(pool):
            if in_process:
                children += run_ops(workload, pool, [i])
                probes.append((child_s("pass"), child_s("import entrospec.cli")))
            untraced_records += run_ops(workload, pool, [i], in_process=in_process)
            tracer.install()
            try:
                records += run_ops(workload, pool, [i], tracer, in_process)
            finally:
                tracer.uninstall()
        extra = (cli_metrics(workload, pool, children, probes, untraced_records)
                 if in_process else {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    labelled = [(workload.label(op), op.n, lat, o) for op, lat, o in records]
    layer = tracing.layer_metrics(tracer.spans, labelled)
    layer["trace.ops_per_s_ratio"] = (
        sum(lat for _, lat, _ in untraced_records) / sum(lat for _, lat, _ in records))
    layer["max_ok_n"] = workloads.max_ok_n(records) if name == "recover-oracle" else 0
    for key in CLI_METRICS:
        layer[key] = extra.get(key, 0.0)
    c = counts(workload, records)
    metrics = {k: (v, layer_unit(k)) for k, v in layer.items()}
    report = {"workload": name, "seed": seed, "digest": pool.digest, "pass_ops": len(records),
              "spans": len(tracer.spans), **c, "machine": machine_facts()}
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    return _result(report, metrics, lines, c), tracer.spans


def cli_metrics(workload, pool, children, probes, main_records) -> dict:
    """Split a CLI call into interpreter, import, in-process main() and the rest."""
    interpreter = 1e3 * statistics.median(p for p, _ in probes)
    imported = 1e3 * statistics.median(i for _, i in probes) - interpreter
    out = {"cli.interpreter_ms": interpreter, "cli.import_ms": imported}
    for command in ("entropy", "equiv", "recover", "curve"):
        mine = [1e3 * lat for op, lat, _ in main_records if op.command == command]
        out[f"cli.main_ms.{command}"] = statistics.median(mine)
    child_mean = statistics.fmean(1e3 * lat for _, lat, _ in children)
    main_mean = statistics.fmean(1e3 * lat for _, lat, _ in main_records)
    out["cli.unaccounted_ms"] = child_mean - interpreter - imported - main_mean
    loads = []
    for name in pool.files:
        path = str(workload.workdir / f"{name}.json")
        for _ in range(PROBE_RUNS):
            start = time.perf_counter()
            workloads.matrixio.load_matrix(path)
            loads.append(time.perf_counter() - start)
    out["matrixio.load_ms"] = 1e3 * statistics.median(loads)
    return out


CLI_METRICS = ("matrixio.load_ms", "cli.interpreter_ms", "cli.import_ms",
               "cli.main_ms.entropy", "cli.main_ms.equiv", "cli.main_ms.recover",
               "cli.main_ms.curve", "cli.unaccounted_ms")


def layer_unit(name: str) -> str:
    if name == "max_ok_n":
        return "dimension"
    if ".linf_err." in name:
        return "abs"
    if "_ms" in name:
        return "ms"
    if name.endswith("_per_op"):
        return "count/op"
    return "ratio"


def _result(report, metrics, lines, c) -> dict:
    return {
        "lines": lines,
        "report": report,
        "final": {
            "correct": not c["unexplained_failures"],
            "attempted": c["attempted"],
            "failed": c["raised"] + c["wrong"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            blocks: int | None = None, spans_out: str | None = None) -> dict:
    if not trace:
        return end_to_end(name, seed, seconds, blocks)
    result, spans = traced(name, seed, blocks)
    if spans_out:
        fields = ("name", "parent", "op", "start", "end", "size", "error")
        with open(spans_out, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held out: {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="with --trace 1, write the spans here as JSON lines")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        _, _, workdir = setup(args.workload, args.seed)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload == "all":
        return _run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     spans_out=args.spans_out)
    for line in result["lines"]:
        print(line)
    print("report " + json.dumps(result["report"], sort_keys=True))
    print(json.dumps(result["final"]))
    return 0


def _run_all(args) -> int:
    """Each workload in a fresh process; the last line maps workload to result."""
    finals = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              cwd=HERE.parent, timeout=900)
        lines = proc.stdout.splitlines()
        print(f"[{name}]")
        print("\n".join(lines[:-1]))
        finals[name] = json.loads(lines[-1])
    print(json.dumps(finals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
