"""Benchmark runner for anharmonic.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 43 --trace 0

Runs one workload (scan, connect or certify; see perfbench/README.md) from
the sources under ``src/`` next to this directory, as one closed-loop caller
in one process.  With ``--trace 0`` it runs one warm-up operation, then times
passes of the workload's operation list, each with its own draws, as many as
fit in ``--seconds`` (at least MIN_PASSES), and reports medians over them;
with ``--trace 1`` it runs the first pass three times (untraced, traced, and
counting RK steps) and reports the per-layer metrics.  Every operation is
checked against an independent oracle outside the timed region.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
record of the environment and of every operation.  The exit code is 0 when a
result was printed, 2 when the sources are missing, and argparse's 2 on bad
arguments.
"""
from __future__ import annotations

import os
import time

# the run's clock starts before the imports, which are part of its --seconds
STARTED = time.perf_counter()

# one BLAS/OpenMP thread, pinned before numpy loads anywhere in this process
# or in the set-up probes it starts
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# fresh interpreters started per run to time set-up, before and after the
# passes, so that they span the run; the median is reported
SETUP_BEFORE, SETUP_AFTER = 2, 1
# The host is shared: its speed drifts by 20-30 % between runs a minute
# apart, and within a run it stays close to one level (passes of fixed work
# agree to about 10 %).  A fixed pure-Python loop, timed once after every
# operation and once more per REF_EVERY seconds the operation took, measures
# that level over the same stretch of time as the operations.  A pass's
# speed is the mean of its chunks, so that time the process loses to other
# tasks counts in proportion, as it does in the operations; every end-to-end
# time is reported at the reference speed, on which one chunk takes
# REF_SECONDS (on a 2-vCPU x86-64 VM with Python 3.11), using the median
# pass speed of the run.
REF_ITERATIONS = 20000
REF_EVERY = 0.25
REF_SECONDS = 0.003
# passes made even when the first ones overrun --seconds, so that the medians
# always have at least this many samples
MIN_PASSES = 3
SETUP_SNIPPET = ("import anharmonic as a; "
                 "v = a.wkb_phase(a.OscillatorParams(1.0, 7.0, 0.0)); "
                 "assert abs(v - 1.5) < 1e-9, v")


def _load_package():
    """Import anharmonic from this checkout's sources, never from elsewhere."""
    if not (SRC / "anharmonic" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import anharmonic
    if Path(anharmonic.__file__).resolve().parent != (SRC / "anharmonic").resolve():
        return None
    return anharmonic


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> tuple[float, bool]:
    """Seconds for a fresh interpreter to import anharmonic and make one call."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=_child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    return time.perf_counter() - start, proc.returncode == 0


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "anharmonic").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


class OpError(str):
    """An exception raised by an operation, kept as its message."""


def reference_chunk() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed at this moment."""
    start = time.perf_counter()
    x = total = 0.0
    for i in range(REF_ITERATIONS):
        x = x * 0.999 + 0.001 * (i % 7)
        total += x * x
    return time.perf_counter() - start


def run_pass(ctx, ops, tracer=None, reference=None):
    """Time each operation of one pass; return (results, seconds per op, wall).

    wall is the sum of the operations' seconds.  With a list as reference,
    reference chunks run after each operation, outside its time, as many as
    its seconds call for, and their seconds are appended to the list.
    """
    results, seconds = [], []
    clock = time.perf_counter
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        try:
            out = workloads.execute(ctx, op)
        except Exception as exc:  # a failing operation is counted, never fatal
            out = OpError(f"{type(exc).__name__}: {exc}")
        seconds.append(clock() - t0)
        results.append(out)
        if reference is not None:
            reference += [reference_chunk()
                          for _ in range(1 + int(seconds[-1] / REF_EVERY))]
    return results, seconds, sum(seconds)


def verdict(op, result) -> str | None:
    """None when the result passes its oracle, else the reason it does not."""
    if isinstance(result, OpError):
        return "raised " + result
    try:
        workloads.check(op, result)
    except oracles.OracleMiss as miss:
        return "oracle: " + str(miss)
    except Exception as exc:  # a malformed result fails its op, it does not end the run
        return f"oracle raised {type(exc).__name__}: {exc}"
    return None


def _op_rows(ops, seconds, reasons, pass_index):
    return [{"pass": pass_index, "kind": op.kind, "args": op.args, "seconds": s,
             "ok": r is None, "reason": r} for op, s, r in zip(ops, seconds, reasons)]


def timed_run(package, workload: str, seed: int, seconds: float,
              start: float = STARTED) -> tuple[dict, dict]:
    setups = [measure_setup() for _ in range(SETUP_BEFORE)]
    # time left for the closing probes, which take about as long as these
    closing = SETUP_AFTER * statistics.median(s for s, _ in setups)
    ctx = workloads.Context(package)
    ctx.prepare(workload)
    warmup = workloads.warmup(workload)
    results, secs, _ = run_pass(ctx, warmup)
    reasons = [verdict(op, res) for op, res in zip(warmup, results)]
    rows = _op_rows(warmup, secs, reasons, "warmup")
    attempted, failed = len(warmup), sum(r is not None for r in reasons)
    walls, op_seconds, chunk_means = [], [], []
    while True:
        ops = workloads.draw(workload, seed, len(walls))
        chunks: list[float] = []
        results, secs, wall = run_pass(ctx, ops, reference=chunks)
        chunk_means.append(statistics.fmean(chunks))
        reasons = [verdict(op, res) for op, res in zip(ops, results)]
        rows += _op_rows(ops, secs, reasons, len(walls))
        walls.append(wall)
        op_seconds += secs
        attempted += len(ops)
        failed += sum(r is not None for r in reasons)
        # start another pass only if one as long as the last still fits
        if (len(walls) >= MIN_PASSES
                and time.perf_counter() + wall + closing > start + seconds):
            break
    setups += [measure_setup() for _ in range(SETUP_AFTER)]
    attempted += len(setups)
    failed += sum(not ok for _, ok in setups)
    raw = {"setup_s": statistics.median(s for s, _ in setups),
           "wall_s": statistics.median(walls),
           "op_p50_s": statistics.median(op_seconds)}
    speed = REF_SECONDS / statistics.median(chunk_means)
    metrics = {name: (value * speed, "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    metrics["ok_frac"] = ((attempted - failed) / attempted, "frac")
    record = {"raw_s": raw, "speed_factor": speed, "pass_chunk_means_s": chunk_means,
              "setup_samples_s": [s for s, _ in setups], "pass_walls_s": walls, "ops": rows}
    return _result(attempted, failed, metrics), record


def traced_run(package, workload: str, seed: int) -> tuple[dict, dict]:
    ctx = workloads.Context(package)
    ctx.prepare(workload)
    ops = workloads.draw(workload, seed, 0)
    plain, plain_secs, plain_wall = run_pass(ctx, ops)
    tracer = tracing.Tracer()
    with tracing.patched(package, tracer.wrap):
        traced, _, traced_wall = run_pass(ctx, ops, tracer)
    steps = [0]
    with tracing.patched(package, tracing.rk_step_counter(steps)):
        counted, _, _ = run_pass(ctx, ops)
    reasons = []
    for op, a, b, c in zip(ops, plain, traced, counted):
        reason = verdict(op, a)
        if reason is None and not (a == b == c):
            reason = "traced or counting pass changed the result"
        reasons.append(reason)
    failed = sum(r is not None for r in reasons)
    metrics = {name: (value, _unit(name))
               for name, value in tracer.metrics(steps[0], traced_wall - plain_wall).items()}
    record = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "ops": _op_rows(ops, plain_secs, reasons, 0)}
    return _result(len(ops), failed, metrics), record


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith("us_per_step"):
        return "us"
    if metric.endswith("_per_level"):
        return "1/level"
    return "count"


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    package = _load_package()
    if package is None:
        print(f"perfbench: no anharmonic sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        result, record = traced_run(package, args.workload, args.seed)
    else:
        result, record = timed_run(package, args.workload, args.seed, args.seconds)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **record}
    print(json.dumps(record, default=repr))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
