#!/usr/bin/env python3
"""Time the scan, seed, Volterra, connection and Stokes layers; write BENCH_<label>.json.

Runs the package found on the import path, so the same script measures any
checkout of the source tree that has the work counter anharmonic.model.WORK,
spectral._ode_rtol, spectral._geometry, the connection memo spectral._sectors
and the four-field SolutionState:
    PYTHONPATH=src python scripts/bench.py --label after
    PYTHONPATH=/path/to/other/checkout/src python scripts/bench.py --label before

The measured calls form one table, layer -> point -> Point(call, calls per
timing, optional summary of the result): whole eigenvalue scans (SCANS),
determinants, Frobenius series sums, r_zero, refined Sibuya seeds, a Volterra
solve, check_admissible, measured_wkb_deviation and PathFrame on committed
curves, the connection data (sigma_0, sigma_1 and one cross ratio, alone and
in a row at one energy), the Stokes complexes of the committed trichotomy,
turning points and single transports.  Every point runs REPEAT times, in
rounds over all points, each call with an empty connection memo (it keeps
the transports of the last energy), so every call is cold.  Under "layers"
each point records "us", its best time per call in microseconds (plain
perf_counter, best of REPEAT), "calls", the calls of the timed function per
timing, "work", the difference of anharmonic.model.WORK around its first
timing (counts that stay at zero are left out), and "result", the summary
of that timing's return value, where the point has one: the levels of a
scan, the trajectory points summed over the edges of a Stokes complex, the
zeros turning_points returns (the real pair included) and the square-root
branch flips of a PathFrame.  The script changes nothing in the package.
The times show where the time goes within one run; the host's speed drifts
between runs, so only the work counts compare across runs, and a timing
claim between two trees comes from alternating pairs of perfbench runs.

Also recorded: interpreter and library versions, core count and the git
commit of the measured sources; "frobenius_table_kib", the KiB that one
frobenius_seed table holds at each SERIES point (tracemalloc, table alone);
and "fresh_interpreter", the wall seconds of FRESH_RUNS new interpreters
(median and every run) for two commands: import_s, a bare
`import anharmonic`, and spectrum_table_s, the reference table
`anharmonic spectrum --alpha 2 --ell 0.5 --n-max 4`.
"""
import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

import anharmonic
from anharmonic import action, checks, integrate, spectral, volterra
from anharmonic.action import PathSpec
from anharmonic.checks import committed_curves, trichotomy_cases
from anharmonic.geometry import check_admissible, stokes_complex
from anharmonic.integrate import SolutionState
from anharmonic.model import WORK, CoverPoint, OscillatorParams, critical_data, turning_points

# (alpha, ell, n_max) of the timed scans
SCANS = {
    "quartic_n30": [(2.0, 0.0, 30)],
    "harmonic_ell100": [(1.0, 100.0, 0)],
    # one pass of the scan workload: a Bohr-Sommerfeld level, the quartic and
    # alpha = 1 tables, and an antithetic pair of large-ell ground levels
    "scan_tables": [(1.7, 0.3, 0), (2.0, 0.0, 2), (1.0, 1.5, 2), (1.0, 60.0, 0),
                    (1.0, 165.0, 0)],
}

# (alpha, ell, E) of the micro timings; the series is summed at the radius x
DETERMINANTS = [(2.0, 0.0, 7.4), (1.0, 0.5, 9.0), (1.0, 100.0, 203.5)]
SERIES = [(2.0, 0.0, 7.4, 0.2), (1.0, 0.5, 9.0, 0.1), (1.0, 100.0, 203.5, 1.6)]
R_ZERO = [(1.0, 0.5, 9.0), (2.0, 0.5, 5.0)]
# (alpha, ell, E, k) of refined sector-k seeds at the spectral seed radius
SEEDS = [(0.8, 1.94, 7.6, 0), (2.0, 0.5, 5.0, 0)]
# (alpha, ell, E) of the connection data: sigma_0, sigma_1 and one cross ratio
CONNECTION = [(1.0, 0.3, 3.9), (2.0, 0.5, 7.4)]
# (alpha, ell, E) of the turning-point timings beyond the Stokes trichotomy
TURNING_POINTS = [(0.6, 0.3, 3.0), (1.26, 5.88, 0.51 * critical_data(1.26, 5.88).e_star)]
# (committed curve, grid size) of the Volterra solve
VOLTERRA = ("inward_ray_alpha2", 601)
# committed curve of the PathFrame construction
PATHFRAME = "horizontal_trajectory_alpha1"
# (alpha, ell, E, segment kind, start, end) of the timed transports of the
# state (psi, psi') = (1, 0): a ray out of the quartic well into its growing
# tail, and an arc through the alpha = 1 Stokes sectors
PROPAGATE = [(2.0, 0.0, 7.4, "ray", CoverPoint(0.5, 0.0), CoverPoint(6.0, 0.0)),
             (1.0, 0.5, 9.0, "arc", CoverPoint(6.0, 0.0), CoverPoint(6.0, 2.5))]

# fresh-interpreter commands (python arguments) of the end-to-end timings
FRESH = {
    "import_s": ["-c", "import anharmonic"],
    "spectrum_table_s": ["-m", "anharmonic.cli", "spectrum", "--alpha", "2", "--ell", "0.5",
                         "--n-max", "4"],
}
# runs of each, alternating between the commands
FRESH_RUNS = 7

# the determinant options of the scan at its default rel_tol = 1e-9
SCAN_RTOL = spectral._ode_rtol(1e-9)

# each timing is the best of this many repetitions, taken in rounds
REPEAT = 15
# Frobenius series evaluations per timing
SERIES_CALLS = 50


class Point(NamedTuple):
    """One measured call, the calls of the timed function it makes, and the
    summary of its return value recorded under "result" (None: no result)."""

    call: Callable
    per: int = 1
    summary: Callable | None = None


def _commit(path: Path) -> str | None:
    """Commit of the measured sources, suffixed -dirty if they differ from it."""
    cmd = ["git", "-C", str(path), "describe", "--always", "--dirty", "--abbrev=40"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def frobenius_table_kib() -> dict:
    """KiB that tracemalloc sees held by one frobenius_seed table at each SERIES point.

    One untraced build first, so that the traced one holds no allocation
    that only a first call makes.  A full collection empties the
    interpreter's free lists before the traced build, so that each of its
    objects is a fresh allocation, and again before the reading, so that the
    objects it dropped no longer count.
    """
    out = {}
    for alpha, ell, _, _ in SERIES:
        integrate.frobenius_seed(alpha, ell)
        gc.collect()
        tracemalloc.start()
        table = integrate.frobenius_seed(alpha, ell)
        gc.collect()
        out[f"alpha={alpha:g},ell={ell:g}"] = tracemalloc.get_traced_memory()[0] / 1024.0
        tracemalloc.stop()
        del table
    return out


def fresh_interpreter(pkg_parent: Path) -> dict:
    """Median and every wall time of FRESH_RUNS fresh interpreters per FRESH command."""
    env = dict(os.environ, PYTHONPATH=str(pkg_parent))
    runs: dict = {name: [] for name in FRESH}
    for _ in range(FRESH_RUNS):
        for name, argv in FRESH.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, *argv], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            runs[name].append(time.perf_counter() - start)
    return {name: {"median": statistics.median(times), "runs": times}
            for name, times in runs.items()}


def _point(alpha: float, ell: float, energy: float) -> str:
    return f"alpha={alpha:g},ell={ell:g},E={energy:g}"


def _scan(tables: list) -> list:
    return [spectral.eigenvalues(a, ell, n_max) for a, ell, n_max in tables]


def _levels(levels: list) -> dict:
    return {"levels": sum(len(lv) for lv in levels), "eigenvalues": levels}


def _in_a_row(calls: list) -> None:
    for call in calls:
        call()


def _connection() -> dict:
    """point -> Point of sigma_0, sigma_1 and the cross ratio at each CONNECTION
    energy, alone and the three in a row."""
    out = {}
    for alpha, ell, energy in CONNECTION:
        params, point = OscillatorParams(alpha, energy, ell), _point(alpha, ell, energy)
        row = {f"stokes_multiplier,k={k},{point}": partial(spectral.stokes_multiplier, params, k)
               for k in (0, 1)}
        row[f"fock_goncharov,(0,2,1,-1),{point}"] = partial(
            spectral.fock_goncharov, params, (0, 2, 1, -1))
        out.update({key: Point(call) for key, call in row.items()})
        out[f"in_a_row,{point}"] = Point(partial(_in_a_row, list(row.values())))
    return out


def _trace_points(sc) -> int:
    return sum(len(e.trajectory.points) for e in sc.edges)


def _zeros(tps) -> int:
    return len(tps.real_pair or ()) + len(tps.sector_points)


def _flips(frame) -> int:
    return sum(len(flips) for flips, _ in frame._signs)


def table() -> dict:
    """layer -> point -> Point of every measured call."""
    curves = {name: (params, curve) for name, params, curve in committed_curves()}
    stokes = {_point(c["alpha"], c["ell"], c["energy"]):
              OscillatorParams(c["alpha"], c["energy"], c["ell"]) for c in trichotomy_cases()}
    zeros = {**stokes, **{_point(a, ell, e): OscillatorParams(a, e, ell)
                          for a, ell, e in TURNING_POINTS}}
    seeds = {}
    for alpha, ell, energy, k in SEEDS:
        params = OscillatorParams(alpha, energy, ell)
        seeds[f"{_point(alpha, ell, energy)},k={k}"] = Point(partial(
            integrate.sibuya_seed, params, k, spectral._geometry(params).x_max))
    transports = {}
    for alpha, ell, energy, kind, start, end in PROPAGATE:
        key = (f"{kind},{_point(alpha, ell, energy)},"
               f"|x|={start.modulus:g}->{end.modulus:g},arg={start.arg:g}->{end.arg:g}")
        transports[key] = Point(partial(
            integrate.propagate, OscillatorParams(alpha, energy, ell),
            SolutionState(start, 1.0, 0.0, 0.0), PathSpec((start, end), (kind,)),
            rtol=SCAN_RTOL))
    solve_curve, n = VOLTERRA
    return {
        "eigenvalues": {name: Point(partial(_scan, tables), summary=_levels)
                        for name, tables in SCANS.items()},
        "spectral_determinant": {_point(a, ell, e): Point(partial(
            spectral.spectral_determinant, OscillatorParams(a, e, ell), refine=False,
            rtol=SCAN_RTOL)) for a, ell, e in DETERMINANTS},
        # many calls per timing: one call may take only tens of microseconds
        "frobenius_scaled": {f"{_point(a, ell, e)},x={x:g}": Point(partial(
            _in_a_row, [partial(integrate._frobenius_scaled, spectral._series_table(a, ell), e,
                                CoverPoint(x, 0.0))] * SERIES_CALLS), SERIES_CALLS)
            for a, ell, e, x in SERIES},
        "r_zero": {_point(a, ell, e): Point(partial(
            spectral.r_zero, OscillatorParams(a, e, ell))) for a, ell, e in R_ZERO},
        "sibuya_seed": seeds,
        "volterra_solve": {f"{solve_curve},n={n}": Point(partial(
            volterra.volterra_solve, *curves[solve_curve], n))},
        "check_admissible": {name: Point(partial(check_admissible, *args))
                             for name, args in curves.items()},
        "measured_wkb_deviation": {name: Point(partial(checks.measured_wkb_deviation, *args))
                                   for name, args in curves.items()},
        "pathframe": {PATHFRAME: Point(partial(action.PathFrame, *curves[PATHFRAME]),
                                       summary=_flips)},
        "connection": _connection(),
        "stokes_complex": {key: Point(partial(stokes_complex, params), summary=_trace_points)
                           for key, params in stokes.items()},
        "turning_points": {key: Point(partial(turning_points, params), summary=_zeros)
                           for key, params in zeros.items()},
        "propagate": transports,
    }


def measure(points: dict) -> dict:
    """layer -> point -> its record: "calls", "us" (best of REPEAT, µs per
    call) and the "work" and "result" of its first timing.

    The repetitions run in rounds over all points, so that each point samples
    the host across the whole run instead of during one stretch of it.
    """
    out = {layer: {key: {"calls": p.per, "us": math.inf} for key, p in row.items()}
           for layer, row in points.items()}
    for first in [True] + [False] * (REPEAT - 1):
        for layer, row in points.items():
            for key, p in row.items():
                rec = out[layer][key]
                spectral._sectors.cache_clear()
                before = WORK.copy()
                start = time.perf_counter()
                result = p.call()
                seconds = time.perf_counter() - start
                rec["us"] = min(rec["us"], seconds / p.per * 1e6)
                if first:
                    rec["work"] = dict(sorted((WORK - before).items()))
                    if p.summary is not None:
                        rec["result"] = p.summary(result)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="output goes to BENCH_<label>.json")
    ap.add_argument("--out-dir", default=".", help="directory of the output file")
    args = ap.parse_args()

    pkg_dir = Path(anharmonic.__file__).resolve().parent
    layers = measure(table())
    record = {
        "label": args.label,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
        },
        "commit": _commit(pkg_dir),
        "frobenius_table_kib": frobenius_table_kib(),
        "fresh_interpreter": fresh_interpreter(pkg_dir.parent),
        "layers": layers,
    }
    out = Path(args.out_dir) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for name, scan in layers["eigenvalues"].items():
        work, levels = scan["work"], scan["result"]["levels"]
        print(f"{name:16s} {scan['us'] / 1e6:7.3f} s  {work['determinants']:4d} determinants"
              f"  {work['determinants'] / levels:.2f} per level"
              f"  {work.get('rescans', 0)} rescans  {work['wkb_phase']} wkb_phase"
              f"  {work['wkb_phase_derivative']} wkb_phase_derivative", file=sys.stderr)
    for name, timing in record["fresh_interpreter"].items():
        print(f"{name:16s} {timing['median']:7.3f} s  (median of {FRESH_RUNS} fresh interpreters)",
              file=sys.stderr)
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
