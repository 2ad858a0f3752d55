#!/usr/bin/env python3
"""Time the scan, seed, Volterra, connection and Stokes layers; write BENCH_<label>.json.

Runs the package found on the import path, so the same script measures any
checkout of the source tree that has the work counter anharmonic.model.WORK,
spectral._ode_rtol, spectral._geometry, the connection memo spectral._sectors
and the four-field SolutionState:
    PYTHONPATH=src python scripts/bench.py --label after
    PYTHONPATH=/path/to/other/checkout/src python scripts/bench.py --label before

Recorded: interpreter and library versions, core count and the git commit of
the measured sources; seconds, determinant evaluations, Frobenius series
evaluations, index-check rescans and wkb_phase and wkb_phase_derivative
quadratures of three eigenvalue scans (the quartic to
n = 30, the ell = 100 harmonic ground level, and one set of tables shaped like
a pass of the benchmark's scan workload); microseconds per
spectral_determinant and per Frobenius series evaluation at three fixed
points, per r_zero and per refined sibuya_seed at two, per volterra_solve
on one committed curve, per check_admissible on each of the five committed
curves, per PathFrame construction on the horizontal committed curve, whose
square-root branch flips are recorded under "work", per stokes_multiplier
(k = 0 and 1) and fock_goncharov((0, 2, 1, -1)) at two, whose propagate
calls are recorded under "work" for each call alone and for the three in a
row at one energy, per stokes_complex at the three energies of
the committed Stokes trichotomy, whose trace points (the sum over edges of
the trajectory points) and trace steps (the RK4 steps of every trace) are
recorded under "work", per turning_points at the
same three energies and at (0.6, 0.3, 3) and (1.26, 5.88, 0.51 E*), whose
zeros (the real pair included) are recorded under "work", and per propagate
on one fixed ray and one fixed arc, whose accepted and rejected RK steps and
rhs calls are also recorded under "work".  Also under "work": the 8-point
Gauss panels that the adaptive quadrature evaluates per wkb_phase and per
wkb_phase_derivative call of the quartic scan and per rho of
check_admissible on each committed curve, and how many segment transports
of each scan and of measured_wkb_deviation on each committed curve ran in
real arithmetic (returned float states), of all that ran; and the KiB that
one frobenius_seed table holds at each SERIES point (tracemalloc, table
alone).  Counts are differences of anharmonic.model.WORK around each
measured call; the script changes nothing in the package.  Times are
time.perf_counter readings.  The connection memo, which keeps the transports
of the last energy, is cleared before every timed or counted call, so that
r_zero and the connection data are measured cold.

End to end, "fresh_interpreter" holds the wall seconds of FRESH_RUNS new
interpreters (median and every run) for two commands: import_s, a bare
`import anharmonic`, and spectrum_table_s, the reference table
`anharmonic spectrum --alpha 2 --ell 0.5 --n-max 4`.  These are not
rescaled.

The micro timings (best of REPEAT, taken in rounds over all points) follow
the host's speed, which drifts by a factor of two between runs on a shared
machine.  So after each repetition the
script also times the fixed pure-Python loop of perfbench/run.py; "layers"
holds the timings rescaled to the reference speed at which that loop takes
REF_SECONDS, "layers_raw" the plain readings and "reference" the factor.
"""
import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from functools import partial
from pathlib import Path

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
# committed curve of the PathFrame construction timing and flip count
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

# each micro timing is the best of this many repetitions, taken in rounds
REPEAT = 15
# Frobenius series evaluations per timing
SERIES_CALLS = 50
# the reference loop of perfbench/run.py and its seconds at the reference speed
REF_ITERATIONS = 20000
REF_SECONDS = 0.003


def _work(call) -> Counter:
    """The WORK counts that call() adds."""
    before = WORK.copy()
    call()
    return WORK - before


def _commit(path: Path) -> str | None:
    """Commit of the measured sources, suffixed -dirty if they differ from it."""
    cmd = ["git", "-C", str(path), "describe", "--always", "--dirty", "--abbrev=40"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def time_scans() -> tuple[dict, dict]:
    """The SCANS records, and name -> the WORK counts of that scan."""
    out, work = {}, {}
    for name, tables in SCANS.items():
        before = WORK.copy()
        start = time.perf_counter()
        levels = [spectral.eigenvalues(a, ell, n_max) for a, ell, n_max in tables]
        seconds = time.perf_counter() - start
        count = sum(len(lv) for lv in levels)
        w = work[name] = WORK - before
        out[name] = {
            "tables": [list(t) for t in tables],
            "seconds": seconds,
            "levels": count,
            "determinant_calls": w["determinants"],
            "determinant_calls_per_level": w["determinants"] / count,
            "frobenius_calls": w["series_evaluations"],
            "rescans": w["rescans"],
            "wkb_phase_calls": w["wkb_phase"],
            "wkb_phase_derivative_calls": w["wkb_phase_derivative"],
            "eigenvalues": levels,
        }
    return out, work


def reference_chunk() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed at this moment."""
    start = time.perf_counter()
    x = total = 0.0
    for i in range(REF_ITERATIONS):
        x = x * 0.999 + 0.001 * (i % 7)
        total += x * x
    return time.perf_counter() - start


def _many(call, *args) -> None:
    for _ in range(SERIES_CALLS):
        call(*args)


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


def _stokes_cases() -> dict:
    """point -> OscillatorParams of the committed Stokes trichotomy."""
    return {f"alpha={c['alpha']:g},ell={c['ell']:g},E={c['energy']:g}":
            OscillatorParams(c["alpha"], c["energy"], c["ell"]) for c in trichotomy_cases()}


def stokes_work() -> tuple[dict, dict]:
    """point -> trajectory points summed over the edges of its Stokes complex,
    and point -> RK4 steps of every trace it made."""
    points, steps = {}, {}
    for key, params in _stokes_cases().items():
        before = WORK.copy()
        points[key] = sum(len(e.trajectory.points) for e in stokes_complex(params).edges)
        steps[key] = (WORK - before)["trace_steps"]
    return points, steps


def _turning_point_cases() -> dict:
    """point -> OscillatorParams of the turning-point timings."""
    cases = _stokes_cases()
    cases.update({f"alpha={alpha:g},ell={ell:g},E={energy:g}": OscillatorParams(alpha, energy, ell)
                  for alpha, ell, energy in TURNING_POINTS})
    return cases


def turning_point_counts() -> dict:
    """point -> zeros that turning_points returns there, the real pair included."""
    out = {}
    for key, params in _turning_point_cases().items():
        tps = turning_points(params)
        out[key] = len(tps.real_pair or ()) + len(tps.sector_points)
    return out


def pathframe_flips() -> dict:
    """curve -> square-root branch flips that PathFrame places along it."""
    _, params, curve = next(c for c in committed_curves() if c[0] == PATHFRAME)
    return {PATHFRAME: sum(len(flips) for flips, _ in action.PathFrame(params, curve)._signs)}


def quadrature_panels(scan: Counter) -> dict:
    """8-point Gauss panels the adaptive quadrature evaluates: per wkb_phase and
    wkb_phase_derivative call of the quartic_n30 scan (its WORK counts scan),
    and per rho of check_admissible on each committed curve (summed over its
    segments)."""
    out = {"scan_quartic_n30": {
        kind: {"calls": scan["quadratures " + kind],
               "panels_per_call": scan["panels " + kind] / scan["quadratures " + kind]}
        for kind in ("wkb_phase", "wkb_phase_derivative")}}
    rho = out["check_admissible_rho"] = {}
    for name, params, curve in committed_curves():
        w = _work(partial(check_admissible, params, curve))
        segments, panels = w["quadratures rho"], w["panels rho"]
        rho[name] = {"segments": segments, "panels": panels,
                     "panels_per_segment": panels / segments}
    return out


def real_transports(scans: dict) -> dict:
    """Segment transports that ran in real arithmetic (returned float states),
    of all that ran: per scan of SCANS (scans holds their WORK counts) and per
    measured_wkb_deviation on each committed curve."""
    def tally(w: Counter) -> dict:
        return {"real": w["real_transports"], "transports": w["transports"]}
    curves = {name: tally(_work(partial(checks.measured_wkb_deviation, params, curve)))
              for name, params, curve in committed_curves()}
    return {"scans": {name: tally(w) for name, w in scans.items()}, "committed_curves": curves}


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


def _transports() -> dict:
    """point -> (params, state, path) of the PROPAGATE transports."""
    out = {}
    for alpha, ell, energy, kind, start, end in PROPAGATE:
        key = (f"{kind},alpha={alpha:g},ell={ell:g},E={energy:g},"
               f"|x|={start.modulus:g}->{end.modulus:g},arg={start.arg:g}->{end.arg:g}")
        out[key] = (OscillatorParams(alpha, energy, ell),
                    SolutionState(start, 1.0, 0.0, 0.0), PathSpec((start, end), (kind,)))
    return out


def propagate_work() -> dict:
    """point -> accepted and rejected steps and rhs calls of one propagate."""
    out = {}
    for key, (params, state, path) in _transports().items():
        w = _work(partial(integrate.propagate, params, state, path, rtol=SCAN_RTOL))
        attempts = w["rk_steps"] + w["rk_rejected"]
        out[key] = {"accepted_steps": w["rk_steps"], "rejected_steps": w["rk_rejected"],
                    "rhs_calls": w["rhs_calls"],
                    "rhs_calls_per_step": (w["rhs_calls"] - w["transports"]) // attempts}
    return out


def _connection_calls() -> dict:
    """point -> (call, 1) of the CONNECTION timings."""
    connection = {}
    for alpha, ell, energy in CONNECTION:
        params = OscillatorParams(alpha, energy, ell)
        point = f"alpha={alpha:g},ell={ell:g},E={energy:g}"
        for k in (0, 1):
            connection[f"stokes_multiplier,k={k},{point}"] = (partial(
                spectral.stokes_multiplier, params, k), 1)
        connection[f"fock_goncharov,(0,2,1,-1),{point}"] = (partial(
            spectral.fock_goncharov, params, (0, 2, 1, -1)), 1)
    return connection


def _cold_work(call) -> Counter:
    """The WORK counts of call() with an empty connection memo."""
    spectral._sectors.cache_clear()
    return _work(call)


def connection_propagate_calls() -> dict:
    """point -> propagate calls of one CONNECTION timing."""
    return {key: _cold_work(call)["propagate"]
            for key, (call, _) in _connection_calls().items()}


def connection_sequence_propagate_calls() -> dict:
    """CONNECTION point -> propagate calls of sigma_0, sigma_1 and the cross ratio in a row."""
    calls = _connection_calls()
    out = {}
    for alpha, ell, energy in CONNECTION:
        point = f"alpha={alpha:g},ell={ell:g},E={energy:g}"
        row = [call for key, (call, _) in calls.items() if key.endswith("," + point)]
        out[point] = _cold_work(lambda: [call() for call in row])["propagate"]
    return out


def _layer_calls() -> dict:
    """layer -> point -> (call, calls of the timed function per call)."""
    dets, series, r_zero, seeds = {}, {}, {}, {}
    for alpha, ell, energy in DETERMINANTS:
        params = OscillatorParams(alpha, energy, ell)
        dets[f"alpha={alpha:g},ell={ell:g},E={energy:g}"] = (partial(
            spectral.spectral_determinant, params, refine=False, rtol=SCAN_RTOL), 1)
    for alpha, ell, energy, x in SERIES:
        # many calls per timing: one call may take only tens of microseconds
        series[f"alpha={alpha:g},ell={ell:g},E={energy:g},x={x:g}"] = (partial(
            _many, integrate._frobenius_scaled, spectral._series_table(alpha, ell), energy,
            CoverPoint(x, 0.0)), SERIES_CALLS)
    for alpha, ell, energy in R_ZERO:
        params = OscillatorParams(alpha, energy, ell)
        r_zero[f"alpha={alpha:g},ell={ell:g},E={energy:g}"] = (partial(spectral.r_zero, params), 1)
    for alpha, ell, energy, k in SEEDS:
        params = OscillatorParams(alpha, energy, ell)
        x_max = spectral._geometry(params).x_max
        seeds[f"alpha={alpha:g},ell={ell:g},E={energy:g},k={k}"] = (partial(
            integrate.sibuya_seed, params, k, x_max), 1)
    name, n = VOLTERRA
    _, params, curve = next(c for c in committed_curves() if c[0] == name)
    solve = {f"{name},n={n}": (partial(volterra.volterra_solve, params, curve, n), 1)}
    _, params, curve = next(c for c in committed_curves() if c[0] == PATHFRAME)
    frame = {PATHFRAME: (partial(action.PathFrame, params, curve), 1)}
    admissible = {name: (partial(check_admissible, params, curve), 1)
                  for name, params, curve in committed_curves()}
    stokes = {key: (partial(stokes_complex, params), 1)
              for key, params in _stokes_cases().items()}
    zeros = {key: (partial(turning_points, params), 1)
             for key, params in _turning_point_cases().items()}
    transport = {key: (partial(integrate.propagate, *args, rtol=SCAN_RTOL), 1)
                 for key, args in _transports().items()}
    return {"spectral_determinant_us": dets, "frobenius_scaled_us": series,
            "r_zero_us": r_zero, "sibuya_seed_us": seeds, "volterra_solve_us": solve,
            "check_admissible_us": admissible, "pathframe_us": frame,
            "connection_us": _connection_calls(), "stokes_complex_us": stokes,
            "turning_points_us": zeros, "propagate_us": transport}


def time_layers(chunks: list) -> dict:
    """Best of REPEAT timings of every point, in µs; a reference chunk follows each.

    The repetitions run in rounds over all points, so that each point samples
    the host across the whole run instead of during one stretch of it.
    """
    calls = _layer_calls()
    best = {layer: dict.fromkeys(points, float("inf")) for layer, points in calls.items()}
    for _ in range(REPEAT):
        for layer, points in calls.items():
            for key, (call, per) in points.items():
                spectral._sectors.cache_clear()
                start = time.perf_counter()
                call()
                best[layer][key] = min(best[layer][key], (time.perf_counter() - start) / per)
                chunks.append(reference_chunk())
    return {layer: {key: sec * 1e6 for key, sec in points.items()}
            for layer, points in best.items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="output goes to BENCH_<label>.json")
    ap.add_argument("--out-dir", default=".", help="directory of the output file")
    args = ap.parse_args()

    pkg_dir = Path(anharmonic.__file__).resolve().parent
    scans, scan_work = time_scans()
    stokes_points, stokes_steps = stokes_work()
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
        "scans": scans,
        "work": {"stokes_complex_points": stokes_points,
                 "stokes_complex_trace_steps": stokes_steps,
                 "turning_points_zeros": turning_point_counts(), "propagate": propagate_work(),
                 "pathframe_flips": pathframe_flips(),
                 "connection_propagate_calls": connection_propagate_calls(),
                 "connection_sequence_propagate_calls": connection_sequence_propagate_calls(),
                 "quadrature_panels": quadrature_panels(scan_work["quartic_n30"]),
                 "real_transports": real_transports(scan_work),
                 "frobenius_table_kib": frobenius_table_kib()},
        "fresh_interpreter": fresh_interpreter(pkg_dir.parent),
    }
    chunks: list[float] = []
    raw = time_layers(chunks)
    chunk_s = statistics.median(chunks)
    speed = REF_SECONDS / chunk_s
    record["reference"] = {"iterations": REF_ITERATIONS, "seconds_at_reference": REF_SECONDS,
                           "chunks": len(chunks), "median_chunk_s": chunk_s,
                           "speed_factor": speed}
    record["layers"] = {layer: {key: us * speed for key, us in timings.items()}
                        for layer, timings in raw.items()}
    record["layers_raw"] = raw
    out = Path(args.out_dir) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for name, scan in record["scans"].items():
        print(f"{name:16s} {scan['seconds']:7.2f} s  {scan['determinant_calls']:4d} determinants"
              f"  {scan['determinant_calls_per_level']:.2f} per level"
              f"  {scan['rescans']} rescans  {scan['wkb_phase_calls']} wkb_phase"
              f"  {scan['wkb_phase_derivative_calls']} wkb_phase_derivative", file=sys.stderr)
    for name, timing in record["fresh_interpreter"].items():
        print(f"{name:16s} {timing['median']:7.3f} s  (median of {FRESH_RUNS} fresh interpreters)",
              file=sys.stderr)
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
