"""End-to-end verification checks shared by ``verify`` and the acceptance tests.

Each check cross-validates two independent routes to the same quantity (ODE
integration, quantisation of the action integral, closed-form asymptotics) or
certifies a computed bound against a direct measurement.  A check returns a
CheckResult with one scalar measurement and one scalar bound so reports stay
machine-comparable; anything richer goes into the detail string.

The quick profile runs the five sub-second checks; full adds the five
eigenvalue-scan based ones.
Budgets, tolerances, and fixtures are frozen here on purpose: tests and the CLI
must agree on what "verified" means.
"""
from __future__ import annotations

import cmath
import importlib.resources as _resources
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .model import OscillatorParams, _blowup_constants, to_hbar_coords
from .action import (
    PathFrame,
    PathSpec,
    asymptotic_reference,
    bohr_sommerfeld_energy,
    path_from_complex,
    reduced_wkb_integral,
    wkb_phase_derivative,
)
from .integrate import _transport_segment
from .spectral import (
    asymptotic_spectrum,
    eigenvalues,
    r_zero,
    semiclassical_r_zero,
)
from .geometry import (
    TraceStops,
    check_admissible,
    stokes_complex,
    topology_signature,
    trace_trajectory,
)

__all__ = [
    "CheckResult",
    "ALL_CHECKS",
    "QUICK_CHECKS",
    "run_checks",
    "report_dict",
    "committed_curves",
    "measured_wkb_deviation",
    "trichotomy_cases",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    criterion: int
    passed: bool
    measured: float
    bound: float
    detail: str


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


# ---------------------------------------------------------------------------
# criterion 1: alpha=1 spectrum from the determinant scan vs the closed form

def check_exact_spectrum_alpha1() -> CheckResult:
    worst = 0.0
    rows = []
    for ell in (0.0, 0.5, 2.3):
        ev = eigenvalues(1.0, ell, 10, rel_tol=1e-9)
        dev = max(abs(e / (4.0 * n + 3.0 + 2.0 * ell) - 1.0) for n, e in enumerate(ev))
        worst = max(worst, dev)
        rows.append("ell=%g: max rel dev %s" % (ell, _fmt(dev)))
    return CheckResult(
        name="exact_spectrum_alpha1",
        criterion=1,
        passed=worst <= 1e-7,
        measured=worst,
        bound=1e-7,
        detail="; ".join(rows),
    )


# ---------------------------------------------------------------------------
# criterion 2: Bohr-Sommerfeld energies are exact at alpha=1

def check_bohr_sommerfeld_alpha1() -> CheckResult:
    worst = 0.0
    for ell in (0.0, 0.5, 1.0):
        for n in range(6):
            e = bohr_sommerfeld_energy(1.0, ell, n)
            ref = 4.0 * n + 2.0 * ell + 3.0
            worst = max(worst, abs(e / ref - 1.0))
    return CheckResult(
        name="bohr_sommerfeld_alpha1",
        criterion=2,
        passed=worst <= 1e-8,
        measured=worst,
        bound=1e-8,
        detail="ell in {0, 1/2, 1}, n <= 5 against 4n+2l+3",
    )


# ---------------------------------------------------------------------------
# criterion 3: large-n deviation decays like 1/n (alpha=2, ell=0)

def check_large_n_rate() -> CheckResult:
    ev = eigenvalues(2.0, 0.0, 60, rel_tol=1e-8)
    nd = [abs(ev[n] / asymptotic_spectrum(2.0, 0.0, n) - 1.0)
          / asymptotic_reference("spectrum_large_n_rate", 2.0, n=n) for n in range(10, 61)]
    ratio = max(nd) / min(nd)
    return CheckResult(
        name="large_n_rate",
        criterion=3,
        passed=ratio <= 3.0,
        measured=ratio,
        bound=3.0,
        detail="n*d_n in [%s, %s] over n in [10, 60]" % (_fmt(min(nd)), _fmt(max(nd))),
    )


# ---------------------------------------------------------------------------
# criterion 4: harmonic bottom-of-well approximation at large ell

def _harmonic_residual(alpha: float, ell: float, e0: float) -> float:
    nu_star = _blowup_constants(alpha)[0]
    slope = asymptotic_reference("harmonic_coefficient", alpha)
    return abs(ell ** (-2.0 * alpha / (alpha + 1.0)) * e0 / nu_star - 1.0 - slope * 0.5 / ell)


def check_harmonic_subregime() -> CheckResult:
    worst_ratio = 0.0
    rows = []
    for alpha in (1.0, 2.0):
        prods = []
        for ell in (25.0, 50.0, 100.0, 200.0):
            e0 = eigenvalues(alpha, ell, 0, rel_tol=1e-9)[0]
            prods.append(_harmonic_residual(alpha, ell, e0) * ell ** 1.5)
        ratio = max(prods) / min(prods)
        worst_ratio = max(worst_ratio, ratio)
        rows.append("alpha=%g: products %s" % (alpha, [float(_fmt(p)) for p in prods]))
    return CheckResult(
        name="harmonic_subregime",
        criterion=4,
        passed=worst_ratio < 4.0,
        measured=worst_ratio,
        bound=4.0,
        detail="; ".join(rows),
    )


# ---------------------------------------------------------------------------
# criterion 5: the certified WKB error bound holds along committed curves

def _oriented(params: OscillatorParams, points) -> PathSpec:
    """PathSpec through the given points with the branch making Re S increase."""
    path = path_from_complex(points, sqrt_v_branch="principal")
    frame = PathFrame(params, path)
    end = 0.0 + 0.0j
    for i in range(path.n_segments):
        end += frame.cumulative_s(i, np.linspace(0.0, 1.0, 9))[-1]
    if end.real < 0.0:
        path = path_from_complex(points, sqrt_v_branch="negative")
    return path


def _horizontal_curve(params: OscillatorParams, anchor: complex,
                      radius: float) -> PathSpec:
    """Both halves of the horizontal trajectory through the anchor point."""
    stops = TraceStops(radius_max=radius, radius_min=1e-6, max_steps=120_000)
    fwd = trace_trajectory(params, anchor, 0.0, +1, stops)
    bwd = trace_trajectory(params, anchor, 0.0, -1, stops)
    pts = list(reversed(bwd.points)) + list(fwd.points[1:])
    stride = max(1, (len(pts) - 1) // 160)
    nodes = pts[::stride]
    if nodes[-1] is not pts[-1]:
        nodes.append(pts[-1])
    return _oriented(params, nodes)


def committed_curves() -> list[tuple[str, OscillatorParams, PathSpec]]:
    """Five strictly admissible curves with varied alpha, energy, and geometry."""
    out: list[tuple[str, OscillatorParams, PathSpec]] = []

    p1 = OscillatorParams(1.0, 2.0, 0.3)
    out.append(("inward_ray_alpha1", p1, _oriented(p1, [10.0, 4.0])))

    p2 = OscillatorParams(1.0, 1.0, 0.5)
    out.append(("outward_ray_subcritical_alpha1", p2, _oriented(p2, [0.35, 7.0])))

    p3 = OscillatorParams(2.0, 4.0, 1.0)
    out.append(("inward_ray_alpha2", p3, _oriented(p3, [12.0, 3.0])))

    p4 = OscillatorParams(1.0, 6.0, 0.5)
    out.append(("horizontal_trajectory_alpha1", p4, _horizontal_curve(p4, 8.0j, 30.0)))

    p5 = OscillatorParams(0.6, 1.0, 0.4)
    out.append(("outward_ray_alpha06", p5, _oriented(p5, [0.3, 6.0])))
    return out


# Relative tolerance of the transport that measures the WKB deviation.
_DEVIATION_RTOL = 1e-11


def measured_wkb_deviation(params: OscillatorParams, path: PathSpec) -> float:
    """max |psi/Psi^W - 1| along the path, psi integrated from WKB seed data.

    The seed (value and log-derivative of V^{-1/4} e^S at the start node) fixes
    the solution whose ratio to the WKB function check_admissible certifies;
    integration runs toward dominance, so the measurement is
    stable against seeding error.  psi is transported at _DEVIATION_RTOL, one
    transport per segment, which lands on max(4, 400 // segments) equally
    spaced comparison points of the segment parameter.
    """
    frame = PathFrame(params, path)
    steps = max(4, 400 // max(1, path.n_segments))
    ts = np.linspace(0.0, 1.0, steps + 1)
    z0, _, v0, v10, _ = frame.derivative_triple(0, 0.0)
    b0 = frame.sqrt_v(0, 0.0)
    w_prev = complex(v0 ** -0.25)
    # _transport_segment narrows the seed to Python scalars, floats on a real curve
    u, v, sigma = w_prev, (b0 - v10 / (4.0 * v0)) * w_prev, 0.0
    max_dev = 0.0
    s_off = 0.0 + 0.0j
    for i, seg in enumerate(frame.segments):
        svals = frame.cumulative_s(i, ts)
        wvals = frame.reduced(i, ts) ** -0.25
        states = _transport_segment(params, seg, u, v, sigma, _DEVIATION_RTOL, ts[1:].tolist())
        for k, (u, v, sigma) in enumerate(states, start=1):
            # continue the quarter root by picking the nearest unit rotation
            w = complex(wvals[k])
            w = min((w, 1j * w, -w, -1j * w), key=lambda c: abs(c - w_prev))
            w_prev = w
            psiw = w * cmath.exp(s_off + svals[k])
            z = u * cmath.exp(sigma) / psiw
            max_dev = max(max_dev, abs(z - 1.0))
        s_off += svals[-1]
    return max_dev


def check_wkb_error_bound() -> CheckResult:
    worst = 0.0
    rows = []
    all_ok = True
    for name, params, path in committed_curves():
        rep = check_admissible(params, path)
        if not rep.monotone:
            all_ok = False
            rows.append("%s: NOT monotone" % name)
            continue
        bound = rep.bound
        dev = measured_wkb_deviation(params, path)
        ratio = dev / bound
        worst = max(worst, ratio)
        ok = dev <= bound
        all_ok = all_ok and ok
        rows.append("%s: dev %s vs bound %s" % (name, _fmt(dev), _fmt(bound)))
    return CheckResult(
        name="wkb_error_bound",
        criterion=5,
        passed=all_ok and worst <= 1.0,
        measured=worst,
        bound=1.0,
        detail="; ".join(rows),
    )


# ---------------------------------------------------------------------------
# criterion 6: rho scales like hbar in the large-ell regime

def check_hbar_scaling() -> CheckResult:
    """rho/hbar on one segment of the blown-up plane at hbar = 1/2, 1/4, 1/8.

    Re S does not rise along these segments: check_admissible reports each
    as not monotone, with beta = -0.345, -0.691, -1.381.  So rho/hbar here
    measures how the error functional scales with hbar; it does not certify
    an error bound on these curves.
    """
    alpha = 2.0
    nu = 2.0 * _blowup_constants(alpha)[0]
    y_nodes = [0.45 + 0.95j, 3.2 + 0.95j]
    ratios = []
    for lam in (2.0, 4.0, 8.0):
        params = OscillatorParams(alpha, nu * lam ** (2.0 * alpha / (alpha + 1.0)),
                                  lam - 0.5)
        co = to_hbar_coords(params, 2)
        path = _oriented(params, [co.scale * y for y in y_nodes])
        ratios.append(check_admissible(params, path).rho / co.hbar)
    spread = max(ratios) / min(ratios)
    return CheckResult(
        name="hbar_scaling",
        criterion=6,
        passed=spread <= 1.1,
        measured=spread,
        bound=1.1,
        detail="rho/hbar = %s at hbar = 1/2, 1/4, 1/8" % [float(_fmt(r)) for r in ratios],
    )


# ---------------------------------------------------------------------------
# criterion 7: the boundary ratio R0 detects the spectrum

def check_fock_goncharov_criterion() -> CheckResult:
    worst_eig = 0.0
    worst_mid = math.inf
    rows = []
    for alpha in (1.0, 2.0):
        ev = eigenvalues(alpha, 0.5, 5, rel_tol=1e-10)
        local = 0.0
        for e in ev:
            r = r_zero(OscillatorParams(alpha, e, 0.5))
            local = max(local, abs(r + 1.0))
        worst_eig = max(worst_eig, local)
        for e0, e1 in zip(ev, ev[1:]):
            r = r_zero(OscillatorParams(alpha, 0.5 * (e0 + e1), 0.5))
            worst_mid = min(worst_mid, abs(r + 1.0))
        rows.append("alpha=%g: max|R0+1| at roots %s" % (alpha, _fmt(local)))
    ok = worst_eig < 1e-6 and worst_mid > 0.1
    return CheckResult(
        name="fock_goncharov_criterion",
        criterion=7,
        passed=ok,
        measured=worst_eig,
        bound=1e-6,
        detail="; ".join(rows) + "; min|R0+1| at midpoints %s (needs > 0.1)" % _fmt(worst_mid),
    )


# ---------------------------------------------------------------------------
# criterion 8: semiclassical accuracy of R0 at the quantisation energies

def check_semiclassical_fg() -> CheckResult:
    samples = []
    for ell in (5.0, 10.0, 20.0):
        e = bohr_sommerfeld_energy(1.0, ell, 0)
        params = OscillatorParams(1.0, e, ell)
        res = abs(r_zero(params) * semiclassical_r_zero(params) - 1.0)
        samples.append((ell, 1.0 / (ell + 0.5), res))
    c_fit = max(res / hbar for _, hbar, res in samples)
    ok = all(res <= c_fit * hbar * (1.0 + 1e-12) for _, hbar, res in samples)
    ok = ok and c_fit <= 1.0
    detail = ", ".join("ell=%g: residual %s" % (ell, _fmt(res)) for ell, _, res in samples)
    return CheckResult(
        name="semiclassical_fg",
        criterion=8,
        passed=ok,
        measured=c_fit,
        bound=1.0,
        detail="fitted C = %s; %s" % (_fmt(c_fit), detail),
    )


# ---------------------------------------------------------------------------
# criterion 9: small-u / near-critical / derivative rates of the J integrals

def _j1_normalized_errors(alpha: float) -> list[float]:
    out = []
    for u in (0.1, 0.05, 0.025):
        err = abs(reduced_wkb_integral(alpha, "J1", u)
                  - asymptotic_reference("j1_small_u", alpha, u=u))
        out.append(err / asymptotic_reference("j1_rate", alpha, u=u))
    return out


def _rate_bounded(errs: list[float]) -> tuple[bool, float]:
    # boundedness of the normalized sequence as the parameter shrinks: later
    # entries may not outgrow the first beyond a slack of 1.5 (a wrong exponent
    # shows up as steady growth); the floor 1e-6 absorbs exactly-cancelling
    # cases.  Returns the verdict and the last entry relative to that cap.
    cap = 1.5 * errs[0] + 1e-6
    return all(e <= cap for e in errs), errs[-1] / cap


def check_j_asymptotics() -> CheckResult:
    rows = []
    ok = True
    worst = 0.0

    for alpha in (1.0, 0.5, 0.25):
        errs = _j1_normalized_errors(alpha)
        good, ratio = _rate_bounded(errs)
        ok = ok and good
        worst = max(worst, ratio)
        rows.append("J1 alpha=%g normalized errors %s" % (alpha, [float(_fmt(e)) for e in errs]))

    alpha = 2.0
    nu_star, _ = _blowup_constants(alpha)
    errs = []
    for d in (0.1, 0.025, 0.00625):
        nu = nu_star + d
        err = abs(reduced_wkb_integral(alpha, "J2", nu)
                  - asymptotic_reference("j2_near_critical", alpha, nu=nu))
        errs.append(err / d ** 1.5)
    good, ratio = _rate_bounded(errs)
    ok = ok and good
    worst = max(worst, ratio)
    rows.append("J2 near-critical alpha=2 normalized errors %s" % [float(_fmt(e)) for e in errs])

    expo = asymptotic_reference("j2_derivative_exponent", alpha)
    grid = nu_star * np.geomspace(1.002, 100.0, 13)
    q = [wkb_phase_derivative(OscillatorParams(alpha, float(nu), 0.5)) / float(nu) ** expo
         for nu in grid]
    dev_ratio = max(q) / min(q)
    good = dev_ratio <= 5.0
    ok = ok and good
    worst = max(worst, dev_ratio / 5.0)
    rows.append("J2' power-law spread C2/C1 = %s over [nu*, 100 nu*]" % _fmt(dev_ratio))

    return CheckResult(
        name="j_asymptotics",
        criterion=9,
        passed=ok,
        measured=worst,
        bound=1.0,
        detail="; ".join(rows),
    )


# ---------------------------------------------------------------------------
# criterion 10: the three reference topologies of the alpha=1 complex

def trichotomy_cases() -> list[dict]:
    text = _resources.files("anharmonic.data").joinpath("stokes_trichotomy.json").read_text()
    return json.loads(text)["cases"]


def check_stokes_trichotomy() -> CheckResult:
    mismatches = 0
    rows = []
    for case in trichotomy_cases():
        params = OscillatorParams(case["alpha"], case["energy"], case["ell"])
        sc = stokes_complex(params)
        sig = topology_signature(sc)
        same = sig == case["signature"] and not sc.warnings
        mismatches += 0 if same else 1
        rows.append("%s: %s" % (case["name"], "match" if same else "MISMATCH"))
    return CheckResult(
        name="stokes_trichotomy",
        criterion=10,
        passed=mismatches == 0,
        measured=float(mismatches),
        bound=0.0,
        detail="; ".join(rows),
    )


# ---------------------------------------------------------------------------
# profiles

ALL_CHECKS = (
    check_exact_spectrum_alpha1,
    check_bohr_sommerfeld_alpha1,
    check_large_n_rate,
    check_harmonic_subregime,
    check_wkb_error_bound,
    check_hbar_scaling,
    check_fock_goncharov_criterion,
    check_semiclassical_fg,
    check_j_asymptotics,
    check_stokes_trichotomy,
)

QUICK_CHECKS = (
    check_bohr_sommerfeld_alpha1,
    check_wkb_error_bound,
    check_hbar_scaling,
    check_j_asymptotics,
    check_stokes_trichotomy,
)


def run_checks(profile: str = "quick", progress=None) -> list[CheckResult]:
    if profile == "quick":
        todo = QUICK_CHECKS
    elif profile == "full":
        todo = ALL_CHECKS
    else:
        raise ValueError("profile must be 'quick' or 'full'")
    results = []
    for fn in todo:
        if progress is not None:
            progress(fn.__name__)
        r = fn()
        # numpy scalars (np.bool_ in particular) leak through comparisons and
        # break the strict report serializer; normalise here once.
        results.append(replace(r, passed=bool(r.passed), measured=float(r.measured),
                               bound=float(r.bound)))
    return results


def report_dict(results: list[CheckResult], profile: str, tool_version: str) -> dict:
    return {
        "schema_version": 1,
        "tool_version": tool_version,
        "profile": profile,
        "passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
