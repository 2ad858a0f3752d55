"""Level curves of the action and the graph grown from turning points.

A theta-trajectory is a curve along which Im(e^{-i*theta} S) stays constant,
where S' = sqrt(V) with a branch continued along the curve.  Tracing uses the
parameterization dx/dtau = direction * e^{i*theta} / sqrt(V), under which
e^{-i*theta} S moves along the real axis at unit speed, so tau doubles as a
progress variable.  Vertical trajectories (theta = pi/2) emitted by turning
points assemble into a labeled graph whose vertices are the turning points,
the origin, and the escape directions at infinity.  Far out, where
V ~ x^(2 alpha), a trajectory is nearly a straight line in x^(alpha+1)/(alpha+1),
so the graph ends an escaping trace where that certifies its direction.

The module also holds the package's one WKB error certificate for a
candidate integration path, an a-priori bound on the ratio z = psi / Psi of
the volterra module:

    rho  = int |F| |dx|,
    beta = inf_{s<=t} Re (S(t) - S(s)),
    |z - 1| <= exp(rho (1 + e^(-beta)) / 2) - 1.

The bound sees only |K|, so it holds for either sign convention of F.  The
certificate also asks Re S to rise along the path; there the infimum is zero
and the bound is e^rho - 1.
"""
from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .action import PathSpec, PathFrame
from .model import (
    WORK,
    CoverPoint,
    OscillatorParams,
    TurningPointSet,
    _adaptive_gauss,
    _brent,
    _integer_power,
    _reduced_jet,
    _reduced_v,
    critical_data,
    turning_points,
)
from .volterra import _EXP_CAP, _frame_grid

__all__ = [
    "Termination",
    "TraceStops",
    "Trajectory",
    "StokesEdge",
    "StokesComplex",
    "AdmissibilityReport",
    "trace_trajectory",
    "stokes_complex",
    "check_admissible",
    "trajectory_csv_rows",
    "complex_to_json_dict",
    "topology_signature",
]

# bound on |V'| dx / (2|V|), the first-order relative change of sqrt(V)
# over one step of length dx; drives the adaptive step size
_STEP_FRAC = 0.03
# looser creep-in factor once a trace is committed to a turning point ball
_STEP_FRAC_ENDGAME = 0.06
# Newton projection back onto the level set, every this many accepted steps
_CORRECT_EVERY = 10
# grid size n of check_admissible's monotonicity test and beta
_FUNCTIONALS_N = 1025
# far-field bound on |w| = |V x^(-2 alpha) - 1| at the escape ring, where
# stokes_complex stops a trace and certifies its escape in closed form
_ESCAPE_EPS = 0.25
# widest angle between the far-field velocity of x^(alpha+1)/(alpha+1) and
# its limit direction: asin(delta/(1 - delta)), delta = 1 - sqrt(1 - eps)
_ESCAPE_SPREAD = math.asin((1.0 - math.sqrt(1.0 - _ESCAPE_EPS)) / math.sqrt(1.0 - _ESCAPE_EPS))


@dataclass(frozen=True)
class Termination:
    """How a trace ended.

    kind is one of
      hit_radius_max, hit_radius_min: |x| left [radius_min, radius_max];
      near_turning_point: entered the guard ball of turning point index;
      entered_sector: left the arg window into the sector index;
      spiral_into_origin: a full turn about the origin shrank |x| by 5 %;
      bounded_winding: three full turns about the origin, none of which
        shrank |x| by 5 %: an orbit that neither spirals in nor escapes;
      zero_of_v: a step started exactly on a zero of V;
      step_limit: max_steps steps were taken.
    index carries the turning point index or the sector index when the kind
    needs one.
    """

    kind: str
    index: int | None = None


@dataclass(frozen=True)
class TraceStops:
    """Stop rules for trajectory tracing."""

    radius_max: float
    radius_min: float
    max_steps: int = 200_000
    arg_window: tuple[float, float] | None = None


@dataclass(frozen=True)
class Trajectory:
    points: tuple[CoverPoint, ...]
    s_values: tuple[complex, ...]
    termination: Termination
    level_drift: float


@dataclass(frozen=True)
class StokesEdge:
    source: str
    target: str
    trajectory: Trajectory


@dataclass(frozen=True)
class StokesComplex:
    vertices: tuple[str, ...]
    vertex_points: dict
    vertex_multiplicity: dict
    edges: tuple[StokesEdge, ...]
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class AdmissibilityReport:
    monotone: bool
    rho: float
    beta: float
    bound: float


def _potential(params: OscillatorParams):
    """Closures (z, arg) -> V and (z, arg) -> (V, V') of the reduced potential."""
    a = params.alpha

    def v(z: complex, arg: float):
        return _reduced_v(params, z, cmath.exp(2.0 * a * (math.log(abs(z)) + 1j * arg)))

    def v_pair(z: complex, arg: float):
        return _reduced_jet(params, z, cmath.exp(2.0 * a * (math.log(abs(z)) + 1j * arg)))[:2]

    return v, v_pair


def _stops_for(params: OscillatorParams, tps: TurningPointSet) -> TraceStops:
    """Radius bounds scaled to the turning point geometry."""
    mods = (list(tps.real_pair or ()) + [p.modulus for p in tps.sector_points]
            or [critical_data(params.alpha, params.ell).x_star])
    return TraceStops(radius_max=max(50.0, 10.0 * max(mods)), radius_min=1e-4 * min(mods))


def _match_sqrt(v: complex, ref: complex) -> complex:
    root = cmath.sqrt(v)
    return root if abs(root - ref) <= abs(root + ref) else -root


def trace_trajectory(params: OscillatorParams, x0, theta: float, direction: int,
                     stops: TraceStops, *, tp_guard=None) -> Trajectory:
    """Trace the theta-trajectory of V dx^2 through x0.

    Integrates dx/dtau = direction * e^{i*theta}/sqrt(V) with RK4, the branch
    of sqrt(V) continued step to step, and projects back onto the level set of
    Im(e^{-i*theta} S) every few steps.  S is accumulated independently by
    Simpson's rule on the realized polyline, anchored at S(x0) = 0.

    A step of length dx changes sqrt(V) by the relative amount
    |V'| dx / (2|V|) to first order; each step keeps that below _STEP_FRAC
    (_STEP_FRAC_ENDGAME within 50 guard radii of the nearest guard), below
    0.05 |x|, and below 0.35 times the distance to the nearest guard.
    Near a zero of V of order beta at distance d this gives
    dx = 2 _STEP_FRAC d / beta: the steps shrink in proportion to d, and
    closing in on a guard ball takes a number of steps logarithmic in d.

    tp_guard is a list of (CoverPoint, exclusion_radius); entering a guard ball
    terminates the trace with near_turning_point(index), but only on the
    guard's own sheet (|arg x - arg guard| < 1) unless 2 alpha is an integer:
    for other alpha V one turn away is a different function, and the point
    there is no zero of it.  Every guard is live from the first step: a trace
    launched from a fan ray outside its source's ball moves away from it.
    """
    p0 = x0 if isinstance(x0, CoverPoint) else CoverPoint.from_complex(complex(x0))
    v_of, v_pair = _potential(params)
    two_a_int = _integer_power(params.alpha) is not None
    guards = [] if tp_guard is None else list(tp_guard)
    guard_z = [g[0].to_complex() for g in guards]
    guard_arg = [g[0].arg for g in guards]
    guard_r = [g[1] for g in guards]

    z = p0.to_complex()
    arg = p0.arg
    v, v1 = v_pair(z, arg)
    if v == 0:
        raise ValueError("trace must not start at a turning point")
    sq = cmath.sqrt(v)
    phase = cmath.rect(1.0, theta)
    conj_phase = phase.conjugate()

    def rhs(zz: complex, aa: float, ref: complex) -> tuple[complex, complex]:
        """RK4 stage: dx/dtau and sqrt(V) at zz, the branch continued from ref."""
        root = _match_sqrt(v_of(zz, aa), ref)
        return phase / root, root

    points = [p0]
    s_vals = [0.0 + 0.0j]
    s_acc = 0.0 + 0.0j
    drift_max = 0.0
    geo_scale = max(abs(z), stops.radius_min * 10.0)
    termination = Termination("step_limit")
    turn_mods: list[float] = []  # |x| at each completed turn about the origin
    dist = [abs(z - gz) for gz in guard_z]  # |x - x_g| where the last step ended

    n = 0
    while n < stops.max_steps:
        n += 1
        # local step bound: sqrt(V) relative change and geometric caps; the
        # jet (v, v1) and the guard distances at z were evaluated where the
        # previous step ended
        if v == 0:
            termination = Termination("zero_of_v")
            break
        rate = abs(v1) / (2.0 * abs(v))
        dx_cap = 0.05 * abs(z)
        frac = _STEP_FRAC
        if guards:
            d_min, r_near = min(zip(dist, guard_r))
            dx_cap = min(dx_cap, 0.35 * d_min + 1e-14 * geo_scale)
            if d_min < 50.0 * r_near:
                frac = _STEP_FRAC_ENDGAME
        dx_lim = min(dx_cap, frac / max(rate, 1e-300))
        dtau = direction * dx_lim * abs(sq)

        # RK4 on x(tau) with the branch continued through the stages
        k1 = phase / sq
        z2 = z + 0.5 * dtau * k1
        k2, r2 = rhs(z2, arg + cmath.phase(z2 / z), sq)
        z3 = z + 0.5 * dtau * k2
        k3, r3 = rhs(z3, arg + cmath.phase(z3 / z), r2)
        z4 = z + dtau * k3
        k4, r4 = rhs(z4, arg + cmath.phase(z4 / z), r3)
        znew = z + (dtau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if znew == 0:
            termination = Termination("hit_radius_min")
            break
        argnew = arg + cmath.phase(znew / z)

        # Simpson accumulation of S along the realized chord
        zm = 0.5 * (z + znew)
        am = arg + cmath.phase(zm / z)
        sm = _match_sqrt(v_of(zm, am), sq)
        v, v1 = v_pair(znew, argnew)
        sqn = _match_sqrt(v, sm)
        s_acc += (znew - z) * (sq + 4.0 * sm + sqn) / 6.0

        z, arg, sq = znew, argnew, sqn
        points.append(CoverPoint(abs(z), arg))
        s_vals.append(s_acc)
        drift = abs((conj_phase * s_acc).imag)
        if drift > drift_max:
            drift_max = drift

        if n % _CORRECT_EVERY == 0:
            # one Newton step transverse to the trace restores the level set
            d = (conj_phase * s_acc).imag
            delta = -1j * d * phase / sq
            zc = z + delta
            if zc != 0:
                ac = arg + cmath.phase(zc / z)
                v, v1 = v_pair(zc, ac)
                sqc = _match_sqrt(v, sq)
                s_acc += delta * (sq + sqc) / 2.0
                z, arg, sq = zc, ac, sqc
                points[-1] = CoverPoint(abs(z), arg)
                s_vals[-1] = s_acc

        # stop rules
        mod = abs(z)
        if mod >= stops.radius_max:
            termination = Termination("hit_radius_max")
            break
        if mod <= stops.radius_min:
            termination = Termination("hit_radius_min")
            break
        if stops.arg_window is not None and not (stops.arg_window[0] <= arg <= stops.arg_window[1]):
            k_sec = round(arg * (params.alpha + 1.0) / math.pi)
            termination = Termination("entered_sector", int(k_sec))
            break
        # one guard pass per step: the hit test and the next step's cap read it
        dist = [abs(z - gz) for gz in guard_z]
        hit = None
        for i, d in enumerate(dist):
            if d < guard_r[i] and (two_a_int or abs(arg - guard_arg[i]) < 1.0):
                hit = i
                break
        if hit is not None:
            termination = Termination("near_turning_point", hit)
            break
        # winding bookkeeping: spirals shrink each turn, bounded orbits do not
        if abs(arg - p0.arg) >= 2.0 * math.pi * (len(turn_mods) + 1):
            prev_mod = turn_mods[-1] if turn_mods else points[0].modulus
            turn_mods.append(mod)
            if mod < 0.95 * prev_mod:
                termination = Termination("spiral_into_origin")
                break
            if len(turn_mods) >= 3:
                termination = Termination("bounded_winding")
                break

    WORK.update(traces=1, trace_steps=len(points) - 1)
    return Trajectory(tuple(points), tuple(s_vals), termination, drift_max)


def _infinity_label(alpha: float, arg: float, theta: float) -> str:
    """Name the escape direction (theta + m pi)/(alpha + 1) nearest arg "inf_<2m+1>/2"."""
    k = round((arg * (alpha + 1.0) - theta) / math.pi)
    n = _integer_power(alpha)
    if n is not None:
        # V is single valued, the graph is periodic with period 2(alpha+1);
        # report escape directions in the principal window
        period = n + 2
        offset = period // 2
        k = (k + offset) % period - offset
    return "inf_%d/2" % (2 * k + 1)


def _far_field_size(params: OscillatorParams, r: float) -> float:
    """Bound |E| r^(-2 alpha) + lam^2 r^(-2 alpha - 2) on |w| = |V x^(-2 alpha) - 1| at |x| = r."""
    return (abs(params.energy) + params.lam ** 2 / (r * r)) * r ** (-2.0 * params.alpha)


def _escape_radius(params: OscillatorParams, cap: float) -> float:
    """The escape ring, where _far_field_size falls to _ESCAPE_EPS, or cap if that is nearer."""
    def excess(r: float) -> float:
        return _far_field_size(params, r) - _ESCAPE_EPS
    if excess(cap) >= 0.0:
        return cap
    # one term alone reaches eps at lo, so the ring lies in [lo, cap]
    a2 = 2.0 * params.alpha
    lo = max((abs(params.energy) / _ESCAPE_EPS) ** (1.0 / a2),
             (params.lam ** 2 / _ESCAPE_EPS) ** (1.0 / (a2 + 2.0)))
    return _brent(excess, lo, cap, 0.0, 1e-12)


def _escape_limit(params: OscillatorParams, end: CoverPoint, heading: complex, theta: float,
                  window: tuple[float, float] | None) -> float | None:
    """Limit argument of the theta-trajectory through end, moving along heading, or None.

    Where w = V x^(-2 alpha) - 1 has |w| <= _ESCAPE_EPS = eps, the trace's
    zeta = x^(alpha+1)/(alpha+1) moves with
    velocity c/sqrt(1 + w), c = +-e^(i theta) fixed, so within
    phi = asin(delta/(1 - delta)) of c, delta = 1 - sqrt(1 - eps).  If zeta
    makes an angle below pi/2 - phi with c, it stays in the cone spanned by
    itself and the phi-cone about c: |x| grows for ever and (alpha+1) arg x
    tends to arg c + 2 pi k without leaving that cone.  None (not certified)
    if end is not that far out, the angle is too wide, or the cone leaves the
    arg window.
    """
    if _far_field_size(params, end.modulus) > _ESCAPE_EPS:
        return None
    a1 = params.alpha + 1.0
    xpow = end.cpow(2.0 * params.alpha)
    # x^alpha dx = dzeta is along c/sqrt(1 + w), and 1 + w = V x^(-2 alpha)
    c = end.cpow(params.alpha) * heading * cmath.sqrt(
        _reduced_v(params, end.to_complex(), xpow) / xpow)
    arg_c = theta if (c * cmath.rect(1.0, -theta)).real > 0.0 else theta + math.pi
    limit = arg_c + 2.0 * math.pi * round((a1 * end.arg - arg_c) / (2.0 * math.pi))
    off = a1 * end.arg - limit
    if abs(off) >= 0.5 * math.pi - _ESCAPE_SPREAD:
        return None
    if window is not None and not (window[0] <= (limit + min(off, -_ESCAPE_SPREAD)) / a1 and
                                   (limit + max(off, _ESCAPE_SPREAD)) / a1 <= window[1]):
        return None
    return limit / a1


def _nearest_ray(fan: list[float], angle: float) -> int:
    """Index of the fan direction closest to angle."""
    return min(range(len(fan)), key=lambda m: abs(cmath.phase(cmath.rect(1.0, angle - fan[m]))))


def _collect_tps(tps: TurningPointSet,
                 sector_window: tuple[float, float] | None) -> list[tuple[CoverPoint, int]]:
    """(turning point, multiplicity) in the window by argument and modulus; turning_points
    lists a zero of order m m times, at one and the same point."""
    pts = [CoverPoint(x, 0.0) for x in tps.real_pair or ()] + list(tps.sector_points)
    if sector_window is not None:
        lo, hi = sector_window
        pts = [p for p in pts if lo - 1e-9 <= p.arg <= hi + 1e-9]
    return sorted(Counter(pts).items(), key=lambda pm: (round(pm[0].arg, 9), pm[0].modulus))


def _fan_directions(params: OscillatorParams, tp: CoverPoint, beta: int,
                    theta: float) -> list[float]:
    """Local emission angles at a turning point of multiplicity beta.

    With V ~ a0 (x - x0)^beta the trajectory through x0 satisfies
    arg a0 / 2 + (beta + 2)/2 * phi = theta mod pi, giving beta + 2 rays
    phi_m = (2 m pi + 2 theta - arg a0) / (beta + 2).
    """
    _, v1, v2 = _reduced_jet(params, tp.to_complex(), tp.cpow(2.0 * params.alpha))
    a0 = v1 if beta == 1 else v2 / 2.0
    base = cmath.phase(a0)
    return [(2.0 * m * math.pi + 2.0 * theta - base) / (beta + 2.0)
            for m in range(beta + 2)]


def stokes_complex(params: OscillatorParams,
                   sector_window: tuple[float, float] | None = None,
                   theta: float = 0.5 * math.pi) -> StokesComplex:
    """Assemble the graph of theta-trajectories emitted by turning points.

    Each turning point of multiplicity beta has beta + 2 rays in its local
    fan; traces terminate at another turning point, at the origin, at an
    escape direction at infinity, or, given a sector_window, at the window
    edge they cross (vertex "exit_<edge>").  Each edge is traced once: a trace
    that ends at a turning point claims the fan ray there nearest to its
    arrival, which is then not launched; an arrival on a ray already claimed
    or traced is warned about.  A trace first stops at the escape ring, past
    which |V x^(-2 alpha) - 1| <= _ESCAPE_EPS; there _escape_limit certifies
    its escape direction in closed form, or else it is traced again with the
    radius bound of _stops_for.  Infinity labels name the escape direction
    (theta + m pi)/(alpha + 1) by m.
    """
    tps = turning_points(params)
    tp_list = _collect_tps(tps, sector_window)
    if not tp_list:
        where = "" if sector_window is None else " in the window [%g, %g]" % sector_window
        raise ValueError(f"no turning points found{where} (alpha={params.alpha:g}, "
                         f"ell={params.ell:g}, E={params.energy:g})")
    stops = replace(_stops_for(params, tps), arg_window=sector_window)
    ring = replace(stops, radius_max=_escape_radius(params, stops.radius_max))
    # exclusion radii from the local root spacing (origin counts as a root)
    zs = [p.to_complex() for p, _ in tp_list]
    spacing = []
    for i, zi in enumerate(zs):
        d = [abs(zi - zj) for j, zj in enumerate(zs) if j != i]
        d.append(abs(zi))
        spacing.append(min(d))
    guards = [(p, 1e-3 * s) for (p, _), s in zip(tp_list, spacing)]
    fans = [_fan_directions(params, tp, beta, theta) for tp, beta in tp_list]

    traces: list[tuple[int, Trajectory, str | None]] = []
    warnings: list[str] = []
    claimed: set[tuple[int, int]] = set()
    for i, (tp, _) in enumerate(tp_list):
        launch_r = 10.0 * guards[i][1]
        for m, phi in enumerate(fans[i]):
            if (i, m) in claimed:
                continue
            z_launch = tp.to_complex() + cmath.rect(launch_r, phi)
            pt = CoverPoint.from_complex(z_launch, near_arg=tp.arg)
            v = _reduced_v(params, z_launch, pt.cpow(2.0 * params.alpha))
            u = cmath.rect(1.0, theta) / cmath.sqrt(v)
            outward = (u.conjugate() * cmath.rect(1.0, phi)).real
            direction = 1 if outward > 0 else -1
            traj = trace_trajectory(params, pt, theta, direction, ring, tp_guard=guards)
            limit = None
            if traj.termination.kind == "hit_radius_max":
                end, prev = traj.points[-1], traj.points[-2]
                limit = _escape_limit(params, end, end.to_complex() - prev.to_complex(), theta,
                                      sector_window)
                if limit is None and ring.radius_max < stops.radius_max:
                    WORK["trace_fallbacks"] += 1
                    traj = trace_trajectory(params, pt, theta, direction, stops, tp_guard=guards)
            term = traj.termination
            label: str | None = None
            if limit is not None:
                label = _infinity_label(params.alpha, limit, theta)
            elif term.kind == "near_turning_point":
                # an edge to a turning point: claim the ray it arrives along
                j = term.index
                ray = _nearest_ray(fans[j], cmath.phase(traj.points[-1].to_complex() - zs[j]))
                if (j, ray) in claimed or j < i or (j == i and ray <= m):
                    warnings.append("trace from tp%d along phi=%.3f arrives at tp%d on ray %d,"
                                    " already claimed or traced" % (i, phi, j, ray))
                else:
                    claimed.add((j, ray))
            elif term.kind == "hit_radius_max":
                label = _infinity_label(params.alpha, traj.points[-1].arg, theta)
            elif term.kind in ("hit_radius_min", "spiral_into_origin"):
                label = "0"
            elif term.kind == "entered_sector":
                lo, hi = sector_window
                label = "exit_%g" % (hi if traj.points[-1].arg > hi else lo)
            else:
                label = "unresolved"
                end = traj.points[-1]
                warnings.append(
                    "trace from tp%d along phi=%.3f ended by %s after %d points"
                    " at |x|=%.3g, arg=%.3g"
                    % (i, phi, term.kind, len(traj.points), end.modulus, end.arg))
            traces.append((i, traj, label))

    # edges to labelled ends in trace order, then turning point pairs in order
    edges = [StokesEdge("tp%d" % i, label, traj) for i, traj, label in traces if label is not None]
    pairs = [(sorted((i, traj.termination.index)), traj) for i, traj, label in traces
             if label is None]
    edges += [StokesEdge("tp%d" % i, "tp%d" % j, traj)
              for (i, j), traj in sorted(pairs, key=lambda pair: pair[0])]

    # vertices in insertion order: turning points, the origin, then edge
    # targets (every edge source is a turning point)
    vertex_points: dict = {"tp%d" % i: tp for i, (tp, _) in enumerate(tp_list)}
    vertex_multiplicity = {"tp%d" % i: beta for i, (_, beta) in enumerate(tp_list)}
    vertex_points["0"] = None
    for e in edges:
        vertex_points.setdefault(e.target, None)
    # fan-count consistency: each turning point must carry beta + 2 edge ends
    for i, (tp, beta) in enumerate(tp_list):
        lab = "tp%d" % i
        ends = sum((e.source == lab) + (e.target == lab) for e in edges)
        if ends != beta + 2:
            warnings.append("tp%d has %d edge ends, expected %d" % (i, ends, beta + 2))
    return StokesComplex(
        vertices=tuple(vertex_points),
        vertex_points=vertex_points,
        vertex_multiplicity=vertex_multiplicity,
        edges=tuple(edges),
        warnings=tuple(warnings),
    )


def _safe_bound(rho: float, beta: float) -> float:
    """exp(rho (1 + e^-beta)/2) - 1, saturating at inf instead of overflowing.

    A hugely negative beta means the curve runs against the recessive
    direction somewhere; the certificate is then vacuous, which inf conveys.
    """
    arg = rho * 0.5 * (1.0 + math.exp(min(-beta, _EXP_CAP)))
    if arg > _EXP_CAP:
        return math.inf
    return math.expm1(arg)


def check_admissible(params: OscillatorParams, path: PathSpec) -> AdmissibilityReport:
    """Certify a candidate path: Re S rises along it, and the (rho, beta) bound.

    The monotonicity test and beta read S on volterra._frame_grid at
    n = _FUNCTIONALS_N: max(8, n // segments) points per segment, with every
    corner node doubled (1,024 nodes on 16 segments, 1,408 on 176).  rho =
    int |F| |dx| comes from adaptive Gauss quadrature per segment.
    Monotonicity is judged against the path's own scale: Re S must rise by
    more than a fixed fraction of the mean |dS| per grid interval, so a path
    where Re S stalls (sqrt(V) locally imaginary) or falls is rejected.
    """
    frame = PathFrame(params, path)
    ts, svals = _frame_grid(frame, _FUNCTIONALS_N)
    # each segment starts where the previous one ended: drop the duplicate
    re = svals.real[np.concatenate(([True], np.diff(ts) > 0.0))]
    total_len = float(np.sum(np.abs(np.diff(svals))))
    d = np.diff(re)
    tol = 1e-9 * (total_len / max(1, len(d)) + 1e-300)
    beta = float(np.min(re - np.maximum.accumulate(re)))
    rho = 0.0
    for i in range(len(frame.segments)):
        def speed(t: np.ndarray, i=i) -> np.ndarray:
            return np.abs(frame.forcing(i, t) * frame.point(i, t)[2])
        rho += _adaptive_gauss(speed, np.array([0.0, 1.0]), 1e-12, 1e-10,
                               f"rho on segment {i} (alpha={params.alpha:g}, ell={params.ell:g}, "
                               f"E={params.energy:g})")
    return AdmissibilityReport(bool(np.all(d > tol)), rho, beta, _safe_bound(rho, beta))


def trajectory_csv_rows(traj: Trajectory) -> list[tuple[float, float, float]]:
    """Rows (Re x, Im x, cover argument) for polyline export."""
    out = []
    for p in traj.points:
        z = p.to_complex()
        out.append((z.real, z.imag, p.arg))
    return out


def complex_to_json_dict(sc: StokesComplex, params: OscillatorParams,
                         include_polylines: bool = True) -> dict:
    verts = []
    for lab in sc.vertices:
        p = sc.vertex_points.get(lab)
        if lab.startswith("tp"):
            kind = "turning_point"
        elif lab == "0":
            kind = "origin"
        elif lab.startswith("inf"):
            kind = "infinity"
        else:
            kind = "boundary"
        entry = {
            "label": lab,
            "kind": kind,
            "position": None if p is None else [p.to_complex().real, p.to_complex().imag],
            "multiplicity": sc.vertex_multiplicity.get(lab),
        }
        verts.append(entry)
    edges = []
    for e in sc.edges:
        item = {"source": e.source, "target": e.target}
        if include_polylines:
            item["points"] = [[r, i, a] for r, i, a in trajectory_csv_rows(e.trajectory)]
        edges.append(item)
    return {
        "schema_version": 1,
        "alpha": params.alpha,
        "ell": params.ell,
        "energy": [params.energy.real, params.energy.imag],
        "vertices": verts,
        "edges": edges,
        "warnings": list(sc.warnings),
    }


def topology_signature(sc: StokesComplex) -> dict:
    """Canonical labeled-graph signature: sorted vertices and edge multiset."""
    pairs = sorted(
        "%s|%s" % tuple(sorted((e.source, e.target))) for e in sc.edges
    )
    return {"vertices": sorted(sc.vertices), "edges": pairs}
