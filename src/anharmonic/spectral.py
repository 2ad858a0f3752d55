"""Spectral quantities: the determinant, eigenvalue scans, Stokes multipliers,
sector cross-ratios, and the monodromy-type ratio on the positive axis.

Conventions used throughout (Wr[f, g] = f g' - f' g):

 * Q(E)    = Wr[chi, psi_0], chi the regular solution at the origin and psi_0
             the recessive solution of the sector containing the positive
             axis; eigenvalues are the zeros of Q on the real E axis.
 * sigma_k = Wr[psi_{k-1}, psi_{k+1}] / Wr[psi_{k-1}, psi_k].
 * W_a(b, d) = Wr[psi_a, psi_b] / Wr[psi_a, psi_d], and the quadruple ratio
             R_{(a,b,c,d)} = -W_a(b, d) / W_c(b, d).
 * R0      = -Wr[chi, psi_1] / Wr[chi, psi_{-1}], which approaches -1 at
             eigenvalues and equals exp(-2 pi i I(E)) to leading order in the
             semiclassical regime.

Sibuya's symmetry psi_k(x, E) ∝ psi_0(omega^-k x, omega^2k E), omega =
e^(i theta), theta = pi/(alpha + 1), gives Wr[chi, psi_s] = omega^(s (ell -
alpha/2)) Q~_s with Q~_s = Q(omega^2s E) exp(-i s theta c(omega^2s E)); c E^k
is the coefficient of the log x term of R(x), nonzero only at the thresholds
alpha = 1/(2k - 1).  For real alpha, ell and E, Q~_{-s} = conj Q~_s (Dorey &
Tateo, J. Phys. A 32 (1999) L419; Dorey, Dunning & Tateo, J. Phys. A 40 (2007)
R205).  As Wr[psi_k, psi_{k+1}] = 2 (-1)^k exactly (both normalized asymptotic
forms hold between the two sectors), psi_{k+1} = psi_{k-1} + sigma_k psi_k.
Its Wronskian with chi is the T-Q relation sigma_k = -i [omega^-(ell+1/2)
Q~_{k-1} + omega^(ell+1/2) Q~_{k+1}] / Q~_k, and R0 = omega^(2 ell + 1) Q~_1 /
Q~_{-1}.  Where omega^2k E is real and positive, Q~_k vanishes at eigenvalues
and sigma_k = e^(2 i k theta c) sigma_0(omega^2k E) comes from psi_1, which is
conj psi_{-1} on the positive axis.  All transports meet at x_match = max(1,
x_+), x_+ the outer turning point of the real E: chi and psi_1's arc meet
one psi_0 there.  psi_0, each Q~_s and the psi_1 hop are made once per
energy: a one-entry memo keeps them for the last real E asked for, so
stokes_multiplier, fock_goncharov, sector_wronskian and r_zero at one E share
every transport, and a call at a new E replaces the entry.  Where omega^2s E
is real (2 s theta / pi = m, an integer) it is computed as E (-1)^m: Q~_s
reuses Q~_0 for even m and takes Q at -E in real arithmetic for odd m
(alpha = 1, 3, 1/3, 1/5, ...).  The Stokes ladder Wr[psi_j, psi_m] =
Wr[psi_j, psi_{m-2}] + sigma_{m-1} Wr[psi_j, psi_{m-1}] gives every other
Wronskian without carrying two exponentially large solutions to one point.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

from .model import (
    WORK,
    CoverPoint,
    OscillatorParams,
    _NEAR_CRITICAL,
    _brent,
    _real_pair,
    critical_data,
    sector_center_arg,
)
from .action import (
    PathSpec,
    bohr_sommerfeld_energy,
    asymptotic_reference,
    wkb_phase,
    wkb_phase_derivative,
)
from .integrate import (
    SolutionState,
    choose_x_max,
    _frobenius_scaled,
    frobenius_seed,
    propagate,
    r_expansion,
    sibuya_seed,
    wronskian,
)

__all__ = [
    "DeterminantValue",
    "SpectrumRecord",
    "spectral_determinant",
    "eigenvalues",
    "asymptotic_spectrum",
    "spectrum_table",
    "stokes_multiplier",
    "sector_wronskian",
    "fock_goncharov",
    "r_zero",
    "semiclassical_r_zero",
]

@dataclass(frozen=True)
class DeterminantValue:
    """Wronskian Wr[chi, psi_0] as mantissa * exp(logscale)."""

    mantissa: complex
    logscale: float

    @property
    def value(self) -> complex:
        return self.mantissa * cmath.exp(self.logscale)

    @property
    def log_abs(self) -> float:
        if self.mantissa == 0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.logscale


@dataclass(frozen=True)
class SpectrumRecord:
    n: int
    e_exact: float | None
    e_bs: float | None
    e_asym: float | None
    rel_dev_bs: float | None
    rel_dev_asym: float | None


@lru_cache(maxsize=64)
def _series_table(alpha: float, ell: float):
    return frobenius_seed(alpha, ell)


class _Geometry(NamedTuple):
    """The radii one spectral call works with, all from the real well of E."""

    x_minus: float  # inner turning point, or the bowl scale x_star below the well
    x_plus: float   # outer turning point, or x_star
    x_match: float  # max(1, x_plus): chi, psi_0 and psi_1's arc meet there, Re R O(1)
    x_max: float    # seed radius of the sector rays


def _geometry(params: OscillatorParams) -> _Geometry:
    """Locate the well of E once and derive every radius from it.

    Below the critical energy there is no real pair and the bottom of the
    well x_star stands in for both turning points.
    """
    pair = _real_pair(params)
    if pair is None:
        x_minus = x_plus = critical_data(params.alpha, params.ell).x_star
    else:
        x_minus, x_plus = pair
    return _Geometry(x_minus, x_plus, max(1.0, x_plus), choose_x_max(params, x_plus))


def _chi_state(params: OscillatorParams, geo: _Geometry, rtol: float) -> SolutionState:
    """chi, the solution regular at the origin, carried from its series to x_match.

    The series is summed on the ladder x0, 2 x0, 4 x0, ... from x0 =
    min(0.05, 0.05 x_-), deep in the centrifugal region, up to half the inner
    turning point x_- (and not past x_match), and
    chi is seeded at the last radius whose truncation estimate still passes
    rem <= 1e-10 |value|.  Below x_- chi is the growing solution of the
    centrifugal barrier, so a seed error there is a multiple of chi, which
    moves no zero of Q, plus a recessive part that the rest of the barrier
    damps; seeding further out only skips RK steps through the x^(ell+1)
    growth.  The modulus of x^(ell+1) rides in the log-scale, so large ell
    cannot underflow the seed.
    """
    table = _series_table(params.alpha, params.ell)
    x0 = min(0.05, 0.05 * geo.x_minus)
    val, dval, rem, loglead = _frobenius_scaled(table, params.energy, CoverPoint(x0, 0.0))
    if rem > 1e-10 * abs(val):
        raise RuntimeError(
            f"series seed not converged at the seeding radius x0={x0:.6g} "
            f"(alpha={params.alpha:g}, ell={params.ell:g}, E={params.energy:g})")
    x_cap = min(0.5 * geo.x_minus, geo.x_match)
    while 2.0 * x0 <= x_cap:
        trial = _frobenius_scaled(table, params.energy, CoverPoint(2.0 * x0, 0.0))
        if trial[2] > 1e-10 * abs(trial[0]):
            break
        x0 = 2.0 * x0
        val, dval, rem, loglead = trial
    state = SolutionState(CoverPoint(x0, 0.0), val, dval, loglead).rescaled()
    path = PathSpec((CoverPoint(x0, 0.0), CoverPoint(geo.x_match, 0.0)), ("ray",),
                    "principal")
    return propagate(params, state, path, rtol=rtol)


def _psi0_state(params: OscillatorParams, geo: _Geometry, rtol: float,
                refine: bool) -> SolutionState:
    """psi_0 seeded at x_max and carried inward, its stable direction, to x_match."""
    path = PathSpec((CoverPoint(geo.x_max, 0.0), CoverPoint(geo.x_match, 0.0)), ("ray",),
                    "principal")
    return propagate(params, sibuya_seed(params, 0, geo.x_max, refine=refine), path, rtol=rtol)


def spectral_determinant(params: OscillatorParams, refine: bool = True,
                         rtol: float = 1e-10) -> DeterminantValue:
    """Q(E) = Wr[chi, psi_0], zero exactly at the eigenvalues.

    chi is carried outward from the origin series, psi_0 inward from its ray
    seed; both transports run toward their stable direction, so the result is
    insensitive to seeding error (which only enters multiplicatively).
    """
    return _determinant(params, _geometry(params), refine, rtol)


def _determinant(params: OscillatorParams, geo: _Geometry, refine: bool,
                 rtol: float) -> DeterminantValue:
    """Wr[chi, psi_0] at the energy of params, on radii geo found by the caller.

    The radii come from a real energy, so params may carry a complex one:
    _Sectors evaluates Q at omega^2s E on the radii of the real E.
    """
    WORK["determinants"] += 1
    chi = _chi_state(params, geo, rtol)
    psi = _psi0_state(params, geo, rtol, refine)
    m, l = wronskian(chi, psi)
    return DeterminantValue(m, l)


def _phase_index(alpha: float, ell: float, energy: float) -> int:
    """Bohr-Sommerfeld index of an eigenvalue: I(E) is close to n + 1/2."""
    p = OscillatorParams(alpha, energy, ell)
    return int(round(wkb_phase(p) - 0.5))


# Determinant evaluations the polish of one level may spend before it leaves
# the level to the index check.
_POLISH_EVALS = 10


def _ode_rtol(rel_tol: float) -> float:
    """ODE tolerance of the determinants an eigenvalue scan to rel_tol evaluates."""
    return min(1e-9, max(rel_tol * 0.05, 5e-13))


def eigenvalues(alpha: float, ell: float, n_max: int,
                rel_tol: float = 1e-9) -> list[float]:
    """First n_max + 1 eigenvalues: predict each level, polish it, check the indices.

    Level n is predicted at its Bohr-Sommerfeld energy, the root of the
    quantization condition I(E) = n + 1/2, and polished to a zero of Q by a
    safeguarded secant (_polish).  The polish takes its second point at the
    previous level's miss |root - prediction|, so where the prediction is
    good it starts next to the root; it stops on the secant's own error
    estimate, and never evaluates Q again at an energy it already holds
    (at alpha = 1, where the prediction is exact, a level costs two
    determinants).  An index check against I(E) then catches a
    level whose polish failed or landed on a neighbour's root, and rescans the
    gap it left in steps of a tenth of the local level spacing 1/(dI/dE).
    """
    ode_rtol = _ode_rtol(rel_tol)
    crit = critical_data(alpha, ell)

    def q_at(energy: float) -> DeterminantValue:
        p = OscillatorParams(alpha, energy, ell)
        return spectral_determinant(p, refine=False, rtol=ode_rtol)

    def spacing(energy: float) -> float:
        p = OscillatorParams(alpha, energy, ell)
        return 1.0 / max(wkb_phase_derivative(p), 1e-12)

    e_cap = 4.0 * asymptotic_spectrum(alpha, ell, n_max + 2) + 50.0
    e_floor = crit.e_star * (1.0 + _NEAR_CRITICAL)
    roots: list[float] = []
    miss = math.inf  # |root - prediction| of the previous level
    for n in range(n_max + 1):
        e_guess = max(bohr_sommerfeld_energy(alpha, ell, n), e_floor)
        if e_guess > e_cap:
            raise RuntimeError(
                f"eigenvalue scan ran past its energy cap {e_cap:.6g} at E={e_guess:.6g} "
                f"with {len(roots)} of n_max + 1 = {n_max + 1} levels "
                f"(alpha={alpha:g}, ell={ell:g})")
        root = _polish(q_at, n, e_guess, spacing(e_guess), e_floor, e_cap, rel_tol, miss)
        miss = math.inf if root is None else abs(root - e_guess)
        if root is not None:
            roots.append(root)

    for _ in range(3):
        index = [_phase_index(alpha, ell, r) for r in roots]
        missing = sorted(set(range(n_max + 1)) - set(index))
        if not missing:
            break
        for k in missing:
            lo = max([r for r, i in zip(roots, index) if i < k], default=e_floor)
            hi = min([r for r, i in zip(roots, index) if i > k], default=e_cap)
            roots.extend(_rescan(q_at, spacing, lo, hi, rel_tol))
        roots = sorted(set(roots))
    else:  # the last round rescanned: index its roots
        index = [_phase_index(alpha, ell, r) for r in roots]
    picked = {i: r for r, i in zip(roots, index)}
    if sorted(picked)[: n_max + 1] != list(range(n_max + 1)):
        raise RuntimeError(f"scan did not resolve indices 0..{n_max} (alpha={alpha:g}, "
                           f"ell={ell:g}): found {sorted(picked)}")
    return [picked[i] for i in range(n_max + 1)]


def _bracket_root(q_at, e_lo: float, e_hi: float, q_lo: DeterminantValue,
                  q_hi: DeterminantValue, rel_tol: float) -> float:
    """Zero of Q between two scan energies where Re Q changes sign.

    Brent's method opens by evaluating both ends; the scan already holds Q there, so
    those two values come from a memo instead of two more transports.
    """
    ref = max(q_lo.log_abs, q_hi.log_abs)
    known = {e_lo: q_lo, e_hi: q_hi}

    def f(energy: float) -> float:
        q = known.get(energy)
        if q is None:
            q = q_at(energy)
        return math.copysign(math.exp(min(q.log_abs - ref, 50.0)), q.mantissa.real)
    return _brent(f, e_lo, e_hi, rel_tol * max(1.0, e_hi), 8.9e-16)


def _polish(q_at, n: int, e_guess: float, gap: float, e_lo: float, e_hi: float,
            rel_tol: float, miss: float = math.inf) -> float | None:
    """Zero of Q near the predicted energy of level n, or None if none is found
    within _POLISH_EVALS evaluations.

    Re Q is negative just below the ground level and changes sign at every
    level, so the sign of Q at the prediction tells on which side of level n
    it lies.  The second point is taken toward the root at the distance miss,
    the previous level's |root - prediction|, kept between 1e-6 and 1e-2 of
    the level spacing gap (a hundredth when there is no previous miss).
    Secant steps are capped at half a spacing until a sign change brackets
    the root; after that a step that leaves the bracket is replaced by
    bisection, and no step leaves [e_lo, e_hi].

    The secant root e_new is returned without evaluating Q there when its step
    is within the tolerance or, if the safeguards leave the step unchanged,
    (A) when it lands within the tolerance of the older of its two points
    e_a, where Q is already known, or (B) from the third evaluation on, when
    the secant's error estimate |f[e_p, e_a, e_b] / f[e_a, e_b]| |e_new - e_a|
    |e_new - e_b| is at most a tenth of the tolerance.

    Q enters as Re Q exp(logscale - ref) with ref the logscale at the
    prediction: where the prediction is the exact root (alpha = 1), |Q| there
    is at rounding level, and a reference log|Q| would blow every later value
    up to the clip.
    """
    q = q_at(e_guess)
    ref = q.logscale

    def f(q: DeterminantValue) -> float:
        return q.mantissa.real * math.exp(min(q.logscale - ref, 50.0))

    e_a, f_a = e_guess, f(q)
    if f_a == 0.0:
        return e_a
    # Re Q just below level n is positive for odd n: with that sign, step up
    toward = 1.0 if (f_a > 0.0) == (n % 2 == 1) else -1.0
    offset = min(max(miss, 1e-6 * gap), 0.01 * gap)
    e_b = min(max(e_a + toward * offset, e_lo), e_hi)
    e_p = f_p = None  # the evaluation before e_a
    ends = {f_a > 0.0: e_a}  # the latest energy on each side of the root
    for _ in range(_POLISH_EVALS - 1):
        f_b = f(q_at(e_b))
        if f_b == 0.0:
            return e_b
        ends[f_b > 0.0] = e_b
        if f_b == f_a:
            return None
        slope = (f_b - f_a) / (e_b - e_a)
        e_new = e_b - f_b / slope
        tol = rel_tol * max(1.0, e_b)
        # tested before the safeguards: next to an exact root the step can
        # round onto a bracket end
        if abs(e_new - e_b) <= tol:
            return e_new
        if len(ends) == 2:
            lo, hi = sorted(ends.values())
            e_next = e_new if lo < e_new < hi else 0.5 * (lo + hi)
        else:
            e_next = e_b + max(-0.5 * gap, min(0.5 * gap, e_new - e_b))
            e_next = min(max(e_next, e_lo), e_hi)
            if e_next == e_b:
                return None
        if e_next == e_new:
            if abs(e_new - e_a) <= tol:
                return e_new
            if e_p is not None:
                curve = (slope - (f_a - f_p) / (e_a - e_p)) / (e_b - e_p)
                if abs(curve / slope * (e_new - e_a) * (e_new - e_b)) <= 0.1 * tol:
                    return e_new
        e_p, f_p, e_a, f_a, e_b = e_a, f_a, e_b, f_b, e_next
    return None


def _rescan(q_at, spacing, lo: float, hi: float, rel_tol: float) -> list[float]:
    WORK["rescans"] += 1
    found: list[float] = []
    e_prev = lo * (1.0 + 1e-12)
    q_prev = q_at(e_prev)
    while e_prev < hi:
        e_next = min(e_prev + 0.1 * spacing(e_prev), hi)
        q_next = q_at(e_next)
        if (q_prev.mantissa.real > 0) != (q_next.mantissa.real > 0):
            found.append(_bracket_root(q_at, e_prev, e_next, q_prev, q_next, rel_tol))
        if e_next >= hi:
            break
        e_prev, q_prev = e_next, q_next
    return found


def asymptotic_spectrum(alpha: float, ell: float, n: int) -> float:
    """Closed-form high-level approximation [B (4n + 2 ell + 1)]^(2a/(a+1))."""
    return asymptotic_reference("spectrum_large_n", alpha, ell=ell, n=n)


def spectrum_table(alpha: float, ell: float, n_max: int,
                   methods: tuple[str, ...] = ("exact", "bs", "asym"),
                   rel_tol: float = 1e-9) -> list[SpectrumRecord]:
    exact = eigenvalues(alpha, ell, n_max, rel_tol=rel_tol) if "exact" in methods else None
    out: list[SpectrumRecord] = []
    for n in range(n_max + 1):
        e_exact = exact[n] if exact is not None else None
        e_bs = bohr_sommerfeld_energy(alpha, ell, n) if "bs" in methods else None
        e_asym = asymptotic_spectrum(alpha, ell, n) if "asym" in methods else None
        dev_bs = abs(e_bs - e_exact) / e_exact if (e_exact and e_bs is not None) else None
        dev_asym = abs(e_asym - e_exact) / e_exact if (e_exact and e_asym is not None) else None
        out.append(SpectrumRecord(n, e_exact, e_bs, e_asym, dev_bs, dev_asym))
    return out


# ODE tolerance of the transports behind the connection data and R0
_CONNECTION_RTOL = 1e-10


# natural logs of the largest and of the smallest normal double
_LOG_MAX = math.log(sys.float_info.max)
_LOG_MIN = math.log(sys.float_info.min)


def _log_abs(z: complex) -> float:
    return math.log(abs(z)) if z else -math.inf


def _check_range(params: OscillatorParams, k: int, route: str, exponents: Iterable[float],
                 sizes: Iterable[float]) -> None:
    """RuntimeError unless sigma_k, a sum of terms m e^x, is a normal double.

    exponents are the x that math.exp must take, sizes the log |m e^x| of the
    terms: the largest exponent and the largest size must stay below _LOG_MAX,
    and not every term may underflow.
    """
    top, size = max(exponents), max(sizes)
    if top > _LOG_MAX or not _LOG_MIN <= size <= _LOG_MAX:
        raise RuntimeError(
            f"sigma_{k} leaves the double range on the {route} route: log|sigma| ~ {size:.6g},"
            f" largest exponent {top:.6g} (alpha={params.alpha:g}, ell={params.ell:g},"
            f" E={params.energy:g}, k={k})")


def _psi1_hop(params: OscillatorParams, geo: _Geometry, zero: SolutionState) -> complex:
    """sigma_0 at the real energy of params, on the caller's radii geo.

    psi_1 goes down its ray to x_match and on an arc to the positive axis,
    where Wr[psi_{-1}, psi_1] = 2i e^(2L) Im(conj(f) f') for its state
    (f, f', L).  Dividing by Wr[psi_{-1}, psi_0] (-2 for exact seeds), with
    zero the caller's psi_0 there, cancels the seeds' shared normalization
    error, 3e-7 at alpha = 1/3."""
    theta = sector_center_arg(params.alpha, 1)
    path = PathSpec((CoverPoint(geo.x_max, theta), CoverPoint(geo.x_match, theta),
                     CoverPoint(geo.x_match, 0.0)), ("ray", "arc"), "principal")
    one = propagate(params, sibuya_seed(params, 1, geo.x_max), path, rtol=_CONNECTION_RTOL)
    f, fp = one.value, one.derivative
    im = (f.conjugate() * fp).imag
    ratio = _CONNECTION_RTOL * 2.0 * abs(f) * abs(fp) / abs(im) if im else math.inf
    if ratio > 1e-6:
        raise RuntimeError(
            f"Wr[psi_-1, psi_1] lost to cancellation: rtol 2|f||f'|/|Im(conj(f) f')| = {ratio:.3g}"
            f" > 1e-6 (alpha={params.alpha:g}, ell={params.ell:g}, E={params.energy:g}, k=0)")
    m, l = wronskian(replace(one, value=f.conjugate(), derivative=fp.conjugate()), zero)
    scale = 2.0 * one.logscale - l
    _check_range(params, 0, "psi_1 hop", (scale,), (_log_abs(2.0 * im / m) + scale,))
    return 2j * im / m * math.exp(scale)


def _real_rotation(alpha: float, s: int) -> int | None:
    """m where omega^2s = e^(2 i s theta) is the real (-1)^m, i.e. 2 s theta / pi = m;
    None where omega^2s is not real."""
    half_turns = 2.0 * sector_center_arg(alpha, s) / math.pi
    m = round(half_turns)
    return m if abs(half_turns - m) < 2e-12 else None


class _Sectors:
    """The transports behind the connection data at one real energy.

    psi_0 at x_match, each Q~_n and the psi_1 hop are made when first asked
    for and then kept, so every entry point at this energy shares them.
    """

    def __init__(self, params: OscillatorParams):
        self.params = params
        self.geo = _geometry(params)
        self.theta = sector_center_arg(params.alpha, 1)
        self.c = r_expansion(params.alpha, params.energy).log_coefficient.real
        self._q: dict[int, tuple[complex, float]] = {}

    @cached_property
    def zero(self) -> SolutionState:
        """psi_0 at x_match."""
        return _psi0_state(self.params, self.geo, _CONNECTION_RTOL, True)

    @cached_property
    def hop(self) -> complex:
        """sigma_0 by the psi_1 hop."""
        return _psi1_hop(self.params.with_energy(self.params.energy.real), self.geo, self.zero)

    def q_abs(self, n: int) -> tuple[complex, float]:
        """Q~_n, n >= 0, as (mantissa, logscale)."""
        if n not in self._q:
            self._q[n] = self._make_q(n)
        return self._q[n]

    def _make_q(self, n: int) -> tuple[complex, float]:
        params = self.params
        if n == 0:
            return wronskian(_chi_state(params, self.geo, _CONNECTION_RTOL), self.zero)
        m = _real_rotation(params.alpha, n)
        if m is not None and m % 2 == 0:
            # a whole number of turns: Q~_n is Q~_0 = Q(E) turned by its own phase
            m0, l0 = self.q_abs(0)
            return m0 * cmath.rect(1.0, -n * self.theta * self.c), l0
        # omega^2n E, exactly -E where it is real, on the radii of the real E
        energy = (-params.energy if m is not None
                  else params.energy * cmath.rect(1.0, 2.0 * n * self.theta))
        c = r_expansion(params.alpha, energy).log_coefficient.real
        try:
            q = _determinant(params.with_energy(energy), self.geo, True, _CONNECTION_RTOL)
        except RuntimeError as exc:
            raise RuntimeError(
                f"{exc}; the energy omega^{2 * n} E of Q~_{n} at (alpha={params.alpha:g},"
                f" ell={params.ell:g}, E={params.energy:g})") from None
        return q.mantissa * cmath.rect(1.0, -n * self.theta * c), q.logscale

    def q(self, s: int) -> tuple[complex, float]:
        """Q~_s, as conj(Q~_-s) for s < 0."""
        m, l = self.q_abs(abs(s))
        return (m if s >= 0 else m.conjugate()), l


@lru_cache(maxsize=1)
def _sectors(params: OscillatorParams) -> _Sectors:
    """The _Sectors of the last energy asked for; a new energy replaces it."""
    return _Sectors(params)


def _stokes_multipliers(params: OscillatorParams, ks: Iterable[int]) -> dict[int, complex]:
    """sigma_k for each k in ks at the real energy of params (module docstring)."""
    sec = _sectors(params)
    w = cmath.rect(1.0, (params.ell + 0.5) * sec.theta)
    sigma = {}
    for k in ks:
        m = _real_rotation(params.alpha, k)
        if m is not None and m % 2 == 0 and params.energy.real > 0.0:
            # omega^2k E = E: one psi_1 hop serves every such k
            sigma[k] = cmath.rect(1.0, 2.0 * k * sec.theta * sec.c) * sec.hop
        else:
            (m0, l0), (m1, l1), (m2, l2) = sec.q(k - 1), sec.q(k), sec.q(k + 1)
            _check_range(params, k, "T-Q", (l2 - l1, l0 - l1),
                         (_log_abs(m2 / m1) + l2 - l1, _log_abs(m0 / m1) + l0 - l1))
            sigma[k] = -1j * (w * m2 * math.exp(l2 - l1) + m0 * math.exp(l0 - l1) / w) / m1
    return sigma


def _ladder(sigma: dict[int, complex], j: int, m: int) -> complex:
    """Wr[psi_j, psi_m] by the Stokes ladder of the module docstring."""
    lo, hi = min(j, m), max(j, m)
    prev, cur = 0j, 2.0 * (-1.0) ** lo + 0j
    for k in range(lo + 1, hi):
        prev, cur = cur, prev + sigma[k] * cur
    return (cur if hi > lo else prev) * (1.0 if m >= j else -1.0)


def sector_wronskian(params: OscillatorParams, j: int, k: int) -> tuple[complex, float]:
    """Wr[psi_j, psi_k] as (mantissa, logscale 0), from the multipliers between j and k."""
    sigma = _stokes_multipliers(params, range(min(j, k) + 1, max(j, k)))
    return _ladder(sigma, j, k), 0.0


def stokes_multiplier(params: OscillatorParams, k: int = 0) -> complex:
    """sigma_k = Wr[psi_{k-1}, psi_{k+1}] / Wr[psi_{k-1}, psi_k]."""
    return _stokes_multipliers(params, (k,))[k]


def fock_goncharov(params: OscillatorParams, quad: tuple[int, int, int, int]) -> complex:
    """Quadruple ratio R_{(a,b,c,d)} = -W_a(b,d) / W_c(b,d) of ladder Wronskians."""
    a, b, c, d = quad
    if len({a, b, c, d}) != 4:
        raise ValueError("the four sector labels must be distinct")
    sigma = _stokes_multipliers(params, range(min(quad) + 1, max(quad)))
    return -(_ladder(sigma, a, b) / _ladder(sigma, a, d)) * (
        _ladder(sigma, c, d) / _ladder(sigma, c, b))


def r_zero(params: OscillatorParams) -> complex:
    """R0 = -Wr[chi, psi_1] / Wr[chi, psi_{-1}] on the positive axis.

    Equals -1 exactly at eigenvalues (there psi_1 and psi_{-1} agree up to the
    multiple of psi_0 contained in chi) and stays near +1 between consecutive
    eigenvalues in the semiclassical regime.

    Computed from one determinant at the rotated energy omega^2 E (see the
    module docstring), shared with the connection data at the same E:
    R0 = exp(i [(2 ell + 1) theta + 2 arg Q~_1]).
    """
    sec = _sectors(params)
    q, _ = sec.q_abs(1)
    return cmath.exp(1j * ((2.0 * params.ell + 1.0) * sec.theta + 2.0 * cmath.phase(q)))


def semiclassical_r_zero(params: OscillatorParams) -> complex:
    """Leading WKB phase for R0: exp(2 pi i I(E)); R0 * this tends to 1."""
    return cmath.exp(2j * math.pi * wkb_phase(params))
