"""Action integrals along cover paths, Bohr-Sommerfeld quantisation, asymptotics.

The central objects are PathSpec (a piecewise path on the universal cover, each
segment a straight line, a circular arc, or a radial ray) and PathFrame, which
evaluates the reduced potential, a *continuously branched* sqrt(V), and the
forcing density along the path.  Quadrature is 8-point Gauss: on fixed
panels along a path, and on adaptively bisected ones for the action
integrals of the well.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import (
    WORK,
    CoverPoint,
    OscillatorParams,
    _adaptive_gauss,
    _blowup_constants,
    _brent,
    _cover_power,
    _forcing_payload,
    _gauss8,
    _near_critical,
    _reduced_jet,
    _reduced_v,
    _real_pair,
    critical_data,
)

__all__ = [
    "PathSpec",
    "PathFrame",
    "path_from_complex",
    "wkb_phase",
    "wkb_phase_derivative",
    "reduced_wkb_integral",
    "bohr_sommerfeld_energy",
    "asymptotic_reference",
]

# first panels of the sin^2-mapped well, theta in [0, pi/2]: eight equal ones
# put theta = pi/4, where the radicand changes its end, on an edge, and let
# most action integrals settle in the first round
_WELL_EDGES = np.linspace(0.0, 0.5 * math.pi, 9)
# the largest argument of exp whose value is finite
_EXP_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class PathSpec:
    """Piecewise path on the cover.

    parameterization holds one keyword per segment: "line" (straight chord),
    "arc" (constant modulus, linear argument), or "ray" (constant argument,
    linear modulus).  sqrt_v_branch fixes the square-root branch at the first
    node ("principal" or "negative"); it is then continued along the path.
    """

    nodes: tuple[CoverPoint, ...]
    parameterization: tuple[str, ...] = ()
    sqrt_v_branch: str = "principal"

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("a path needs at least two nodes")
        kinds = self.parameterization
        if not kinds:
            kinds = tuple("line" for _ in range(len(self.nodes) - 1))
            object.__setattr__(self, "parameterization", kinds)
        if len(kinds) != len(self.nodes) - 1:
            raise ValueError("need one parameterization entry per segment")
        for kind, a, b in zip(kinds, self.nodes, self.nodes[1:]):
            if kind == "arc":
                if abs(a.modulus - b.modulus) > 1e-9 * a.modulus:
                    raise ValueError("arc endpoints must share their modulus")
                if abs(b.arg - a.arg) >= math.pi:
                    raise ValueError("arcs must subtend less than pi; split the arc")
            elif kind == "ray":
                if abs(a.arg - b.arg) > 1e-12:
                    raise ValueError("ray endpoints must share their argument")
            elif kind == "line":
                za, zb = a.to_complex(), b.to_complex()
                # argument lift along a chord is single valued only off the origin
                if abs(za - zb) > 0 and abs(_dist_to_origin(za, zb)) < 1e-14:
                    raise ValueError("line segment passes through the origin")
            else:
                raise ValueError(f"unknown segment kind {kind!r}")

    @property
    def n_segments(self) -> int:
        return len(self.nodes) - 1


def _dist_to_origin(za: complex, zb: complex) -> float:
    d = zb - za
    if d == 0:
        return abs(za)
    t = -((za.real * d.real + za.imag * d.imag) / (d.real * d.real + d.imag * d.imag))
    t = min(1.0, max(0.0, t))
    return abs(za + t * d)


def path_from_complex(points, sqrt_v_branch: str = "principal") -> PathSpec:
    """Build a line-segment PathSpec from plain complex points, lifting arguments continuously."""
    nodes = []
    prev = 0.0
    for z in points:
        if isinstance(z, CoverPoint):
            pt = z
        else:
            pt = CoverPoint.from_complex(complex(z), near_arg=prev)
        nodes.append(pt)
        prev = pt.arg
    return PathSpec(tuple(nodes), (), sqrt_v_branch)


class _Segment:
    """One compiled path segment with cover-consistent argument lift; a line whose
    ends share one argument is compiled as that argument's ray."""

    __slots__ = ("kind", "a", "b", "za", "zb", "dz", "dphi")

    def __init__(self, kind: str, a: CoverPoint, b: CoverPoint):
        self.kind = "ray" if kind == "line" and a.arg == b.arg else kind
        self.a = a
        self.b = b
        self.za = a.to_complex()
        self.zb = b.to_complex()
        self.dz = self.zb - self.za
        self.dphi = b.arg - a.arg

    def point(self, t):
        """Return (x, arg(x) on the cover, dx/dt); t may be a float or an array."""
        if self.kind == "line":
            z = self.za + t * self.dz
            return z, self.a.arg + np.angle(z / self.za), self.dz
        if self.kind == "arc":
            arg = self.a.arg + t * self.dphi
            z = self.a.modulus * np.exp(1j * arg)
            return z, arg, 1j * self.dphi * z
        # ray: the argument is constant, broadcast to the shape of t
        m = self.a.modulus + t * (self.b.modulus - self.a.modulus)
        e = cmath.rect(1.0, self.a.arg)
        return m * e, self.a.arg + 0.0 * t, (self.b.modulus - self.a.modulus) * e


class PathFrame:
    """Evaluates V, the continued sqrt(V), and the forcing along a PathSpec.

    The square-root branch is fixed at the start node and continued over 129
    scouts per segment: where two neighbouring principal roots point apart,
    Re(r_k conj r_(k-1)) < 0, the branch flips sign relative to the principal
    one.  The principal root jumps exactly where V crosses the negative real
    axis, so each flip is placed between its two scouts by Brent's method on
    Im V.  Where V crosses that axis twice between two scouts (Re V < 0 and
    one sign of Im V at both, but opposite signs of its slope Im(V' x')),
    Brent's method places the turn, and both flips around it if Im V changes
    sign there.  Every evaluator takes t as a float or an array.
    """

    def __init__(self, params: OscillatorParams, path: PathSpec):
        self.params = params
        self.path = path
        self.segments = [_Segment(k, a, b) for k, a, b in zip(path.parameterization, path.nodes, path.nodes[1:])]
        self._signs: list[tuple[np.ndarray, np.ndarray]] = []
        sign = 1.0 if path.sqrt_v_branch == "principal" else -1.0
        ts = np.linspace(0.0, 1.0, 129)
        for i in range(len(self.segments)):
            flips = self._flips(i, ts)
            signs = sign * (-1.0) ** np.arange(len(flips) + 1)
            sign = signs[-1]
            self._signs.append((flips, signs))

    def _flips(self, i_seg: int, ts: np.ndarray) -> np.ndarray:
        """Sorted parameters where V crosses the negative real axis, scouted on ts."""
        def im_v(t, slope=False):  # Im V, or its slope Im(V' x')
            _, dz, v, v1, _ = self.derivative_triple(i_seg, t)
            return (v1 * dz if slope else v).imag
        root = partial(_brent, xtol=1e-300, rtol=8.9e-16)
        _, dz, v, v1, _ = self.derivative_triple(i_seg, ts)
        roots, slope = np.sqrt(v), (v1 * dz).imag
        flips = [root(im_v, ts[k], ts[k + 1])
                 for k in np.flatnonzero((roots[1:] * roots[:-1].conj()).real < 0.0)]
        for k in np.flatnonzero(slope[1:] * slope[:-1] < 0.0):
            if max(v.real[k], v.real[k + 1]) < 0.0 < v.imag[k] * v.imag[k + 1]:
                turn = root(lambda t: im_v(t, True), ts[k], ts[k + 1])
                if im_v(turn) * v.imag[k] < 0.0:
                    flips += [root(im_v, ts[k], turn), root(im_v, turn, ts[k + 1])]
        return np.sort(flips)

    def _sign_at(self, i_seg: int, t):
        # the sign after the k-th flip holds for t > flip_k
        flips, signs = self._signs[i_seg]
        return signs[np.searchsorted(flips, t)]

    def point(self, i_seg: int, t):
        return self.segments[i_seg].point(t)

    def derivative_triple(self, i_seg: int, t):
        """(x, dx/dt, V, V', V'') with the path-consistent power branch."""
        z, arg, dz = self.segments[i_seg].point(t)
        v, v1, v2 = _reduced_jet(self.params, z, _cover_power(2.0 * self.params.alpha, z, arg))
        return z, dz, v, v1, v2

    def reduced(self, i_seg: int, t):
        """V alone, with the path-consistent power branch."""
        z, arg, _ = self.segments[i_seg].point(t)
        return _reduced_v(self.params, z, _cover_power(2.0 * self.params.alpha, z, arg))

    def sqrt_v(self, i_seg: int, t):
        return self._sign_at(i_seg, t) * np.sqrt(self.reduced(i_seg, t))

    def forcing(self, i_seg: int, t):
        """Signed forcing density F(x(t)) using the continued branch of sqrt(V)."""
        z, _, v, v1, v2 = self.derivative_triple(i_seg, t)
        return _forcing_payload(z, v, v1, v2) / (self._sign_at(i_seg, t) * np.sqrt(v))

    def cumulative_s(self, i_seg: int, ts: np.ndarray) -> np.ndarray:
        """S(t_k) = int_0^{t_k} sqrt(V) dx on one segment, by per-interval Gauss."""
        def integrand(t):
            return self.sqrt_v(i_seg, t) * self.point(i_seg, t)[2]
        out = np.zeros(len(ts), dtype=complex)
        ts = np.asarray(ts, dtype=float)
        out[1:] = np.cumsum(_gauss8(integrand, ts[:-1], ts[1:]))
        return out


def _well_quad(params: OscillatorParams, integrand, epsabs: float, stage: str) -> float:
    """Integral over the classical interval [x_lo, x_hi] of
    integrand(dx/dtheta, E - x^2a - (ell+1/2)^2/x^2) dtheta, to 1e-12 relative,
    at x = x_lo + (x_hi - x_lo) sin^2 theta.

    The sin^2 substitution removes both square-root endpoints of the WKB
    integrands.  The radicand is V(x_end) - V(x), written in u = x/x_end - 1
    for the nearer zero x_end of V, so it keeps its relative accuracy where it
    vanishes.  The rule starts from the panels between _WELL_EDGES.  Where
    x_lo << x_hi the centrifugal wall varies on the scale x_lo, far below the
    map's; panels also end where x - x_lo = x_lo, 4 x_lo, 16 x_lo, ... so
    that the rule sees it.
    """
    a2 = 2.0 * params.alpha
    e = params.energy.real
    lam2 = params.lam * params.lam
    if params.lam < 1e-12:
        x_lo, x_hi = 0.0, e ** (1.0 / a2)
    else:
        pair = _real_pair(params)
        if pair is None:
            raise ValueError("no classical region below the critical energy")
        x_lo, x_hi = pair
    delta = x_hi - x_lo
    # x_end is x_lo below theta = pi/4, where u = sin^2(theta) delta/x_lo, and
    # x_hi above, where u = -cos^2(theta) delta/x_hi; for lam = 0, x_lo = 0 is
    # no zero of V and x_hi serves throughout
    split, x_low = (0.5, x_lo) if x_lo > 0.0 else (-1.0, x_hi)
    du_lo, cent_lo, pow_lo = delta / x_low, lam2 / (x_low * x_low), x_low ** a2
    du_hi, cent_hi, pow_hi = -delta / x_hi, lam2 / (x_hi * x_hi), x_hi ** a2
    # u < du_lo, so (1+u)^2a can overflow only at large alpha, where this holds
    wide = a2 * math.log1p(du_lo) > _EXP_MAX

    def f(theta: np.ndarray) -> np.ndarray:
        st = np.sin(theta)
        ct = np.cos(theta)
        low = st * st < split
        u = np.where(low, st * st * du_lo, ct * ct * du_hi)
        cent = np.where(low, cent_lo, cent_hi)
        power = np.where(low, pow_lo, pow_hi)
        grow = a2 * np.log1p(u)
        if not wide:
            rise = power * np.expm1(grow)
        else:
            # where x_end^2a underflows and (1+u)^2a overflows the product is
            # 0 * inf; there expm1 = exp, so it is one exponential of the logs
            with np.errstate(over="ignore", invalid="ignore"):
                rise = power * np.expm1(grow)
            far = ~np.isfinite(rise)
            rise[far] = np.exp(a2 * np.log(np.where(low, x_low, x_hi)[far]) + grow[far])
        # V(x_end) - V(x) = lam^2/x_end^2 (1 - (1+u)^-2) - x_end^2a ((1+u)^2a - 1)
        r = cent * u * (2.0 + u) / ((1.0 + u) * (1.0 + u)) - rise
        return integrand(2.0 * delta * st * ct, r)

    steps = math.ceil(math.log(0.5 * delta / x_lo, 4.0)) if x_lo > 0.0 else 0
    edges = _WELL_EDGES
    if steps > 0:
        wall = x_lo * 4.0 ** np.arange(steps)
        edges = np.sort(np.concatenate((np.arcsin(np.sqrt(wall / delta)), edges)))
    return _adaptive_gauss(f, edges, epsabs, 1e-12,
                           f"{stage} (alpha={params.alpha:g}, ell={params.ell:g}, E={e:g})")


def wkb_phase(params: OscillatorParams, abs_tol: float = 1e-12) -> float:
    """I(E, ell) = (1/pi) * integral of sqrt(E - x^2a - (ell+1/2)^2/x^2) over the well.

    The sin^2 substitution removes both square-root endpoints.  In the
    near-critical band above E* (model._near_critical, where the turning
    points are one double point) the slope expansion around the degenerate
    well is used instead; its relative error there is O(E/E* - 1).
    """
    WORK["wkb_phase"] += 1
    a = params.alpha
    lam = params.lam
    e = params.energy.real
    if lam > 1e-12:
        crit = critical_data(a, params.ell)
        if e <= crit.e_star:
            return 0.0
        if _near_critical(e, crit.e_star):
            slope = asymptotic_reference("j2_slope", a)
            return slope * (e - crit.e_star) * lam ** ((1.0 - a) / (1.0 + a))
    return _well_quad(params, lambda jac, r: jac * np.sqrt(np.maximum(r, 0.0)), abs_tol,
                      "wkb_phase") / math.pi


def wkb_phase_derivative(params: OscillatorParams) -> float:
    """dI/dE = (1/2pi) * integral dx / sqrt(E - x^2a - (ell+1/2)^2/x^2) > 0.

    Below E* and in the near-critical band (model._near_critical) it is the
    slope of the harmonic bottom.
    """
    WORK["wkb_phase_derivative"] += 1
    a = params.alpha
    lam = params.lam
    e = params.energy.real
    if lam > 1e-12:
        crit = critical_data(a, params.ell)
        if e < crit.e_star or _near_critical(e, crit.e_star):
            return asymptotic_reference("j2_slope", a) * lam ** ((1.0 - a) / (1.0 + a))
    # r <= 0 is the end of the well; a nan radicand stays nan, so the quadrature raises
    return _well_quad(params, lambda jac, r: jac / np.sqrt(np.where(r <= 0.0, np.inf, r)), 1e-12,
                      "wkb_phase_derivative") / (2.0 * math.pi)


def reduced_wkb_integral(alpha: float, kind: str, value: float, abs_tol: float = 1e-12) -> float:
    """Blown-up WKB integrals: J1(u) = I(1, u-1/2), J2(nu) = I(nu, 1/2)."""
    if kind == "J1":
        if value < 0:
            raise ValueError("J1 takes u >= 0")
        return wkb_phase(OscillatorParams(alpha, 1.0, value - 0.5), abs_tol)
    if kind == "J2":
        return wkb_phase(OscillatorParams(alpha, value, 0.5), abs_tol)
    raise ValueError("kind must be 'J1' or 'J2'")


def bohr_sommerfeld_energy(alpha: float, ell: float, n: int) -> float:
    """Solve I(E, ell) = n + 1/2 for E by Brent's method, to full double precision.

    The bracket closes at the first of E_a, 2 E_a - E*, 4 E_a - 3 E*, ... (64
    doublings at most) where I exceeds n + 1/2, and opens at the energy before
    it (E* first, where I = 0); E_a is the larger of the large-n asymptote and
    the harmonic estimate E* + (n + 1/2) / I'(E*).
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    e_star = critical_data(alpha, ell).e_star
    target = n + 0.5
    slope = asymptotic_reference("j2_slope", alpha) * (ell + 0.5) ** ((1.0 - alpha) / (1.0 + alpha))
    lo = e_star
    hi = max(asymptotic_reference("spectrum_large_n", alpha, ell=ell, n=n), e_star + target / slope)
    phases = {lo: -target}  # Brent's method opens on two ends the bracket search has evaluated

    def f(e: float) -> float:
        if e not in phases:
            phases[e] = wkb_phase(OscillatorParams(alpha, e, ell)) - target
        return phases[e]

    for _ in range(65):
        if f(hi) > 0.0:
            return _brent(f, lo, hi, 1e-300, 8.9e-16)
        lo, hi = hi, 2.0 * hi - e_star
    raise RuntimeError(f"quantisation bracket not found (alpha={alpha:g}, ell={ell:g}, n={n}): "
                       f"I(E) <= n + 1/2 up to E = {lo:g}")


def _j1_zero(alpha: float) -> float:
    return ((0.5 / math.sqrt(math.pi)) * math.gamma((1.0 + 2.0 * alpha) / (2.0 * alpha))
            / math.gamma((1.0 + 3.0 * alpha) / (2.0 * alpha)))


def _large_n_bracket(alpha: float) -> float:
    # equals 1/(4*J1(0))
    return ((0.5 * math.sqrt(math.pi)) * math.gamma((1.0 + 3.0 * alpha) / (2.0 * alpha))
            / math.gamma((1.0 + 2.0 * alpha) / (2.0 * alpha)))


_REFERENCE_IDS = (
    "j1_zero", "j1_small_u", "j1_rate", "j2_slope", "j2_near_critical",
    "j2_large_nu", "j2_large_rate", "j2_derivative_exponent",
    "spectrum_large_n", "spectrum_large_n_rate", "spectrum_fixed_n_large_ell",
    "harmonic_coefficient", "coalescing_tps", "hbar_n",
)


def asymptotic_reference(identifier: str, alpha: float, **kw) -> float | tuple[float, float]:
    """Closed-form reference values for the asymptotic regimes.

    Identifiers (extra keyword arguments in parentheses):
      j1_zero                      J1(0)
      j1_small_u (u)               J1(0) - u/2
      j1_rate (u)                  error scale of the small-u expansion
      j2_slope                     dJ2/dnu at the critical point
      j2_near_critical (nu)        slope * (nu - nu_*)
      j2_large_nu (nu)             J1(0) nu^{(a+1)/2a} - 1/2
      j2_large_rate (nu)           error scale of the large-nu expansion
      j2_derivative_exponent       growth exponent of J2'
      spectrum_large_n (ell, n)    leading eigenvalue growth
      spectrum_large_n_rate (n)    error scale of the same
      spectrum_fixed_n_large_ell (ell, n)  harmonic-well approximation
                                   nu_* lam^(2a/(a+1)) (1 + k (n + 1/2)/lam),
                                   lam = ell + 1/2, k = harmonic_coefficient;
                                   exact at a = 1, relative error O(lam^-2)
      harmonic_coefficient         slope of the harmonic term
      coalescing_tps (nu)          two-term expansion of the blown-up turning pair
      hbar_n (nu, n)               2 J2(nu) / (2n+1)

    j2_slope is the slope wkb_phase and wkb_phase_derivative take in the
    near-critical band |E/E* - 1| <= model._NEAR_CRITICAL, where the two
    turning points are one double point.
    """
    a = alpha
    if identifier == "j1_zero":
        return _j1_zero(a)
    if identifier == "j1_small_u":
        return _j1_zero(a) - 0.5 * kw["u"]
    if identifier == "j1_rate":
        u = kw["u"]
        if u == 0:
            return 0.0
        if a > 0.5:
            return u * u
        if a == 0.5:
            return u * u * abs(math.log(u))
        return u ** (2.0 * a + 1.0)
    if identifier == "j2_slope":
        return a ** (-1.0 / (a + 1.0)) / (2.0 * math.sqrt(2.0 * a + 2.0))
    if identifier == "j2_near_critical":
        nu_star, _ = _blowup_constants(a)
        return asymptotic_reference("j2_slope", a) * (kw["nu"] - nu_star)
    if identifier == "j2_large_nu":
        return _j1_zero(a) * kw["nu"] ** ((a + 1.0) / (2.0 * a)) - 0.5
    if identifier == "j2_large_rate":
        nu = kw["nu"]
        if a > 0.5:
            return nu ** (-(a + 1.0) / (2.0 * a))
        if a == 0.5:
            return nu ** (-1.5) * abs(math.log(nu))
        return nu ** (-(a + 1.0))
    if identifier == "j2_derivative_exponent":
        return (1.0 - a) / (2.0 * a)
    if identifier == "spectrum_large_n":
        n, ell = kw["n"], kw["ell"]
        return (_large_n_bracket(a) * (4.0 * n + 2.0 * ell + 1.0)) ** (2.0 * a / (a + 1.0))
    if identifier == "spectrum_large_n_rate":
        n = kw["n"]
        if a > 0.5:
            return 1.0 / n
        if a == 0.5:
            return math.log(n) / n
        return n ** (-(a + 0.5))
    if identifier == "spectrum_fixed_n_large_ell":
        n, lam = kw["n"], kw["ell"] + 0.5
        lead = _blowup_constants(a)[0] * lam ** (2.0 * a / (a + 1.0))
        kcoef = asymptotic_reference("harmonic_coefficient", a)
        return lead * (1.0 + kcoef * (n + 0.5) / lam)
    if identifier == "harmonic_coefficient":
        return 2.0 * a * math.sqrt(2.0) / math.sqrt(a + 1.0)
    if identifier == "coalescing_tps":
        nu = kw["nu"]
        nu_star, y_star = _blowup_constants(a)
        d = nu - nu_star
        if d < 0:
            raise ValueError("coalescing expansion needs nu >= nu_*")
        first = a ** (-1.0 / (a + 1.0)) / math.sqrt(2.0 * a + 2.0) * math.sqrt(d)
        second = (5.0 - 2.0 * a) * y_star ** 3 / (12.0 * (a + 1.0)) * d
        return (y_star - first + second, y_star + first + second)
    if identifier == "hbar_n":
        nu, n = kw["nu"], kw["n"]
        return 2.0 * reduced_wkb_integral(a, "J2", nu) / (2.0 * n + 1.0)
    raise KeyError(f"unknown identifier {identifier!r}; valid: {', '.join(_REFERENCE_IDS)}")
