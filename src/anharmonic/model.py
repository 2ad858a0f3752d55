"""Oscillator model: potentials on the universal cover, turning points, scalings.

Everything downstream works with the radial Schroedinger operator

    psi''(x) = (x^(2*alpha) + ell*(ell+1)/x^2 - E) psi(x)

continued to the universal cover of the punctured plane.  Points on the cover are stored as
(modulus, continuous argument) so that non-integer powers are single valued.
"""
from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoverPoint",
    "OscillatorParams",
    "TurningPointSet",
    "CriticalData",
    "HbarCoords",
    "eval_reduced",
    "eval_forcing",
    "critical_data",
    "turning_points",
    "to_hbar_coords",
    "sector_center_arg",
    "WORK",
]

# Work done since import: calls (determinants, rescans, series_evaluations,
# propagate, wkb_phase, wkb_phase_derivative), segment transports and the
# real_transports among them (on floats), rk_steps, rk_rejected and rhs_calls,
# the adaptive "quadratures <kind>" and their 8-point "panels <kind>", kind
# the first word of the stage, the 8-point "panels tail" of the sector seeds'
# tail integral, the Volterra sweeps and their sweep_nodes, and the traces
# and trace_steps of the Stokes tracer.  Each count rises once per call,
# segment, sweep, trace or quadrature round, never per RK step or node; read
# the difference of two copies around the work of interest.
WORK: Counter = Counter()


@dataclass(frozen=True)
class CoverPoint:
    """Point on the universal cover of the punctured plane."""

    modulus: float
    arg: float

    @classmethod
    def from_complex(cls, z: complex, near_arg: float = 0.0) -> "CoverPoint":
        """Lift z to the cover, choosing the argument branch nearest near_arg."""
        z = complex(z)
        if z == 0:
            raise ValueError("origin is not on the cover")
        a = cmath.phase(z)
        # shift by whole turns to land next to the requested branch
        a += 2.0 * math.pi * round((near_arg - a) / (2.0 * math.pi))
        return cls(abs(z), a)

    def to_complex(self) -> complex:
        return cmath.rect(self.modulus, self.arg)

    def cpow(self, s: complex) -> complex:
        """x**s with the branch fixed by the stored argument."""
        return cmath.exp(s * (math.log(self.modulus) + 1j * self.arg))

    def clog(self) -> complex:
        return complex(math.log(self.modulus), self.arg)


@dataclass(frozen=True)
class OscillatorParams:
    """Problem data: exponent alpha > 0, energy E, angular number ell > -1/2."""

    alpha: float
    energy: complex
    ell: float

    @property
    def lam(self) -> float:
        # Langer-shifted angular momentum; the reduced potential depends on it only
        return self.ell + 0.5

    def with_energy(self, energy: complex) -> "OscillatorParams":
        return OscillatorParams(self.alpha, energy, self.ell)


@dataclass(frozen=True)
class TurningPointSet:
    """Every zero of the reduced potential in the window about the positive axis.

    The window is |arg x| <= 3 pi/(2 alpha + 2) + 0.3 on the cover, or one
    turn, -pi < arg x <= pi, when 2 alpha is an integer (a negative real zero
    then has arg +pi).  The zeros are counted by the argument principle; a
    search that does not find that many raises RuntimeError.  real_pair holds
    the positive zeros (x_minus, x_plus) at or above the critical energy, None
    below it.  sector_points holds the others, ordered by argument and
    modulus; a zero of order m appears m times, at one point.
    """

    real_pair: tuple[float, float] | None
    sector_points: tuple[CoverPoint, ...]


@dataclass(frozen=True)
class CriticalData:
    """Bottom of the effective well and its blown-up coordinates."""

    e_star: float
    x_star: float
    nu_star: float
    y_star: float


@dataclass(frozen=True)
class HbarCoords:
    """Semiclassical rescaling x = scale*y with psi'' = hbar^-2 * V_tilde * psi.

    regime 1 fixes ell and sends E to infinity; regime 2 couples E to ell.
    In both, scale^2 V(scale*y) = hbar^-2 (y^2a - nu + lam_eff^2 / y^2).
    """

    regime: int
    hbar: float
    scale: float
    nu: float
    lam_eff: float


def _as_cover(x) -> CoverPoint:
    if isinstance(x, CoverPoint):
        return x
    return CoverPoint.from_complex(complex(x))


def eval_reduced(params: OscillatorParams, x) -> complex:
    """Reduced potential V = U + 1/(4x^2) = x^(2a) - E + (ell+1/2)^2/x^2."""
    p = _as_cover(x)
    return _reduced_jet(params, p.to_complex(), p.cpow(2.0 * params.alpha))[0]


def eval_forcing(params: OscillatorParams, x) -> complex:
    """Forcing density F with F dx the perturbation measure of the WKB transport.

    F = [ 1/(4x^2) + (5 V'^2 - 4 V'' V) / (16 V^2) ] / sqrt(V).  The first term is
    V - U written in closed form (Langer shift), avoiding cancellation.  The
    principal branch of sqrt(V) is used; admissibility functionals only consume
    |F|, which is branch free.
    """
    p = _as_cover(x)
    z = p.to_complex()
    v, v1, v2 = _reduced_jet(params, z, p.cpow(2.0 * params.alpha))
    return _forcing_payload(z, v, v1, v2) / cmath.sqrt(v)


def _cover_power(s: float, z, arg):
    """z**s on the cover, the branch fixed by the continuous argument arg.

    Takes numpy arrays (or scalars, returned as numpy scalars); scalar loops
    that must stay on Python numbers use CoverPoint.cpow instead.
    """
    return np.exp(s * (np.log(np.abs(z)) + 1j * arg))


def _reduced_v(params: OscillatorParams, z, xpow):
    """V at x = z, given the cover power xpow = x^(2a).

    The one place the reduced potential is written out.  Plain arithmetic, so
    z and xpow may be Python complex scalars or numpy arrays alike.
    """
    lam = params.lam
    return xpow - params.energy + lam * lam / (z * z)


def _reduced_jet(params: OscillatorParams, z, xpow):
    """(V, V', V'') at x = z, given the cover power xpow = x^(2a); scalars or arrays."""
    a2 = 2.0 * params.alpha
    lam = params.lam
    lam2 = lam * lam
    z2 = z * z
    v = _reduced_v(params, z, xpow)
    v1 = a2 * xpow / z - 2.0 * lam2 / (z2 * z)
    v2 = a2 * (a2 - 1.0) * xpow / z2 + 6.0 * lam2 / (z2 * z2)
    return v, v1, v2


def _forcing_payload(z, v, v1, v2):
    """sqrt(V) * F = 1/(4x^2) + (5 V'^2 - 4 V'' V) / (16 V^2); scalars or arrays."""
    return 0.25 / (z * z) + (5.0 * v1 * v1 - 4.0 * v2 * v) / (16.0 * v * v)


def _blowup_constants(alpha: float) -> tuple[float, float]:
    """(nu_*, y_*): the minimum of y^(2a) + 1/y^2 and where it is attained."""
    return (1.0 + alpha) / alpha ** (alpha / (alpha + 1.0)), alpha ** (-1.0 / (2.0 * alpha + 2.0))


def critical_data(alpha: float, ell: float) -> CriticalData:
    """Minimum of x^(2a) + lam^2/x^2 and the blown-up critical constants."""
    lam = ell + 0.5
    if lam <= 0:
        raise ValueError("ell must exceed -1/2")
    e_star = alpha ** (-alpha / (1.0 + alpha)) * (1.0 + alpha) * lam ** (2.0 * alpha / (1.0 + alpha))
    x_star = alpha ** (-1.0 / (2.0 + 2.0 * alpha)) * lam ** (1.0 / (1.0 + alpha))
    return CriticalData(e_star, x_star, *_blowup_constants(alpha))


def _integer_power(alpha: float) -> int | None:
    """n when 2 alpha is the integer n (to 1e-12), else None: x^(2a) is then entire."""
    n = round(2.0 * alpha)
    return n if abs(2.0 * alpha - n) < 1e-12 else None


_GAUSS8_NODES = np.array((
    -0.9602898564975363, -0.7966664774136267, -0.5255324099163290, -0.1834346424956498,
    0.1834346424956498, 0.5255324099163290, 0.7966664774136267, 0.9602898564975363,
))
_GAUSS8_WEIGHTS = np.array((
    0.1012285362903763, 0.2223810344533745, 0.3137066458778873, 0.3626837833783620,
    0.3626837833783620, 0.3137066458778873, 0.2223810344533745, 0.1012285362903763,
))
# panels the adaptive Gauss rule may hold before it gives up
_GAUSS_MAX_PANELS = 1000


def _gauss8(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integrals of f over the panels [lo_k, hi_k], by 8-point Gauss.

    f is evaluated once, on the array of all nodes (one row per panel).  It
    may return leading axes of its own; the integrals then keep them.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    vals = f(mid[:, None] + half[:, None] * _GAUSS8_NODES)
    return (vals * _GAUSS8_WEIGHTS).sum(axis=-1) * half


def _adaptive_panels(f, edges: np.ndarray, epsabs: float, epsrel: float, stage: str):
    """Integral of f from edges[0] to edges[-1] by 8-point Gauss on panels
    bisected adaptively, starting from the panels between the edges, and the
    ends lo, hi of the panels whose halves' Gauss integrals it sums.

    A panel's value is the sum of its halves' Gauss integrals, and its error
    estimate |G(panel) - G(left half) - G(right half)|.  While the summed
    estimate exceeds max(epsabs, epsrel |I|), the panels with the largest
    estimates are bisected, until the others hold at most half of that
    tolerance.  Each round evaluates f once, on the array of every new node.
    f may be real or complex.  A partition that would outgrow
    _GAUSS_MAX_PANELS panels raises RuntimeError naming stage, and so does a
    round whose error estimate is not finite: f gave nan or inf at a node,
    and splitting panels would not mend it.
    """
    kind = stage.split(" ")[0]
    WORK["quadratures " + kind] += 1
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    n = len(lo)
    WORK["panels " + kind] += 3 * n
    g = _gauss8(f, np.concatenate((lo, lo, mid)), np.concatenate((hi, mid, hi)))
    left, right = g[n:2 * n], g[2 * n:]
    err = np.abs(g[:n] - left - right)
    while True:
        total = np.sum(left + right)
        tol = max(epsabs, epsrel * abs(total))
        err_sum = float(err.sum())
        if err_sum <= tol:
            return total, lo, hi
        if not math.isfinite(err_sum):
            bad = int(np.count_nonzero(~np.isfinite(err)))
            raise RuntimeError(f"{stage}: the integrand is not finite on {bad} of {len(lo)} "
                               f"panels (quadrature error {err_sum:.3g})")
        order = np.argsort(err)[::-1]
        k = int(np.searchsorted(np.cumsum(err[order]), err_sum - 0.5 * tol)) + 1
        if len(lo) + k > _GAUSS_MAX_PANELS:
            raise RuntimeError(f"{stage}: quadrature error {err_sum:.3g} above {tol:.3g} "
                               f"with {_GAUSS_MAX_PANELS} panels")
        # the halves of the split panels become panels whose whole value is known
        split, keep = order[:k], order[k:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
        whole = np.concatenate((left[split], right[split]))
        new_mid = 0.5 * (new_lo + new_hi)
        WORK["panels " + kind] += 2 * len(new_lo)
        g = _gauss8(f, np.concatenate((new_lo, new_mid)), np.concatenate((new_mid, new_hi)))
        n = len(new_lo)
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        left, right = np.concatenate((left[keep], g[:n])), np.concatenate((right[keep], g[n:]))
        err = np.concatenate((err[keep], np.abs(whole - g[:n] - g[n:])))


def _adaptive_gauss(f, edges: np.ndarray, epsabs: float, epsrel: float, stage: str) -> float:
    """The integral of real f by _adaptive_panels."""
    return float(_adaptive_panels(f, edges, epsabs, epsrel, stage)[0])


# iterations of Brent's method before it gives up
_BRENT_MAX_ITER = 100


def _brent(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Zero of f in [a, b], where f(a) and f(b) differ in sign, by Brent's method.

    Step for step the algorithm of Brent (*Algorithms for Minimization without
    Derivatives*, 1973, ch. 4) as scipy's brentq implements it, so the roots
    agree bit for bit.  It stops when the bracket is narrower than
    xtol + rtol |x|, and raises RuntimeError after _BRENT_MAX_ITER steps.
    """
    def value(x: float) -> float:
        fx = f(x)
        if fx != fx:
            raise ValueError(f"Brent's method: f({x!r}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"Brent's method: f has one sign at both ends of [{a!r}, {b!r}]")
    for _ in range(_BRENT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge in {_BRENT_MAX_ITER} iterations "
                       f"on [{a!r}, {b!r}]")


def _where(params: OscillatorParams) -> str:
    return f"turning points (alpha={params.alpha:g}, ell={params.ell:g}, E={params.energy.real:g})"


# relative distance from the critical energy E* within which the two real
# turning points are one double point at x_star: the near-critical band
_NEAR_CRITICAL = 1e-8


def _near_critical(energy: float, e_star: float) -> bool:
    """Whether energy lies in the near-critical band |E - E*| <= _NEAR_CRITICAL E*."""
    return abs(energy - e_star) <= _NEAR_CRITICAL * e_star


def _real_pair(params: OscillatorParams) -> tuple[float, float] | None:
    """The positive zeros (x_minus, x_plus) of V, None below the critical energy.

    The real-axis part of turning_points, for callers that need only the well.
    In the near-critical band both are x_star.
    """
    if abs(params.energy.imag) > 1e-10 * max(1.0, abs(params.energy.real)):
        raise ValueError("turning point location expects (near) real energy")
    crit = critical_data(params.alpha, params.ell)
    e = params.energy.real
    x_star = crit.x_star
    if _near_critical(e, crit.e_star):
        return x_star, x_star
    if e < crit.e_star:
        return None

    def v(x: float) -> float:  # V on the positive axis
        return x ** (2.0 * params.alpha) - e + (params.lam / x) ** 2

    # Brent's method to full precision on either side of x_star, where V < 0:
    # V > 3E where lam^2/x^2 = 4E, and V > E where x^2a = 2E
    try:
        return (_brent(v, 0.5 * params.lam / math.sqrt(e), x_star, 1e-300, 8.9e-16),
                _brent(v, x_star, (2.0 * e) ** (0.5 / params.alpha), 1e-300, 8.9e-16))
    except RuntimeError as ex:
        raise RuntimeError(f"{_where(params)}: {ex}") from None


# how near an integer the count must come and the zeros the first moment;
# zeros, or a zero and the negative axis, closer in w = log x coincide
_ROOT_TOL = 1e-6


def _window_roots(params: OscillatorParams) -> list[complex]:
    """w = log x of the zeros of x^2 V in the window, each as often as its order.

    In w, x^2 V is the entire g(w) = e^((2a+2)w) - E e^(2w) + lam^2 and Im w
    is the cover argument.  The argument principle on [u_lo, u_hi] x [-H, H],
    outside whose vertical edges one term of g outweighs the others, counts N
    zeros; the moments (1/2 pi i) oint zeta^k g'/g dw of zeta = (w - c)/rho,
    k <= N, give the polynomial with their zeta as roots (Newton's identities;
    Delves & Lyness, Math. Comp. 21 (1967) 543), polished by Newton on g.
    Adaptive panels resolve a zero near an edge.  For integer 2a, g has period
    2 pi i, and the zeros fold from |Im w| <= pi + 0.3 into (-pi, pi].
    """
    e, lam2, p = params.energy, params.lam ** 2, 2.0 * params.alpha + 2.0
    one_turn = _integer_power(params.alpha) is not None
    height = (math.pi if one_turn else 3.0 * math.pi / p) + 0.3
    # |x^p| > |E x^2| + lam^2 beyond e^u_hi; lam^2 > |x^p| + |E x^2| within e^u_lo
    u_hi = math.log(2.0 * max((2.0 * abs(e)) ** (1.0 / (p - 2.0)), (2.0 * lam2) ** (1.0 / p)))
    u_lo = math.log(0.5 * min((lam2 / 3.0) ** (1.0 / p),
                              math.sqrt(lam2 / (3.0 * abs(e))) if e else math.inf))
    corners = np.array((u_lo, u_hi, u_hi, u_lo, u_lo)) + 1j * height * np.array((-1, -1, 1, 1, -1))
    centre, rho = 0.5 * (u_lo + u_hi), max(0.5 * (u_hi - u_lo), height)

    def g_jet(w):  # g, g' and the size of g's terms
        xp, x2 = np.exp(p * w), np.exp(2.0 * w)
        return xp - e * x2 + lam2, p * xp - 2.0 * e * x2, abs(xp) + abs(e * x2) + lam2

    def contour(t):  # w and g'/g dw/dt / (2 pi i) at t in [0, 4], one unit per edge
        k = np.minimum(t.astype(int), 3)
        step = corners[k + 1] - corners[k]
        w = corners[k] + (t - k) * step
        g, dg, _ = g_jet(w)
        return w, dg / g * step / (2j * math.pi)

    count, lo, hi = _adaptive_panels(lambda t: contour(t)[1], np.linspace(0.0, 4.0, 17), 1e-10,
                                     0.0, f"{_where(params)}: count")
    n = round(count.real)
    if abs(count - n) > _ROOT_TOL:
        raise RuntimeError(f"{_where(params)}: count {count:.6g} is not an integer")
    if n == 0:
        return []

    def moments(t):  # zeta^k g'/g dw/dt / (2 pi i), k = 0..n
        w, q = contour(t)
        return ((w - centre) / rho) ** np.arange(n + 1)[:, None, None] * q
    mid = 0.5 * (lo + hi)  # on the halves, as accurate as the count
    s = _gauss8(moments, np.concatenate((lo, mid)), np.concatenate((mid, hi))).sum(axis=1)
    coeffs = [1.0]  # of prod (zeta - zeta_j), by Newton's identities
    for k in range(1, n + 1):
        coeffs.append(-sum(coeffs[k - i] * s[i] for i in range(1, k + 1)) / k)
    w = centre + rho * np.roots(coeffs)
    for _ in range(60):  # linear at a double zero; a zero with |g| at rounding level stays
        g, dg, size = g_jet(w)
        moving = (np.abs(g) > 4e-16 * size) & (dg != 0.0)
        w = w - (step := np.divide(g, dg, out=np.zeros_like(w), where=moving))
        if np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(w))):
            break
    g, _, size = g_jet(w)
    if np.any(np.abs(g) > 1e-10 * size) or abs(np.sum(w - centre) - rho * s[1]) > _ROOT_TOL:
        raise RuntimeError(f"{_where(params)}: the {n} counted zeros polish to other points")
    if one_turn:  # the negative axis at +pi; images a turn away go
        arg = np.where(np.abs(np.abs(w.imag) - math.pi) < _ROOT_TOL, np.copysign(math.pi, w.imag),
                       w.imag)
        w = (w.real + 1j * arg)[(arg > -math.pi) & (arg <= math.pi)]
    # zeros closer than _ROOT_TOL are one multiple zero: every copy at their mean
    near = np.abs(w[:, None] - w[None, :]) < _ROOT_TOL
    return (np.where(near, w, 0.0).sum(axis=1) / near.sum(axis=1)).tolist()


def turning_points(params: OscillatorParams) -> TurningPointSet:
    """Zeros of V in the window of TurningPointSet, counted: the positive pair and the rest."""
    real_pair = _real_pair(params)
    roots = _window_roots(params)
    for x in real_pair or ():  # Brent's x_minus, x_plus replace the counted zeros nearest them
        dist = [abs(w - math.log(x)) for w in roots]
        del roots[dist.index(min(dist))]
    sector = [CoverPoint(math.exp(w.real), w.imag) for w in roots]
    return TurningPointSet(real_pair, tuple(sorted(sector, key=lambda p: (p.arg, p.modulus))))


def to_hbar_coords(params: OscillatorParams, regime: int) -> HbarCoords:
    """Semiclassical coordinates; regime 1: E -> inf at fixed ell, regime 2: hbar = 1/(ell+1/2)."""
    a = params.alpha
    if regime == 1:
        e = params.energy.real
        if e <= 0:
            raise ValueError("regime 1 needs positive energy")
        hbar = e ** (-(a + 1.0) / (2.0 * a))
        scale = e ** (1.0 / (2.0 * a))
        return HbarCoords(1, hbar, scale, 1.0, hbar * params.lam)
    if regime == 2:
        lam = params.lam
        hbar = 1.0 / lam
        scale = lam ** (1.0 / (a + 1.0))
        nu = params.energy.real * lam ** (-2.0 * a / (a + 1.0))
        return HbarCoords(2, hbar, scale, nu, 1.0)
    raise ValueError("regime must be 1 or 2")


def sector_center_arg(alpha: float, k: float) -> float:
    """arg x = k pi / (alpha + 1): the centre of decay sector k for integer k.

    Half-integer k gives the ray where sectors k - 1/2 and k + 1/2 meet.
    """
    return k * math.pi / (alpha + 1.0)
