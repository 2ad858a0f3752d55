"""Oscillator model: potentials on the universal cover, turning points, scalings.

Everything downstream works with the radial Schroedinger operator

    psi''(x) = (x^(2*alpha) + ell*(ell+1)/x^2 - E) psi(x)

continued to the universal cover of the punctured plane.  Points on the cover are stored as
(modulus, continuous argument) so that non-integer powers are single valued.
"""
from __future__ import annotations

import cmath
import math
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
]


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
    """Zeros of the reduced potential near the real sector.

    real_pair holds the two positive roots (x_minus, x_plus) when the energy is
    above the critical value, None below it.  sector_points holds the roots
    adjacent to the positive axis but off it, as cover points.
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


def _polynomial_sector_roots(params: OscillatorParams, n: int) -> list[CoverPoint]:
    # 2*alpha = n integral: x^(n+2) - E x^2 + lam^2 is entire, use the companion matrix
    deg = n + 2
    coeffs = np.zeros(deg + 1, dtype=complex)
    coeffs[0] = 1.0
    coeffs[deg - 2] = -params.energy
    coeffs[deg] = params.lam ** 2
    roots = np.roots(coeffs)
    out = []
    for r in roots:
        if abs(r.imag) < 1e-9 * max(1.0, abs(r.real)) and r.real > 0:
            continue  # the real pair is reported separately
        out.append(CoverPoint.from_complex(complex(r)))
    return out


def _newton_sector_roots(params: OscillatorParams) -> list[CoverPoint]:
    """Damped Newton on x^(2a+2) - E x^2 + lam^2 over the cover, seeded per sector."""
    a = params.alpha
    e = params.energy
    lam2 = params.lam ** 2
    scale_e = max(abs(e), 1.0)
    m_big = max(abs(e), lam2) ** (1.0 / (2.0 * a)) if abs(e) > 0 else lam2 ** (1.0 / (2.0 * a + 2.0))
    m_small = (lam2 / scale_e) ** 0.5
    seeds = []
    for sign in (1.0, -1.0):
        for mod in (m_big, m_small, 0.5 * (m_big + m_small)):
            for ph in (math.pi / a, sector_center_arg(a, 1.5), sector_center_arg(a, 2.0)):
                seeds.append(CoverPoint(mod, sign * ph))
    found: list[CoverPoint] = []
    for seed in seeds:
        pt = seed
        ok = False
        for _ in range(50):
            h = pt.cpow(2.0 * a + 2.0) - e * pt.cpow(2.0) + lam2
            hsize = abs(pt.cpow(2.0 * a + 2.0)) + abs(e) * pt.modulus ** 2 + lam2
            if abs(h) < 1e-12 * hsize:
                ok = True
                break
            dh = (2.0 * a + 2.0) * pt.cpow(2.0 * a + 1.0) - 2.0 * e * pt.to_complex()
            if dh == 0:
                break
            step = h / dh
            # damp so the argument never jumps more than a quarter turn
            z = pt.to_complex()
            t = 1.0
            while t > 1e-4 and abs(step) * t > 0.5 * pt.modulus:
                t *= 0.5
            znew = z - t * step
            if znew == 0:
                break
            pt = CoverPoint.from_complex(znew, near_arg=pt.arg)
        if not ok:
            continue
        if abs(pt.arg) < 1e-6 or abs(pt.arg) > 3.0 * math.pi / (2.0 * a + 2.0) + 0.3:
            continue
        if all(abs(pt.to_complex() - q.to_complex()) > 1e-6 * (pt.modulus + q.modulus) for q in found):
            found.append(pt)
    return found


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


def _real_pair(params: OscillatorParams) -> tuple[float, float] | None:
    """The positive zeros (x_minus, x_plus) of V, None below the critical energy.

    The real-axis part of turning_points, for callers that need only the well.
    """
    if abs(params.energy.imag) > 1e-10 * max(1.0, abs(params.energy.real)):
        raise ValueError("turning point location expects (near) real energy")
    crit = critical_data(params.alpha, params.ell)
    e = params.energy.real
    if e < crit.e_star * (1.0 - 1e-8):
        return None
    x_star = crit.x_star
    if abs(e - crit.e_star) <= 1e-8 * crit.e_star:
        return x_star, x_star

    def v(x: float) -> float:  # V on the positive axis
        return x ** (2.0 * params.alpha) - e + (params.lam / x) ** 2

    # Brent's method to full precision on either side of x_star, where V < 0:
    # V > 3E where lam^2/x^2 = 4E, and V > E where x^2a = 2E
    try:
        return (_brent(v, 0.5 * params.lam / math.sqrt(e), x_star, 1e-300, 8.9e-16),
                _brent(v, x_star, (2.0 * e) ** (0.5 / params.alpha), 1e-300, 8.9e-16))
    except RuntimeError as ex:
        raise RuntimeError(f"turning points (alpha={params.alpha:g}, ell={params.ell:g}, "
                           f"E={e:g}): {ex}") from None


def turning_points(params: OscillatorParams) -> TurningPointSet:
    """Zeros of V near the real sector: the positive pair plus adjacent complex roots."""
    real_pair = _real_pair(params)
    n = _integer_power(params.alpha)
    if n is not None:
        sector = _polynomial_sector_roots(params, n)
    else:
        sector = _newton_sector_roots(params)
    sector.sort(key=lambda p: (p.arg, p.modulus))
    return TurningPointSet(real_pair, tuple(sector))


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
