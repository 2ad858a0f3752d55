"""Solution transport: series seeds near 0, asymptotic seeds near infinity,
and an adaptive Runge-Kutta propagator along cover paths.

The propagator integrates psi'' = U psi as the first-order system (psi, psi')
with a Dormand-Prince 5(4) pair written directly against cmath scalars: the
system is two complex components and gets stepped millions of times, so the
generic array machinery of scipy.solve_ivp costs more than the arithmetic.
Solutions carry a multiplicative log-scale so that exponentially large or
small data never leaves the representable range (the equation is linear, so
rescaling commutes with the flow).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate as _sint

from .model import (
    CoverPoint,
    OscillatorParams,
    _cover_power,
    _forcing_payload,
    _reduced_jet,
    sector_center_arg,
)
from .action import PathSpec, _Segment, _gauss8_increments
from .volterra import iterate_grid, endpoint_slope_integral

__all__ = [
    "SolutionState",
    "FrobeniusSeed",
    "RExpansion",
    "r_expansion",
    "big_R",
    "big_R_prime",
    "frobenius_seed",
    "sibuya_seed",
    "choose_x_max",
    "propagate",
    "wronskian",
]


@dataclass(frozen=True)
class SolutionState:
    """Value and derivative of a solution at a cover point, times exp(logscale)."""

    location: CoverPoint
    value: complex
    derivative: complex
    logscale: float
    seed_tag: str

    def rescaled(self) -> "SolutionState":
        m = max(abs(self.value), abs(self.derivative))
        if m == 0.0:
            return self
        return SolutionState(self.location, self.value / m, self.derivative / m,
                             self.logscale + math.log(m), self.seed_tag)


# ---------------------------------------------------------------------------
# large-x exponent R(x)

@dataclass(frozen=True)
class RExpansion:
    """Truncated exponent R(x) = x^(a+1)/(a+1) + sum_k c_k E^k x^(a(1-2k)+1)/(a(1-2k)+1).

    Terms with vanishing exponent turn into c_k E^k log x (log_flag).  d_alpha is
    the decay rate of sqrt(V) - R', e_alpha = min(d_alpha, alpha+1) the rate in
    the normalization of the asymptotic solutions.
    """

    alpha: float
    energy: complex
    terms: tuple[tuple[complex, float], ...]  # (coefficient, exponent)
    log_coefficient: complex
    log_flag: bool
    d_alpha: float
    e_alpha: float


def _sqrt1mt_coeff(k: int) -> float:
    # Taylor coefficient of (1-t)^(1/2): c_0 = 1, c_1 = -1/2, c_2 = -1/8, ...
    c = 1.0
    for j in range(1, k + 1):
        c *= (1.5 - j) / j
    return c * (-1.0) ** k


def _r_kmax(alpha: float) -> int:
    """kmax: R keeps the terms k <= kmax, whose x^(a(1-2k)+1) does not decay."""
    return int(math.floor((1.0 + alpha) / (2.0 * alpha) + 1e-12))


def r_expansion(alpha: float, energy: complex) -> RExpansion:
    kmax = _r_kmax(alpha)
    terms = [(1.0 / (alpha + 1.0) + 0.0j, alpha + 1.0)]
    log_coefficient = 0.0 + 0.0j
    log_flag = False
    e = complex(energy)
    for k in range(1, kmax + 1):
        expo = alpha * (1.0 - 2.0 * k) + 1.0
        coef = _sqrt1mt_coeff(k) * e ** k
        if abs(expo) < 1e-12:
            log_coefficient = coef
            log_flag = True
        else:
            terms.append((coef / expo, expo))
    d_alpha = alpha * (1.0 + 2.0 * kmax) - 1.0
    return RExpansion(alpha, e, tuple(terms), log_coefficient, log_flag,
                      d_alpha, min(d_alpha, alpha + 1.0))


def big_R(exp_: RExpansion, x) -> complex:
    p = x if isinstance(x, CoverPoint) else CoverPoint.from_complex(complex(x))
    out = 0.0 + 0.0j
    for coef, expo in exp_.terms:
        out += coef * p.cpow(expo)
    if exp_.log_flag:
        out += exp_.log_coefficient * p.clog()
    return out


def big_R_prime(exp_: RExpansion, x) -> complex:
    p = x if isinstance(x, CoverPoint) else CoverPoint.from_complex(complex(x))
    out = 0.0 + 0.0j
    for coef, expo in exp_.terms:
        out += coef * expo * p.cpow(expo - 1.0)
    if exp_.log_flag:
        out += exp_.log_coefficient / p.to_complex()
    return out


# ---------------------------------------------------------------------------
# Frobenius series at the origin

@dataclass(frozen=True)
class FrobeniusSeed:
    """Series chi(x) = x^(ell+1) (1 + sum c_{m,n} E^m x^(2m + (2a+2)n)).

    The table is energy independent; the recurrence is
    mu (mu + 2 ell + 1) c_{m,n} = c_{m,n-1} - c_{m-1,n},  mu = 2m + (2a+2)n.
    The columns m, n, c, the derivative weights ell + 1 + mu and the mask of
    the top-order terms (mu >= order - 2a - 2) are also kept as arrays, built
    once with the table and cached with it, so that an evaluation is a few
    vector operations.
    """

    alpha: float
    ell: float
    order: float
    coeffs: tuple[tuple[int, int, float], ...]
    m: np.ndarray = field(init=False, repr=False, compare=False)
    n: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)
    weight: np.ndarray = field(init=False, repr=False, compare=False)
    top_order: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, n, c = (np.array(col) for col in zip(*self.coeffs))
        step_n = 2.0 * self.alpha + 2.0
        mu = 2.0 * m + step_n * n
        for name, arr in (("m", m), ("n", n), ("c", c), ("weight", self.ell + 1.0 + mu),
                          ("top_order", mu >= self.order - step_n)):
            object.__setattr__(self, name, arr)


def frobenius_seed(alpha: float, ell: float) -> FrobeniusSeed:
    if ell <= -0.5:
        raise ValueError("series solution needs ell > -1/2")
    order = 120.0  # highest power mu = 2m + (2a+2)n of x kept
    step_n = 2.0 * alpha + 2.0
    table: dict[tuple[int, int], float] = {(0, 0): 1.0}
    out = [(0, 0, 1.0)]
    m_hi = int(order // 2) + 1
    n_hi = int(order // step_n) + 1
    for n in range(n_hi + 1):
        for m in range(m_hi + 1):
            if m == 0 and n == 0:
                continue
            mu = 2.0 * m + step_n * n
            if mu > order:
                continue
            prev_n = table.get((m, n - 1), 0.0)
            prev_m = table.get((m - 1, n), 0.0)
            c = (prev_n - prev_m) / (mu * (mu + 2.0 * ell + 1.0))
            if c != 0.0:
                table[(m, n)] = c
                out.append((m, n, c))
    return FrobeniusSeed(alpha, ell, order, tuple(out))


def _powers(base: complex, exps: np.ndarray) -> np.ndarray:
    """base ** exps for nonnegative integer exps, from one running product."""
    run = np.full(int(exps.max()) + 1, base, dtype=complex)
    run[0] = 1.0
    return np.cumprod(run)[exps]


def _frobenius_scaled(seed: FrobeniusSeed, energy: complex,
                      p: CoverPoint) -> tuple[complex, complex, float, float]:
    """Series value, derivative and truncation estimate divided by |x|^(ell+1),
    and log|x|^(ell+1).

    Keeping the modulus of the prefactor as a log-scale lets large ell seed
    where x^(ell+1) itself is far below the smallest double.
    """
    z = p.to_complex()
    e = complex(energy)
    z2 = z * z
    zstep = p.cpow(2.0 * seed.alpha + 2.0)
    # powers by running products, not complex **; E^m and z^(2m) stay separate
    # factors, multiplied onto c in turn, so that a tiny c_{m,n} absorbs each
    # before the product can overflow
    term = seed.c * _powers(e, seed.m) * _powers(z2, seed.m) * _powers(zstep, seed.n)
    # summed in table order, as the running sum np.cumsum keeps: at large ell
    # the sum cancels heavily, and numpy's pairwise sum loses up to ten times
    # more digits there
    val = complex(np.cumsum(term)[-1])
    dval = complex(np.cumsum(term * seed.weight)[-1])
    top = float(np.abs(term[seed.top_order]).max(initial=0.0))
    phase = cmath.rect(1.0, (seed.ell + 1.0) * p.arg)
    remainder = top * (abs(z2) * abs(e) + abs(zstep))
    return phase * val, phase * dval / z, remainder, (seed.ell + 1.0) * math.log(p.modulus)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) propagation

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

# Attempted steps allowed on one path segment before propagate gives up.
_MAX_STEPS = 2_000_000


def _make_rhs(params: OscillatorParams, seg):
    """Compile U(x(t)) * dx/dt evaluation for one path segment."""
    a = params.alpha
    e = params.energy
    c2 = params.ell * (params.ell + 1.0)
    two_a = 2.0 * a
    n_int = int(round(two_a))
    kind = seg.kind

    if abs(two_a - n_int) < 1e-12 and 1 <= n_int <= 8:
        # x^(2a) is entire: branch-free integer power
        if kind == "arc":
            mod, arg0, dphi = seg.a.modulus, seg.a.arg, seg.dphi

            def xfun(t: float) -> tuple[complex, complex]:
                x = cmath.rect(mod, arg0 + t * dphi)
                return x, 1j * dphi * x
        else:
            za, dz = seg.za, seg.dz

            def xfun(t: float) -> tuple[complex, complex]:
                return za + t * dz, dz

        def rhs(t: float, u: complex, v: complex) -> tuple[complex, complex]:
            x, dx = xfun(t)
            p = x
            for _ in range(n_int - 1):
                p = p * x
            return dx * v, dx * (p + c2 / (x * x) - e) * u
        return rhs

    if kind == "ray":
        m0, dm = seg.a.modulus, seg.b.modulus - seg.a.modulus
        ephi = cmath.rect(1.0, seg.a.arg)
        phase = cmath.exp(1j * two_a * seg.a.arg)

        def rhs(t: float, u: complex, v: complex) -> tuple[complex, complex]:
            m = m0 + t * dm
            x = m * ephi
            dx = dm * ephi
            return dx * v, dx * (math.pow(m, two_a) * phase + c2 / (x * x) - e) * u
        return rhs

    if kind == "arc":
        mod, arg0, dphi = seg.a.modulus, seg.a.arg, seg.dphi
        mpow = math.pow(mod, two_a)

        def rhs(t: float, u: complex, v: complex) -> tuple[complex, complex]:
            arg = arg0 + t * dphi
            x = cmath.rect(mod, arg)
            dx = 1j * dphi * x
            return dx * v, dx * (mpow * cmath.exp(1j * two_a * arg) + c2 / (x * x) - e) * u
        return rhs

    # generic chord with continuous argument lift
    za, dz, arg0 = seg.za, seg.dz, seg.a.arg

    def rhs(t: float, u: complex, v: complex) -> tuple[complex, complex]:
        x = za + t * dz
        arg = arg0 + cmath.phase(x / za)
        xa = cmath.exp(two_a * (math.log(abs(x)) + 1j * arg))
        return dz * v, dz * (xa + c2 / (x * x) - e) * u
    return rhs


def _step_segment(rhs, u: complex, v: complex, sigma: float,
                  rtol: float, trace, xfun) -> tuple[complex, complex, float]:
    t = 0.0
    du0, dv0 = rhs(t, u, v)
    scale = abs(du0) + abs(dv0)
    h = min(0.25, 0.1 * (abs(u) + abs(v)) / scale) if scale > 0 else 0.25
    k1u, k1v = du0, dv0
    err_prev = 1.0
    nsteps = 0
    max_steps = _MAX_STEPS
    while t < 1.0:
        if nsteps > max_steps:
            raise RuntimeError(f"step limit exceeded in propagation at t={t:.6g}, h={h:.3g}")
        if t + h > 1.0:
            h = 1.0 - t
        u2 = u + h * _A21 * k1u
        v2 = v + h * _A21 * k1v
        k2u, k2v = rhs(t + h / 5, u2, v2)
        u3 = u + h * (_A31 * k1u + _A32 * k2u)
        v3 = v + h * (_A31 * k1v + _A32 * k2v)
        k3u, k3v = rhs(t + 3 * h / 10, u3, v3)
        u4 = u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
        v4 = v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
        k4u, k4v = rhs(t + 4 * h / 5, u4, v4)
        u5 = u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
        v5 = v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
        k5u, k5v = rhs(t + 8 * h / 9, u5, v5)
        u6 = u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
        v6 = v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
        k6u, k6v = rhs(t + h, u6, v6)
        un = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
        vn = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
        k7u, k7v = rhs(t + h, un, vn)
        eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
        ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
        su = 1e-300 + rtol * max(abs(u), abs(un))
        sv = 1e-300 + rtol * max(abs(v), abs(vn))
        err = max(abs(eu) / su, abs(ev) / sv)
        if err <= 1.0:
            t += h
            u, v = un, vn
            k1u, k1v = k7u, k7v
            m = max(abs(u), abs(v))
            if m > 1e8 or (0.0 < m < 1e-8):
                u /= m
                v /= m
                k1u /= m
                k1v /= m
                sigma += math.log(m)
            if trace is not None:
                trace.append((t, xfun(t), u, v, sigma))
            fac = 0.9 * err ** -0.2 * err_prev ** 0.04 if err > 0 else 5.0
            err_prev = max(err, 1e-10)
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.2, 0.9 * err ** -0.25)
        nsteps += 1
    return u, v, sigma


def propagate(params: OscillatorParams, state: SolutionState, path: PathSpec,
              rtol: float = 1e-9, trace: list | None = None) -> SolutionState:
    """Transport a solution state along a path (adaptive 5th order, PI control).

    trace, when given, collects (t, x, psi, psi', logscale) rows at accepted steps,
    with t counting segments (node i sits at t = i).
    """
    start = path.nodes[0]
    loc = state.location
    if abs(loc.to_complex() - start.to_complex()) > 1e-9 * (1.0 + start.modulus):
        raise ValueError("state is not at the start of the path")
    # Python complex from here on: the stepper is several times slower on
    # numpy scalars, which refined Sibuya seeds would otherwise bring in
    u, v, sigma = complex(state.value), complex(state.derivative), state.logscale
    segs = [_Segment(k, a, b) for k, a, b in zip(path.parameterization, path.nodes, path.nodes[1:])]
    for i, seg in enumerate(segs):
        rhs = _make_rhs(params, seg)
        local = [] if trace is not None else None
        xfun = (lambda t, seg=seg: seg.point(t)[0]) if trace is not None else None
        try:
            u, v, sigma = _step_segment(rhs, u, v, sigma, rtol, local, xfun)
        except RuntimeError as exc:
            raise RuntimeError(
                f"{exc} on the {seg.kind} segment from (|x|={seg.a.modulus:.6g}, "
                f"arg={seg.a.arg:.6g}) to (|x|={seg.b.modulus:.6g}, arg={seg.b.arg:.6g}) "
                f"(alpha={params.alpha:g}, ell={params.ell:g}, E={params.energy:g})") from None
        if trace is not None:
            trace.extend((i + tt, x, uu, vv, ss) for tt, x, uu, vv, ss in local)
    out = SolutionState(path.nodes[-1], u, v, sigma, state.seed_tag)
    return out.rescaled()


# ---------------------------------------------------------------------------
# asymptotic (Sibuya) seeds on sector rays

def _ray_v(params: OscillatorParams, arg: float, r):
    """(x, V, V', V'', sqrtV) at moduli r on the ray, sqrt(V) ~ +x^alpha.

    r may be a float or an array; the values are numpy scalars or arrays.
    """
    z = r * cmath.rect(1.0, arg)
    xa = _cover_power(2.0 * params.alpha, r, arg)
    v, v1, v2 = _reduced_jet(params, z, xa)
    sq = _cover_power(params.alpha, r, arg) * np.sqrt(v / xa)
    return z, v, v1, v2, sq


def _sqrtv_minus_rprime(params: OscillatorParams, arg: float, y: float) -> complex:
    """sqrt(V) - R' on the ray, stable against cancellation at large y.

    Both terms are x^alpha times a function of w = E x^(-2a); for small w the
    difference is evaluated by the tail of the binomial series of sqrt(1 - t),
    never by subtracting near-equal quantities.  The truncated series in R'
    always has the polynomial shape sum c_k w^k (the log term, when present,
    differentiates into the same pattern).
    """
    a = params.alpha
    pt = CoverPoint(y, arg)
    kmax = _r_kmax(a)
    w = params.energy * pt.cpow(-2.0 * a)
    mu = (params.lam ** 2) * pt.cpow(-2.0 * a - 2.0)
    t = w - mu
    if abs(t) + abs(mu) <= 0.35:
        g = 0.0 + 0.0j
        for j in range(1, kmax + 1):
            # c_j [(w - mu)^j - w^j], expanded so the difference stays small
            diff = 0.0 + 0.0j
            binom = 1.0
            for i in range(1, j + 1):
                binom *= (j - i + 1) / i
                diff += binom * (-mu) ** i * w ** (j - i)
            g += _sqrt1mt_coeff(j) * diff
        term = 1.0 + 0.0j
        for j in range(kmax + 1, kmax + 121):
            c = _sqrt1mt_coeff(j)
            term = t ** j
            g += c * term
            if abs(term) < 1e-22:
                break
        return pt.cpow(a) * g
    poly = 0.0 + 0.0j
    for k in range(kmax + 1):
        poly += _sqrt1mt_coeff(k) * w ** k
    return pt.cpow(a) * (cmath.sqrt(1.0 - t) - poly)


def _tail_t_integral(params: OscillatorParams, arg: float, x_max: float) -> complex:
    """T(x_max) = int_{x_max}^inf (sqrt(V) - R') dy along the ray."""
    def f(s: float) -> np.ndarray:
        # y = x_max / s maps (0,1] to [x_max, inf)
        y = x_max / s
        w = _sqrtv_minus_rprime(params, arg, y) * (x_max / (s * s))
        return np.array([w.real, w.imag])
    val, _ = _sint.quad_vec(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)
    phase = cmath.rect(1.0, arg)
    return complex(val[0], val[1]) * phase


# Nodes of the u = x_max/x grid of the tail Volterra equation.
_TAIL_NODES = 801


def _tail_volterra(params: OscillatorParams, arg: float, sgn: float,
                   x_max: float) -> tuple[complex, complex]:
    """Boundary-layer correction on the ray tail: returns (z, z'/z) at x_max.

    Solves z = 1 + K[z] from infinity down to x_max on the u = x_max/x grid by the
    O(n) trapezoid sweep of iterate_grid; sgn is the exponent sign of the target
    solution (the curve runs from infinity inward so Re S increases toward x_max).
    """
    us = np.linspace(0.0, 1.0, _TAIL_NODES)
    phase = cmath.rect(1.0, arg)

    def ds(u):
        return sgn * _ray_v(params, arg, x_max / u)[4] * (-x_max / (u * u)) * phase
    # per-interval phase increments by Gauss quadrature; the first interval
    # reaches toward infinity, where F = 0 and the sweep's exp(-2 dS) underflows
    # harmlessly, so its (finite but enormous) value never needs precision
    dels = _gauss8_increments(ds, us)
    x, v, v1, v2, sq = _ray_v(params, arg, x_max / us[1:])
    fvals = np.zeros(_TAIL_NODES, dtype=complex)
    fvals[1:] = (_forcing_payload(x, v, v1, v2) / (sgn * sq)) * (-x_max / (us[1:] ** 2)) * phase
    # anchor cumulative S at the x_max end: only differences enter the kernel,
    # and anchoring there keeps them accurate where exp(-2 dS) is of size one
    svals = np.empty(_TAIL_NODES, dtype=complex)
    svals[-1] = 0.0
    svals[:-1] = -np.cumsum(dels[::-1])[::-1]
    z, _ = iterate_grid(svals, fvals, us)
    slope = endpoint_slope_integral(svals, fvals, z, us)
    zp_over_z = -(sgn * sq[-1]) * slope / z[-1]
    return complex(z[-1]), zp_over_z


def sibuya_seed(params: OscillatorParams, k: int, x_max: float,
                refine: bool = True) -> SolutionState:
    """Recessive solution of sector k, normalized to x^(-a/2) exp(-(-1)^k R(x)).

    The plain asymptotic value is corrected in two ways when refine is set: the
    exact tail integral T = int (sqrt V - R') replaces the truncated series
    remainder, and a Volterra boundary-layer factor z(x_max) (solved on the
    compactified tail of the ray) restores the true solution, still with the
    exact limit normalization since z -> 1 at infinity.
    """
    a = params.alpha
    arg = sector_center_arg(a, k)
    sgn = -((-1.0) ** k)
    pt = CoverPoint(x_max, arg)
    exp_ = r_expansion(a, params.energy)
    rr = big_R(exp_, pt)
    # Python scalars from here on: the RK stepper is slow on numpy ones
    z, v, v1, _, sq = (complex(q) for q in _ray_v(params, arg, x_max))
    if refine:
        tval = _tail_t_integral(params, arg, x_max)
        if not cmath.isfinite(tval):
            # a NaN here would only surface as a step-limit failure of the
            # transport that follows, after tens of seconds
            raise RuntimeError(
                f"sector seed tail integral is not finite (k={k}, x_max={x_max:.6g}; "
                f"alpha={a:g}, ell={params.ell:g}, E={params.energy:g})")
        w = sgn * (rr - tval)
        # prefactor V^(-1/4) relative to x^(-a/2): (V x^(-2a))^(-1/4), near 1
        pref = (v / pt.cpow(2.0 * a)) ** -0.25
        zc, zp_over_z = _tail_volterra(params, arg, sgn, x_max)
        mant = pt.cpow(-0.5 * a) * pref * cmath.exp(1j * w.imag) * zc
        logp = sgn * sq - 0.25 * v1 / v + zp_over_z
        tag = f"sibuya_{k}"
    else:
        w = sgn * rr
        mant = pt.cpow(-0.5 * a) * cmath.exp(1j * w.imag)
        logp = sgn * big_R_prime(exp_, pt) - 0.5 * a / z
        tag = f"sibuya_{k}_plain"
    state = SolutionState(pt, mant, mant * logp, w.real, tag)
    return state.rescaled()


# Real-axis contrast Re R(x_max) - Re R(x_plus) at which sector rays are seeded.
_CONTRAST_BUDGET = 40.0


def choose_x_max(params: OscillatorParams, x_plus: float) -> float:
    """Seed radius for sector rays, given the outer turning scale x_plus.

    The radius is where the real-axis contrast Re R(x_max) - Re R(x_plus)
    reaches _CONTRAST_BUDGET: beyond it the admixture of the recessive
    solution into the propagated dominant one is below e^(-2*budget), and the
    refined seeds of the spectral quantities (determinant, sector Wronskians,
    Stokes multipliers, cross ratios, R0) stay accurate that far in.  It is
    kept between the floor max(1.35 x_plus, x_plus + 0.75, 4) and the cap
    max(20, 3 x_plus), a radius where even the asymptotic remainder of a
    plain seed is small.
    """
    cap = max(20.0, 3.0 * x_plus)
    exp_ = r_expansion(params.alpha, params.energy)
    base = big_R(exp_, CoverPoint(x_plus, 0.0)).real

    def contrast(x: float) -> float:
        return big_R(exp_, CoverPoint(x, 0.0)).real - base

    floor = max(1.35 * x_plus, x_plus + 0.75, 4.0)
    if floor >= cap or contrast(cap) <= _CONTRAST_BUDGET:
        return cap
    lo, hi = floor, cap
    if contrast(lo) >= _CONTRAST_BUDGET:
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if contrast(mid) < _CONTRAST_BUDGET:
            lo = mid
        else:
            hi = mid
    return hi


def wronskian(s1: SolutionState, s2: SolutionState) -> tuple[complex, float]:
    """Wr[f, g] = f g' - f' g as (mantissa, logscale); states must share a point."""
    z1, z2 = s1.location.to_complex(), s2.location.to_complex()
    if abs(z1 - z2) > 1e-8 * (1.0 + abs(z1)):
        raise ValueError("states live at different points")
    return (s1.value * s2.derivative - s1.derivative * s2.value,
            s1.logscale + s2.logscale)
