"""Solution transport: series seeds near 0, asymptotic seeds near infinity,
and an adaptive Runge-Kutta propagator along cover paths.

The propagator integrates psi'' = U psi as the first-order system (psi, psi')
with the Dormand-Prince 8(5,3) pair (DOP853) written directly against Python
scalars: the system has two components and gets stepped hundreds of
thousands of times, so the generic array machinery of scipy.solve_ivp costs
more than the arithmetic.  At the tolerances used here (1e-9 to 5e-13) the
8th order pair takes several times fewer steps per unit of WKB phase than a
5th order one, and each step lands exactly on any requested stop points.
The right-hand side has one form per segment shape (arc, ray, line), the
same at every alpha: x^(2a) is |x|^(2a) exp(2a i arg x) on the cover.
Real data stay real: on a ray of the positive axis at real E from a real
seed, as in every scan determinant, the stepper runs on floats.  CPython's
interpreter specialises float arithmetic and not complex arithmetic, so the
same steps cost about 2.5 times less, and each float result has the bits of
the complex one it replaces.  Any complex datum (an arc, a rotated energy, a
complex seed) promotes the rest to complex.

Solutions carry a multiplicative log-scale so that exponentially large or
small data never leaves the representable range (the equation is linear, so
rescaling commutes with the flow).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    WORK,
    CoverPoint,
    OscillatorParams,
    _brent,
    _cover_power,
    _forcing_payload,
    _gauss8,
    _reduced_jet,
    _reduced_v,
    sector_center_arg,
)
from .action import PathSpec, _Segment
from .volterra import iterate_grid

__all__ = [
    "SolutionState",
    "FrobeniusSeed",
    "RExpansion",
    "r_expansion",
    "big_R",
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

    def rescaled(self) -> "SolutionState":
        m = max(abs(self.value), abs(self.derivative))
        if m == 0.0:
            return self
        return SolutionState(self.location, self.value / m, self.derivative / m,
                             self.logscale + math.log(m))


# ---------------------------------------------------------------------------
# large-x exponent R(x)

@dataclass(frozen=True)
class RExpansion:
    """Truncated exponent R(x) = x^(a+1)/(a+1) + sum_k c_k E^k x^(a(1-2k)+1)/(a(1-2k)+1).

    A term with vanishing exponent turns into log_coefficient log x, with
    log_coefficient = c_k E^k; it is 0 where no exponent vanishes.
    """

    terms: tuple[tuple[complex, float], ...]  # (coefficient, exponent)
    log_coefficient: complex


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
    e = complex(energy)
    for k in range(1, kmax + 1):
        expo = alpha * (1.0 - 2.0 * k) + 1.0
        coef = _sqrt1mt_coeff(k) * e ** k
        if abs(expo) < 1e-12:
            log_coefficient = coef
        else:
            terms.append((coef / expo, expo))
    return RExpansion(tuple(terms), log_coefficient)


def big_R(exp_: RExpansion, x) -> complex:
    p = x if isinstance(x, CoverPoint) else CoverPoint.from_complex(complex(x))
    out = 0.0 + 0.0j
    for coef, expo in exp_.terms:
        out += coef * p.cpow(expo)
    if exp_.log_coefficient:
        out += exp_.log_coefficient * p.clog()
    return out


# ---------------------------------------------------------------------------
# Frobenius series at the origin

@dataclass(frozen=True, eq=False)
class FrobeniusSeed:
    """Series chi(x) = x^(ell+1) (1 + sum c_{m,n} E^m x^(2m + (2a+2)n)).

    The table is energy independent; the recurrence is
    mu (mu + 2 ell + 1) c_{m,n} = c_{m,n-1} - c_{m-1,n},  mu = 2m + (2a+2)n.
    It is kept as its columns only: m, n, c, the derivative weights
    ell + 1 + mu and the masks of the top-order terms, one per direction of
    the recurrence: top_m holds the terms whose m-successor (mu + 2) lies past
    the highest power mu = 120 kept, top_n those whose n-successor
    (mu + 2a + 2) does, so that an evaluation is a few vector operations.
    Arrays do not compare, so neither do tables.
    """

    alpha: float
    ell: float
    m: np.ndarray
    n: np.ndarray
    c: np.ndarray
    weight: np.ndarray
    top_m: np.ndarray
    top_n: np.ndarray


def frobenius_seed(alpha: float, ell: float) -> FrobeniusSeed:
    if ell <= -0.5:
        raise ValueError("series solution needs ell > -1/2")
    order = 120.0  # highest power mu = 2m + (2a+2)n of x kept
    step_n = 2.0 * alpha + 2.0
    table: dict[tuple[int, int], float] = {(0, 0): 1.0}
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
    m, n = (np.array(col) for col in zip(*table))
    mu = 2.0 * m + step_n * n
    return FrobeniusSeed(alpha, ell, m, n, np.array(list(table.values())), ell + 1.0 + mu,
                         mu + 2.0 > order, mu + step_n > order)


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
    WORK["series_evaluations"] += 1
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
    # each dropped successor is its parent term times E x^2 or x^(2a+2)
    size = np.abs(term)
    remainder = (float(size[seed.top_m].max(initial=0.0)) * abs(z2) * abs(e)
                 + float(size[seed.top_n].max(initial=0.0)) * abs(zstep))
    phase = cmath.rect(1.0, (seed.ell + 1.0) * p.arg)
    return phase * val, phase * dval / z, remainder, (seed.ell + 1.0) * math.log(p.modulus)


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3) propagation

# The DOP853 pair of Hairer, Norsett & Wanner, Solving Ordinary Differential
# Equations I (2nd ed.), Sec. II.10, as in Hairer's dop853.f (the same digits
# ship with scipy in scipy/integrate/_ivp/dop853_coefficients.py).  Stage i + 2
# reads row i of _A, a_(i+2, j) for j = 1 .. i + 1, structural zeros included;
# the 12th stage sits at c = 1 and the 13th, f(t + h, y_new), is the first
# stage of the next step.  _E5 and _E3 are the weights of the embedded 5th and
# 3rd order error estimates.
_C = (0.0,
      0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510,
      0.281649658092772603273242802490,
      0.333333333333333333333333333333,
      0.25,
      0.307692307692307692307692307692,
      0.651282051282051282051282051282,
      0.6,
      0.857142857142857142857142857142,
      1.0)
_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
      4.45031289275240888144113950566, 1.89151789931450038304281599044,
      -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
      -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
      4.47106157277725905176885569043e-2)
_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
       -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
       0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
       0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
       -0.2235530786388629525884427845e-1)
# b minus the 3rd order weights bhh1, bhh2, bhh3 (at stages 1, 9 and 12)
_E3 = tuple(b - bh for b, bh in zip(_B, (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1)))

# Attempted steps allowed on one path segment before propagate gives up.
_MAX_STEPS = 2_000_000


def _narrow(z):
    """z as a Python float when it is exactly real, else as a Python complex.

    The stepper runs on floats where its data are real (module docstring),
    and several times slower on numpy scalars, which refined Sibuya seeds
    would otherwise bring in.
    """
    return float(z.real) if z.imag == 0.0 else complex(z)


def _make_rhs(params: OscillatorParams, seg: _Segment):
    """Compile (u, v)' = (x' v, x' U(x) u) along one path segment x(t), 0 <= t <= 1.

    One closure per segment shape, the same at every alpha, with
    x^(2a) = |x|^(2a) exp(2a i arg x) on the cover.  An arc steps the
    argument at fixed modulus; a ray steps the modulus at its fixed phase
    exp(2a i arg); a line lifts arg x continuously along the chord.  Constants
    that are exactly real are Python floats (_narrow), so a ray of the
    positive axis at real E steps on floats.
    """
    e = _narrow(params.energy)
    c2 = params.ell * (params.ell + 1.0)
    two_a = 2.0 * params.alpha

    if seg.kind == "arc":
        mod, arg0, dphi = seg.a.modulus, seg.a.arg, seg.dphi
        mpow = math.pow(mod, two_a)

        def rhs(t: float, u: complex, v: complex) -> tuple[complex, complex]:
            arg = arg0 + t * dphi
            x = cmath.rect(mod, arg)
            dx = 1j * dphi * x
            return dx * v, dx * (mpow * cmath.exp(1j * two_a * arg) + c2 / (x * x) - e) * u
        return rhs

    if seg.kind == "ray":
        m0, dm = seg.a.modulus, seg.b.modulus - seg.a.modulus
        ephi = _narrow(cmath.rect(1.0, seg.a.arg))
        phase = _narrow(cmath.exp(1j * two_a * seg.a.arg))

        def rhs(t: float, u: complex, v: complex) -> tuple[complex, complex]:
            m = m0 + t * dm
            x = m * ephi
            dx = dm * ephi
            return dx * v, dx * (math.pow(m, two_a) * phase + c2 / (x * x) - e) * u
        return rhs

    za, dz, arg0 = _narrow(seg.za), _narrow(seg.dz), seg.a.arg

    def rhs(t: float, u: complex, v: complex) -> tuple[complex, complex]:
        x = za + t * dz
        arg = arg0 + cmath.phase(x / za)
        xa = cmath.exp(two_a * (math.log(abs(x)) + 1j * arg))
        return dz * v, dz * (xa + c2 / (x * x) - e) * u
    return rhs


def _transport_segment(params: OscillatorParams, seg: _Segment, u: complex, v: complex,
                       sigma: float, rtol: float, stops,
                       trace=None) -> list[tuple[complex, complex, float]]:
    """Transport (psi, psi') = (u, v) exp(sigma) along seg from t = 0 over the increasing stops.

    Returns (u, v, logscale) at each stop, u and v floats where the segment,
    the energy and (u, v) are real (_narrow).  The step lands exactly on each
    stop; a step shortened to land there does not shrink the steps after it.
    Every attempted step costs 12 rhs calls, and one more starts the segment.
    trace, when given, collects (t, u, v, logscale) at accepted steps.
    """
    rhs = _make_rhs(params, seg)
    u, v = _narrow(u), _narrow(v)
    _, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, _ = _C
    ((a2_1,), (a3_1, a3_2), (a4_1, _, a4_3), (a5_1, _, a5_3, a5_4),
     (a6_1, _, _, a6_4, a6_5), (a7_1, _, _, a7_4, a7_5, a7_6),
     (a8_1, _, _, a8_4, a8_5, a8_6, a8_7), (a9_1, _, _, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_1, _, _, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_1, _, _, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
     (a12_1, _, _, a12_4, a12_5, a12_6, a12_7, a12_8, a12_9, a12_10, a12_11)) = _A
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = _B
    e5_1, _, _, _, _, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, e5_12 = _E5
    e3_1, _, _, _, _, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11, e3_12 = _E3
    t = 0.0
    k1u, k1v = rhs(t, u, v)
    scale = abs(k1u) + abs(k1v)
    h = min(0.25, 0.1 * (abs(u) + abs(v)) / scale) if scale > 0 else 0.25
    nsteps = rejected = 0
    out = []
    for stop in stops:
        while t < stop:
            if nsteps > _MAX_STEPS:
                raise RuntimeError(
                    f"step limit exceeded in propagation at t={t:.6g}, h={h:.3g} on the "
                    f"{seg.kind} segment from (|x|={seg.a.modulus:.6g}, arg={seg.a.arg:.6g}) "
                    f"to (|x|={seg.b.modulus:.6g}, arg={seg.b.arg:.6g}) "
                    f"(alpha={params.alpha:g}, ell={params.ell:g}, E={params.energy:g})")
            nsteps += 1
            land = t + h >= stop
            hs = stop - t if land else h
            k2u, k2v = rhs(
                t + c2 * hs,
                u + hs * (a2_1 * k1u),
                v + hs * (a2_1 * k1v))
            k3u, k3v = rhs(
                t + c3 * hs,
                u + hs * (a3_1 * k1u + a3_2 * k2u),
                v + hs * (a3_1 * k1v + a3_2 * k2v))
            k4u, k4v = rhs(
                t + c4 * hs,
                u + hs * (a4_1 * k1u + a4_3 * k3u),
                v + hs * (a4_1 * k1v + a4_3 * k3v))
            k5u, k5v = rhs(
                t + c5 * hs,
                u + hs * (a5_1 * k1u + a5_3 * k3u + a5_4 * k4u),
                v + hs * (a5_1 * k1v + a5_3 * k3v + a5_4 * k4v))
            k6u, k6v = rhs(
                t + c6 * hs,
                u + hs * (a6_1 * k1u + a6_4 * k4u + a6_5 * k5u),
                v + hs * (a6_1 * k1v + a6_4 * k4v + a6_5 * k5v))
            k7u, k7v = rhs(
                t + c7 * hs,
                u + hs * (a7_1 * k1u + a7_4 * k4u + a7_5 * k5u + a7_6 * k6u),
                v + hs * (a7_1 * k1v + a7_4 * k4v + a7_5 * k5v + a7_6 * k6v))
            k8u, k8v = rhs(
                t + c8 * hs,
                u + hs * (a8_1 * k1u + a8_4 * k4u + a8_5 * k5u + a8_6 * k6u + a8_7 * k7u),
                v + hs * (a8_1 * k1v + a8_4 * k4v + a8_5 * k5v + a8_6 * k6v + a8_7 * k7v))
            k9u, k9v = rhs(
                t + c9 * hs,
                u + hs * (a9_1 * k1u + a9_4 * k4u + a9_5 * k5u + a9_6 * k6u + a9_7 * k7u +
                          a9_8 * k8u),
                v + hs * (a9_1 * k1v + a9_4 * k4v + a9_5 * k5v + a9_6 * k6v + a9_7 * k7v +
                          a9_8 * k8v))
            k10u, k10v = rhs(
                t + c10 * hs,
                u + hs * (a10_1 * k1u + a10_4 * k4u + a10_5 * k5u + a10_6 * k6u + a10_7 * k7u +
                          a10_8 * k8u + a10_9 * k9u),
                v + hs * (a10_1 * k1v + a10_4 * k4v + a10_5 * k5v + a10_6 * k6v + a10_7 * k7v +
                          a10_8 * k8v + a10_9 * k9v))
            k11u, k11v = rhs(
                t + c11 * hs,
                u + hs * (a11_1 * k1u + a11_4 * k4u + a11_5 * k5u + a11_6 * k6u + a11_7 * k7u +
                          a11_8 * k8u + a11_9 * k9u + a11_10 * k10u),
                v + hs * (a11_1 * k1v + a11_4 * k4v + a11_5 * k5v + a11_6 * k6v + a11_7 * k7v +
                          a11_8 * k8v + a11_9 * k9v + a11_10 * k10v))
            k12u, k12v = rhs(
                t + hs,
                u + hs * (a12_1 * k1u + a12_4 * k4u + a12_5 * k5u + a12_6 * k6u + a12_7 * k7u +
                          a12_8 * k8u + a12_9 * k9u + a12_10 * k10u + a12_11 * k11u),
                v + hs * (a12_1 * k1v + a12_4 * k4v + a12_5 * k5v + a12_6 * k6v + a12_7 * k7v +
                          a12_8 * k8v + a12_9 * k9v + a12_10 * k10v + a12_11 * k11v))
            un = u + hs * (b1 * k1u + b6 * k6u + b7 * k7u + b8 * k8u + b9 * k9u + b10 * k10u +
                           b11 * k11u + b12 * k12u)
            vn = v + hs * (b1 * k1v + b6 * k6v + b7 * k7v + b8 * k8v + b9 * k9v + b10 * k10v +
                           b11 * k11v + b12 * k12v)
            e5u = (e5_1 * k1u + e5_6 * k6u + e5_7 * k7u + e5_8 * k8u + e5_9 * k9u + e5_10 * k10u +
                   e5_11 * k11u + e5_12 * k12u)
            e5v = (e5_1 * k1v + e5_6 * k6v + e5_7 * k7v + e5_8 * k8v + e5_9 * k9v + e5_10 * k10v +
                   e5_11 * k11v + e5_12 * k12v)
            e3u = (e3_1 * k1u + e3_6 * k6u + e3_7 * k7u + e3_8 * k8u + e3_9 * k9u + e3_10 * k10u +
                   e3_11 * k11u + e3_12 * k12u)
            e3v = (e3_1 * k1v + e3_6 * k6v + e3_7 * k7v + e3_8 * k8v + e3_9 * k9v + e3_10 * k10v +
                   e3_11 * k11v + e3_12 * k12v)
            k13u, k13v = rhs(t + hs, un, vn)
            su = 1e-300 + rtol * max(abs(u), abs(un))
            sv = 1e-300 + rtol * max(abs(v), abs(vn))
            # Hairer's combined estimate |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2): it
            # scales like hs^8, hence the step exponent 1/8
            n5 = math.hypot(abs(e5u) / su, abs(e5v) / sv)
            den = math.hypot(n5, 0.1 * math.hypot(abs(e3u) / su, abs(e3v) / sv))
            err = hs * n5 * (n5 / den) if den > 0.0 else 0.0
            if not err <= 1.0:
                # a NaN error rejects the step too, and shrinks it by the floor
                h = hs * max(0.2, 0.9 * err ** -0.125)
                rejected += 1
                continue
            t = stop if land else t + hs
            u, v = un, vn
            k1u, k1v = k13u, k13v
            m = max(abs(u), abs(v))
            if m > 1e8 or (0.0 < m < 1e-8):
                u /= m
                v /= m
                k1u /= m
                k1v /= m
                sigma += math.log(m)
            if trace is not None:
                trace.append((t, u, v, sigma))
            grown = hs * min(5.0, 0.9 * err ** -0.125) if err > 0.0 else 5.0 * hs
            h = max(h, grown) if land else grown
        out.append((u, v, sigma))
    WORK.update(transports=1, real_transports=int(type(u) is float), rk_steps=nsteps - rejected,
                rk_rejected=rejected, rhs_calls=1 + 12 * nsteps)
    return out


def propagate(params: OscillatorParams, state: SolutionState, path: PathSpec,
              rtol: float = 1e-9, trace: list | None = None) -> SolutionState:
    """Transport a solution state along a path (adaptive 8th order, DOP853).

    trace, when given, collects (t, x, psi, psi', logscale) rows at accepted steps,
    with t counting segments (node i sits at t = i).
    """
    WORK["propagate"] += 1
    start = path.nodes[0]
    loc = state.location
    if abs(loc.to_complex() - start.to_complex()) > 1e-9 * (1.0 + start.modulus):
        raise ValueError("state is not at the start of the path")
    u, v, sigma = state.value, state.derivative, state.logscale
    segs = [_Segment(k, a, b) for k, a, b in zip(path.parameterization, path.nodes, path.nodes[1:])]
    for i, seg in enumerate(segs):
        local = [] if trace is not None else None
        u, v, sigma = _transport_segment(params, seg, u, v, sigma, rtol, (1.0,), local)[0]
        if trace is not None:
            trace.extend((i + tt, seg.point(tt)[0], complex(uu), complex(vv), ss)
                         for tt, uu, vv, ss in local)
    out = SolutionState(path.nodes[-1], complex(u), complex(v), sigma)
    return out.rescaled()


# ---------------------------------------------------------------------------
# asymptotic (Sibuya) seeds on sector rays

def _ray_sqrt_v(params: OscillatorParams, arg: float, r):
    """(x, x^(2a), V, sqrtV) at moduli r on the ray, sqrt(V) ~ +x^alpha.

    r may be a float or an array; the values are numpy scalars or arrays.
    """
    z = r * cmath.rect(1.0, arg)
    xa = _cover_power(2.0 * params.alpha, r, arg)
    v = _reduced_v(params, z, xa)
    return z, xa, v, _cover_power(params.alpha, r, arg) * np.sqrt(v / xa)


def _ray_v(params: OscillatorParams, arg: float, r):
    """(x, V, V', V'', sqrtV) at moduli r on the ray, as _ray_sqrt_v."""
    z, xa, v, sq = _ray_sqrt_v(params, arg, r)
    _, v1, v2 = _reduced_jet(params, z, xa)
    return z, v, v1, v2, sq


# The tail stretch is summed by 8-point Gauss on panels whose end radii are at
# most in the ratio _PANEL_RATIO, and checked against panels twice as wide.
_PANEL_RATIO = 1.1
_SETTLE = 1e-10


def _tail_t_integral(params: OscillatorParams, k: int, x_max: float) -> complex:
    """T(x_max) = int (sqrt(V) - R') dx from X = x_max on the ray of sector k to infinity.

    The integrand is x^a [sqrt(1 - w + mu) - sum_{j<=kmax} c_j w^j] with
    w = E x^(-2a) and mu = lam^2 x^(-2a-2).  Where |w| + |mu| <= 1/2, expanding
    the root binomially and integrating term by term gives
        T = -X^(a+1) sum_{j>=1} c_j sum_i C(j,i) w^(j-i) (-mu)^i / (a(1-2j) + 1 - 2i)
    at X, less the terms j <= kmax, i = 0 of R'; every power left decays
    faster than 1/x.  Where |w| + |mu| > 1/2 at x_max (even > 1, where the
    series diverges, at the seed radius of large ell near the well bottom),
    Gauss panels integrate the stretch out to x_1 = x_max (2 |w| + 2 |mu|)^(1/2a),
    where the sum is 1/2, and the series is summed at x_1.  Panels twice as
    wide must agree to _SETTLE (x_1^(a+1) - x_max^(a+1)), which leaves the
    fine ones good to about 1e-13 of that; at or just outside a turning point
    they do not, and T raises.
    """
    a, e, lam2 = params.alpha, params.energy, params.lam ** 2
    arg = sector_center_arg(a, k)
    kmax = _r_kmax(a)
    r = abs(e) * x_max ** (-2.0 * a) + lam2 * x_max ** (-2.0 * a - 2.0)
    x_1 = x_max * max(1.0, 2.0 * r) ** (0.5 / a)

    def integrand(y):  # (sqrt(V) - R') dx/dy at |x| = y on the ray
        w = e * _cover_power(-2.0 * a, y, arg)
        mu = lam2 * _cover_power(-2.0 * a - 2.0, y, arg)
        r_prime = sum(_sqrt1mt_coeff(j) * w ** j for j in range(kmax + 1))
        return _cover_power(a, y, arg) * (np.sqrt(1.0 - w + mu) - r_prime) * cmath.rect(1.0, arg)
    pairs = 1 + int(math.log(x_1 / x_max) / (2.0 * math.log(_PANEL_RATIO)))
    edges = x_max * (x_1 / x_max) ** np.linspace(0.0, 1.0, 2 * pairs + 1)
    fine, coarse = (complex(_gauss8(integrand, t[:-1], t[1:]).sum()) for t in (edges, edges[::2]))
    WORK["panels tail"] += 3 * pairs
    if not abs(fine - coarse) <= _SETTLE * (x_1 ** (a + 1.0) - x_max ** (a + 1.0)):
        raise RuntimeError(
            f"sector seed tail integral does not settle at x_max={x_max:.6g} (k={k}, "
            f"|w|+|mu|={r:.6g}; alpha={a:g}, ell={params.ell:g}, E={params.energy:g})")
    pt = CoverPoint(x_1, arg)
    w, mu = e * pt.cpow(-2.0 * a), lam2 * pt.cpow(-2.0 * a - 2.0)
    row = np.ones(1, dtype=complex)  # C(j, i) w^(j-i) (-mu)^i for i = 0 .. j
    total, c = 0j, 1.0
    # row j is bounded by |c_j| (|w| + |mu|)^j / |a(1-2j) + 1|, and |w| + |mu|
    # <= 1/2 here: the rows past the last one summed are below 1e-17
    rows = kmax + 1 + int(math.log(1e-17) / math.log(max(abs(w) + abs(mu), 1e-17)))
    for j in range(1, rows + 1):
        row = np.append(w * row, 0.0) - np.append(0.0, mu * row)
        c *= (j - 1.5) / j  # c_j of _sqrt1mt_coeff, as a running product
        den = a * (1.0 - 2.0 * j) + 1.0 - 2.0 * np.arange(j + 1)
        lo = 1 if j <= kmax else 0
        total += c * complex(np.sum(row[lo:] / den[lo:]))
    return fine - pt.cpow(a + 1.0) * total


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
        return sgn * _ray_sqrt_v(params, arg, x_max / u)[3] * (-x_max / (u * u)) * phase
    # at large alpha x^(2 alpha) may overflow toward infinity; the values it
    # spoils are not finite, so the sweep below raises, naming the parameters
    with np.errstate(over="ignore", invalid="ignore"):
        # per-interval phase increments by Gauss quadrature; the first interval
        # reaches toward infinity, where F = 0 and the sweep's exp(-2 dS) underflows
        # harmlessly, so its (finite but enormous) value never needs precision
        dels = _gauss8(ds, us[:-1], us[1:])
        x, v, v1, v2, sq = _ray_v(params, arg, x_max / us[1:])
        fvals = np.zeros(_TAIL_NODES, dtype=complex)
        fvals[1:] = ((_forcing_payload(x, v, v1, v2) / (sgn * sq))
                     * (-x_max / (us[1:] ** 2)) * phase)
        # anchor cumulative S at the x_max end: only differences enter the kernel,
        # and anchoring there keeps them accurate where exp(-2 dS) is of size one
        svals = np.empty(_TAIL_NODES, dtype=complex)
        svals[-1] = 0.0
        svals[:-1] = -np.cumsum(dels[::-1])[::-1]
    try:
        z, _ = iterate_grid(svals, fvals, us)
    except RuntimeError as exc:
        raise RuntimeError(
            f"sector seed tail Volterra at x_max={x_max:.6g}, arg={arg:.6g}: {exc} "
            f"(alpha={params.alpha:g}, ell={params.ell:g}, E={params.energy:g})") from None
    # dz/dx at x_max is -sgn sqrt(V) J with J = int exp(-2 (S(x_max) - S)) F z du;
    # on the sweep's trapezoid system J = A_n + g_n = 2 (z_n - 1) + sum_i w_i F_i z_i
    slope = 2.0 * (z[-1] - 1.0) + np.trapezoid(fvals * z, us)
    zp_over_z = -(sgn * sq[-1]) * slope / z[-1]
    return complex(z[-1]), zp_over_z


def sibuya_seed(params: OscillatorParams, k: int, x_max: float,
                refine: bool = True) -> SolutionState:
    """Recessive solution of sector k, normalized to x^(-a/2) exp(-(-1)^k R(x)).

    The uncorrected WKB seed is Psi = V^(-1/4) e^(sgn S), sgn = -(-1)^k, with
    S = R at x_max.  refine adds the two tail corrections: the exact tail
    integral T = int (sqrt V - R') (_tail_t_integral, which raises at or just
    outside a turning point) replaces the truncated series remainder of R,
    and a Volterra factor z(x_max), solved on the compactified tail of the
    ray, turns Psi into the true solution, still with the exact limit
    normalization since z -> 1 at infinity.
    """
    a = params.alpha
    arg = sector_center_arg(a, k)
    sgn = -((-1.0) ** k)
    pt = CoverPoint(x_max, arg)
    w = sgn * big_R(r_expansion(a, params.energy), pt)
    # Python scalars from here on: the RK stepper is slow on numpy ones
    _, v, v1, _, sq = (complex(q) for q in _ray_v(params, arg, x_max))
    logp = sgn * sq - 0.25 * v1 / v
    zc = 1.0
    if refine:
        w -= sgn * _tail_t_integral(params, k, x_max)
        zc, zp_over_z = _tail_volterra(params, arg, sgn, x_max)
        logp += zp_over_z
    # prefactor V^(-1/4) relative to x^(-a/2): (V x^(-2a))^(-1/4), near 1
    pref = (v / pt.cpow(2.0 * a)) ** -0.25
    mant = pt.cpow(-0.5 * a) * pref * cmath.exp(1j * w.imag) * zc
    state = SolutionState(pt, mant, mant * logp, w.real)
    return state.rescaled()


# Real-axis contrast Re R(x_max) - Re R(x_plus) at which sector rays are seeded.
_CONTRAST_BUDGET = 40.0


def choose_x_max(params: OscillatorParams, x_plus: float) -> float:
    """Seed radius for sector rays, given the outer turning scale x_plus.

    The radius is where the real-axis contrast Re R(x_max) - Re R(x_plus)
    reaches _CONTRAST_BUDGET: beyond it the admixture of the recessive
    solution into the propagated dominant one is below e^(-2*budget), and the
    refined seeds of the spectral quantities (determinant, sector Wronskians,
    Stokes multipliers, cross ratios, R0) stay accurate that far in.  Brent's
    method finds it on [x_plus, cap], the cap max(20, 3 x_plus) a radius where
    even the uncorrected WKB seed is accurate.  There is no fixed lower
    radius: Re R grows like x^(alpha+1)/(alpha+1), so at large alpha the
    budget is met just past x_plus.
    """
    cap = max(20.0, 3.0 * x_plus)
    exp_ = r_expansion(params.alpha, params.energy)
    base = big_R(exp_, CoverPoint(x_plus, 0.0)).real

    def contrast(x: float) -> float:
        return big_R(exp_, CoverPoint(x, 0.0)).real - base

    # Brent's method aims a hair above the budget: a root rounded short must not miss it
    target = _CONTRAST_BUDGET * (1.0 + 1e-12)
    try:
        top = contrast(cap)
    except OverflowError:
        raise RuntimeError(
            f"seed radius: Re R overflows at the cap radius {cap:.6g} (alpha={params.alpha:g},"
            f" ell={params.ell:g}, E={params.energy:g})") from None
    if top <= target:
        return cap
    return _brent(lambda x: contrast(x) - target, x_plus, cap, 1e-300, 8.9e-16)


def wronskian(s1: SolutionState, s2: SolutionState) -> tuple[complex, float]:
    """Wr[f, g] = f g' - f' g as (mantissa, logscale); states must share a point."""
    z1, z2 = s1.location.to_complex(), s2.location.to_complex()
    if abs(z1 - z2) > 1e-8 * (1.0 + abs(z1)):
        raise ValueError("states live at different points")
    return (s1.value * s2.derivative - s1.derivative * s2.value,
            s1.logscale + s2.logscale)
