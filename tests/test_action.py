"""Action integrals, the blown-up J integrals, and quantisation."""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from anharmonic import (
    OscillatorParams,
    asymptotic_reference,
    bohr_sommerfeld_energy,
    critical_data,
    eigenvalues,
    path_from_complex,
    reduced_wkb_integral,
    to_hbar_coords,
    turning_points,
    wkb_phase,
    wkb_phase_derivative,
)
from anharmonic import action
from anharmonic.action import PathFrame, PathSpec, _dist_to_origin
from anharmonic.checks import committed_curves
from anharmonic.model import CoverPoint


class TestQuadraticWell:
    """At alpha=1 every quantity here has a closed form."""

    @pytest.mark.parametrize("energy,ell", [(3.9, 0.3), (7.0, 0.0), (12.5, 2.2)])
    def test_phase_is_linear_in_energy(self, energy, ell):
        got = wkb_phase(OscillatorParams(1.0, energy, ell))
        assert abs(got - (energy - 2.0 * ell - 1.0) / 4.0) < 1e-10

    def test_phase_derivative_is_constant(self):
        got = wkb_phase_derivative(OscillatorParams(1.0, 6.3, 0.8))
        assert abs(got - 0.25) < 1e-8

    @pytest.mark.parametrize("excess", [5e-9, 1e-7, 1.01e-6, 1e-5, 1e-3, 1.0, 100.0])
    @pytest.mark.parametrize("ell", [0.0, 0.5, 3.0])
    def test_phase_derivative_is_constant_from_the_critical_energy_up(self, ell, excess):
        # E/E* - 1 = excess; the first point lies in the near-critical band and
        # takes the harmonic bottom's slope, the others the quadrature
        energy = critical_data(1.0, ell).e_star * (1.0 + excess)
        got = wkb_phase_derivative(OscillatorParams(1.0, energy, ell))
        assert abs(got / 0.25 - 1.0) < 1e-12

    @pytest.mark.parametrize("u", [0.0, 0.1, 0.3, 0.49])
    def test_j1_line(self, u):
        assert abs(reduced_wkb_integral(1.0, "J1", u) - (1.0 - 2.0 * u) / 4.0) < 1e-12

    @pytest.mark.parametrize("nu", [2.0, 5.0, 20.0])
    def test_j2_line(self, nu):
        assert abs(reduced_wkb_integral(1.0, "J2", nu) - (nu - 2.0) / 4.0) < 1e-12

    @pytest.mark.parametrize("ell,n", [(0.0, 0), (0.5, 3), (1.4, 1)])
    def test_quantisation_recovers_the_lines(self, ell, n):
        got = bohr_sommerfeld_energy(1.0, ell, n)
        assert abs(got / (4.0 * n + 2.0 * ell + 3.0) - 1.0) < 1e-8


class TestJIntegrals:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.7])
    def test_j1_zero_against_quadrature(self, alpha):
        # (1/pi) integral of sqrt(1 - y^2a) over the classical region
        ref = mp.quad(lambda y: mp.sqrt(1.0 - y ** (2.0 * alpha)), [0, 1]) / mp.pi
        got = reduced_wkb_integral(alpha, "J1", 0.0)
        assert abs(got - float(ref)) < 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_j2_vanishes_at_critical_point(self, alpha):
        nu_star = (1.0 + alpha) / alpha ** (alpha / (alpha + 1.0))
        assert abs(reduced_wkb_integral(alpha, "J2", nu_star)) < 1e-10

    @given(alpha=st.floats(0.4, 3.0), nu=st.floats(3.0, 40.0))
    def test_duality(self, alpha, nu):
        """J2 at large argument is a rescaled J1 at small argument, exactly."""
        expo = (alpha + 1.0) / (2.0 * alpha)
        j2 = reduced_wkb_integral(alpha, "J2", nu)
        j1 = reduced_wkb_integral(alpha, "J1", nu ** -expo)
        assert abs(j2 - nu ** expo * j1) < 1e-8 * max(1.0, abs(j2))

    # alpha <= 1/2 takes the other two branches of j2_large_rate
    @pytest.mark.parametrize("a", [2.0, 0.5, 0.25])
    def test_large_nu_expansion_rate(self, a):
        ratios = []
        for nu in (20.0, 80.0):
            err = abs(reduced_wkb_integral(a, "J2", nu)
                      - asymptotic_reference("j2_large_nu", a, nu=nu))
            ratios.append(err / asymptotic_reference("j2_large_rate", a, nu=nu))
        assert all(r < 0.5 for r in ratios)
        # the normalized error is flat, so the rate exponent is right
        assert 0.5 < ratios[1] / ratios[0] < 2.0


class TestPhase:
    def test_matches_brute_quadrature(self):
        params = OscillatorParams(2.0, 5.0, 0.7)
        lo, hi = turning_points(params).real_pair

        def p(x):
            x = mp.mpf(x)
            return mp.sqrt(params.energy - x ** 4 - params.lam ** 2 / x ** 2)

        ref = mp.quad(p, [lo * (1 + 1e-12), hi * (1 - 1e-12)]) / mp.pi
        assert abs(wkb_phase(params) - float(ref)) < 1e-6

    @given(s=st.floats(0.4, 2.5))
    def test_scaling_covariance(self, s):
        # x -> s*x maps the well onto another one; the phase transforms exactly
        alpha, e, lam = 2.0, 7.3, 1.1
        i0 = wkb_phase(OscillatorParams(alpha, e, lam - 0.5))
        i1 = wkb_phase(OscillatorParams(alpha, s ** (-2.0 * alpha) * e,
                                        s ** -(alpha + 1.0) * lam - 0.5))
        assert abs(i0 - s ** (alpha + 1.0) * i1) < 1e-8 * i0

    # at alpha = 187 x_lo^(2 alpha) underflows where (1 + u)^(2 alpha)
    # overflows: wkb_phase gave nan there, and the derivative, which reads a
    # nan radicand as the end of the well, a silent 31 % too low
    @pytest.mark.parametrize("alpha,ell,energy", [(2.0, 0.7, 6.0), (0.6, 1.2, 9.0),
                                                  (187.0, 0.0, 260.0), (187.0, 2.0, 6400.0)])
    def test_derivative_positive_and_consistent(self, alpha, ell, energy):
        d = wkb_phase_derivative(OscillatorParams(alpha, energy, ell))
        h = 1e-5 * energy
        fd = (wkb_phase(OscillatorParams(alpha, energy + h, ell))
              - wkb_phase(OscillatorParams(alpha, energy - h, ell))) / (2.0 * h)
        assert d > 0
        assert abs(d - fd) < 1e-6 * d


def _mp_phase(alpha: float, ell: float, energy: float) -> float:
    """wkb_phase by mpmath at 30 digits: tanh-sinh quadrature in x on panels
    growing geometrically from x_lo to x_hi."""
    with mp.workdps(30):
        a2, lam2, e = 2 * mp.mpf(alpha), (mp.mpf(ell) + mp.mpf(0.5)) ** 2, mp.mpf(energy)

        def r(x):
            return e - x ** a2 - lam2 / x ** 2
        x_star = (lam2 / mp.mpf(alpha)) ** (1 / (a2 + 2))
        lo = mp.findroot(r, (mp.sqrt(lam2 / e) / 2, x_star), solver="bisect")
        hi = mp.findroot(r, (x_star, (2 * e) ** (1 / a2)), solver="bisect")
        nodes = [lo * (hi / lo) ** (mp.mpf(k) / 16) for k in range(17)]
        return float(mp.quad(lambda x: mp.sqrt(max(r(x), 0)), nodes) / mp.pi)


class TestPhaseQuadrature:
    """The adaptive Gauss rule behind wkb_phase and check_admissible's rho."""

    # scipy's quad misses the first three by 2.6e-9, 7.7e-11 and 4.2e-10
    # relative without a warning: near ell = -1/2 the centrifugal wall is a
    # feature of width x_lo at the foot of a well of width x_hi >> x_lo
    @pytest.mark.parametrize("alpha,ell,energy", [
        (0.3090966415351226, -0.34157699469230707, 4555.0943643752435),
        (0.4204681896276866, -0.4983411894897116, 20607.432495133362),
        (0.524455624780207, -0.4989593925194597, 22428.709225778035),
        (1.0, -0.4999, 5.0), (2.0, -0.49, 50.0), (3.0, 0.0, 1e4), (3.0, 2.0, 3e5),
        (187.0, 0.0, 260.0), (187.0, -0.3, 42.0),
    ])
    def test_phase_matches_mpmath(self, alpha, ell, energy):
        got = wkb_phase(OscillatorParams(alpha, energy, ell))
        assert abs(got / _mp_phase(alpha, ell, energy) - 1.0) < 1e-11

    def test_kinks_are_resolved(self):
        # |sin 5t| on [0, 3] has four kinks; its integral is (9 - cos(15 - 4 pi)) / 5
        got = action._adaptive_gauss(lambda t: np.abs(np.sin(5.0 * t)), np.array([0.0, 3.0]),
                                     1e-12, 1e-10, "kinks")
        assert abs(got / ((9.0 - math.cos(15.0 - 4.0 * math.pi)) / 5.0) - 1.0) < 1e-9

    def test_panel_cap_raises_a_named_error(self):
        # cos(1e5 t^2) turns 16,000 times on [0, 1]: more than the cap's panels resolve
        with pytest.raises(RuntimeError, match="^chirp: quadrature error .* with 1000 panels"):
            action._adaptive_gauss(lambda t: np.cos(1e5 * t * t), np.array([0.0, 1.0]),
                                   1e-12, 1e-12, "chirp")


class TestQuantisation:
    # the last three: large ell at small alpha, where the solve is hardest to get to 1e-10
    @pytest.mark.parametrize("alpha,ell,n", [(2.0, 0.7, 0), (2.0, 0.7, 3), (0.6, 1.2, 2),
                                             (0.6, 60.0, 30), (0.34, 60.0, 2), (0.21, 60.0, 5)])
    def test_solver_inverts_the_phase(self, alpha, ell, n):
        e = bohr_sommerfeld_energy(alpha, ell, n)
        assert abs(wkb_phase(OscillatorParams(alpha, e, ell)) - (n + 0.5)) < 1e-10
        assert e > critical_data(alpha, ell).e_star

    def test_unbracketed_level_names_its_parameters(self, monkeypatch):
        monkeypatch.setattr(action, "wkb_phase", lambda params: 0.0)
        with pytest.raises(RuntimeError) as err:
            bohr_sommerfeld_energy(0.6, 1.2, 2)
        msg = str(err.value)
        assert msg.startswith("quantisation bracket not found (alpha=0.6, ell=1.2, n=2)")

    def test_levels_increase(self):
        es = [bohr_sommerfeld_energy(2.0, 0.0, n) for n in range(5)]
        assert all(b > a for a, b in zip(es, es[1:]))


class TestReferences:
    def test_quadratic_line_is_exact(self):
        # bracket constant is 1 at alpha=1, so the reference is 4n + 2ell + 1
        got = asymptotic_reference("spectrum_large_n", 1.0, ell=0.0, n=10)
        assert abs(got - 41.0) < 1e-12

    def test_harmonic_coefficient(self):
        got = asymptotic_reference("harmonic_coefficient", 2.0)
        assert math.isclose(got, 4.0 * math.sqrt(2.0) / math.sqrt(3.0), rel_tol=1e-14)

    def test_coalescing_pair_two_term_expansion(self):
        a = 2.0
        nu_star = (1.0 + a) / a ** (a / (a + 1.0))
        errs = []
        for d in (1e-2, 1e-3):
            tp = turning_points(OscillatorParams(a, nu_star + d, 0.5))
            lo, hi = asymptotic_reference("coalescing_tps", a, nu=nu_star + d)
            errs.append(max(abs(tp.real_pair[0] - lo), abs(tp.real_pair[1] - hi)))
        assert errs[1] < 1e-5
        # residual shrinks like d^(3/2): one decade in d gives ~10^1.5 in error
        assert 15.0 < errs[0] / errs[1] < 60.0

    def test_large_ell_levels_in_lambda(self):
        # nu* lam^p (1 + k (n + 1/2)/lam) with lam = ell + 1/2: exact at alpha = 1,
        # off by O(lam^-2) elsewhere; written in ell it is off by O(1/ell)
        for a in (1.0, 0.6, 2.0):
            for ell in (25.0, 200.0):
                lam = ell + 0.5
                ev = eigenvalues(a, ell, 1, rel_tol=1e-12)
                for n in (0, 1):
                    ref = asymptotic_reference("spectrum_fixed_n_large_ell", a, ell=ell, n=n)
                    err = abs(ev[n] / ref - 1.0)
                    assert err <= 1e-12 if a == 1.0 else lam * lam * err <= 2.0

    @pytest.mark.parametrize("a,ell,n", [(2.0, 3.0, 0), (0.6, 10.0, 2), (1.5, 40.0, 1)])
    def test_hbar_n_is_one_over_lambda_at_the_quantised_energy(self, a, ell, n):
        # I(E, ell) = lam J2(nu) with nu the regime-2 energy, and I = n + 1/2 there
        params = OscillatorParams(a, bohr_sommerfeld_energy(a, ell, n), ell)
        nu = to_hbar_coords(params, 2).nu
        assert abs(params.lam * asymptotic_reference("hbar_n", a, nu=nu, n=n) - 1.0) < 1e-12

    def test_rejects_unknown_identifier(self):
        with pytest.raises(KeyError):
            asymptotic_reference("no_such_thing", 1.0)


class TestPathFrameArrays:
    @pytest.mark.parametrize("method", ["reduced", "sqrt_v", "forcing"])
    def test_array_calls_equal_scalar_calls(self, method):
        """One array call gives the scalar values, on both sides of a branch flip."""
        params = OscillatorParams(1.0, 6.0, 0.5)
        frame = PathFrame(params, path_from_complex([0.5 + 0.1j, 3.0 + 0.1j]))
        flips = frame._signs[0][0]
        assert len(flips) == 1
        assert frame._sign_at(0, flips[0] - 1e-6) != frame._sign_at(0, flips[0] + 1e-6)
        ts = np.sort(np.concatenate([np.linspace(0.0, 1.0, 17), flips - 1e-6, flips + 1e-6]))
        evaluate = getattr(frame, method)
        want = np.array([evaluate(0, float(t)) for t in ts])
        # scalar and array numpy kernels may round differently: allow ~50 ulp
        np.testing.assert_allclose(evaluate(0, ts), want, rtol=1e-14, atol=0.0)


def _random_path(seed):
    """(params, PathSpec) of 2-5 random segments mixing lines, arcs and rays."""
    rng = np.random.default_rng(seed)
    params = OscillatorParams(rng.uniform(0.4, 3.0), rng.uniform(0.5, 12.0), rng.uniform(0.0, 2.0))
    nodes = [CoverPoint(rng.uniform(0.5, 4.0), rng.uniform(-math.pi, math.pi))]
    kinds = []
    segments = rng.integers(2, 6)
    while len(kinds) < segments:
        a = nodes[-1]
        kind = str(rng.choice(["line", "arc", "ray"]))
        if kind == "arc":
            b = CoverPoint(a.modulus, a.arg + rng.uniform(-3.0, 3.0))
        elif kind == "ray":
            b = CoverPoint(rng.uniform(0.3, 5.0), a.arg)
        else:
            zb = complex(*rng.uniform(-4.0, 4.0, 2))
            if _dist_to_origin(a.to_complex(), zb) < 0.2:
                continue
            b = CoverPoint.from_complex(zb, near_arg=a.arg)
        nodes.append(b)
        kinds.append(kind)
    return params, PathSpec(tuple(nodes), tuple(kinds), str(rng.choice(["principal", "negative"])))


def _nearest_root_branch(frame, ts):
    """Per segment, the signs s_k of s_k np.sqrt(V) continued point by point
    from the start branch (each point takes the root nearer the previous
    value) and the flips between two points, bisected 60 times by the same rule."""
    def nearer(root, prev):
        return 1.0 if abs(root - prev) <= abs(root + prev) else -1.0
    prev = (1.0 if frame.path.sqrt_v_branch == "principal" else -1.0) * np.sqrt(frame.reduced(0, 0.0))
    out = []
    for i in range(len(frame.segments)):
        roots = np.sqrt(frame.reduced(i, ts))
        signs = np.empty(len(ts))
        flips = []
        for k, root in enumerate(roots):
            signs[k] = nearer(root, prev)
            if k > 0 and signs[k] != signs[k - 1]:
                lo, hi, left = ts[k - 1], ts[k], prev
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    r = np.sqrt(frame.reduced(i, mid))
                    if nearer(r, left) == signs[k - 1]:
                        lo, left = mid, signs[k - 1] * r
                    else:
                        hi = mid
                flips.append(0.5 * (lo + hi))
            prev = signs[k] * root
        out.append((signs, np.array(flips)))
    return out


# seed 1415: V hugs the negative real axis on segment 0, and Im V dips below 0
# and back on (0.4013, 0.4033), between two neighbouring scouts
_BRANCH_CASES = ([(name, params, path) for name, params, path in committed_curves()]
                 + [("random%d" % seed, *_random_path(seed)) for seed in (*range(40), 1415)])


class TestBranchRule:
    @pytest.mark.parametrize("name,params,path", _BRANCH_CASES, ids=[c[0] for c in _BRANCH_CASES])
    def test_matches_point_by_point_continuation(self, name, params, path):
        """On 2049 points a segment, sqrt_v is np.sqrt(V) continued by nearest
        roots, and every flip sits where a bisection of that rule puts it."""
        frame = PathFrame(params, path)
        ts = np.linspace(0.0, 1.0, 2049)
        for i, (signs, flips) in enumerate(_nearest_root_branch(frame, ts)):
            np.testing.assert_array_equal(frame.sqrt_v(i, ts), signs * np.sqrt(frame.reduced(i, ts)))
            assert len(frame._signs[i][0]) == len(flips)
            np.testing.assert_allclose(frame._signs[i][0], flips, rtol=0.0, atol=1e-13)
