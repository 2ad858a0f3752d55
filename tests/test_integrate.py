"""Series seeds, asymptotic seeds, and complex-plane transport."""
import cmath
import math

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from anharmonic import CoverPoint, OscillatorParams, PathSpec, integrate
from anharmonic.integrate import (
    SolutionState,
    big_R,
    choose_x_max,
    frobenius_seed,
    propagate,
    r_expansion,
    wronskian,
)
from anharmonic.action import _Segment
from anharmonic.model import critical_data, eval_reduced, sector_center_arg
from anharmonic.spectral import _geometry, eigenvalues, spectral_determinant

mp.mp.dps = 25


def whittaker_w(energy, ell, z):
    """Recessive confluent solution of the quadratic well, for cross-checks."""
    z = mp.mpc(z)
    return mp.sqrt(1.0 / z) * mp.whitw(energy / 4.0, (2.0 * ell + 1.0) / 4.0, z * z)


def whittaker_m(energy, ell, z):
    z = mp.mpc(z)
    return mp.sqrt(1.0 / z) * mp.whitm(energy / 4.0, (2.0 * ell + 1.0) / 4.0, z * z)


def series_at(seed, energy, x):
    """(value, derivative, truncation estimate) of the series solution at real x."""
    val, dval, rem, loglead = integrate._frobenius_scaled(seed, energy, CoverPoint(x, 0.0))
    lead = math.exp(loglead)
    return val * lead, dval * lead, rem * lead


class TestSeriesSeed:
    @pytest.mark.parametrize("energy,ell", [(3.7, 0.4), (9.2, 1.3)])
    def test_matches_confluent_solution(self, energy, ell):
        seed = frobenius_seed(1.0, ell)
        for x in (0.3, 0.9):
            val, dval, rem = series_at(seed, energy, x)
            ref = complex(whittaker_m(energy, ell, x))
            h = mp.mpf("1e-10")
            refd = complex((whittaker_m(energy, ell, x + h)
                            - whittaker_m(energy, ell, x - h)) / (2 * h))
            assert abs(val - ref) < 1e-10 * abs(ref)
            assert abs(dval - refd) < 1e-6 * abs(refd)
            assert rem < 1e-12 * abs(val)

    def test_remainder_carries_the_prefactor(self):
        # at large ell the x^(ell+1) prefactor is astronomically small and the
        # truncation estimate must shrink with it
        seed = frobenius_seed(1.0, 200.0)
        val, _, rem = series_at(seed, 405.0, 0.05)
        assert 0 < abs(val) < 1e-200
        assert rem < 1e-10 * abs(val)

    @pytest.mark.parametrize("alpha,ell,energy,x,arg", [
        (2.0, 0.0, 7.4, 0.8, 0.0), (0.3, -0.45, 2.0, 1.0, 0.7), (1.0, 100.0, 203.5, 1.6, 0.0)])
    def test_array_sum_matches_the_term_loop(self, alpha, ell, energy, x, arg):
        seed = frobenius_seed(alpha, ell)
        p = CoverPoint(x, arg)
        z = p.to_complex()
        zstep = p.cpow(2.0 * alpha + 2.0)
        val = dval = 0.0
        for m, n, c in zip(seed.m.tolist(), seed.n.tolist(), seed.c.tolist()):
            term = c * complex(energy) ** m * (z * z) ** m * zstep ** n
            val += term
            dval += term * (ell + 1.0 + 2.0 * m + (2.0 * alpha + 2.0) * n)
        phase = cmath.rect(1.0, (ell + 1.0) * arg)
        got_val, got_dval, rem, loglead = integrate._frobenius_scaled(seed, energy, p)
        assert abs(got_val - phase * val) < 1e-14 * abs(val)
        assert abs(got_dval - phase * dval / z) < 1e-14 * abs(dval / z)
        assert rem <= 1e-10 * abs(got_val)
        assert loglead == (ell + 1.0) * math.log(x)

    def test_indicial_exponent(self):
        seed = frobenius_seed(2.0, 1.5)
        v1, _, _ = series_at(seed, 1.0, 1e-3)
        v2, _, _ = series_at(seed, 1.0, 2e-3)
        assert abs(v2 / v1 - 2.0 ** 2.5) < 1e-4


class TestExponentExpansion:
    def test_log_branch_of_the_quadratic_well(self):
        # alpha=1: R(x) = x^2/2 - (E/2) log x, including the cover argument
        e = 3.3
        exp_ = r_expansion(1.0, e)
        assert exp_.log_coefficient == -0.5 * e
        p = CoverPoint(5.0, 2.0 * math.pi)
        ref = p.cpow(2.0) / 2.0 - 0.5 * e * p.clog()
        assert abs(big_R(exp_, p) - ref) < 1e-12 * abs(ref)

    def test_pure_leading_term(self):
        # alpha=2 keeps only x^3/3: the next exponent is already negative
        exp_ = r_expansion(2.0, 1.7)
        assert exp_.log_coefficient == 0
        assert abs(big_R(exp_, CoverPoint(3.0, 0.0)) - 9.0) < 1e-12

    def test_power_branch(self):
        e = 1.7
        exp_ = r_expansion(0.6, e)
        assert exp_.log_coefficient == 0
        x = CoverPoint(3.0, 0.0)
        ref = 3.0 ** 1.6 / 1.6 - 0.5 * e * 3.0 ** 0.4 / 0.4
        assert abs(big_R(exp_, x) - ref) < 1e-12 * abs(ref)


class TestTailIntegral:
    # alpha around the thresholds 1/5, 1/3 and 1 at E = 3, ell = 1/2, and
    # ell = 1000 just below the well bottom E* = 582.102, where |w| + |mu| =
    # 1.37 at the seed radius and the stretch before the series is integrated
    @pytest.mark.parametrize("alpha,ell,energy,k", [
        (0.2, 0.5, 3.0, 1), (1.0 / 3.0, 0.5, 3.0, 1), (1.0, 0.5, 3.0, 1), (1.03, 0.5, 3.0, 1),
        (2.0, 0.5, 3.0, 1), (0.7, 1000.0, 582.1, 0), (0.7, 1000.0, 582.1, 1)])
    def test_against_quadrature_on_a_ray_segment(self, alpha, ell, energy, k):
        # T(x1) - T(x2) = int_x1^x2 (sqrt(V) - R') dx on the ray of sector k,
        # by mpmath at 30 digits.  A finite segment from the seed radius keeps
        # the integrand's cancellation mild; toward infinity it is total
        params = OscillatorParams(alpha, energy, ell)
        theta = sector_center_arg(alpha, k)
        x1 = _geometry(params).x_max
        x2 = 4.0 * x1
        with mp.workdps(30):
            phase = mp.expj(theta)
            energy, lam2 = mp.mpf(params.energy), mp.mpf(params.lam) ** 2
            coeffs = [(-1) ** j * mp.binomial(mp.mpf(0.5), j)
                      for j in range(integrate._r_kmax(alpha) + 1)]

            def integrand(y):  # (sqrt(V) - R')(x) dx/dy at x = y e^(i theta)
                xa = y ** alpha * mp.expj(alpha * theta)
                w = energy / (xa * xa)
                mu = lam2 / (xa * xa * (y * phase) ** 2)
                r_prime = sum(c * w ** j for j, c in enumerate(coeffs))
                return xa * (mp.sqrt(1 - w + mu) - r_prime) * phase
            nodes = [x1 * 4 ** (mp.mpf(i) / 8) for i in range(9)]
            ref = complex(mp.quad(integrand, nodes))
        got = integrate._tail_t_integral(params, k, x1) - integrate._tail_t_integral(params, k, x2)
        assert abs(got - ref) < 1e-13 * abs(ref)


class TestSectorSeed:
    @pytest.mark.parametrize("alpha,ell,energy,k", [(2.0, 0.0, 7.4, 0), (1.0, 0.5, 9.0, 1),
                                                    (1.0 / 3.0, 0.5, 3.0, -1), (0.8, 1.94, 7.6, 2)])
    def test_uncorrected_seed_is_the_wkb_function(self, alpha, ell, energy, k):
        # refine=False gives Psi = V^(-1/4) e^(sgn S): log-derivative
        # sgn sqrt(V) - V'/(4V), with sqrt(V) ~ +x^alpha on the ray
        params = OscillatorParams(alpha, energy, ell)
        x_max = _geometry(params).x_max
        seed = integrate.sibuya_seed(params, k, x_max, refine=False)
        p = CoverPoint(x_max, sector_center_arg(alpha, k))
        x, lam2 = p.to_complex(), params.lam ** 2
        xa = p.cpow(2.0 * alpha)
        v = xa + lam2 / (x * x) - energy
        v1 = 2.0 * alpha * xa / x - 2.0 * lam2 / x ** 3
        sgn = -((-1.0) ** k)
        want = sgn * p.cpow(alpha) * cmath.sqrt(v / xa) - 0.25 * v1 / v
        assert abs(seed.derivative / seed.value - want) < 1e-13 * abs(want)


class TestTransport:
    def test_real_axis_against_confluent_solution(self):
        e, ell = 3.3, 0.7
        params = OscillatorParams(1.0, e, ell)
        a, b = CoverPoint(8.0, 0.0), CoverPoint(2.0, 0.0)
        h = mp.mpf("1e-10")
        w0 = whittaker_w(e, ell, 8.0)
        wd0 = (whittaker_w(e, ell, 8.0 + h) - whittaker_w(e, ell, 8.0 - h)) / (2 * h)
        st_ = SolutionState(a, complex(w0), complex(wd0), 0.0)
        out = propagate(params, st_, PathSpec((a, b), ("line",), "principal"),
                        rtol=1e-11)
        got = out.value * cmath.exp(out.logscale)
        ref = complex(whittaker_w(e, ell, 2.0))
        assert abs(got - ref) < 1e-9 * abs(ref)

    def test_arc_against_confluent_solution(self):
        # analytic continuation along |x| = 4 into the upper half plane
        e, ell = 3.3, 0.7
        params = OscillatorParams(1.0, e, ell)
        a, b = CoverPoint(4.0, 0.0), CoverPoint(4.0, 0.5)
        h = mp.mpf("1e-12")
        w0 = whittaker_w(e, ell, 4.0)
        wd0 = (whittaker_w(e, ell, 4.0 + h) - whittaker_w(e, ell, 4.0 - h)) / (2 * h)
        st_ = SolutionState(a, complex(w0), complex(wd0), 0.0)
        out = propagate(params, st_, PathSpec((a, b), ("arc",), "principal"),
                        rtol=1e-11)
        got = out.value * cmath.exp(out.logscale)
        ref = complex(whittaker_w(e, ell, 4.0 * cmath.exp(0.5j)))
        assert abs(got - ref) < 1e-9 * abs(ref)

    @given(re0=st.floats(1.6, 2.8), im0=st.floats(0.3, 1.1),
           re1=st.floats(1.6, 2.8), im1=st.floats(0.3, 1.1))
    def test_round_trip_at_low_contrast(self, re0, im0, re1, im1):
        """There and back again reproduces the initial data.

        Only meaningful while exp(2 Re S) stays moderate over the box; a long
        leg toward dominance wipes out the recessive component in doubles.
        """
        params = OscillatorParams(1.0, 2.0, 0.3)
        a = CoverPoint.from_complex(complex(re0, im0))
        b = CoverPoint.from_complex(complex(re1, im1))
        if abs(a.to_complex() - b.to_complex()) < 1e-3:
            return
        st_ = SolutionState(a, 1.0 + 0.2j, -0.3 + 0.1j, 0.0)
        fwd = propagate(params, st_, PathSpec((a, b), ("line",), "principal"),
                        rtol=1e-10)
        back = propagate(params, fwd, PathSpec((b, a), ("line",), "principal"),
                         rtol=1e-10)
        v0 = st_.value * cmath.exp(st_.logscale)
        v1 = back.value * cmath.exp(back.logscale)
        assert abs(v1 - v0) < 1e-7 * abs(v0)

    def test_wronskian_of_independent_data(self):
        x = CoverPoint(2.0, 0.0)
        s1 = SolutionState(x, 1.0, 0.0, 0.5)
        s2 = SolutionState(x, 0.0, 3.0, 1.0)
        m, ls = wronskian(s1, s2)
        assert abs(m * cmath.exp(ls) - 3.0 * cmath.exp(1.5)) < 1e-12


class TestRhs:
    @pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0, 2.5, 4.5])
    @pytest.mark.parametrize("kind,a,b,energy", [
        ("ray", CoverPoint(0.7, 4.0), CoverPoint(3.1, 4.0), 5.3 - 1.7j),
        # the positive axis at real E: the float kernel of every scan
        ("ray", CoverPoint(3.1, 0.0), CoverPoint(0.7, 0.0), 5.3),
        ("arc", CoverPoint(2.3, -0.5), CoverPoint(2.3, 3.6), 5.3 - 1.7j),
        ("line", CoverPoint(1.2, 2.5), CoverPoint(2.6, 3.8), 5.3 - 1.7j),
        # ends on one argument: _Segment makes it a ray
        ("line", CoverPoint(0.9, -2.2), CoverPoint(2.6, -2.2), 5.3 - 1.7j),
    ])
    def test_matches_the_written_out_potential(self, alpha, kind, a, b, energy):
        # (x' v, x' (V - 1/(4x^2)) u) with V from eval_reduced on the cover;
        # each shape has one kernel for integer (2, 4, 9) and other 2 alpha
        params = OscillatorParams(alpha, energy, 0.8)
        seg = _Segment(kind, a, b)
        assert seg.kind == ("ray" if a.arg == b.arg else kind)
        rhs = integrate._make_rhs(params, seg)
        u, v = 0.3 - 1.1j, -0.7 + 0.4j
        for t in (0.0, 0.37, 0.81, 1.0):
            x, arg, dx = seg.point(t)
            x, dx = complex(x), complex(dx)
            pot = eval_reduced(params, CoverPoint(abs(x), float(arg))) - 0.25 / (x * x)
            du, dv = rhs(t, u, v)
            assert abs(du - dx * v) <= 1e-13 * abs(dx * v), t
            assert abs(dv - dx * pot * u) <= 1e-13 * abs(dx * pot * u), t


class TestDOP853:
    def test_tableau_order_conditions(self):
        c, a, b = integrate._C, integrate._A, integrate._B
        assert c[0] == 0.0 and len(a) == len(c) - 1 and len(b) == len(c)
        for i, row in enumerate(a, start=1):
            assert len(row) == i
            assert math.isclose(sum(row), c[i], rel_tol=0.0, abs_tol=1e-14)
        # quadrature conditions of order 8
        for k in range(1, 9):
            got = sum(bi * ci ** (k - 1) for bi, ci in zip(b, c))
            assert math.isclose(got, 1.0 / k, rel_tol=0.0, abs_tol=1e-14), k
        for weights in (integrate._E5, integrate._E3):
            assert len(weights) == len(c)
            assert abs(sum(weights)) < 1e-14

    def test_alpha1_spectrum_at_a_tight_tolerance(self):
        # an order-8 pair must still meet the tightest tolerance callers request
        ell, rel_tol = 0.5, 1e-11
        levels = eigenvalues(1.0, ell, 10, rel_tol=rel_tol)
        worst = max(abs(e - (4 * n + 2 * ell + 3)) / (4 * n + 2 * ell + 3)
                    for n, e in enumerate(levels))
        assert worst <= rel_tol / 10

    def test_stop_points_are_landed_on_and_keep_the_end_state(self):
        params = OscillatorParams(2.0, 7.4, 0.0)
        a, b = CoverPoint(0.5, 0.0), CoverPoint(6.0, 0.0)
        seg = _Segment("ray", a, b)
        stops = [k / 8 for k in range(1, 9)]
        rows = []
        states = integrate._transport_segment(params, seg, 1.0, 0.0, 0.0, 1e-11, stops, rows)
        assert len(states) == len(stops)
        ts = [row[0] for row in rows]
        assert all(t in ts for t in stops) and ts == sorted(set(ts))
        # each stop state is the transport of (1, 0) to that radius
        for t, (u, v, sigma) in zip(stops, states):
            end = CoverPoint(0.5 + 5.5 * t, 0.0)
            ref = propagate(params, SolutionState(a, 1.0, 0.0, 0.0),
                            PathSpec((a, end), ("ray",)), rtol=1e-11)
            got = u * cmath.exp(sigma)
            want = ref.value * cmath.exp(ref.logscale)
            assert abs(got - want) <= 1e-8 * abs(want), t

    def test_trace_has_one_row_per_accepted_step(self):
        params = OscillatorParams(1.0, 9.0, 0.5)
        nodes = (CoverPoint(6.0, 0.0), CoverPoint(6.0, 1.0), CoverPoint(3.0, 1.0))
        start = SolutionState(nodes[0], 1.0, 0.0, 0.0)
        rows = []
        out = propagate(params, start, PathSpec(nodes, ("arc", "ray")), trace=rows)
        ts = [row[0] for row in rows]
        assert ts == sorted(set(ts)) and 1.0 in ts and ts[-1] == 2.0
        t, x, u, v, sigma = rows[-1]
        assert abs(x - nodes[-1].to_complex()) < 1e-12
        end = u * cmath.exp(sigma)
        assert abs(end - out.value * cmath.exp(out.logscale)) < 1e-12 * abs(end)


class TestRealArithmetic:
    """Real data stay real: a real segment at real E from a real seed steps on floats."""

    @pytest.mark.parametrize("alpha,ell,energy,a,b", [
        (0.6, 0.3, 3.1, 0.2, 5.0), (2.0, 0.0, 7.4, 0.5, 6.0), (1.5, 0.7, 5.0, 6.0, 0.3)])
    def test_real_ray_steps_on_floats(self, alpha, ell, energy, a, b):
        # the ray kernel at 2 alpha = 1.2, 4 and 3: |x|^(2a) times its fixed phase
        seg = _Segment("ray", CoverPoint(a, 0.0), CoverPoint(b, 0.0))
        rows, rows_c = [], []
        params = OscillatorParams(alpha, energy, ell)
        (u, v, sigma), = integrate._transport_segment(
            params, seg, 1.0, 0.3, 0.0, 1e-11, (1.0,), rows)
        (uc, vc, sigma_c), = integrate._transport_segment(
            params.with_energy(energy + 1e-300j), seg, 1.0, 0.3, 0.0, 1e-11, (1.0,), rows_c)
        assert type(u) is float and type(v) is float
        assert type(uc) is complex and type(vc) is complex
        assert len(rows) == len(rows_c)
        scale = math.exp(sigma - sigma_c)
        assert abs(u * scale - uc) <= 1e-13 * abs(uc)
        assert abs(v * scale - vc) <= 1e-13 * abs(vc)

    @pytest.mark.parametrize("alpha,kind,a,b", [
        (2.0, "ray", CoverPoint(0.5, 0.0), CoverPoint(6.0, 0.0)),
        (0.6, "line", CoverPoint(0.2, 0.0), CoverPoint(5.0, 0.0)),
        (1.0, "arc", CoverPoint(6.0, 0.0), CoverPoint(6.0, 2.5)),
    ])
    def test_floats_reproduce_the_complex_stepper_bit_for_bit(self, alpha, kind, a, b,
                                                             monkeypatch):
        # with _narrow returning complex every datum stays complex, as in a
        # stepper without the real path; each trace row must be the same bits
        params = OscillatorParams(alpha, 9.0, 0.5)
        seg = _Segment(kind, a, b)
        rows, rows_c = [], []
        integrate._transport_segment(params, seg, 1.0, 0.3, 0.0, 1e-11, (0.5, 1.0), rows)
        monkeypatch.setattr(integrate, "_narrow", complex)
        integrate._transport_segment(params, seg, 1.0, 0.3, 0.0, 1e-11, (0.5, 1.0), rows_c)
        assert rows and len(rows) == len(rows_c)
        for (t, u, v, sigma), (t_c, u_c, v_c, sigma_c) in zip(rows, rows_c):
            assert (t, complex(u), complex(v), sigma) == (t_c, u_c, v_c, sigma_c)
            # an arc leaves the real axis, so its rows are complex either way
            assert type(u) is (complex if kind == "arc" else float)

    @pytest.mark.parametrize("alpha,ell,n_max", [(2.0, 0.0, 2), (1.7, 0.3, 1)])
    def test_every_scan_transport_steps_on_floats(self, alpha, ell, n_max, monkeypatch):
        kinds = []
        original = integrate._transport_segment

        def recorded(*args, **kwargs):
            states = original(*args, **kwargs)
            kinds.append(type(states[-1][0]))
            return states
        monkeypatch.setattr(integrate, "_transport_segment", recorded)
        eigenvalues(alpha, ell, n_max)
        assert kinds and set(kinds) == {float}

    def test_public_values_stay_complex(self):
        params = OscillatorParams(2.0, 7.4, 0.0)
        a, b = CoverPoint(0.5, 0.0), CoverPoint(6.0, 0.0)
        rows = []
        out = propagate(params, SolutionState(a, 1.0, 0.0, 0.0), PathSpec((a, b), ("ray",)),
                        trace=rows)
        assert type(out.value) is complex and type(out.derivative) is complex
        assert all(type(u) is complex and type(v) is complex for _, _, u, v, _ in rows)
        q = spectral_determinant(params, refine=False)
        assert type(q.mantissa) is complex

    @pytest.mark.parametrize("arg", [0.0, 0.7])
    def test_line_along_one_argument_is_the_ray(self, arg):
        # alpha = 0.6 lifts the argument along a general line; a line whose ends
        # share it is the ray x = (m0 + t dm) e^(i arg)
        params = OscillatorParams(0.6, 3.1, 0.3)
        a, b = CoverPoint(0.2, arg), CoverPoint(5.0, arg)
        state = SolutionState(a, 1.0, 0.3, 0.0)
        by_line = propagate(params, state, PathSpec((a, b), ("line",)), rtol=1e-11)
        by_ray = propagate(params, state, PathSpec((a, b), ("ray",)), rtol=1e-11)
        assert by_line.logscale == by_ray.logscale
        for got, want in ((by_line.value, by_ray.value), (by_line.derivative, by_ray.derivative)):
            assert abs(got - want) <= 1e-14 * abs(want)


class TestSeedRadius:
    @pytest.mark.parametrize("alpha,ell", [(0.3, 0.0), (0.6, 0.0), (1.0, 0.5), (2.0, 0.0),
                                           (3.3, 60.0)])
    @pytest.mark.parametrize("energy_ratio", [0.5, 1.0, 1.5, 4.0, 60.0])
    def test_radius_meets_the_contrast_budget_below_the_cap(self, alpha, ell, energy_ratio):
        # energy_ratio < 1 is below the bottom of the well, where x_star stands in
        energy = energy_ratio * critical_data(alpha, ell).e_star
        params = OscillatorParams(alpha, energy, ell)
        geo = _geometry(params)
        x_max = choose_x_max(params, geo.x_plus)
        assert x_max == geo.x_max
        cap = max(20.0, 3.0 * geo.x_plus)
        assert geo.x_match < x_max <= cap
        exp_ = r_expansion(alpha, energy)
        contrast = (big_R(exp_, CoverPoint(x_max, 0.0)).real
                    - big_R(exp_, CoverPoint(geo.x_plus, 0.0)).real)
        budget = integrate._CONTRAST_BUDGET
        # the radius is the contrast rule's root, or the cap short of it
        assert budget <= contrast <= budget * (1.0 + 1e-9) or (x_max == cap and contrast < budget)

    @pytest.mark.parametrize("alpha,ell,energy", [
        (2.0, 0.0, 3.8), (2.0, 0.0, 7000.0), (0.05, 0.0, 2.0), (0.7, 582.1, 1000.0),
        (1.0, 1000.0, 2001.0), (30.0, 0.0, 20.0), (200.0, 2.0, 5.0), (0.05, 0.0, 0.5)])
    def test_scan_radius_meets_the_action_budget_below_the_cap(self, alpha, ell, energy):
        # the plain seed starts where A = int sqrt(V) from x_match reaches 20,
        # V = x^(2 alpha) + (ell + 1/2)^2/x^2 - E the reduced potential; the
        # contrast rule's radius gives A = 38.9, 11.6, 16.7 and 8.5 at the
        # first four points.  At (0.05, 0, 0.5), below the well, A stays at
        # 15.6 up to the cap
        params = OscillatorParams(alpha, energy, ell)
        geo = _geometry(params, refine=False)
        x_max = choose_x_max(params, geo.x_plus, refine=False)
        assert x_max == geo.x_max
        cap = max(20.0, 3.0 * geo.x_plus)
        assert geo.x_match < x_max <= cap
        a2, lam2 = 2 * mp.mpf(alpha), (mp.mpf(ell) + 0.5) ** 2
        d = x_max - geo.x_match
        action = float(mp.quad(lambda x: mp.sqrt(max(x ** a2 + lam2 / x ** 2 - energy, 0)),
                               [geo.x_match + d * f for f in (0, 1e-4, 1e-2, 0.1, 1)]))
        assert 19.99 <= action <= 20.1 or (x_max == cap and action < 20.0)


class TestStepLimit:
    def test_message_names_the_segment(self, monkeypatch):
        monkeypatch.setattr(integrate, "_MAX_STEPS", 3)
        params = OscillatorParams(1.0, 40.0, 0.5)
        start = CoverPoint(1.0, 0.0)
        state = SolutionState(start, 1.0, 0.0, 0.0)
        path = PathSpec((start, CoverPoint(6.0, 0.0)), ("ray",), "principal")
        with pytest.raises(RuntimeError) as err:
            propagate(params, state, path)
        msg = str(err.value)
        assert msg.startswith("step limit exceeded in propagation at t=")
        assert ", h=" in msg and "ray segment from (|x|=1, arg=0) to (|x|=6, arg=0)" in msg
        assert "alpha=1, ell=0.5" in msg
