"""Potential data structures: cover points, turning points, rescalings."""
import cmath
import json
import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from anharmonic import (
    CoverPoint,
    OscillatorParams,
    PathSpec,
    critical_data,
    eval_forcing,
    eval_reduced,
    stokes_complex,
    to_hbar_coords,
    turning_points,
)
from anharmonic import cli, model
from anharmonic.action import PathFrame
from anharmonic.model import _brent, _integer_power, sector_center_arg


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestCoverPoint:
    def test_branch_selection(self):
        p = CoverPoint.from_complex(-1.0 + 0.0j, near_arg=0.0)
        q = CoverPoint.from_complex(-1.0 + 0.0j, near_arg=-2.0)
        assert math.isclose(p.arg, math.pi)
        assert math.isclose(q.arg, -math.pi)

    def test_power_sees_the_sheet(self):
        # same projection, one extra turn: x^s gains exp(2 pi i s)
        base = CoverPoint(2.0, 0.3)
        lifted = CoverPoint(base.modulus, base.arg + 2.0 * math.pi)
        s = 0.37 + 0.21j
        ratio = lifted.cpow(s) / base.cpow(s)
        assert abs(ratio - cmath.exp(2j * math.pi * s)) < 1e-12

    @given(mod=st.floats(0.1, 50.0), arg=st.floats(-9.0, 9.0),
           s=st.floats(-2.0, 2.0))
    def test_power_matches_log(self, mod, arg, s):
        p = CoverPoint(mod, arg)
        assert abs(p.cpow(s) - cmath.exp(s * p.clog())) < 1e-10 * mod ** s

    def test_round_trip(self):
        z = 1.7 - 0.4j
        assert abs(CoverPoint.from_complex(z).to_complex() - z) < 1e-15


class TestTurningPoints:
    def test_quadratic_well_closed_form(self):
        # at alpha=1 the zeros solve x^4 - E x^2 + lam^2 = 0
        for e, ell in ((3.9, 0.3), (11.0, 1.6)):
            lam = ell + 0.5
            disc = math.sqrt(e * e - 4.0 * lam * lam)
            lo = math.sqrt((e - disc) / 2.0)
            hi = math.sqrt((e + disc) / 2.0)
            tp = turning_points(OscillatorParams(1.0, e, ell))
            assert tp.real_pair is not None
            assert abs(tp.real_pair[0] - lo) < 1e-10
            assert abs(tp.real_pair[1] - hi) < 1e-10

    @pytest.mark.parametrize("alpha,ell,energy", [
        (1.0, 0.3, 5.2), (2.0, 0.0, 3.8), (0.6, 1.1, 7.0), (2.0, 4.0, 30.0),
    ])
    def test_roots_annihilate_the_potential(self, alpha, ell, energy):
        params = OscillatorParams(alpha, energy, ell)
        tp = turning_points(params)
        scale = abs(energy)
        if tp.real_pair is not None:
            for x in tp.real_pair:
                assert abs(eval_reduced(params, CoverPoint(x, 0.0))) < 1e-8 * scale
        assert tp.sector_points
        for p in tp.sector_points:
            assert abs(eval_reduced(params, p)) < 1e-8 * scale

    def test_below_critical_pair_disappears(self):
        cd = critical_data(2.0, 0.5)
        tp = turning_points(OscillatorParams(2.0, 0.5 * cd.e_star, 0.5))
        assert tp.real_pair is None
        assert tp.sector_points

    def test_degenerate_energy_collapses_the_pair(self):
        cd = critical_data(2.0, 0.5)
        tp = turning_points(OscillatorParams(2.0, cd.e_star, 0.5))
        assert tp.real_pair is not None
        assert abs(tp.real_pair[0] - cd.x_star) < 1e-7
        assert abs(tp.real_pair[1] - cd.x_star) < 1e-7

    def test_integer_power_within_the_tolerance(self):
        # 2 alpha = n to 1e-12 makes x^(2a) entire: a one-turn root window and
        # escape labels in the principal window
        assert [_integer_power(a) for a in (0.5, 1.0, 4.5, 4.5 + 1e-13)] == [1, 2, 9, 9]
        assert _integer_power(0.6) is None and _integer_power(4.5 + 1e-11) is None

    def test_schwarz_symmetry(self):
        # real energy: the zero set is closed under conjugation
        tp = turning_points(OscillatorParams(2.0, 1.5, 0.5))
        zs = [p.to_complex() for p in tp.sector_points]
        for z in zs:
            assert min(abs(z.conjugate() - w) for w in zs) < 1e-9

    @pytest.mark.parametrize("alpha,ell,energy", [(2.0, 1.0, 9.0), (3.0, 1.0, 20.0)])
    def test_negative_real_zeros_sit_at_plus_pi(self, alpha, ell, energy):
        # x^(2a) is even: both zeros of the well have a negative twin
        tp = turning_points(OscillatorParams(alpha, energy, ell))
        negative = [p for p in tp.sector_points if abs(abs(p.arg) - math.pi) < 1e-6]
        assert [p.arg for p in negative] == [math.pi, math.pi]
        assert sorted(p.modulus for p in negative) == pytest.approx(tp.real_pair, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("ratio", [0.3, 1.7])
    def test_integer_power_gives_the_polynomial_roots(self, alpha, ratio):
        # x^(2a+2) - E x^2 + lam^2 is a polynomial: its roots, one turn of the plane
        ell = 0.7
        energy = ratio * critical_data(alpha, ell).e_star
        tp = turning_points(OscillatorParams(alpha, energy, ell))
        coeffs = np.zeros(int(2 * alpha) + 3)
        coeffs[[0, -3, -1]] = 1.0, -energy, (ell + 0.5) ** 2
        want = sorted(np.roots(coeffs), key=lambda z: (cmath.phase(z), abs(z)))
        got = [complex(x) for x in tp.real_pair or ()] + [p.to_complex() for p in tp.sector_points]
        got.sort(key=lambda z: (cmath.phase(z), abs(z)))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * abs(w)
        assert all(-math.pi < p.arg <= math.pi for p in tp.sector_points)


def _window_count(alpha, ell, energy):
    """Zeros of x^2 V in |arg x| <= 3 pi/(2a+2) + 0.3: the argument principle in
    w = log x on a rectangle wider than turning_points' own, by QUADPACK."""
    p, lam2 = 2.0 * alpha + 2.0, (ell + 0.5) ** 2
    height = 3.0 * math.pi / p + 0.3
    # one term of x^2 V outweighs the other two outside [r_lo, r_hi]
    u_hi = math.log(4.0 * max((2.0 * energy) ** (0.5 / alpha), (2.0 * lam2) ** (1.0 / p)))
    u_lo = math.log(0.25 * min((lam2 / 3.0) ** (1.0 / p), math.sqrt(lam2 / (3.0 * energy))))

    def log_derivative(w):
        xp, x2 = cmath.exp(p * w), cmath.exp(2.0 * w)
        return (p * xp - 2.0 * energy * x2) / (xp - energy * x2 + lam2)
    corners = [complex(u_lo, -height), complex(u_hi, -height), complex(u_hi, height),
               complex(u_lo, height)]
    total = sum(quad(lambda t: log_derivative(a + t * (b - a)) * (b - a), 0.0, 1.0,
                     complex_func=True, limit=200)[0]
                for a, b in zip(corners, corners[1:] + corners[:1]))
    return total / (2j * math.pi)


class TestCountedTurningPoints:
    def test_random_points_give_every_counted_zero(self):
        # half the points below E*, where the double point x_star has split
        # into a complex pair that a seeded search can miss
        rng = random.Random(20261020)
        for i in range(400):
            alpha, ell = rng.uniform(0.2, 4.0), rng.uniform(-0.45, 20.0)
            ratio = rng.uniform(0.05, 1.0) if i % 2 else rng.uniform(1.0, 6.0)
            energy = ratio * critical_data(alpha, ell).e_star
            tp = turning_points(OscillatorParams(alpha, energy, ell))
            count = _window_count(alpha, ell, energy)
            where = (alpha, ell, ratio)
            assert abs(count - round(count.real)) < 1e-6, where
            assert len(tp.sector_points) + 2 * (tp.real_pair is not None) == round(count.real), where
            lam2 = (ell + 0.5) ** 2
            zs = [p.to_complex() for p in tp.sector_points]
            for p in tp.sector_points:
                terms = (p.cpow(2.0 * alpha + 2.0), -energy * p.cpow(2.0), lam2)
                assert abs(sum(terms)) <= 1e-10 * sum(map(abs, terms)), where
                assert min(abs(p.to_complex().conjugate() - z) for z in zs) <= 1e-10 * p.modulus, where

    def test_pair_split_from_x_star_is_found(self):
        # x_star splits into 2.2006 e^(+-0.4604 i), which seeded Newton missed;
        # the graph without it carried no warning
        params = OscillatorParams(1.26, 0.51 * critical_data(1.26, 5.88).e_star, 5.88)
        tp = turning_points(params)
        assert tp.real_pair is None
        assert [(round(p.modulus, 4), round(p.arg, 4)) for p in tp.sector_points] == [
            (2.5828, -2.2628), (2.2006, -0.4604), (2.2006, 0.4604), (2.5828, 2.2628)]
        sc = stokes_complex(params)
        assert sc.warnings == ()
        assert sorted(sc.vertex_multiplicity.values()) == [1, 1, 1, 1]

    def test_stokes_command_at_a_point_without_newton_roots(self, capsys):
        # the pair split from x_star is the only zero in the window here
        energy = 0.88 * critical_data(0.806, 15.85).e_star
        code = cli.main(["stokes", "--alpha", "0.806", "--ell", "15.85", "--energy",
                         repr(energy), "--no-polylines"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["warnings"] == []
        assert [v["multiplicity"] for v in doc["vertices"] if v["kind"] == "turning_point"] == [1, 1]

    def test_zero_next_to_the_window_edge(self):
        # 5.0788 e^(+-2.2907 i) lies 0.0027 rad inside |arg x| <= 3 pi/(2a+2) + 0.3
        alpha, ell = 1.364, 8.14
        energy = 3.52 * critical_data(alpha, ell).e_star
        tp = turning_points(OscillatorParams(alpha, energy, ell))
        edge = 3.0 * math.pi / (2.0 * alpha + 2.0) + 0.3
        gaps = sorted(edge - abs(p.arg) for p in tp.sector_points)
        assert len(gaps) == 2 and 0.002 < gaps[0] <= gaps[1] < 0.003
        assert round(_window_count(alpha, ell, energy).real) == 4

    def test_a_miscount_is_named(self, monkeypatch):
        params = OscillatorParams(0.6, 3.0, 0.3)
        monkeypatch.setattr(model, "_ROOT_TOL", 0.0)
        with pytest.raises(RuntimeError, match=r"alpha=0.6, ell=0.3, E=3\): count"):
            turning_points(params)
        monkeypatch.undo()
        roots = np.roots
        monkeypatch.setattr(np, "roots", lambda c: roots(c)[1:])  # one zero lost
        with pytest.raises(RuntimeError, match=r"E=3\): the 4 counted zeros polish to other"):
            turning_points(params)


def _outcome(call, *args):
    """The value of call(*args), or the class of the RuntimeError it raises."""
    try:
        return call(*args)
    except RuntimeError:
        return RuntimeError


class TestBrent:
    # c > 0 places the root; the last family is flat on one side of it
    FAMILIES = {
        "cubic": lambda c: (lambda x: x ** 3 - c),
        "exponential": lambda c: (lambda x: math.exp(x) - 1.0 - c),
        "sine": lambda c: (lambda x: math.sin(3.0 * x) - 0.3 * c + 0.1),
        "quintic_root": lambda c: (lambda x: (x - c) ** 5),
        "steep": lambda c: (lambda x: math.atan(20.0 * (x - c))),
        "one_sided": lambda c: (lambda x: x * x - 1e-8 * c if x > 0.0 else -1.0),
    }

    @pytest.mark.parametrize("xtol,rtol", [(1e-300, 8.9e-16), (1e-9, 8.9e-16), (2e-12, 1e-10)])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_roots_equal_scipy_bit_for_bit(self, family, xtol, rtol):
        rng = random.Random(family)
        cases = 0
        while cases < 100:
            f = self.FAMILIES[family](rng.uniform(0.05, 2.0))
            a, b = rng.uniform(-3.0, 0.04), rng.uniform(0.0, 4.0) + 2.0
            if f(a) * f(b) < 0.0:
                cases += 1
                assert (_outcome(_brent, f, a, b, xtol, rtol)
                        == _outcome(partial(brentq, xtol=xtol, rtol=rtol), f, a, b))

    def test_failures_are_named(self):
        with pytest.raises(ValueError, match="one sign"):
            _brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 8.9e-16)
        with pytest.raises(ValueError, match="is NaN"):
            _brent(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, 1e-12, 8.9e-16)
        # 0.25/x^2 - 1e300 pulls every step back to bisection
        with pytest.raises(RuntimeError, match="did not converge in 100 iterations"):
            _brent(lambda x: 0.25 / (x * x) - 1e300, 2.5e-151, 0.7, 1e-300, 8.9e-16)


class TestCriticalData:
    def test_well_bottom(self):
        cd = critical_data(2.0, 0.7)
        params = OscillatorParams(2.0, cd.e_star, 0.7)
        h = 1e-6
        v0 = eval_reduced(params, CoverPoint(cd.x_star, 0.0)).real
        vp = eval_reduced(params, CoverPoint(cd.x_star + h, 0.0)).real
        vm = eval_reduced(params, CoverPoint(cd.x_star - h, 0.0)).real
        assert abs(v0) < 1e-10
        assert vp > v0 and vm > v0

    def test_blown_up_constants(self):
        cd = critical_data(2.0, 0.5)
        assert math.isclose(cd.nu_star, 3.0 / 2.0 ** (2.0 / 3.0), rel_tol=1e-14)
        assert math.isclose(cd.y_star, 2.0 ** (-1.0 / 6.0), rel_tol=1e-14)
        # e_star and x_star are the lam-scaled versions of the same constants
        lam = 1.0
        assert math.isclose(cd.e_star, cd.nu_star * lam, rel_tol=1e-14)


class TestRescaling:
    @given(y_re=st.floats(0.3, 3.0), y_im=st.floats(-1.0, 1.0),
           regime=st.sampled_from([1, 2]))
    def test_reduced_potential_identity(self, y_re, y_im, regime):
        """scale^2 V(scale*y) equals hbar^-2 times the rescaled potential."""
        params = OscillatorParams(2.0, 9.0, 3.5)
        co = to_hbar_coords(params, regime)
        y = complex(y_re, y_im)
        lhs = co.scale ** 2 * eval_reduced(params, CoverPoint.from_complex(co.scale * y))
        reduced_in_y = y ** (2.0 * params.alpha) - co.nu + co.lam_eff ** 2 / (y * y)
        rhs = reduced_in_y / co.hbar ** 2
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_regime_two_constants(self):
        params = OscillatorParams(2.0, 9.0, 3.5)
        co = to_hbar_coords(params, 2)
        assert math.isclose(co.hbar, 1.0 / 4.0, rel_tol=1e-15)
        assert math.isclose(co.scale, 4.0 ** (1.0 / 3.0), rel_tol=1e-15)
        assert math.isclose(co.nu, 9.0 * 4.0 ** (-4.0 / 3.0), rel_tol=1e-15)


class TestForcing:
    def test_pole_cancellation_at_origin(self):
        # the 1/(4x^2) pieces cancel; the leftover vanishes into the origin
        params = OscillatorParams(1.0, 2.0, 0.3)
        mags = [abs(eval_forcing(params, CoverPoint(t, 0.4)))
                for t in (1e-2, 1e-3, 1e-4)]
        assert mags[0] < 0.1
        assert mags[2] < mags[1] < mags[0]

    def test_decay_at_infinity(self):
        params = OscillatorParams(1.0, 2.0, 0.3)
        f10 = abs(eval_forcing(params, CoverPoint(10.0, 0.2)))
        f40 = abs(eval_forcing(params, CoverPoint(40.0, 0.2)))
        # cubic decay in the modulus
        assert f40 < f10 * (10.0 / 40.0) ** 2.5

    @pytest.mark.parametrize("alpha", [0.6, 1.5])
    @pytest.mark.parametrize("kind,nodes", [
        ("arc", (CoverPoint(1.3, 6.5), CoverPoint(1.3, 7.5))),
        ("ray", (CoverPoint(0.8, -6.9), CoverPoint(2.5, -6.9))),
    ], ids=["arc", "ray"])
    def test_scalar_evaluators_match_the_path_arrays(self, alpha, kind, nodes):
        """eval_reduced and eval_forcing agree with PathFrame's array evaluation
        beyond one turn of the cover, where x^(2a) leaves the principal branch."""
        params = OscillatorParams(alpha, 2.0, 0.7)
        frame = PathFrame(params, PathSpec(nodes, (kind,)))
        ts = np.linspace(0.0, 1.0, 9)
        z, arg, _ = frame.point(0, ts)
        v, sq, f = frame.reduced(0, ts), frame.sqrt_v(0, ts), frame.forcing(0, ts)
        for k in range(len(ts)):
            p = CoverPoint(float(abs(z[k])), float(arg[k]))
            assert abs(eval_reduced(params, p) - v[k]) <= 1e-12 * abs(v[k])
            # the branch-free product sqrt(V) F, so the principal branch serves
            got = eval_forcing(params, p) * cmath.sqrt(v[k])
            assert abs(got - f[k] * sq[k]) <= 1e-12 * abs(f[k] * sq[k])


def test_sector_layout():
    a = 1.0
    assert math.isclose(sector_center_arg(a, 1) - sector_center_arg(a, 0),
                        math.pi / 2.0)
