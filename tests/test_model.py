"""Potential data structures: cover points, turning points, rescalings."""
import cmath
import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from anharmonic import (
    CoverPoint,
    OscillatorParams,
    PathSpec,
    critical_data,
    eval_forcing,
    eval_reduced,
    to_hbar_coords,
    turning_points,
)
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
        # 2 alpha = n to 1e-12 makes x^(2a) entire: companion-matrix roots, x ** n rhs
        assert [_integer_power(a) for a in (0.5, 1.0, 4.5, 4.5 + 1e-13)] == [1, 2, 9, 9]
        assert _integer_power(0.6) is None and _integer_power(4.5 + 1e-11) is None

    def test_schwarz_symmetry(self):
        # real energy: the zero set is closed under conjugation
        tp = turning_points(OscillatorParams(2.0, 1.5, 0.5))
        zs = [p.to_complex() for p in tp.sector_points]
        for z in zs:
            assert min(abs(z.conjugate() - w) for w in zs) < 1e-9


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
