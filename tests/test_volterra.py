"""Integral-equation solver and its certified error bound."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from anharmonic import OscillatorParams, check_admissible, path_from_complex, volterra_solve
from anharmonic import checks, integrate, model, spectral, volterra
from anharmonic.action import PathFrame, PathSpec
from anharmonic.checks import committed_curves, measured_wkb_deviation
from anharmonic.geometry import _safe_bound
from anharmonic.volterra import _EXP_CAP, _frame_grid, _trapezoid_weights, iterate_grid


def _curve(index):
    name, params, path = committed_curves()[index]
    return params, path


class TestMeasuredDeviation:
    def test_one_transport_per_segment(self, monkeypatch):
        # restarting the transport at each of the 400 comparison points took
        # 151,468 rhs calls here
        _, params, path = next(c for c in committed_curves() if c[0] == "inward_ray_alpha2")
        calls = [0]
        original = integrate._make_rhs

        def make(params, seg):
            rhs = original(params, seg)

            def counted(t, u, v):
                calls[0] += 1
                return rhs(t, u, v)
            return counted
        monkeypatch.setattr(integrate, "_make_rhs", make)
        measured_wkb_deviation(params, path)
        assert calls[0] <= 50_000

    def test_converged_in_the_transport_tolerance(self, monkeypatch):
        devs = [measured_wkb_deviation(params, path) for _, params, path in committed_curves()]
        monkeypatch.setattr(checks, "_DEVIATION_RTOL", 1e-13)
        for dev, (name, params, path) in zip(devs, committed_curves()):
            ref = measured_wkb_deviation(params, path)
            assert abs(dev - ref) <= 1e-7 * ref, name


class TestIntegralEquation:
    def test_matches_direct_integration(self):
        """The series solution and the transported ODE agree on the deviation."""
        params, path = _curve(0)
        run = volterra_solve(params, path, n=801)
        dev_int = max(abs(z - 1.0) for z in run.z_values)
        dev_ode = measured_wkb_deviation(params, path)
        assert abs(dev_int - dev_ode) < 1e-3 * dev_ode

    def test_starts_from_one(self):
        params, path = _curve(2)
        run = volterra_solve(params, path)
        assert run.z_values[0] == 1.0 + 0.0j

    @pytest.mark.parametrize("n", [401, 20])
    def test_n_counts_points_along_the_whole_path(self, n):
        params = OscillatorParams(1.0, 2.0, 0.3)
        path = path_from_complex([10.0, 8.5, 7.0, 5.5, 4.0], sqrt_v_branch="negative")
        run = volterra_solve(params, path, n=n)
        assert len(run.samples) == 4 * max(8, n // 4)

    def test_converges_quickly(self):
        params, path = _curve(0)
        run = volterra_solve(params, path)
        assert run.iterations < 30

    def test_non_finite_solution_names_its_grid(self):
        # Re S falls by 300 per node, so z grows by about e^600 a node and overflows
        ts = np.linspace(0.0, 1.0, 16)
        svals, fvals = -300.0 * np.arange(16) + 0j, np.full(16, 0.5 + 0j)
        with pytest.raises(RuntimeError) as err:
            iterate_grid(svals, fvals, ts)
        msg = str(err.value)
        assert msg.startswith("Volterra sweep on 16 nodes gave a non-finite z")
        assert "rho too large" in msg

    def test_non_finite_solution_names_the_parameters(self):
        # the committed alpha = 2 inward ray on its falling branch
        name, params, path = committed_curves()[2]
        other = {"principal": "negative", "negative": "principal"}[path.sqrt_v_branch]
        with pytest.raises(RuntimeError) as err:
            volterra_solve(params, PathSpec(path.nodes, path.parameterization, other))
        msg = str(err.value)
        assert msg.startswith("volterra_solve on 1 segments: Volterra sweep on 601 nodes"), name
        assert msg.endswith("(alpha=2, ell=1, E=4)")


class TestCertificates:
    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_bound_covers_the_solution(self, index):
        params, path = _curve(index)
        run = volterra_solve(params, path, n=801)
        dev = max(abs(z - 1.0) for z in run.z_values)
        assert dev <= check_admissible(params, path).bound

    def test_monotone_curve_has_flat_beta(self):
        params, path = _curve(0)
        rep = check_admissible(params, path)
        assert rep.beta <= 0.0
        assert rep.beta > -1e-6


def _kernel_matrix(svals, ts):
    """Dense reference kernel: strictly lower triangular B(t_j, t_i)
    = (exp(-2 (S_j - S_i)) - 1) / 2, exponents capped as the solver caps them."""
    n = len(ts)
    expo = -2.0 * (svals[:, None] - svals[None, :])
    np.clip(expo.real, None, _EXP_CAP, out=expo.real)
    b = 0.5 * (np.exp(expo) - 1.0)
    b[np.triu_indices(n)] = 0.0
    return b


def _kernel(index):
    """(global ts, B(t_j, t_i)) on the grid the solver uses for a committed curve."""
    params, path = _curve(index)
    ts, svals = _frame_grid(PathFrame(params, path), 201)
    return ts, _kernel_matrix(svals, ts)


class TestKernel:
    def test_vanishes_on_the_diagonal(self):
        # and above it: only s < t enters the Volterra integral
        _, b = _kernel(0)
        assert np.all(np.triu(b) == 0.0)

    @pytest.mark.parametrize("t,s", [(0.9, 0.1), (0.6, 0.5), (1.0, 0.0)])
    def test_bounded_on_monotone_curves(self, t, s):
        # |(exp(-2 dS) - 1)/2| <= 1 once Re dS >= 0 along the curve
        ts, b = _kernel(0)
        assert abs(b[np.argmin(abs(ts - t)), np.argmin(abs(ts - s))]) <= 1.0 + 1e-9


def _oracle_grid(case, monkeypatch):
    """(svals, fvals, ts) of a committed curve (an index), of the ray tail that
    a refined sector-k seed solves on ((alpha, ell, E, k)), or of a curve whose
    Re S falls back by about 4.6 (beta < 0): the grid handed to the sweep."""
    seen = []

    def capture(svals, fvals, us):
        seen.append((svals, fvals, us))
        return iterate_grid(svals, fvals, us)
    if isinstance(case, tuple):
        alpha, ell, energy, k = case
        params = OscillatorParams(alpha, energy, ell)
        monkeypatch.setattr(integrate, "iterate_grid", capture)
        integrate.sibuya_seed(params, k, spectral._geometry(params).x_max)
        return seen[0]
    if case == "beta-negative":
        params = OscillatorParams(1.0, 2.0, 0.3)
        path = path_from_complex([6.0, 6.0 + 3.0j, 6.0 + 0.5j])
    else:
        params, path = _curve(case)
    monkeypatch.setattr(volterra, "iterate_grid", capture)
    volterra_solve(params, path, 601)
    return seen[0]


class TestSweep:
    @pytest.mark.parametrize("case", [0, 1, 2, 3, 4, (0.8, 1.94, 7.6, 0), (1.3, 0.8, 7.8, -1),
                                      "beta-negative"],
                             ids=lambda case: "-".join(map(str, case)) if isinstance(case, tuple)
                             else str(case))
    def test_equals_the_dense_triangular_solve(self, case, monkeypatch):
        svals, fvals, ts = _oracle_grid(case, monkeypatch)
        n = len(ts)
        m = _kernel_matrix(svals, ts) * (fvals * _trapezoid_weights(ts))[None, :]
        ref = solve_triangular(np.eye(n) - m, np.ones(n, dtype=complex), lower=True)
        z, _ = iterate_grid(svals, fvals, ts)
        assert np.max(np.abs(z - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", [(0.8, 1.94, 7.6, 0), (1.3, 0.8, 7.8, -1), (2.0, 0.5, 5.0, 1),
                                      (1.0 / 3.0, 0.5, 3.0, 0)],
                             ids=lambda case: "-".join("%.3g" % c for c in case))
    def test_tail_slope_is_the_trapezoid_endpoint_integral(self, case, monkeypatch):
        # z'/z at x_max is -b J / z with b = sgn sqrt(V) and J = int exp(-2 (S(x_max)
        # - S)) F z du, here summed directly by the trapezoid rule on the swept grid
        svals, fvals, us = _oracle_grid(case, monkeypatch)
        alpha, ell, energy, k = case
        params = OscillatorParams(alpha, energy, ell)
        arg, sgn = model.sector_center_arg(alpha, k), -((-1.0) ** k)
        x_max = spectral._geometry(params).x_max
        z, _ = iterate_grid(svals, fvals, us)
        expo = -2.0 * (svals[-1] - svals)
        np.clip(expo.real, None, _EXP_CAP, out=expo.real)
        j = np.trapezoid(np.exp(expo) * fvals * z, us)
        want = -sgn * integrate._ray_v(params, arg, x_max)[4] * j / z[-1]
        _, got = integrate._tail_volterra(params, arg, sgn, x_max)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_memory_is_linear_in_the_grid(self):
        # one dense complex kernel on 2001 nodes would be 64 MB
        ts = np.linspace(0.0, 1.0, 2001)
        svals, fvals = 2.0 * ts + 1.0j * ts, 0.1 * np.exp(1.0j * ts)
        tracemalloc.start()
        try:
            z, _ = iterate_grid(svals, fvals, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(z) == 2001
        assert peak < 8e6


class TestSafeBound:
    def test_small_arguments(self):
        assert _safe_bound(0.0, 0.0) == 0.0
        assert math.isclose(_safe_bound(1e-3, 0.0), math.expm1(1e-3), rel_tol=1e-12)

    def test_saturates_instead_of_overflowing(self):
        assert _safe_bound(1.0, -5000.0) == math.inf
        assert _safe_bound(1e6, 0.0) == math.inf

    def test_monotone_in_rho(self):
        assert _safe_bound(0.1, 0.0) < _safe_bound(0.2, 0.0)
