"""Integral-equation solver and the certified error functionals."""
import math

import numpy as np
import pytest

from anharmonic import OscillatorParams, error_functionals, path_from_complex, volterra_solve
from anharmonic.action import PathFrame
from anharmonic.checks import committed_curves, measured_wkb_deviation
from anharmonic.volterra import _frame_grid, _kernel_matrix, _safe_bound, iterate_grid


def _curve(index):
    name, params, path = committed_curves()[index]
    return params, path


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

    def test_unsettled_iteration_names_its_budget(self):
        ts = np.linspace(0.0, 1.0, 16)
        svals, fvals = 3.0j * ts, np.full(16, 0.5 + 0j)
        assert iterate_grid(svals, fvals, ts)[1] > 1
        with pytest.raises(RuntimeError) as err:
            iterate_grid(svals, fvals, ts, max_iter=1)
        msg = str(err.value)
        assert msg.startswith("Volterra iteration did not settle in max_iter=1 iterations "
                              "on 16 nodes (last change ")
        assert "rho too large" in msg


class TestCertificates:
    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_bound_covers_the_solution(self, index):
        params, path = _curve(index)
        run = volterra_solve(params, path, n=801)
        dev = max(abs(z - 1.0) for z in run.z_values)
        assert dev <= run.bound

    def test_refinement_never_hurts(self):
        params, path = _curve(0)
        ef = error_functionals(params, path)
        assert ef.refined_rho <= ef.rho + 1e-15
        assert ef.refined_bound <= ef.bound + 1e-15

    def test_monotone_curve_has_flat_beta(self):
        params, path = _curve(0)
        ef = error_functionals(params, path)
        assert ef.beta <= 0.0
        assert ef.beta > -1e-6


def _kernel(index):
    """(global ts, B(t_j, t_i)) on the grid the solver uses for a committed curve."""
    params, path = _curve(index)
    ts, svals, _ = _frame_grid(PathFrame(params, path), 201)
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


class TestSafeBound:
    def test_small_arguments(self):
        assert _safe_bound(0.0, 0.0) == 0.0
        assert math.isclose(_safe_bound(1e-3, 0.0), math.expm1(1e-3), rel_tol=1e-12)

    def test_saturates_instead_of_overflowing(self):
        assert _safe_bound(1.0, -5000.0) == math.inf
        assert _safe_bound(1e6, 0.0) == math.inf

    def test_monotone_in_rho(self):
        assert _safe_bound(0.1, 0.0) < _safe_bound(0.2, 0.0)
