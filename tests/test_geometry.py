"""Trajectory tracing, Stokes graphs, and curve admissibility."""
import cmath
import json
import math
import random
from importlib import resources

import pytest
from scipy import integrate as sint

from anharmonic import (CoverPoint, OscillatorParams, critical_data, eval_forcing, stokes_complex,
                        topology_signature)
from anharmonic import checks, geometry
from anharmonic.geometry import TraceStops, check_admissible, trace_trajectory
from anharmonic.action import PathFrame, PathSpec
from anharmonic.checks import _horizontal_curve, committed_curves


def _segment_distance(z, a, b):
    d = b - a
    if d == 0:
        return abs(z - a)
    t = max(0.0, min(1.0, ((z - a) * d.conjugate()).real / abs(d) ** 2))
    return abs(z - (a + t * d))


def _polyline_distance(z, points):
    zs = [p.to_complex() for p in points]
    return min(_segment_distance(z, a, b) for a, b in zip(zs, zs[1:]))


def _pure_power(params):
    """V = x^2a, whose trajectories conserve Im(e^-i theta x^(a+1)/(a+1))."""
    a = params.alpha

    def v(z, arg):
        return cmath.exp(2.0 * a * (math.log(abs(z)) + 1j * arg))

    def v_pair(z, arg):
        xa = v(z, arg)
        return xa, 2.0 * a * xa / z
    return v, v_pair


def _pure_pole(params):
    """V = (ell+1/2)^2/x^2, whose trajectories are rays and circles."""
    c2 = params.lam * params.lam

    def v(z, arg):
        return c2 / (z * z)

    def v_pair(z, arg):
        return c2 / (z * z), -2.0 * c2 / (z * z * z)
    return v, v_pair


class TestModelTrajectories:
    """Model potentials with closed-form trajectories, put in place of V."""

    @pytest.mark.parametrize("alpha", [1.0, 0.6])
    def test_power_level_conservation(self, alpha, monkeypatch):
        # for V = x^2a the level Im(e^-i theta x^(a+1)/(a+1)) is conserved
        monkeypatch.setattr(geometry, "_potential", _pure_power)
        params = OscillatorParams(alpha, 0.0, 0.0)
        x0 = CoverPoint.from_complex(1.5 + 0.8j)
        theta = 0.7
        tr = trace_trajectory(params, x0, theta, +1,
                              TraceStops(radius_max=12.0, radius_min=1e-3))
        s0 = x0.cpow(alpha + 1.0) / (alpha + 1.0)
        for q in tr.points:
            s = q.cpow(alpha + 1.0) / (alpha + 1.0)
            assert abs((cmath.exp(-1j * theta) * (s - s0)).imag) < 1e-6
        assert tr.termination.kind == "hit_radius_max"

    def test_pole_ray(self, monkeypatch):
        monkeypatch.setattr(geometry, "_potential", _pure_pole)
        params = OscillatorParams(1.0, 0.0, 1.0)
        tr = trace_trajectory(params, CoverPoint(1.0, 0.4), 0.0, +1,
                              TraceStops(radius_max=9.0, radius_min=1e-3))
        assert max(abs(q.arg - 0.4) for q in tr.points) < 1e-9

    def test_pole_circle_tracks_the_cover(self, monkeypatch):
        monkeypatch.setattr(geometry, "_potential", _pure_pole)
        params = OscillatorParams(1.0, 0.0, 1.0)
        tr = trace_trajectory(params, CoverPoint(2.0, 0.0), 0.5 * math.pi, +1,
                              TraceStops(radius_max=9.0, radius_min=1e-3,
                                         max_steps=4000))
        assert max(abs(q.modulus - 2.0) for q in tr.points) < 1e-9
        # several full turns, argument unwound past 2 pi
        assert tr.points[-1].arg > 2.5 * math.pi
        # three turns without shrinking end the trace before max_steps does
        assert tr.termination.kind == "bounded_winding"
        assert len(tr.points) < 4000
        short = trace_trajectory(params, CoverPoint(2.0, 0.0), 0.5 * math.pi, +1,
                                 TraceStops(radius_max=9.0, radius_min=1e-3, max_steps=50))
        assert short.termination.kind == "step_limit"
        assert len(short.points) == 51

    @pytest.mark.parametrize("alpha,guard_arg,kind", [
        # the guard one turn below the trace: at non-integer 2 alpha V there is
        # another function, so the trace passes and the circle winds on
        (0.6, 1.0 - 2.0 * math.pi, "bounded_winding"),
        (0.6, 1.0, "near_turning_point"),
        # integer 2 alpha: V has one sheet, and every sheet's guard is hit
        (1.0, 1.0 - 2.0 * math.pi, "near_turning_point"),
    ], ids=["one_turn_away", "own_sheet", "integer_two_alpha"])
    def test_guard_is_hit_only_on_its_own_sheet(self, alpha, guard_arg, kind, monkeypatch):
        # the circle |x| = 2 passes 0.01 from the guard's point at arg 1
        monkeypatch.setattr(geometry, "_potential", _pure_pole)
        tr = trace_trajectory(OscillatorParams(alpha, 0.0, 1.0), CoverPoint(2.0, 0.0),
                              0.5 * math.pi, +1,
                              TraceStops(radius_max=9.0, radius_min=1e-3, max_steps=4000),
                              tp_guard=[(CoverPoint(2.01, guard_arg), 0.02)])
        assert tr.termination.kind == kind


class TestTracing:
    def test_reversal_stays_on_the_curve(self):
        params = OscillatorParams(1.0, 2.0, 0.5)
        z0 = 3.0 + 1.0j
        fwd = trace_trajectory(params, CoverPoint.from_complex(z0), 0.3, +1,
                               TraceStops(radius_max=8.0, radius_min=1e-3))
        bwd = trace_trajectory(params, fwd.points[-1], 0.3, -1,
                               TraceStops(radius_max=9.0, radius_min=1e-3))
        assert _polyline_distance(z0, bwd.points) < 1e-3

    def test_level_drift_is_tracked(self):
        params = OscillatorParams(1.0, 2.0, 0.5)
        tr = trace_trajectory(params, CoverPoint.from_complex(3.0 + 1.0j), 0.3, +1,
                              TraceStops(radius_max=8.0, radius_min=1e-3))
        assert tr.level_drift < 1e-6 * (1.0 + abs(tr.s_values[-1]))


class TestStokesGraphs:
    def _fixture(self):
        text = resources.files("anharmonic.data").joinpath(
            "stokes_trichotomy.json").read_text()
        return json.loads(text)

    def test_topologies_match_frozen_graphs(self):
        fx = self._fixture()
        for case in fx["cases"]:
            params = OscillatorParams(case["alpha"], case["energy"], case["ell"])
            sig = topology_signature(stokes_complex(params))
            assert sig["vertices"] == case["signature"]["vertices"], case["name"]
            assert sig["edges"] == case["signature"]["edges"], case["name"]

    def test_vertex_degree_follows_multiplicity(self):
        # a zero of order beta emits beta + 2 trajectories
        for energy in (1.0, 2.0):
            sc = stokes_complex(OscillatorParams(1.0, energy, 0.5))
            degree = {v: 0 for v in sc.vertices}
            for e in sc.edges:
                degree[e.source] += 1
                degree[e.target] += 1
            for v in sc.vertices:
                if v.startswith("tp"):
                    assert degree[v] == sc.vertex_multiplicity[v] + 2

    def test_no_warnings_in_the_standard_cases(self):
        sc = stokes_complex(OscillatorParams(1.0, 4.0, 0.5))
        assert sc.warnings == ()

    @pytest.mark.parametrize("alpha,ell", [(2.0, 1.0), (3.0, 0.3)])
    def test_real_double_point_is_one_vertex_at_the_critical_energy(self, alpha, ell):
        # at E = E* the zero x* is double: one vertex of multiplicity 2, where
        # a second copy of it used to leave unpaired edge traces
        crit = critical_data(alpha, ell)
        sc = stokes_complex(OscillatorParams(alpha, crit.e_star, ell))
        assert sc.warnings == ()
        at_x_star = [v for v, p in sc.vertex_points.items()
                     if p is not None and abs(p.to_complex() - crit.x_star) < 1e-6 * crit.x_star]
        assert len(at_x_star) == 1
        assert sc.vertex_multiplicity[at_x_star[0]] == 2

    @pytest.mark.parametrize("energy,window,edges", [
        # the window [-1, 1] keeps tp0 and tp1; two of tp0's traces leave it
        (5.0, (-1.0, 1.0), [("tp0", "exit_1"), ("tp0", "exit_-1"), ("tp1", "inf_1/2"),
                            ("tp1", "inf_-1/2"), ("tp0", "tp1")]),
        # four traces leave [-1/2, 1/2], at arg +-0.501 and +-0.505, all in sector 0
        (2.0, (-0.5, 0.5), [("tp0", "exit_0.5"), ("tp0", "exit_0.5"), ("tp0", "exit_-0.5"),
                            ("tp0", "exit_-0.5")]),
    ])
    def test_argument_window_ends_traces_at_its_edges(self, energy, window, edges):
        # at (1, 1/2, E) a trace that leaves the window is labelled by the edge it crosses
        params = OscillatorParams(1.0, energy, 0.5)
        sc = stokes_complex(params, sector_window=window)
        assert sc.warnings == ()
        assert sorted((e.source, e.target) for e in sc.edges) == sorted(edges)
        lo, hi = window
        for e in sc.edges:
            if e.target.startswith("exit_"):
                end = e.trajectory.points[-1].arg
                assert e.trajectory.termination.kind == "entered_sector"
                assert not lo <= end <= hi and e.target == "exit_%g" % (hi if end > hi else lo)
        # in the JSON document an exit is a boundary vertex without a position
        verts = {v["label"]: v for v in geometry.complex_to_json_dict(sc, params)["vertices"]}
        for lab in {t for _, t in edges if t.startswith("exit_")}:
            assert verts[lab] == {"label": lab, "kind": "boundary", "position": None,
                                  "multiplicity": None}

    def test_empty_argument_window_is_named(self):
        with pytest.raises(ValueError, match=r"no turning points found in the window \[1, -1\] "
                                             r"\(alpha=1, ell=0.5, E=5\)"):
            stokes_complex(OscillatorParams(1.0, 5.0, 0.5), sector_window=(1.0, -1.0))

    def test_unresolved_trace_warning_names_the_exit(self):
        # two traces of this complex wind about the origin on a bounded orbit
        alpha, ell = 0.51, 1.64
        params = OscillatorParams(alpha, 2.45 * critical_data(alpha, ell).e_star, ell)
        sc = stokes_complex(params)
        assert len(sc.warnings) == 2
        assert all("ended by bounded_winding" in w for w in sc.warnings)
        assert "tp0|unresolved" in topology_signature(sc)["edges"]

    def test_double_turning_point_edges_keep_the_closed_form_level(self):
        # at alpha = 1, ell = 1/2, E = 2 the potential is V = (x - 1/x)^2, so
        # S = x^2/2 - log x and every vertical trajectory from the double
        # turning points x = +-1 keeps Re S = 1/2
        sc = stokes_complex(OscillatorParams(1.0, 2.0, 0.5))
        worst = max(abs((z * z).real / 2.0 - math.log(abs(z)) - 0.5)
                    for e in sc.edges for z in (q.to_complex() for q in e.trajectory.points))
        assert worst <= 1e-6

    def test_seeded_complexes_end_every_trace(self):
        # every fan trace starts ten guard radii from its own turning point,
        # whose guard is live from the first step; a trace that stopped on
        # its source would leave an edge-end or an unpaired-trace warning
        rng = random.Random(30)
        alphas = [0.5, 1.0, 2.0, 3.0] + [rng.uniform(0.2, 4.0) for _ in range(16)]
        for i, alpha in enumerate(alphas):
            ell = rng.uniform(0.0, 2.0)
            ratio = rng.choice((0.3, 1.0, 1.5, 4.0, 10.0))
            theta = rng.choice((0.5 * math.pi, 0.0, 0.3))
            window = (-1.0, 1.0) if i % 2 else None
            params = OscillatorParams(alpha, ratio * critical_data(alpha, ell).e_star, ell)
            where = (alpha, ell, ratio, theta, window)
            try:
                sc = stokes_complex(params, sector_window=window, theta=theta)
            except ValueError as exc:
                assert window is not None and "no turning points found in the window" in str(exc)
                continue
            assert all("ended by bounded_winding" in w for w in sc.warnings), where

    def test_trace_work_and_drift_are_bounded(self):
        # counts and levels, not timings: near a turning point the step shrinks
        # in proportion to the distance to it, which keeps the double turning
        # points of E = 2 within the same order of points as simple ones
        sc = stokes_complex(OscillatorParams(1.0, 2.0, 0.5))
        assert sum(len(e.trajectory.points) for e in sc.edges) <= 5000
        for case in self._fixture()["cases"]:
            sc = stokes_complex(OscillatorParams(case["alpha"], case["energy"], case["ell"]))
            assert max(e.trajectory.level_drift for e in sc.edges) <= 1e-6, case["name"]


class TestAdmissibility:
    def test_inward_ray_certificate(self):
        from anharmonic import path_from_complex
        params = OscillatorParams(1.0, 2.0, 0.3)
        path = path_from_complex([10.0 + 0.0j, 4.0 + 0.0j],
                                 sqrt_v_branch="negative")
        rep = check_admissible(params, path)
        assert rep.monotone
        assert rep.rho < 0.1
        assert rep.bound >= math.expm1(rep.rho) - 1e-12

    @pytest.mark.parametrize("index", range(5))
    def test_falling_branch_is_rejected(self, index):
        """The other square-root branch of a committed curve makes Re S fall."""
        name, params, path = committed_curves()[index]
        other = {"principal": "negative", "negative": "principal"}[path.sqrt_v_branch]
        rep = check_admissible(params, PathSpec(path.nodes, path.parameterization, other))
        assert not rep.monotone, name
        assert rep.bound == math.inf, name

    def test_criterion_5_fails_on_a_falling_branch(self, monkeypatch):
        # a committed curve on its other branch is not monotone: criterion 5
        # fails and names it, without measuring a deviation
        name, params, path = committed_curves()[0]
        falling = PathSpec(path.nodes, path.parameterization, "negative"
                           if path.sqrt_v_branch == "principal" else "principal")
        monkeypatch.setattr(checks, "committed_curves", lambda: [(name, params, falling)])
        result = checks.check_wkb_error_bound()
        assert not result.passed
        assert result.detail == "%s: NOT monotone" % name

    def test_traced_curve_matches_direct_quadrature(self):
        """rho along the traced imaginary-axis trajectory, two ways.

        At alpha=1 the positive imaginary axis is itself a horizontal
        trajectory, so the traced polyline can be checked against an integral
        over the exact axis.
        """
        params = OscillatorParams(1.0, 6.0, 0.5)
        path = _horizontal_curve(params, 8.0j, 30.0)
        rep = check_admissible(params, path)
        assert rep.monotone
        lo = min(p.modulus for p in path.nodes)
        hi = max(p.modulus for p in path.nodes)

        def speed(y):
            return abs(eval_forcing(params, CoverPoint(y, 0.5 * math.pi)))

        ref, _ = sint.quad(speed, lo, hi, limit=300)
        assert abs(rep.rho - ref) < 1e-2 * ref

    @pytest.mark.parametrize("index", range(5))
    def test_rho_matches_quadpack(self, index):
        """rho = int |F| |dx| by scipy's quad on each segment, with F from
        eval_forcing at the segment's cover points."""
        name, params, path = committed_curves()[index]
        frame = PathFrame(params, path)

        def speed(t, i):
            z, arg, dz = frame.point(i, t)
            return abs(eval_forcing(params, CoverPoint(abs(z), float(arg)))) * abs(dz)

        ref = sum(sint.quad(speed, 0.0, 1.0, args=(i,), epsabs=1e-14, epsrel=1e-12,
                            limit=1000)[0] for i in range(path.n_segments))
        assert abs(check_admissible(params, path).rho / ref - 1.0) < 1e-9, name

    def test_horizontal_curve_keeps_both_trace_ends(self):
        params = OscillatorParams(1.0, 6.0, 0.5)
        stops = TraceStops(radius_max=30.0, radius_min=1e-6, max_steps=120_000)
        fwd = trace_trajectory(params, 8.0j, 0.0, +1, stops)
        bwd = trace_trajectory(params, 8.0j, 0.0, -1, stops)
        path = _horizontal_curve(params, 8.0j, 30.0)
        assert path.nodes[0] == bwd.points[-1]
        assert path.nodes[-1] == fwd.points[-1]
