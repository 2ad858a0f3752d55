"""The work counter model.WORK against independent tallies of the same work."""
from collections import Counter

import pytest

from anharmonic import CoverPoint, OscillatorParams, PathSpec, geometry, integrate, model, spectral
from anharmonic.action import wkb_phase
from anharmonic.checks import committed_curves
from anharmonic.geometry import check_admissible
from anharmonic.integrate import SolutionState, propagate
from anharmonic.spectral import eigenvalues


def work(call) -> Counter:
    """The WORK counts that call() adds."""
    before = model.WORK.copy()
    call()
    return model.WORK - before


def counted_rhs_calls(monkeypatch) -> list:
    """A one-item list holding the rhs calls of every transport from here on."""
    calls = [0]
    original = integrate._make_rhs

    def make(params, seg):
        rhs = original(params, seg)

        def counted(t, u, v):
            calls[0] += 1
            return rhs(t, u, v)
        return counted
    monkeypatch.setattr(integrate, "_make_rhs", make)
    return calls


# a ray out of the quartic well, which rejects steps, and an arc through the
# alpha = 1 Stokes sectors, on two segments
TRANSPORTS = [
    (OscillatorParams(2.0, 7.4, 0.0), (CoverPoint(0.5, 0.0), CoverPoint(6.0, 0.0)), ("ray",)),
    (OscillatorParams(1.0, 9.0, 0.5),
     (CoverPoint(6.0, 0.0), CoverPoint(6.0, 2.5), CoverPoint(3.0, 2.5)), ("arc", "ray")),
]


class TestTransportCounts:
    @pytest.mark.parametrize("params,nodes,kinds", TRANSPORTS)
    def test_accepted_steps_are_the_trace_rows(self, params, nodes, kinds):
        rows = []
        w = work(lambda: propagate(params, SolutionState(nodes[0], 1.0, 0.0, 0.0),
                                   PathSpec(nodes, kinds), rtol=5e-11, trace=rows))
        assert w["rk_steps"] == len(rows) > 0
        assert w["propagate"] == 1 and w["transports"] == len(kinds)

    @pytest.mark.parametrize("params,nodes,kinds", TRANSPORTS)
    def test_rhs_calls_match_a_wrapped_rhs(self, params, nodes, kinds, monkeypatch):
        calls = counted_rhs_calls(monkeypatch)
        w = work(lambda: propagate(params, SolutionState(nodes[0], 1.0, 0.0, 0.0),
                                   PathSpec(nodes, kinds), rtol=5e-11))
        assert w["rhs_calls"] == calls[0]
        assert w["rhs_calls"] == w["transports"] + 12 * (w["rk_steps"] + w["rk_rejected"])

    def test_rejected_steps_are_counted(self):
        # the quartic ray rejects two steps at the scan tolerance
        params, nodes, kinds = TRANSPORTS[0]
        w = work(lambda: propagate(params, SolutionState(nodes[0], 1.0, 0.0, 0.0),
                                   PathSpec(nodes, kinds), rtol=spectral._ode_rtol(1e-9)))
        assert w["rk_rejected"] == 2

    def test_quartic_scan(self, monkeypatch):
        calls = counted_rhs_calls(monkeypatch)
        w = work(lambda: eigenvalues(2.0, 0.0, 30))
        assert (w["determinants"], w["series_evaluations"]) == (100, 400)
        assert w["real_transports"] == w["transports"] == 200
        assert w["rhs_calls"] == calls[0] == 329_036
        assert w["rescans"] == 0


class TestQuadratureCounts:
    def count_panels(self, monkeypatch) -> list:
        """A one-item list holding the 8-point panels of every Gauss call from here on."""
        panels = [0]
        original = model._gauss8

        def counted(f, lo, hi):
            panels[0] += len(lo)
            return original(f, lo, hi)
        monkeypatch.setattr(model, "_gauss8", counted)
        return panels

    def test_phase_quadrature(self, monkeypatch):
        panels = self.count_panels(monkeypatch)
        w = work(lambda: wkb_phase(OscillatorParams(2.0, 40.0, 0.0)))
        assert w["wkb_phase"] == w["quadratures wkb_phase"] == 1
        assert w["panels wkb_phase"] == panels[0] > 0

    @pytest.mark.parametrize("name,params,curve", committed_curves(),
                             ids=[c[0] for c in committed_curves()])
    def test_rho_quadrature_per_segment(self, name, params, curve, monkeypatch):
        panels = self.count_panels(monkeypatch)
        w = work(lambda: check_admissible(params, curve))
        assert w["quadratures rho"] == curve.n_segments
        assert w["panels rho"] == panels[0]


def test_traces_and_trace_steps_match_a_wrapped_tracer(monkeypatch):
    traces = []
    original = geometry.trace_trajectory

    def counted(*args, **kwargs):
        traces.append(original(*args, **kwargs))
        return traces[-1]
    monkeypatch.setattr(geometry, "trace_trajectory", counted)
    w = work(lambda: geometry.stokes_complex(OscillatorParams(1.0, 2.0, 0.5)))
    assert w["traces"] == len(traces) > 0
    assert w["trace_steps"] == sum(len(t.points) - 1 for t in traces)


@pytest.mark.parametrize("args", [(1.0, 1.0, 0.5), (1.0, 2.0, 0.5), (1.0, 4.0, 0.5),
                                  (2.0, 7.4, 0.5)])
def test_each_edge_is_traced_once(args):
    # one trace per edge; a trace whose escape is not certified runs again
    out = []
    w = work(lambda: out.append(geometry.stokes_complex(OscillatorParams(*args))))
    assert w["traces"] == len(out[0].edges) + w["trace_fallbacks"]
    assert w["trace_fallbacks"] == 0


# trace steps when every edge between turning points was traced from both ends
# and every escaping trace ran out to _stops_for's radius, and the share kept
@pytest.mark.parametrize("args,two_way,share", [
    ((1.0, 1.0, 0.5), 1772, 0.6), ((1.0, 2.0, 0.5), 2252, 0.6), ((1.0, 4.0, 0.5), 1934, 0.6),
    ((3.0, 20.0, 1.0), 6306, 0.5)])
def test_trace_steps_fall(args, two_way, share):
    w = work(lambda: geometry.stokes_complex(OscillatorParams(*args)))
    assert w["trace_steps"] <= share * two_way


def test_counter_is_an_object_not_a_function():
    # perfbench wraps the package's public functions; a counter is left alone
    assert isinstance(model.WORK, Counter)
    assert "WORK" in model.__all__
