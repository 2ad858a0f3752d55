"""Tests of the benchmark itself: draws, oracles, tracing and the metric set.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""
import importlib
import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import run
import oracles
import tracing
import workloads
from workloads import Op

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PKG = run._load_package()

# cheap operations that still reach every layer the tracer attributes
SMALL_OPS = [
    Op("levels_alpha1", {"alpha": 1.0, "ell": 0.3, "n_max": 1}),
    Op("r_zero_alpha1", {"alpha": 1.0, "energy": 3.9, "ell": 0.3}),
    Op("committed_curve", {"name": "inward_ray_alpha1"}),
    Op("ray", {"alpha": 1.5, "ell": 0.7, "energy": 1.2, "x_from": 0.35, "x_to": 3.5}),
    Op("stokes", {"alpha": 1.0, "ell": 0.5, "energy": 4.0}),
]


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


class TestDraws:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_seed_fixes_the_inputs(self, workload):
        assert workloads.draw(workload, 7) == workloads.draw(workload, 7)
        assert workloads.draw(workload, 7) != workloads.draw(workload, 8)
        assert workloads.draw(workload, 7, 0) != workloads.draw(workload, 7, 1)

    def test_declared_workloads(self):
        assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)

    def test_draws_stay_in_their_ranges(self):
        for seed in range(200):
            for op in workloads.draw("scan", seed) + workloads.draw("connect", seed):
                for a in op.args.get("group", [op.args]):
                    if op.kind == "levels_alpha1":
                        assert 0.0 <= a["ell"] <= 3.0 or 25.0 <= a["ell"] <= 200.0
                    if op.kind == "levels_bs":
                        assert 0.5 <= a["alpha"] <= 3.0 and -0.4 <= a["ell"] <= 2.0
                    if op.kind == "sector_wronskian":
                        assert 0.6 <= a["alpha"] <= 1.0 or 1.1 <= a["alpha"] <= 1.5
                        assert a["k"] in (-1, 0, 1)
                    if op.kind == "cross_ratio":
                        assert 1.0 <= a["energy"] <= 5.0
            for op in workloads.draw("certify", seed):
                if op.kind == "curve_window":
                    assert 0.0 <= op.args["at"] < 1.0
                if op.kind == "ray":
                    # V > 0 on the whole ray: below the bottom of the well
                    a = op.args
                    assert a["energy"] < workloads._e_star(a["alpha"], a["ell"])


class TestOracles:
    def test_alpha1_levels(self):
        ell = 0.7
        exact = [oracles.alpha1_level(n, ell) for n in range(4)]
        oracles.check_alpha1_levels(exact, ell, 3)
        near = list(exact)
        near[2] *= 1.0 + 0.99 * oracles.LEVEL_RTOL
        oracles.check_alpha1_levels(near, ell, 3)
        near[2] = exact[2] * (1.0 + 1.01 * oracles.LEVEL_RTOL)
        with pytest.raises(oracles.OracleMiss):
            oracles.check_alpha1_levels(near, ell, 3)
        with pytest.raises(oracles.OracleMiss):
            oracles.check_alpha1_levels(exact[:3], ell, 3)

    def test_quartic_levels(self):
        exact = list(oracles.quartic_odd_levels(17))
        oracles.check_quartic_levels(exact, 16)
        near = list(exact)
        near[16] *= 1.0 - 0.99 * oracles.QUARTIC_RTOL
        oracles.check_quartic_levels(near, 16)
        near[16] = exact[16] * (1.0 - 1.01 * oracles.QUARTIC_RTOL)
        with pytest.raises(oracles.OracleMiss):
            oracles.check_quartic_levels(near, 16)

    def test_quartic_basis_is_converged(self):
        small = oracles.quartic_odd_levels.__wrapped__(17, size=300)
        big = oracles.quartic_odd_levels(17)
        assert max(abs(a / b - 1.0) for a, b in zip(small, big)) < 1e-10

    def test_bohr_sommerfeld_is_exact_at_alpha1(self):
        for n in range(3):
            assert math.isclose(oracles.bs_level(1.0, 0.5, n), oracles.alpha1_level(n, 0.5),
                                rel_tol=1e-10)

    def test_bohr_sommerfeld_levels(self):
        alpha, ell = 2.3, 0.4
        exact = [oracles.bs_level(alpha, ell, n) for n in range(3)]
        oracles.check_bs_levels(exact, alpha, ell, 2)
        near = list(exact)
        near[0] *= 1.0 + 0.99 * oracles.bs_tolerance(0)
        near[1] *= 1.0 + 0.99 * oracles.bs_tolerance(1)
        oracles.check_bs_levels(near, alpha, ell, 2)
        near[1] = exact[1] * (1.0 - 1.01 * oracles.bs_tolerance(1))
        with pytest.raises(oracles.OracleMiss):
            oracles.check_bs_levels(near, alpha, ell, 2)
        with pytest.raises(oracles.OracleMiss):
            oracles.check_bs_levels([exact[0], exact[2], exact[1]], alpha, ell, 2)

    @pytest.mark.parametrize("check,exact,tol", [
        (lambda v: oracles.check_alpha1_r_zero(v, 6.1, 1.2), oracles.alpha1_r_zero(6.1, 1.2),
         oracles.R0_CLOSED_TOL),
        (lambda v: oracles.check_sector_wronskian(v, -1), -2.0 + 0j, oracles.WRONSKIAN_TOL),
        (lambda v: oracles.check_sector_wronskian(v, 0), 2.0 + 0j, oracles.WRONSKIAN_TOL),
    ])
    def test_absolute_tolerances(self, check, exact, tol):
        check(exact + 0.99 * tol * 1j)
        with pytest.raises(oracles.OracleMiss):
            check(exact + 1.01 * tol * 1j)

    def test_cross_ratio(self):
        s0, s1 = 1.3 - 0.4j, -2.2 + 0.9j
        tol = oracles.CROSS_RATIO_RTOL * abs(s0 * s1)
        oracles.check_cross_ratio(s0, s1, s0 * s1 + 0.99 * tol)
        with pytest.raises(oracles.OracleMiss):
            oracles.check_cross_ratio(s0, s1, s0 * s1 + 1.01 * tol)

    def test_certified_bound(self):
        rho = 0.37
        bound = math.expm1(rho)
        oracles.check_certified(True, rho, bound)
        with pytest.raises(oracles.OracleMiss):
            oracles.check_certified(True, rho, math.nextafter(bound, math.inf))
        with pytest.raises(oracles.OracleMiss):
            oracles.check_certified(False, rho, 0.1 * bound)

    def test_deviation_agreement(self):
        dev = 0.2635
        oracles.check_deviation_agreement(dev, dev * (1.0 + 0.99 * oracles.DEVIATION_RTOL))
        with pytest.raises(oracles.OracleMiss):
            oracles.check_deviation_agreement(dev, dev * (1.0 + 1.01 * oracles.DEVIATION_RTOL))

    def test_hbar_ratios(self):
        def detail(ratios):
            return "rho/hbar = %s at hbar = 1/2, 1/4, 1/8" % ratios

        exact = oracles.HBAR_RATIO
        near = exact * (1.0 + 0.99 * oracles.HBAR_RATIO_RTOL)
        far = exact * (1.0 - 1.01 * oracles.HBAR_RATIO_RTOL)
        oracles.check_hbar_ratios(detail([exact, near, exact]))
        with pytest.raises(oracles.OracleMiss):
            oracles.check_hbar_ratios(detail([exact, exact, far]))
        with pytest.raises(oracles.OracleMiss):
            oracles.check_hbar_ratios(detail([exact, exact]))
        with pytest.raises(oracles.OracleMiss):
            oracles.check_hbar_ratios("spread 1.0")

    @pytest.mark.parametrize("energy,regime", [(1.0, "below"), (2.0, "critical"), (4.0, "above")])
    def test_stokes_signatures(self, energy, regime):
        want = oracles.STOKES_SIGNATURES[regime]
        pairs = [tuple(e.split("|")) for e in want["edges"]]
        oracles.check_stokes_signature(oracles.signature(want["vertices"], pairs), energy)
        # one edge rerouted to a neighbouring vertex
        pairs[0] = (pairs[0][0], "tp0" if pairs[0][1] != "tp0" else "tp1")
        with pytest.raises(oracles.OracleMiss):
            oracles.check_stokes_signature(oracles.signature(want["vertices"], pairs), energy)

    def test_frozen_signatures_match_the_package_data(self):
        checks = importlib.import_module("anharmonic.checks")
        by_energy = {c["energy"]: c["signature"] for c in checks.trichotomy_cases()}
        for energy, sig in by_energy.items():
            assert oracles.STOKES_SIGNATURES[oracles.stokes_regime(energy)] == sig


class TestTracing:
    @pytest.fixture(scope="class")
    def passes(self):
        ctx = workloads.Context(PKG)
        ctx.prepare("certify")
        plain, _, plain_wall = run.run_pass(ctx, SMALL_OPS)
        originals = (PKG.eigenvalues, PKG.spectral.spectral_determinant,
                     PKG.integrate.propagate, PKG.action.PathFrame.forcing)
        tracer = tracing.Tracer()
        with tracing.patched(PKG, tracer.wrap):
            assert PKG.spectral.propagate is not originals[2]
            traced, _, traced_wall = run.run_pass(ctx, SMALL_OPS, tracer)
        steps = [0]
        with tracing.patched(PKG, tracing.rk_step_counter(steps)):
            counted, _, _ = run.run_pass(ctx, SMALL_OPS)
        restored = (PKG.eigenvalues, PKG.spectral.spectral_determinant,
                    PKG.integrate.propagate, PKG.action.PathFrame.forcing)
        return dict(plain=plain, traced=traced, counted=counted, tracer=tracer,
                    steps=steps[0], overhead=traced_wall - plain_wall,
                    originals=originals, restored=restored)

    def test_traced_results_equal_untraced(self, passes):
        assert all(run.verdict(op, r) is None for op, r in zip(SMALL_OPS, passes["plain"]))
        assert passes["traced"] == passes["plain"]
        assert passes["counted"] == passes["plain"]

    def test_bindings_are_restored(self, passes):
        assert all(a is b for a, b in zip(passes["originals"], passes["restored"]))

    def test_spans_nest_and_count(self, passes):
        tracer = passes["tracer"]
        spans = tracer.spans
        assert spans and all(s is not None for s in spans)
        for name, start, end, parent, op in spans:
            assert start <= end and 0 <= op < len(SMALL_OPS)
            if parent >= 0:
                p = spans[parent]
                assert p[1] <= start and end <= p[2] and p[4] == op
        m = tracer.metrics(passes["steps"], passes["overhead"])
        assert m["spectral.determinant_calls"] > 0 and m["integrate.rk_steps"] > 0
        assert m["volterra.iterations"] > 0 and m["geometry.trace_points"] > 0
        assert m["action.pathframe_forcing_calls"] > 0
        busy = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        outermost = sum(e - s for _, s, e, parent, _ in spans if parent < 0)
        assert math.isclose(busy, outermost, rel_tol=1e-9)

    def test_per_layer_names_are_declared(self, passes):
        m = passes["tracer"].metrics(passes["steps"], passes["overhead"])
        assert list(m) == tracing.metric_names()
        declared = _declared("per_layer")
        assert set(m) == set(declared)
        for name in m:
            assert run._unit(name) == declared[name], name


def _alpha1_levels(ctx, op):
    return tuple(oracles.alpha1_level(n, op.args["ell"]) for n in range(op.args["n_max"] + 1))


def test_end_to_end_names_are_declared(monkeypatch):
    monkeypatch.setattr(run, "SETUP_BEFORE", 1)
    monkeypatch.setattr(run, "SETUP_AFTER", 1)
    monkeypatch.setattr(workloads, "draw", lambda workload, seed, index=0: SMALL_OPS[:1])
    monkeypatch.setattr(workloads, "execute", _alpha1_levels)
    result, record = run.timed_run(PKG, "scan", 1, 0.0)
    # the warm-up, MIN_PASSES passes of one operation, and two set-up probes
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + run.MIN_PASSES + 2
    declared = _declared("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert all(row["ok"] for row in record["ops"])
    assert record["ops"][0]["pass"] == "warmup"


def test_passes_repeat_while_they_fit(monkeypatch):
    """Each pass draws its own inputs; passes stop when another would overrun."""
    indices = []

    def draw(workload, seed, index=0):
        indices.append(index)
        return SMALL_OPS[:1]

    def execute(ctx, op):
        time.sleep(0.05)
        return _alpha1_levels(ctx, op)

    monkeypatch.setattr(run, "measure_setup", lambda: (0.01, True))
    monkeypatch.setattr(workloads, "draw", draw)
    monkeypatch.setattr(workloads, "execute", execute)
    result, record = run.timed_run(PKG, "scan", 1, 1.0, start=time.perf_counter())
    assert result["correct"]
    assert run.MIN_PASSES < len(record["pass_walls_s"]) <= 20
    assert indices == list(range(len(record["pass_walls_s"])))
    assert result["attempted"] == len(indices) + 1 + run.SETUP_BEFORE + run.SETUP_AFTER


def test_times_are_reported_at_the_reference_speed(monkeypatch):
    """On a host half as fast as the reference, reported times are halved."""
    monkeypatch.setattr(run, "measure_setup", lambda: (0.8, True))
    monkeypatch.setattr(run, "reference_chunk", lambda: 2.0 * run.REF_SECONDS)
    monkeypatch.setattr(workloads, "draw", lambda workload, seed, index=0: SMALL_OPS[:1])
    monkeypatch.setattr(workloads, "execute", _alpha1_levels)
    result, record = run.timed_run(PKG, "scan", 1, 0.0)
    assert record["speed_factor"] == 0.5
    for name, raw in record["raw_s"].items():
        assert result["metrics"][name]["value"] == 0.5 * raw
    assert record["raw_s"]["setup_s"] == 0.8
    assert record["pass_chunk_means_s"] == [2.0 * run.REF_SECONDS] * run.MIN_PASSES


def test_curve_windows_keep_the_certified_branch():
    ctx = workloads.Context(PKG)
    ctx.prepare("certify")
    _, whole = ctx.curves[workloads.HORIZONTAL]
    assert len(ctx.windows) == whole.n_segments - workloads.WINDOW_SEGMENTS + 1
    for start, (_, path) in enumerate(ctx.windows):
        assert path.nodes == whole.nodes[start:start + workloads.WINDOW_SEGMENTS + 1]
    assert ctx.windows[0][1].sqrt_v_branch == whole.sqrt_v_branch
    # a window far from the start, where the continued branch is the other one
    op = Op("curve_window", {"name": workloads.HORIZONTAL, "at": 0.6})
    assert ctx.windows[int(0.6 * len(ctx.windows))][1].sqrt_v_branch == "negative"
    assert run.verdict(op, workloads.execute(ctx, op)) is None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
