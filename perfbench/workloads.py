"""The benchmark's workloads: seeded draws, the calls they make, their oracles.

One pass of a workload is a list of operations.  An operation is one call,
or one small group of calls that share an oracle, into the public API of
``anharmonic``; it is timed as a unit and then checked against an oracle from
``oracles``, outside the timed region.  An operation whose args hold a
``group`` list makes one call per entry (an antithetic pair).  The seed and the pass index fix every
draw, and the package receives only the drawn numbers.  perfbench/README.md
records why each workload and each draw range was chosen.
"""
from __future__ import annotations

import cmath
import importlib
import random
from dataclasses import dataclass

import oracles

WORKLOADS = ("scan", "connect", "certify")


@dataclass(frozen=True)
class Op:
    kind: str
    args: dict


def _e_star(alpha: float, ell: float) -> float:
    lam = ell + 0.5
    return alpha ** (-alpha / (1.0 + alpha)) * (1.0 + alpha) * lam ** (2.0 * alpha / (1.0 + alpha))


def _x_star(alpha: float, ell: float) -> float:
    return alpha ** (-1.0 / (2.0 + 2.0 * alpha)) * (ell + 0.5) ** (1.0 / (1.0 + alpha))


def _antithetic(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    """Two uniform draws u and 1 - u: each covers [lo, hi], their sum is fixed.

    Used where a call's cost grows steeply with the drawn value: the pair runs
    as one operation, so neither the pass cost (wall_s) nor the operation
    costs (op_p50_s) hinge on one draw.
    """
    u = rng.random()
    return lo + (hi - lo) * u, hi - (hi - lo) * u


# Each pass puts operations of steady cost in the middle of the pass's cost
# order, so that op_p50_s, the median over all operations of a run, is one
# of their times and no draw moves it.

def _draw_scan(rng: random.Random) -> list[Op]:
    ell_a, ell_b = _antithetic(rng, 25.0, 200.0)
    return [
        Op("levels_bs", {"alpha": rng.uniform(0.5, 3.0), "ell": rng.uniform(-0.4, 2.0),
                         "n_max": 0}),
        Op("levels_quartic", {"alpha": 2.0, "ell": 0.0, "n_max": 2}),
        Op("levels_alpha1", {"alpha": 1.0, "ell": rng.uniform(0.0, 3.0), "n_max": 2}),
        Op("levels_alpha1", {"group": [{"alpha": 1.0, "ell": ell_a, "n_max": 0},
                                       {"alpha": 1.0, "ell": ell_b, "n_max": 0}]}),
    ]


def _draw_connect(rng: random.Random) -> list[Op]:
    # one alpha below 1 and one above 1.1: refined Sibuya seeds fail for
    # 1 < alpha < 1.066 (see README, known limits)
    u = rng.random()
    sector = [Op("sector_wronskian", {"alpha": alpha, "energy": rng.uniform(0.5, 10.0),
                                      "ell": rng.uniform(0.0, 2.0), "k": rng.choice((-1, 0, 1))})
              for alpha in (0.6 + 0.4 * u, 1.5 - 0.4 * u)]
    r_zero = [Op("r_zero_alpha1", {"alpha": 1.0, "energy": rng.uniform(1.0, 15.0),
                                   "ell": rng.uniform(0.0, 2.0)}) for _ in range(2)]
    return sector + r_zero + [Op("cross_ratio", {"alpha": 1.0, "energy": rng.uniform(1.0, 5.0),
                                                  "ell": rng.uniform(0.0, 2.0)})]


CURVE_NAMES = ("inward_ray_alpha1", "outward_ray_subcritical_alpha1", "inward_ray_alpha2",
               "outward_ray_alpha06")
# the horizontal committed curve has 172 segments and takes about 14 s through
# check_admissible; a pass takes a window of consecutive segments of it
HORIZONTAL = "horizontal_trajectory_alpha1"
WINDOW_SEGMENTS = 16


def _draw_certify(rng: random.Random) -> list[Op]:
    curves = [Op("committed_curve", {"name": name}) for name in CURVE_NAMES]
    window = Op("curve_window", {"name": HORIZONTAL, "at": rng.random()})
    rays = []
    for _ in range(2):
        alpha, ell = rng.uniform(0.5, 3.0), rng.uniform(0.2, 2.0)
        u = rng.uniform(0.2, 0.9)
        x_star = _x_star(alpha, ell)
        rays.append(Op("ray", {"alpha": alpha, "ell": ell, "energy": u * _e_star(alpha, ell),
                               "x_from": 0.3 * x_star, "x_to": 3.0 * x_star}))
    stokes = [Op("stokes", {"alpha": 1.0, "ell": 0.5, "energy": energy})
              for energy in (2.0, rng.uniform(0.3, 1.9), rng.uniform(2.1, 10.0))]
    return curves + [window] + rays + [Op("hbar_scaling", {})] + stokes


_DRAWS = {"scan": _draw_scan, "connect": _draw_connect, "certify": _draw_certify}


def draw(workload: str, seed: int, pass_index: int = 0) -> list[Op]:
    """Operations of one pass; equal arguments give equal lists."""
    return _DRAWS[workload](random.Random(f"{workload}:{seed}:{pass_index}"))


# one cheap operation per workload, run and checked before the timed passes
# so that first-call costs (lazy imports, allocator growth) are not timed
_WARMUP = {
    "scan": [Op("levels_alpha1", {"alpha": 1.0, "ell": 0.5, "n_max": 0})],
    "connect": [Op("sector_wronskian", {"alpha": 0.8, "energy": 1.0, "ell": 0.5, "k": 0})],
    "certify": [Op("committed_curve", {"name": CURVE_NAMES[0]})],
}


def warmup(workload: str) -> list[Op]:
    return list(_WARMUP[workload])


class Context:
    """Handles on the package under test, looked up at call time so that
    the tracer's patched bindings are the ones called."""

    def __init__(self, package):
        self.pkg = package
        self.checks = importlib.import_module(package.__name__ + ".checks")
        self.model = importlib.import_module(package.__name__ + ".model")
        self.action = importlib.import_module(package.__name__ + ".action")
        self.curves: dict = {}
        self.windows: list = []

    def prepare(self, workload: str) -> None:
        """Build the fixed inputs of a workload; not part of any timed pass."""
        if workload == "certify":
            self.curves = {name: (params, path)
                           for name, params, path in self.checks.committed_curves()}
            self.windows = self._windows(*self.curves[HORIZONTAL])

    def _windows(self, params, path) -> list:
        """Every run of WINDOW_SEGMENTS consecutive segments of a committed path.

        A window keeps the square-root branch that the whole path continues
        to at its first node, so that it is a piece of the same certified
        solution and stays oriented like the path.
        """
        frame = self.action.PathFrame(params, path)
        nodes, kinds = path.nodes, path.parameterization
        out = []
        for start in range(len(kinds) - WINDOW_SEGMENTS + 1):
            first = self.action.PathSpec(nodes[start:start + 2], kinds[start:start + 1],
                                         "principal")
            principal = self.action.PathFrame(params, first).sqrt_v(0, 0.0)
            continued = frame.sqrt_v(start, 0.0)
            branch = "principal" if abs(continued - principal) <= 1e-9 * abs(principal) \
                else "negative"
            out.append((params, self.action.PathSpec(
                nodes[start:start + WINDOW_SEGMENTS + 1],
                kinds[start:start + WINDOW_SEGMENTS], branch)))
        return out


def execute(ctx: Context, op: Op):
    """Run one operation and return a plain, comparable result."""
    if "group" in op.args:
        return tuple(_call(ctx, op.kind, a) for a in op.args["group"])
    return _call(ctx, op.kind, op.args)


def check(op: Op, result) -> None:
    """Raise oracles.OracleMiss unless the result passes the op's oracle."""
    if "group" in op.args:
        for a, res in zip(op.args["group"], result, strict=True):
            _check(op.kind, a, res)
    else:
        _check(op.kind, op.args, result)


def _call(ctx: Context, kind: str, a: dict):
    pkg = ctx.pkg
    if kind in ("levels_alpha1", "levels_quartic", "levels_bs"):
        return tuple(pkg.eigenvalues(a["alpha"], a["ell"], a["n_max"]))
    if kind == "r_zero_alpha1":
        return pkg.r_zero(pkg.OscillatorParams(a["alpha"], a["energy"], a["ell"]))
    if kind == "sector_wronskian":
        params = pkg.OscillatorParams(a["alpha"], a["energy"], a["ell"])
        return pkg.sector_wronskian(params, a["k"], a["k"] + 1)
    if kind == "cross_ratio":
        params = pkg.OscillatorParams(a["alpha"], a["energy"], a["ell"])
        return (pkg.stokes_multiplier(params, 0), pkg.stokes_multiplier(params, 1),
                pkg.fock_goncharov(params, (0, 2, 1, -1)))
    if kind in ("committed_curve", "curve_window", "ray"):
        if kind == "committed_curve":
            params, path = ctx.curves[a["name"]]
        elif kind == "curve_window":
            params, path = ctx.windows[int(a["at"] * len(ctx.windows))]
        else:
            params = pkg.OscillatorParams(a["alpha"], a["energy"], a["ell"])
            cover = ctx.model.CoverPoint
            path = ctx.action.PathSpec((cover(a["x_from"], 0.0), cover(a["x_to"], 0.0)),
                                       ("ray",), "principal")
        rep = pkg.check_admissible(params, path)
        dev = ctx.checks.measured_wkb_deviation(params, path)
        if kind != "ray":
            return (rep.monotone, rep.rho, rep.beta, dev)
        run = pkg.volterra_solve(params, path)
        return (rep.monotone, rep.rho, rep.beta, dev,
                float(abs(run.z_values - 1.0).max()), run.iterations, run.z_values.tobytes())
    if kind == "hbar_scaling":
        res = ctx.checks.check_hbar_scaling()
        return (res.passed, res.measured, res.detail)
    if kind == "stokes":
        return pkg.stokes_complex(pkg.OscillatorParams(a["alpha"], a["energy"], a["ell"]))
    raise ValueError(f"unknown operation kind {kind!r}")


def _check(kind: str, a: dict, result) -> None:
    if kind == "levels_alpha1":
        oracles.check_alpha1_levels(result, a["ell"], a["n_max"])
    elif kind == "levels_quartic":
        oracles.check_quartic_levels(result, a["n_max"])
    elif kind == "levels_bs":
        oracles.check_bs_levels(result, a["alpha"], a["ell"], a["n_max"])
    elif kind == "r_zero_alpha1":
        oracles.check_alpha1_r_zero(result, a["energy"], a["ell"])
    elif kind == "sector_wronskian":
        mantissa, logscale = result
        oracles.check_sector_wronskian(cmath.exp(cmath.log(mantissa) + logscale), a["k"])
    elif kind == "cross_ratio":
        oracles.check_cross_ratio(*result)
    elif kind in ("committed_curve", "curve_window"):
        monotone, rho, _, dev = result
        oracles.check_certified(monotone, rho, dev)
    elif kind == "ray":
        monotone, rho, _, dev, volterra_dev = result[:5]
        oracles.check_certified(monotone, rho, dev)
        oracles.check_deviation_agreement(dev, volterra_dev)
    elif kind == "hbar_scaling":
        oracles.check_hbar_ratios(result[2])
    elif kind == "stokes":
        sig = oracles.signature(result.vertices, [(e.source, e.target) for e in result.edges])
        oracles.check_stokes_signature(sig, a["energy"])
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
