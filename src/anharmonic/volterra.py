"""Exact-solution control on curves: the Volterra kernel and its O(n) sweep.

A WKB candidate Psi = V^(-1/4) exp(S), with S the antiderivative of a fixed
continued branch b of sqrt(V) along the curve, turns psi'' = U psi into the
integral equation z = 1 + K[z] for the ratio z = psi / Psi, with kernel

    (K f)(t) = int_0^t B(t, s) F(s) gamma'(s) f(s) ds,
    B(t, s)  = (exp(-2 (S(t) - S(s))) - 1) / 2,

and forcing density F = [ (V - U) + (5 V'^2 - 4 V'' V) / (16 V^2) ] / b.
(The operator sign depends on which branch F is divided by.)  Everything
here works on a sampled curve: cumulative phase S on a grid and z by one
O(n) forward sweep of the trapezoid Nystrom system.  The same sweep serves
the refined sector seeds of integrate, which read z and, from the sweep's
own sums, z' at the end of the ray tail.  The a-priori bound on |z - 1| is
geometry.check_admissible, which reads S on the same grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import WORK, OscillatorParams
from .action import PathSpec, PathFrame

__all__ = [
    "VolterraRun",
    "volterra_solve",
    "iterate_grid",
]

_EXP_CAP = 700.0


@dataclass(frozen=True)
class VolterraRun:
    """Solved ratio z = psi / Psi^W on a sampled curve."""

    curve: PathSpec
    samples: np.ndarray    # global path parameter, segment i covers [i, i+1]
    s_values: np.ndarray   # cumulative int sqrt(V) dx from the start node
    z_values: np.ndarray
    iterations: int


def _trapezoid_weights(ts: np.ndarray) -> np.ndarray:
    dt = np.diff(ts)
    w = np.zeros(len(ts))
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def iterate_grid(svals: np.ndarray, fvals: np.ndarray,
                 ts: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve the trapezoid system of z = 1 + K[z] exactly, in O(n); returns (z, 1).

    The system is lower triangular (B(t, t) = 0) and B has rank two, so with
    g_i = F_i w_i z_i, z_j = 1 + (A_j - C_j)/2 for C_j = sum_{i<j} g_i and
    A_j = sum_{i<j} exp(-2 (S_j - S_i)) g_i, each carried to the next node in
    one step (step exponents capped at _EXP_CAP, as the kernel caps them).

    svals are cumulative values of int b dx at the nodes, with b the branch
    of sqrt(V) that F is divided by (any common offset drops out of the
    kernel); fvals is the forcing density times the curve speed,
    F(gamma(t)) gamma'(t).  Duplicated nodes (zero spacing) are allowed and
    give the one-sided trapezoid rule at segment corners.
    """
    WORK.update(sweeps=1, sweep_nodes=len(ts))
    expo = -2.0 * np.diff(svals)
    np.clip(expo.real, None, _EXP_CAP, out=expo.real)
    steps = np.exp(expo).tolist()
    weighted = (fvals * _trapezoid_weights(ts)).tolist()
    z = [1.0 + 0.0j]
    a = c = 0.0j
    for step, fw in zip(steps, weighted):
        g = fw * z[-1]
        a = step * (a + g)
        c += g
        z.append(1.0 + 0.5 * (a - c))
    out = np.array(z, dtype=complex)
    if not np.all(np.isfinite(out)):
        raise RuntimeError(f"Volterra sweep on {len(ts)} nodes gave a non-finite z; "
                           "the curve is likely far from admissible (rho too large)")
    return out, 1


def _frame_grid(frame: PathFrame, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(global ts, cumulative S) on max(8, n // segments) points per segment.

    Each segment's grid runs over its whole parameter range, so every corner
    node appears twice, as the end of one segment and the start of the next;
    corner speeds stay one-sided.
    """
    tloc = np.linspace(0.0, 1.0, max(8, n // len(frame.segments)))
    ts_all: list[np.ndarray] = []
    s_all: list[np.ndarray] = []
    offset = 0.0 + 0.0j
    for i in range(len(frame.segments)):
        s = frame.cumulative_s(i, tloc) + offset
        offset = s[-1]
        ts_all.append(tloc + i)
        s_all.append(s)
    return np.concatenate(ts_all), np.concatenate(s_all)


def volterra_solve(params: OscillatorParams, curve: PathSpec, n: int = 601) -> VolterraRun:
    """Solve z = 1 + K[z] along the curve; geometry.check_admissible certifies it.

    The grid has max(8, n // segments) points on each segment, with every
    corner node doubled (600 nodes on 4 segments at the default n = 601);
    time and memory are linear in the node count.
    """
    frame = PathFrame(params, curve)
    ts, svals = _frame_grid(frame, n)
    tloc = ts[:len(ts) // len(frame.segments)]  # every segment's local grid
    fvals = np.concatenate([frame.forcing(i, tloc) * frame.point(i, tloc)[2]
                            for i in range(len(frame.segments))])
    try:
        z, iters = iterate_grid(svals, fvals, ts)
    except RuntimeError as exc:
        raise RuntimeError(f"volterra_solve on {len(frame.segments)} segments: {exc} (alpha="
                           f"{params.alpha:g}, ell={params.ell:g}, E={params.energy:g})") from None
    return VolterraRun(curve, ts, svals, z, iters)
