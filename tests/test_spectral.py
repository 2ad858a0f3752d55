"""Spectral determinant, eigenvalue scan, and boundary-ratio criteria."""
import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.special import gamma

from anharmonic import (
    CoverPoint,
    OscillatorParams,
    PathSpec,
    eigenvalues,
    fock_goncharov,
    r_zero,
    sector_wronskian,
    semiclassical_r_zero,
    spectral_determinant,
    spectrum_table,
    stokes_multiplier,
    bohr_sommerfeld_energy,
    wkb_phase,
)
from anharmonic import model, spectral
from anharmonic.integrate import (
    SolutionState,
    _frobenius_scaled,
    frobenius_seed,
    propagate,
    r_expansion,
    sibuya_seed,
    wronskian,
)
from anharmonic.spectral import DeterminantValue, _bracket_root, _chi_state, _geometry


def quartic_odd_levels(count, size=400):
    """Quartic eigenvalues with a node at the origin, by basis diagonalization.

    Oscillator-basis matrices for p^2 + x^4; the odd-parity levels of the line
    problem are the radial levels at vanishing angular momentum.
    """
    n = np.arange(size)
    x = np.zeros((size, size))
    off = np.sqrt((n[:-1] + 1) / 2.0)
    x[n[:-1], n[:-1] + 1] = off
    x[n[:-1] + 1, n[:-1]] = off
    x2 = x @ x
    h = 2.0 * np.diag(n + 0.5) - x2 + x2 @ x2
    ev = np.linalg.eigvalsh(h)
    return ev[1:2 * count:2]


def collocation_odd_levels(alpha, half_width, count, size=300):
    """Levels of -psi'' + |x|^(2 alpha) psi with a node at the origin, by
    Chebyshev collocation on [-L, L] with Dirichlet ends.

    The odd-parity levels of the line problem are the radial levels at
    ell = 0; at large alpha the wave functions vanish to double precision well
    inside |x| = L, where |x|^(2 alpha) is a wall.
    """
    j = np.arange(size + 1)
    x = np.cos(np.pi * j / size)
    c = np.where((j == 0) | (j == size), 2.0, 1.0) * (-1.0) ** j
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(size + 1))
    d -= np.diag(d.sum(axis=1))
    inner = x[1:-1] * half_width
    h = -(d @ d)[1:-1, 1:-1] / half_width ** 2 + np.diag(np.abs(inner) ** (2.0 * alpha))
    ev = np.sort(np.linalg.eigvals(h).real)
    return ev[1:2 * count:2]


# (alpha, ell, E): integer and non-integer 2 alpha, and the thresholds
# alpha = 1 and 1/3 where R carries a log term; up to E = 30 on both sides of
# alpha = 1, each at least 0.2 from the nearest quantized I(E) = n + 1/2; and
# the windows just above the thresholds 1/5, 1/3 and 1, where the tail
# integral's leading term carries 1/d_alpha with d_alpha -> 0+
ROTATED_POINTS = [(2.0, 0.5, 3.0), (1.5, 0.0, 10.0), (0.8, 0.3, 3.0), (1.0, 0.5, 5.0),
                  (1.0 / 3.0, 0.5, 3.0), (0.6, 0.0, 20.0), (0.6, 1.0, 30.0),
                  (0.8, 1.0, 30.0), (2.0, 0.5, 30.0), (3.0, 1.5, 20.0),
                  (0.21, 0.5, 3.0), (0.34, 0.5, 3.0), (1.01, 0.5, 3.0), (1.03, 0.5, 3.0),
                  (1.06, 0.5, 3.0)]


def alpha1_wronskian(ell, energy, j, k):
    """Wr[psi_j, psi_k] at alpha = 1 in closed form (mpmath, 30 digits).

    With mu = (ell + 1/2)/2, the Wronskians D_+-(E) = Wr[chi_+-, psi_0] =
    -2 Gamma(1 +- 2 mu) / Gamma(1/2 +- mu - E/4) of psi_0 with chi_+ ~ x^(ell+1)
    and chi_- ~ x^(-ell) give psi_0 = (D_- chi_+ - D_+ chi_-)/(2 ell + 1).
    Sibuya's symmetry psi_k(x, E) = c_k psi_0(i^-k x, (-1)^k E) with c_k =
    i^(-k/2) e^((-1)^k i k pi E/4), and chi_+- rotating by i^(-k(ell+1)) and
    i^(k ell), give each psi_k in the basis chi_+-.  ell must not be a
    half-integer, where Gamma(1 - 2 mu) has a pole.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        mu = (mp.mpf(ell) + 0.5) / 2

        def d(sign, e):
            return -2 * mp.gamma(1 + sign * 2 * mu) / mp.gamma(0.5 + sign * mu - e / 4)

        def basis(k):
            ek = (-1) ** k * mp.mpf(energy)
            ck = mp.expjpi(-k / 4.0) * mp.expjpi((-1) ** k * k * energy / 4)
            return (ck * d(-1, ek) * mp.expjpi(-k * (ell + 1) / 2) / (2 * ell + 1),
                    -ck * d(+1, ek) * mp.expjpi(k * ell / 2) / (2 * ell + 1))
        (aj, bj), (ak, bk) = basis(j), basis(k)
        return complex(-(2 * ell + 1) * (aj * bk - bj * ak))


class TestQuadraticWell:
    @pytest.mark.parametrize("ell", [0.0, 0.5])
    def test_spectrum_lies_on_the_lines(self, ell):
        got = eigenvalues(1.0, ell, 4, rel_tol=1e-9)
        want = [4.0 * n + 2.0 * ell + 3.0 for n in range(5)]
        assert len(got) == 5
        for g, w in zip(got, want):
            assert abs(g / w - 1.0) < 1e-7

    @pytest.mark.parametrize("energy,ell", [(3.9, 0.3), (1.2, 0.0), (8.5, 1.7)])
    def test_determinant_gamma_ratio(self, energy, ell):
        got = spectral_determinant(OscillatorParams(1.0, energy, ell)).value
        want = -2.0 * gamma((2.0 * ell + 3.0) / 2.0) / gamma((2.0 * ell + 3.0 - energy) / 4.0)
        assert abs(got - want) < 1e-7 * abs(want)

    @pytest.mark.parametrize("energy,ell", [(3.9, 0.3), (6.1, 1.2), (1.2, 0.0), (14.7, 0.5)])
    def test_boundary_ratio_closed_form(self, energy, ell):
        got = r_zero(OscillatorParams(1.0, energy, ell))
        want = cmath.exp(-2j * math.pi * (energy - 2.0 * ell - 1.0) / 4.0)
        assert abs(got - want) < 1e-12


class TestHarmonicSubregime:
    @pytest.mark.parametrize("ell", [25.0, 112.5])
    def test_ground_level(self, ell):
        got = eigenvalues(1.0, ell, 0)
        assert abs(got[0] / (2.0 * ell + 3.0) - 1.0) < 1e-9

    def test_ell_past_the_double_range_of_the_seed_prefactor(self):
        # 0.05^(ell+1) underflows doubles here; the seed keeps it as a log-scale
        got = eigenvalues(1.0, 250.0, 0)
        assert abs(got[0] / 503.0 - 1.0) < 1e-7


class TestQuarticWell:
    def test_levels_match_basis_diagonalization(self):
        want = quartic_odd_levels(2)
        got = eigenvalues(2.0, 0.0, 1, rel_tol=1e-9)
        for g, w in zip(got, want):
            assert abs(g / w - 1.0) < 5e-8

    def test_quantisation_tracks_the_scan(self):
        tab = spectrum_table(2.0, 0.0, 3, methods=("exact", "bs"), rel_tol=1e-9)
        devs = [r.rel_dev_bs for r in tab]
        assert all(d < 0.05 for d in devs)
        # the agreement improves with the level index
        assert devs[-1] < devs[0]

    def test_semiclassical_energies_are_python_floats(self):
        # numpy scalars passed on as energies slow the RK stepper several-fold;
        # from n = 5 on the Bohr-Sommerfeld solve starts at the asymptotic value
        assert type(bohr_sommerfeld_energy(2.0, 0.0, 7)) is float
        tab = spectrum_table(2.0, 0.0, 6, methods=("bs", "asym"))
        assert all(type(r.e_bs) is float and type(r.e_asym) is float for r in tab)


class TestLargeAlpha:
    # (alpha, L): the collocation box holds the two lowest odd levels; from
    # alpha = 58 collocation on L = 1.6 returns negative levels, so the box
    # shrinks there
    @pytest.mark.parametrize("alpha,half_width", [(6.0, 2.2), (12.0, 1.6), (30.0, 1.6),
                                                  (58.0, 1.15), (100.0, 1.15)])
    def test_levels_match_chebyshev_collocation(self, alpha, half_width):
        # the seed radius is where the contrast reaches its budget, just past
        # x_+ at large alpha; a radius held at |x| >= 4 put Re R near
        # 4^(alpha+1)/(alpha+1) there and ran out of RK steps from alpha = 12.
        # From alpha = 58 the step 2 alpha + 2 nears the series order, and the
        # truncation estimate must be taken per direction of the recurrence
        got = eigenvalues(alpha, 0.0, 1)
        want = collocation_odd_levels(alpha, half_width, 2)
        for g, w in zip(got, want):
            assert abs(g / w - 1.0) <= 1e-8

    @pytest.mark.parametrize("alpha", [170.0, 200.0])
    def test_levels_approach_the_hard_wall(self, alpha):
        # x^(2 alpha) tends to a wall at L = 1 + (ln 2 alpha - gamma_E)/alpha,
        # so at ell = 0 E_n tends to ((n + 1) pi / L)^2; measured -6.4e-4 at
        # alpha = 170 and -5.0e-4 at 200.  The phase quadrature gave nan here
        # while x_lo^(2 alpha) underflowed where (1 + u)^(2 alpha) overflowed
        wall = 1.0 + (math.log(2.0 * alpha) - np.euler_gamma) / alpha
        levels = eigenvalues(alpha, 0.0, 1)
        assert len(levels) == 2
        for n, level in enumerate(levels):
            assert abs(level * wall ** 2 / ((n + 1) * math.pi) ** 2 - 1.0) <= 2e-3


@pytest.fixture
def transports(monkeypatch):
    """The params of every propagate call that spectral makes from here on."""
    calls = []
    original = spectral.propagate

    def counted(params, *args, **kwargs):
        calls.append(params)
        return original(params, *args, **kwargs)
    monkeypatch.setattr(spectral, "propagate", counted)
    return calls


class TestConnectionData:
    @pytest.mark.parametrize("ell", [0.3, 1.3, 2.2])
    @pytest.mark.parametrize("energy", [9.0, 15.0, 21.0])
    def test_every_wronskian_matches_the_alpha1_closed_form(self, ell, energy):
        # sigma_-2 .. sigma_2 once, then the ladder for every pair |j|, |k| <= 3:
        # sigma_+-1 by T-Q, sigma_0 and sigma_+-2 (omega^4 E = E) by the psi_1 hop
        sigma = spectral._stokes_multipliers(OscillatorParams(1.0, energy, ell), range(-2, 3))
        for j in range(-3, 4):
            for k in range(-3, 4):
                want = alpha1_wronskian(ell, energy, j, k)
                got = spectral._ladder(sigma, j, k)
                assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), (j, k, got, want)

    def test_one_psi1_hop_serves_every_full_turn(self, monkeypatch):
        # at alpha = 1, sigma_0 and sigma_+-2 all come from sigma_0(E)
        calls = []
        hop = spectral._psi1_hop

        def counted(params, geo, zero):
            calls.append(params)
            return hop(params, geo, zero)
        monkeypatch.setattr(spectral, "_psi1_hop", counted)
        sigma = spectral._stokes_multipliers(OscillatorParams(1.0, 9.0, 0.3), range(-2, 3))
        assert len(calls) == 1 and sorted(sigma) == [-2, -1, 0, 1, 2]

    def test_public_entry_points_follow_the_ladder(self):
        params = OscillatorParams(1.0, 21.0, 1.3)

        def wr(j, k):
            return alpha1_wronskian(1.3, 21.0, j, k)
        m, ls = sector_wronskian(params, 3, -3)
        assert abs(m * cmath.exp(ls) - wr(3, -3)) <= 1e-7 * abs(wr(3, -3))
        want = wr(0, 2) / wr(0, 1)
        assert abs(stokes_multiplier(params, 1) - want) <= 1e-7 * abs(want)
        want = -(wr(0, 2) / wr(0, -1)) * (wr(1, -1) / wr(1, 2))
        assert abs(fock_goncharov(params, (0, 2, 1, -1)) - want) <= 1e-7 * abs(want)

    @pytest.mark.parametrize("alpha,ell,energy", [(2.0, 0.5, 30.0), (1.5, 0.7, 8.0)])
    def test_multipliers_match_seeds_met_on_the_sector_ray(self, alpha, ell, energy):
        # the reference is the former route, reliable above alpha = 1 only:
        # psi_{k-1}, psi_k and psi_{k+1} carried down their rays to x_match and
        # along one arc each to the ray of sector k
        params = OscillatorParams(alpha, energy, ell)
        geo = _geometry(params)

        def met(j, k):
            arg_j = model.sector_center_arg(alpha, j)
            nodes = [CoverPoint(geo.x_max, arg_j), CoverPoint(geo.x_match, arg_j)]
            kinds = ["ray"]
            if j != k:
                nodes.append(CoverPoint(geo.x_match, model.sector_center_arg(alpha, k)))
                kinds.append("arc")
            path = PathSpec(tuple(nodes), tuple(kinds), "principal")
            return propagate(params, sibuya_seed(params, j, geo.x_max), path, rtol=1e-10)
        for k in (-1, 1, 2):
            below = met(k - 1, k)
            (mn, ln), (md, ld) = wronskian(below, met(k + 1, k)), wronskian(below, met(k, k))
            want = mn / md * cmath.exp(ln - ld)
            assert abs(stokes_multiplier(params, k) - want) <= 1e-8 * abs(want)

    def test_adjacent_wronskians_are_constant(self, monkeypatch):
        # exact by the normalization of the sector solutions: no seed is built
        monkeypatch.setattr(spectral, "sibuya_seed", None)
        params = OscillatorParams(0.6, 10.0, 0.3)
        for k in (-1, 0, 1):
            assert sector_wronskian(params, k, k + 1) == (2.0 * (-1.0) ** k, 0.0)
            assert sector_wronskian(params, k + 1, k) == (-2.0 * (-1.0) ** k, 0.0)

    def test_multipliers_combine_into_the_cross_ratio(self):
        params = OscillatorParams(1.0, 3.9, 0.3)
        s0 = stokes_multiplier(params, 0)
        s1 = stokes_multiplier(params, 1)
        r = fock_goncharov(params, (0, 2, 1, -1))
        assert abs(s0 * s1 - r) < 1e-7 * max(1.0, abs(r))

    def test_whole_turn_rotation_reuses_the_real_determinant(self, monkeypatch):
        # at alpha = 1, omega^+-4 E = E: sigma_+-1 and the cross ratio need Q(E) and
        # Q(omega^2 E) = Q(-E) only, one chi each, made once for the energy
        calls = []
        original = spectral._chi_state

        def counted(params, geo, rtol):
            calls.append(params.energy)
            return original(params, geo, rtol)
        monkeypatch.setattr(spectral, "_chi_state", counted)
        params = OscillatorParams(1.0, 3.9, 0.3)
        stokes_multiplier(params, 1)
        stokes_multiplier(params, -1)
        fock_goncharov(params, (0, 2, 1, -1))
        assert calls == [3.9, -3.9]
        # at alpha = 2, omega^4 E is no whole turn away: three determinants
        calls.clear()
        stokes_multiplier(OscillatorParams(2.0, 7.4, 0.5), 1)
        assert len(calls) == 3

    @pytest.mark.parametrize("alpha,ell,energy,count", [(1.0, 0.3, 3.9, 5), (2.0, 0.5, 7.4, 7)])
    def test_psi0_is_carried_once(self, alpha, ell, energy, count, transports):
        # chi and psi_0 for each rotated Q, then one psi_0 at E that Q~_0's chi
        # and the psi_1 hop share; the ladder out to sectors -+3 then needs no
        # transport the cross ratio did not already make
        params = OscillatorParams(alpha, energy, ell)
        stokes_multiplier(params, 0)
        stokes_multiplier(params, 1)
        fock_goncharov(params, (0, 2, 1, -1))
        assert len(transports) == count
        sector_wronskian(params, -3, 3)
        assert len(transports) == count

    @pytest.mark.parametrize("alpha,ell,energy", [(1.0, 0.3, 3.9), (2.0, 0.5, 7.4),
                                                  (0.6, 0.3, 10.0)])
    def test_warm_results_are_the_cold_ones(self, alpha, ell, energy):
        params = OscillatorParams(alpha, energy, ell)
        calls = [lambda: stokes_multiplier(params, -1), lambda: stokes_multiplier(params, 0),
                 lambda: stokes_multiplier(params, 1),
                 lambda: fock_goncharov(params, (0, 2, 1, -1)),
                 lambda: sector_wronskian(params, -3, 3), lambda: r_zero(params)]
        cold = []
        for call in calls:
            spectral._sectors.cache_clear()
            cold.append(call())
        spectral._sectors.cache_clear()
        for _ in range(2):  # the second round finds every transport made
            assert [call() for call in calls] == cold

    def test_a_new_energy_recomputes(self, transports):
        first, second = OscillatorParams(2.0, 7.4, 0.5), OscillatorParams(2.0, 7.5, 0.5)
        s_first = stokes_multiplier(first, 0)
        s_second = stokes_multiplier(second, 0)
        assert s_second != s_first
        # the memo holds one energy: coming back makes both transports again
        assert stokes_multiplier(first, 0) == s_first
        assert [p.energy for p in transports] == [7.4, 7.4, 7.5, 7.5, 7.4, 7.4]

    @pytest.mark.parametrize("energy,ell", [(3.9, 0.3), (6.1, 1.2), (1.2, 0.0), (14.7, 0.5)])
    def test_real_rotated_energy_runs_on_floats(self, energy, ell):
        # at alpha = 1, omega^2 E = -E: R0's determinant is real
        before = model.WORK.copy()
        r_zero(OscillatorParams(1.0, energy, ell))
        work = model.WORK - before
        assert work["real_transports"] == work["transports"] == 2

    @pytest.mark.parametrize("energy", [1.0, 10.0, 60.0, 100.0, 150.0])
    def test_airy_multipliers(self, energy, transports):
        # at alpha = 1/2, ell = 0, V = x - E and Airy's relation
        # Ai(z) + omega Ai(omega z) + omega^2 Ai(omega^2 z) = 0 gives sigma_k = -i at
        # every E.  sigma_-1 reads conj Q~_-s of the determinants sigma_1 made.
        # sigma_0 comes from the psi_1 hop, which is wrong past E = 60 (ROADMAP item 1)
        params = OscillatorParams(0.5, energy, 0.0)
        assert abs(stokes_multiplier(params, 1) + 1j) < 1e-5
        made = len(transports)
        assert abs(stokes_multiplier(params, -1) + 1j) < 1e-5
        assert len(transports) == made
        if energy <= 60.0:
            assert abs(stokes_multiplier(params, 0) + 1j) < 1e-5

    def test_cross_ratio_rejects_repeats(self):
        with pytest.raises(ValueError):
            fock_goncharov(OscillatorParams(1.0, 3.9, 0.3), (0, 1, 1, 2))


class TestSpectralCriterion:
    def test_ratio_hits_minus_one_on_the_spectrum(self):
        e0 = 4.0  # n=0 line at ell=1/2
        got = r_zero(OscillatorParams(1.0, e0, 0.5))
        assert abs(got + 1.0) < 1e-6

    def test_ratio_away_from_the_spectrum(self):
        got = r_zero(OscillatorParams(1.0, 6.0, 0.5))
        assert abs(got + 1.0) > 0.5

    def test_semiclassical_phase_cancels(self):
        ell = 5.0
        e = bohr_sommerfeld_energy(1.0, ell, 0)
        params = OscillatorParams(1.0, e, ell)
        res = abs(r_zero(params) * semiclassical_r_zero(params) - 1.0)
        assert res < 1e-6

    def test_continuous_through_the_threshold(self):
        # R0 = -i at alpha = 1 (E = 3, ell = 1/2) and moves by 0.014 either
        # side of it.  D and sigma_0 jump there instead (D = -7.6e64, -0.55,
        # -4.0e-66 at alpha = 0.99, 1, 1.01): the term of R that alpha = 1
        # turns into a log enters their normalization with 1/d_alpha
        at_one = r_zero(OscillatorParams(1.0, 3.0, 0.5))
        assert abs(at_one + 1j) < 1e-9
        for alpha in (0.99, 1.01):
            assert abs(r_zero(OscillatorParams(alpha, 3.0, 0.5)) - at_one) < 0.02

    def test_ratio_hits_minus_one_past_the_second_threshold(self):
        # alpha = 1/3 = 1/(2k - 1) with k = 2: R has a log term c E^2 log x
        # there, whose phase R0 must carry as well as at alpha = 1
        alpha = 1.0 / 3.0
        for e in eigenvalues(alpha, 0.5, 1):
            assert abs(r_zero(OscillatorParams(alpha, e, 0.5)) + 1.0) < 1e-6


class TestRotatedDeterminants:
    """Q at the rotated energies omega^(+-2) E, omega = e^(i pi/(alpha+1))."""

    @staticmethod
    def rotated(params, sign):
        # Q(omega^(2 sign) E) on the radii of the real E, times e^(i sign theta c)
        theta = model.sector_center_arg(params.alpha, 1)
        c = r_expansion(params.alpha, params.energy).log_coefficient.real
        p = params.with_energy(params.energy * cmath.rect(1.0, 2.0 * sign * theta))
        q = spectral._determinant(p, _geometry(params), True, 1e-10).value
        return q, q * cmath.rect(1.0, sign * theta * c)

    @pytest.mark.parametrize("alpha,ell,energy", ROTATED_POINTS)
    def test_baxter_tq_relation(self, alpha, ell, energy):
        # sigma_0(E) Q(E) = -i [omega^-(ell+1/2) Q~(omega^-2 E) + omega^(ell+1/2) Q~(omega^2 E)]
        params = OscillatorParams(alpha, energy, ell)
        theta = model.sector_center_arg(alpha, 1)
        _, q_minus = self.rotated(params, -1)
        _, q_plus = self.rotated(params, +1)
        lhs = stokes_multiplier(params, 0) * spectral_determinant(params).value
        rhs = -1j * (cmath.rect(1.0, -(ell + 0.5) * theta) * q_minus
                     + cmath.rect(1.0, (ell + 0.5) * theta) * q_plus)
        assert abs(lhs - rhs) < 1e-8 * abs(lhs)

    @pytest.mark.parametrize("alpha,ell,energy", ROTATED_POINTS)
    def test_rotations_are_conjugate(self, alpha, ell, energy):
        params = OscillatorParams(alpha, energy, ell)
        q_minus, _ = self.rotated(params, -1)
        q_plus, _ = self.rotated(params, +1)
        assert abs(q_minus - q_plus.conjugate()) < 1e-12 * abs(q_plus)

    def test_one_sector_seed_per_boundary_ratio(self, monkeypatch):
        seeds = []
        original = spectral.sibuya_seed

        def counted(params, k, *args, **kwargs):
            seeds.append(k)
            return original(params, k, *args, **kwargs)
        monkeypatch.setattr(spectral, "sibuya_seed", counted)
        r_zero(OscillatorParams(2.0, 5.0, 0.5))
        assert seeds == [0]


class TestDeterminantValue:
    def test_scaled_representation(self):
        d = spectral_determinant(OscillatorParams(1.0, 3.9, 0.3))
        assert abs(d.value - d.mantissa * cmath.exp(d.logscale)) < 1e-12 * abs(d.value)
        assert math.isclose(d.log_abs, math.log(abs(d.value)), rel_tol=1e-9)

    def test_real_on_the_real_energy_axis(self):
        d = spectral_determinant(OscillatorParams(2.0, 2.7, 0.4))
        assert abs(d.value.imag) < 1e-8 * abs(d.value)

    def test_root_polish_survives_an_exact_zero(self):
        # brentq can land on an exact root, where the mantissa is exactly zero
        def q(e):
            return DeterminantValue(complex(e - 1.0), 0.0)
        assert _bracket_root(q, 0.5, 1.5, q(0.5), q(1.5), 1e-12) == 1.0


class TestChiSeed:
    @pytest.mark.parametrize("alpha,ell,energy", [(1.0, 200.0, 403.0), (2.0, 0.0, 7.4)])
    def test_log_derivative_matches_transport_from_the_first_rung(self, alpha, ell, energy):
        # seeding further out in the barrier may change chi only by a factor
        params = OscillatorParams(alpha, energy, ell)
        geo = _geometry(params)
        rtol = 5e-13
        got = _chi_state(params, geo, rtol)
        x0 = min(0.05, 0.05 * geo.x_minus)  # the first rung of the ladder
        val, dval, _, loglead = _frobenius_scaled(frobenius_seed(alpha, ell), energy,
                                                  CoverPoint(x0, 0.0))
        start = SolutionState(CoverPoint(x0, 0.0), val, dval, loglead).rescaled()
        path = PathSpec((CoverPoint(x0, 0.0), CoverPoint(geo.x_match, 0.0)), ("ray",),
                        "principal")
        ref = propagate(params, start, path, rtol=rtol)
        want = ref.derivative / ref.value
        assert abs(got.derivative / got.value - want) < 1e-12 * abs(want)


class TestBracketRoot:
    def test_scan_values_at_the_ends_are_reused(self):
        from scipy.optimize import brentq

        def q(e):
            return DeterminantValue(complex(math.cos(e)), 2.0)
        calls = []

        def q_at(e):
            calls.append(e)
            return q(e)
        lo, hi = 1.0, 2.0
        got = _bracket_root(q_at, lo, hi, q(lo), q(hi), 1e-9)
        assert lo not in calls and hi not in calls
        assert calls
        ref = max(q(lo).log_abs, q(hi).log_abs)

        def f(e):
            d = q(e)
            return math.copysign(math.exp(min(d.log_abs - ref, 50.0)), d.mantissa.real)
        assert got == float(brentq(f, lo, hi, xtol=1e-9 * max(1.0, hi), rtol=8.9e-16))


def counted_determinants(monkeypatch):
    """The energies of every spectral_determinant call from here on."""
    calls = []
    original = spectral.spectral_determinant

    def counted(params, **kwargs):
        calls.append(params.energy)
        return original(params, **kwargs)
    monkeypatch.setattr(spectral, "spectral_determinant", counted)
    return calls


class TestPredictAndPolish:
    def test_few_determinants_per_level(self, monkeypatch):
        calls = counted_determinants(monkeypatch)
        got = eigenvalues(2.0, 0.0, 4)
        assert len(got) == 5
        assert len(calls) <= 4.5 * len(got)

    def test_exact_prediction_costs_two_determinants(self, monkeypatch):
        # at alpha = 1 the prediction is the root: the secant through it and
        # the second point lands back on it, where Q is already known
        calls = counted_determinants(monkeypatch)
        got = eigenvalues(1.0, 0.5, 5)
        assert len(got) == 6
        assert len(calls) == 12

    # (alpha, ell, n_max): both sides of alpha = 1, ell = -0.4 and ell = 10
    @pytest.mark.parametrize("alpha,ell,n_max", [(0.34, 0.5, 2), (0.6, -0.4, 2),
                                                 (1.5, 2.0, 3), (2.0, 10.0, 2),
                                                 (3.0, 1.0, 3)])
    def test_levels_match_a_tight_scan(self, alpha, ell, n_max):
        # the polish stops on its error estimate at a tenth of the tolerance
        got = eigenvalues(alpha, ell, n_max)
        tight = eigenvalues(alpha, ell, n_max, rel_tol=1e-13)
        for g, t in zip(got, tight):
            assert abs(g / t - 1.0) <= 1e-10

    def test_levels_are_python_floats(self):
        # from n = 5 on the prediction starts from the numpy-valued large-n
        # asymptotics; numpy scalars must not reach the RK stepper
        got = eigenvalues(1.0, 0.5, 5)
        assert all(type(g) is float for g in got)
        assert abs(got[5] / 24.0 - 1.0) < 1e-9

    def test_misplaced_prediction_falls_back_to_the_rescan(self, monkeypatch):
        # level 0 is predicted at level 1's energy: its polish finds level 1
        # again, and only the index check and the rescan recover level 0
        predict = spectral.bohr_sommerfeld_energy
        monkeypatch.setattr(spectral, "bohr_sommerfeld_energy",
                            lambda alpha, ell, n: predict(alpha, ell, max(n, 1)))
        gaps = []
        original = spectral._rescan

        def counted(q_at, spacing, lo, hi, rel_tol):
            gaps.append((lo, hi))
            return original(q_at, spacing, lo, hi, rel_tol)
        monkeypatch.setattr(spectral, "_rescan", counted)
        got = eigenvalues(1.0, 0.5, 1)
        assert len(gaps) == 1
        assert len(got) == 2
        for g, w in zip(got, [4.0, 8.0]):
            assert abs(g / w - 1.0) < 1e-9

    def test_polish_keeps_to_its_interval(self):
        # the root lies below e_lo: every step is clipped there and the
        # polish gives up instead of leaving [e_lo, e_hi]
        seen = []

        def q_at(e):
            seen.append(e)
            return DeterminantValue(complex(e - 1.0), 0.0)
        assert spectral._polish(q_at, 0, 2.0, 1.0, 1.5, 3.0, 1e-9) is None
        assert seen and min(seen) >= 1.5

    def test_polish_stops_on_a_small_step(self):
        def q(e):
            return DeterminantValue(complex(math.sin(e - 2.0)), 0.3 * e)
        calls = []

        def q_at(e):
            calls.append(e)
            return q(e)
        got = spectral._polish(q_at, 1, 2.3, 3.0, 0.5, 10.0, 1e-12)
        assert abs(got - 2.0) < 1e-11
        assert len(calls) <= spectral._POLISH_EVALS

    def test_polish_is_accurate_on_a_curved_determinant(self):
        # started a tenth of a spacing off, the error estimate must not stop
        # the secant while the curvature still moves its root
        def q_at(e):
            d = e - 2.0
            return DeterminantValue(complex(d * (1.0 + 40.0 * d * d)), 0.3 * e)
        got = spectral._polish(q_at, 0, 2.1, 1.0, 0.5, 10.0, 1e-9)
        assert abs(got - 2.0) <= 1e-10 * 2.0

    def test_polish_returns_on_a_root_next_to_the_prediction(self):
        # the secant lands 1e-14 from the prediction, where Q is already known
        calls = []

        def q_at(e):
            calls.append(e)
            return DeterminantValue(complex(math.sin(e - 2.0 - 1e-14)), 0.3 * e)
        got = spectral._polish(q_at, 0, 2.0, 1.0, 0.5, 10.0, 1e-9)
        assert abs(got - 2.0) < 1e-12
        assert len(calls) == 2


class TestLoudFailures:
    def test_energy_cap_names_the_scan(self, monkeypatch):
        monkeypatch.setattr(spectral, "asymptotic_spectrum", lambda *args: -12.0)
        with pytest.raises(RuntimeError) as err:
            eigenvalues(1.0, 0.0, 1)
        msg = str(err.value)
        assert "ran past its energy cap 2" in msg
        assert "n_max + 1 = 2" in msg and "alpha=1, ell=0" in msg

    def test_unresolved_indices_name_the_scan(self, monkeypatch):
        monkeypatch.setattr(spectral, "_phase_index", lambda alpha, ell, energy: 2)
        with pytest.raises(RuntimeError) as err:
            eigenvalues(1.0, 0.0, 1)
        assert "scan did not resolve indices 0..1 (alpha=1, ell=0)" in str(err.value)

    def test_unconverged_seed_tail_names_the_parameters(self):
        # the tail integral of a refined seed does not settle with x_max at the
        # turning point x_+ (|w| + |mu| = 1.2918 there) or just outside it
        # (1.2635 at 1.01 x_+), where sqrt(V) has its branch point.  The
        # failure must come at once and name the seed, not after a long
        # transport
        params = OscillatorParams(1.0, 3.0, 0.5)
        x_plus = _geometry(params).x_plus
        for x_max, r in ((x_plus, "1.2918"), (1.01 * x_plus, "1.2635")):
            with pytest.raises(RuntimeError) as err:
                sibuya_seed(params, 0, x_max)
            msg = str(err.value)
            assert f"tail integral does not settle at x_max={x_max:.6g}" in msg
            assert "k=0" in msg and f"|w|+|mu|={r}" in msg
            assert "alpha=1, ell=0.5, E=3" in msg

    def test_cancelled_stokes_wronskian_names_the_multiplier(self, monkeypatch):
        # psi_1 arrives nearly real: Im(conj(f) f') = 1e-9 against |f||f'| = 1
        original = spectral.propagate

        def near_real(params, state, path, rtol):
            out = original(params, state, path, rtol=rtol)
            return SolutionState(out.location, 1.0 + 0j, 1.0 + 1e-9j, out.logscale)
        monkeypatch.setattr(spectral, "propagate", near_real)
        with pytest.raises(RuntimeError) as err:
            stokes_multiplier(OscillatorParams(2.0, 5.0, 0.5), 0)
        msg = str(err.value)
        assert "Wr[psi_-1, psi_1] lost to cancellation" in msg and "= 0.2 > 1e-6" in msg
        assert "alpha=2, ell=0.5, E=5, k=0" in msg

    @pytest.mark.parametrize("alpha,ell", [(0.21, 3.0), (0.34, 3.0), (2.0, 100.0)])
    def test_connection_data_out_of_the_double_range_are_named(self, alpha, ell):
        # at 5 E* the psi_1 hop's scale e^(2 L - l) is e^935 to e^3725, and at
        # alpha = 0.21 and 0.34 both T-Q terms of sigma_1 are below e^-3000
        energy = 5.0 * model.critical_data(alpha, ell).e_star
        params = OscillatorParams(alpha, energy, ell)
        named = f"(alpha={alpha:g}, ell={ell:g}, E={energy:g}, k="
        for call in (lambda: stokes_multiplier(params, 0),
                     lambda: sector_wronskian(params, -1, 1)):
            with pytest.raises(RuntimeError) as err:
                call()
            msg = str(err.value)
            assert "sigma_0 leaves the double range on the psi_1 hop route" in msg
            assert named + "0)" in msg
        if alpha < 1.0:
            with pytest.raises(RuntimeError) as err:
                stokes_multiplier(params, 1)
            msg = str(err.value)
            assert "sigma_1 leaves the double range on the T-Q route" in msg
            assert named + "1)" in msg
        else:
            assert 0.0 < abs(stokes_multiplier(params, 1)) < math.inf

    @pytest.mark.parametrize("alpha", [236.0, 300.0])
    def test_seed_radius_overflow_names_the_parameters(self, alpha):
        # Re R at the cap radius 20 leaves the double range from alpha = 236 on
        for call, named in ((lambda: r_zero(OscillatorParams(alpha, 2.0, 0.0)), "ell=0, E=2)"),
                            (lambda: eigenvalues(alpha, 2.0, 1), "ell=2, E=")):
            with pytest.raises(RuntimeError) as err:
                call()
            msg = str(err.value)
            assert "seed radius: Re R overflows at the cap radius 20" in msg
            assert f"(alpha={alpha:g}, {named}" in msg
        # at ell = 0 the phase quadrature passes and the seed radius stops the scan
        with pytest.raises(RuntimeError, match=f"seed radius: .*alpha={alpha:g}, ell=0"):
            eigenvalues(alpha, 0.0, 1)

    def test_tail_volterra_overflow_names_the_parameters(self):
        # just below the seed-radius guard x^(2 alpha) overflows on the tail
        # grid of the refined seed, and the sweep's z is not finite; the seed
        # is at the rotated energy omega^2 E, and the caller's E is named too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError) as err:
                r_zero(OscillatorParams(235.0, 2.0, 0.0))
        msg = str(err.value)
        assert msg.startswith("sector seed tail Volterra at x_max=")
        assert "Volterra sweep on 801 nodes gave a non-finite z" in msg
        assert "(alpha=235, ell=0, E=1.99929+0.053241j)" in msg
        assert msg.endswith("the energy omega^2 E of Q~_1 at (alpha=235, ell=0, E=2)")

    def test_unconverged_series_names_the_radius(self, monkeypatch):
        series = spectral._frobenius_scaled

        def unconverged(table, energy, p):
            val, dval, _, loglead = series(table, energy, p)
            return val, dval, 1.0 + abs(val), loglead
        monkeypatch.setattr(spectral, "_frobenius_scaled", unconverged)
        params = OscillatorParams(1.0, 9.0, 0.5)
        x0 = min(0.05, 0.05 * _geometry(params).x_minus)
        with pytest.raises(RuntimeError) as err:
            spectral_determinant(params)
        msg = str(err.value)
        assert f"series seed not converged at the seeding radius x0={x0:.6g}" in msg
        assert "alpha=1, ell=0.5" in msg


class TestWellGeometry:
    @pytest.mark.parametrize("call", [
        spectral_determinant,
        lambda params: sector_wronskian(params, 0, 1),
        wkb_phase,
        r_zero,
    ])
    def test_complex_energy_is_refused(self, call):
        with pytest.raises(ValueError, match="turning point location expects "
                                             r"\(near\) real energy"):
            call(OscillatorParams(1.0, 3.0 + 1.0j, 0.0))

    def test_one_well_search_per_determinant(self, monkeypatch):
        calls = {"_real_pair": 0, "turning_points": 0}
        for name in calls:
            original = getattr(model, name)

            def counted(params, name=name, original=original):
                calls[name] += 1
                return original(params)
            # patch every module that bound the function by name
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("anharmonic")
                        and getattr(mod, name, None) is original):
                    monkeypatch.setattr(mod, name, counted)
        spectral_determinant(OscillatorParams(2.0, 7.4, 0.0))
        assert calls == {"_real_pair": 1, "turning_points": 0}
        # sigma_0 takes its psi_1 hop on the radii of the same search
        stokes_multiplier(OscillatorParams(2.0, 7.4, 0.0), 0)
        assert calls == {"_real_pair": 2, "turning_points": 0}


class TestZeroEnergy:
    """At E = 0 the equation is Bessel's: closed forms at every alpha and ell.

    With nu = (2 ell + 1)/(2 alpha + 2) and z = x^(alpha+1)/(alpha+1),
    chi = Gamma(nu+1) (2 alpha + 2)^nu sqrt(x) I_nu(z) and psi_0 =
    sqrt(2/(pi (alpha+1))) sqrt(x) K_nu(z).  The bounds are the refined
    seed's trapezoid Volterra error (5.1e-7 in Q(0) at alpha = 0.21) and,
    for sigma_0, the O(E) slope at E = 1e-6.
    """

    @pytest.mark.parametrize("alpha", [0.21, 1.0 / 3.0, 0.6, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("ell", [0.0, 3.0, 30.0, 300.0])
    def test_determinant_at_zero_energy(self, alpha, ell):
        # Q(0) = -sqrt(2 (alpha+1)/pi) Gamma(nu+1) (2 alpha + 2)^nu, compared
        # in log scale: at ell = 300 it is far outside the double range
        nu = (2.0 * ell + 1.0) / (2.0 * alpha + 2.0)
        want = (0.5 * math.log(2.0 * (alpha + 1.0) / math.pi) + math.lgamma(nu + 1.0)
                + nu * math.log(2.0 * alpha + 2.0))
        d = spectral_determinant(OscillatorParams(alpha, 0.0, ell))
        assert abs(d.log_abs - want) <= 1e-6
        assert d.mantissa.real < 0.0 and abs(d.mantissa.imag) <= 1e-12 * abs(d.mantissa)

    # at (0.21, 3) and (0.6, 0.3) the psi_1 hop raises its cancellation error
    @pytest.mark.parametrize("alpha,ell", [
        (alpha, ell) for alpha in (0.21, 0.34, 0.6, 1.0, 1.5, 2.0, 3.0) for ell in (0.0, 0.3, 3.0)
        if (alpha, ell) not in ((0.21, 3.0), (0.6, 0.3))])
    def test_stokes_multiplier_tends_to_its_zero_energy_limit(self, alpha, ell):
        # sigma_0(E) -> -2i cos((ell + 1/2) pi/(alpha + 1)) as E -> 0, from T-Q
        # with every Q~_s equal to Q(0)
        got = stokes_multiplier(OscillatorParams(alpha, 1e-6, ell), 0)
        assert abs(got + 2j * math.cos((ell + 0.5) * math.pi / (alpha + 1.0))) <= 1e-5

    @pytest.mark.parametrize("alpha", [0.21, 1.0 / 3.0, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("ell", [0.0, 3.0, 30.0])
    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_sector_seeds_are_the_bessel_solutions(self, alpha, ell, k):
        # psi_k(x) = omega^(-k alpha/2) psi_0(y), y = omega^-k x real on the
        # sector ray: the refined seed at x_max, split as A P_k + B G_k with
        # P_k the K_nu solution and G_k the I_nu one, is P_k up to the seed error
        mp = pytest.importorskip("mpmath")
        params = OscillatorParams(alpha, 0.0, ell)
        x_max = _geometry(params).x_max
        seed = sibuya_seed(params, k, x_max)
        nu = (2.0 * ell + 1.0) / (2.0 * alpha + 2.0)
        with mp.workdps(30):
            omega_k = mp.expj(-k * math.pi / (alpha + 1.0))  # omega^-k
            pref = mp.expj(-k * alpha * math.pi / (2.0 * (alpha + 1.0))) * mp.sqrt(
                2 / (mp.pi * (alpha + 1)))
            y = mp.mpf(x_max)
            z = y ** (alpha + 1) / (alpha + 1)

            def solution(bessel, dbessel):  # (value, d/dx) of pref sqrt(y) bessel(z)
                value = pref * mp.sqrt(y) * bessel(nu, z)
                dy = pref * (bessel(nu, z) / (2 * mp.sqrt(y)) + mp.sqrt(y) * y ** alpha
                             * dbessel(nu, z))
                return value, dy * omega_k
            p, dp = solution(mp.besselk, lambda n, t: -(mp.besselk(n - 1, t)
                                                          + mp.besselk(n + 1, t)) / 2)
            g, dg = solution(mp.besseli, lambda n, t: (mp.besseli(n - 1, t)
                                                         + mp.besseli(n + 1, t)) / 2)
            scale = mp.exp(seed.logscale)
            u, du = mp.mpc(seed.value) * scale, mp.mpc(seed.derivative) * scale
            wr = p * dg - dp * g
            a = (u * dg - du * g) / wr
            b = (p * du - dp * u) / wr
            assert abs(a - 1) <= 1e-6
            assert abs(b * g / (a * p)) <= 2e-6

    @pytest.mark.parametrize("alpha,ell", [(2.0, 0.5), (1.5, 0.0), (3.0, 2.0)])
    def test_energy_derivative_is_the_bessel_product_integral(self, alpha, ell):
        # dQ/dE(0) = int_0^inf chi psi_0 dx, finite for alpha > 1
        mp = pytest.importorskip("mpmath")
        nu = (2.0 * ell + 1.0) / (2.0 * alpha + 2.0)

        def integrand(x):
            z = x ** (alpha + 1) / (alpha + 1)
            return x * mp.besseli(nu, z) * mp.besselk(nu, z)
        want = float(mp.gamma(nu + 1) * (2 * alpha + 2) ** nu * mp.sqrt(2 / (mp.pi * (alpha + 1)))
                     * mp.quad(integrand, [0, 1, mp.inf]))
        h = 1e-3
        got = (spectral_determinant(OscillatorParams(alpha, h, ell)).value
               - spectral_determinant(OscillatorParams(alpha, -h, ell)).value).real / (2.0 * h)
        assert abs(got / want - 1.0) <= 1e-6
