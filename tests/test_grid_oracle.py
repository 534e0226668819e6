"""Grid oracle tests: spectra, the grid and spectral alpha routes, refinement."""

import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import oracles

from wellpol.conventional_sum import infinite_well_alpha
from wellpol.dalgarno_lewis import alpha_exact_prime
from wellpol import grid_oracle
from wellpol.errors import DomainError, NumericalError
from wellpol.grid_oracle import GridOracleConfig, OracleResult, oracle_study
from wellpol.limits import extrapolate
from wellpol.well_spectrum import ground_state_from_R, ground_state_from_gamma

R_REF = 3.617018  # gamma0 = 0.39 pi row
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class GridBuilt(Exception):
    """Raised by ``stop_at_grid``: the study passed every refusal and went to build a grid."""


def stop_at_grid(box_half_width, well_R, m):
    """A stand-in ``_grid`` that builds nothing and hands over the base grid's sizes."""
    raise GridBuilt(box_half_width, m)


def no_grid(*args):
    raise AssertionError("a grid was built")


class Plan(NamedTuple):
    """What ``OracleResult(well_R, num_points)`` derives before its first grid."""

    well_R: object
    box_half_width: int
    ground: object
    m: int  # the base grid's nodes per unit length


def planned(well_R, num_points=2000):
    """The ``Plan`` of a study, read off its first ``_grid`` call, which is stopped."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid_oracle, "_grid", stop_at_grid)
        with pytest.raises(GridBuilt) as info:
            OracleResult(well_R, num_points)
    ground = None if well_R is None else ground_state_from_R(well_R)
    box_half_width, m = info.value.args
    return Plan(well_R, box_half_width, ground, m)


def level_grid(plan, level=0):
    """Abscissae, potential, diagonal and off-diagonal of a level's nodes x' >= 0."""
    return grid_oracle._grid(plan.box_half_width, plan.well_R, plan.m * 2**level)


def mirror(half, sign=1.0):
    """The whole-box array of one given on the nodes x' >= 0: its mirror image, then itself."""
    return np.concatenate((sign * half[:0:-1], half))


def full_grid(plan, level=0):
    """Abscissae, well-bottom potential, diagonal and off-diagonal of the whole box [-L, L]."""
    x, v, diag, off = level_grid(plan, level)
    return mirror(x, -1.0), mirror(v), mirror(diag), np.concatenate((off, off))


def even_block(diag, off):
    """The symmetric even block of a half grid: psi(0) scaled by 1/sqrt(2)."""
    block_off = off.copy()
    block_off[0] *= math.sqrt(2.0)
    return diag, block_off


def lowest_pairs(diag, off, count):
    """The ``count`` lowest eigenvalues and unit eigenvectors of the tridiagonal (diag, off).

    The full-spectrum reference, by scipy's bisection and inverse iteration;
    the package ships no spectrum solver.  Each column is signed so that its
    largest-magnitude component is positive, as the oracle's ground state is.
    """
    energies, states = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    for j in range(count):
        col = states[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            states[:, j] = -col
    return energies, states


def grid_start(plan, level=0):
    """A grid of the study on its nodes x' >= 0 and the grid's own ground state there."""
    x, v, diag, off = level_grid(plan, level)
    return (x, v, diag, off), grid_oracle._grid_ground(plan.ground, x, plan.m * 2**level)[1]


def even_ground(plan, level=0):
    """The grid of ``grid_start``, its ground energy above the well bottom and unit ground state.

    Taken as the study takes them: the energy of the grid's phases, and the
    state that ``_even_ground`` certifies at that energy less R^2.
    """
    x, v, diag, off = level_grid(plan, level)
    bottom, start = grid_oracle._grid_ground(plan.ground, x, plan.m * 2**level)
    psi0 = grid_oracle._even_ground(diag, off, bottom - (plan.well_R or 0.0) ** 2, start)
    return (x, v, diag, off), bottom, psi0


def whole_quotient(off, onsite, vec):
    """w.Tw / w.w of the whole-box well-bottom matrix T = (2 m^2 + onsite, off = -m^2).

    In the edge-difference form m^2 [sum (w_{k+1} - w_k)^2 + w_0^2 + w_{n-1}^2]
    + sum onsite_k w_k^2, the last two squares being the box's hard walls:
    no term of size 4 m^2 or R^2 cancels.
    """
    step = vec[1:] - vec[:-1]
    kinetic = step @ step + vec[0] ** 2 + vec[-1] ** 2
    return float((-off[0] * kinetic + vec @ (onsite * vec)) / (vec @ vec))


# gamma0 = 0.05 pi ... 0.49 pi, the well range of the oracle's accuracy test.
WELL_RANGE = [ground_state_from_gamma((0.05 + 0.02 * k) * math.pi) for k in range(23)]


def study_points(well_R):
    """2000 points, but from R = 1e3 up the coarsest grid whose h * beta0 meets the bound.

    That is 4 (m - 1) points on the box of 2.
    """
    if well_R is None or well_R < 1e3:
        return 2000
    m = math.ceil(ground_state_from_R(well_R).beta0 / grid_oracle._MAX_H_BETA0)
    return 4 * (m - 1)


class TestConfig:
    """What a study derives from its well and point count, and what it refuses."""

    def test_defaults_resolve_box(self):
        result = OracleResult(R_REF, num_points=800)
        assert result.box_half_width == result.diagnostics["grid_box_half_width"] == 13
        assert result.ground == ground_state_from_R(R_REF)
        # ceil(1 + 40/beta0) with no floor: beta0 = 49 needs only 2
        assert planned(49.008061).box_half_width == 2

    def test_hard_wall_forces_unit_box(self):
        result = OracleResult(None, num_points=600)
        assert result.box_half_width == 1
        assert result.ground is None

    def test_study_solves_bound_state_once(self, monkeypatch):
        # The study resolves its box from one bound-state solve; the grids
        # of every route and refinement level reuse it.
        calls = []
        solve = grid_oracle.ground_state_from_R

        def counting(R):
            calls.append(R)
            return solve(R)

        monkeypatch.setattr(grid_oracle, "ground_state_from_R", counting)
        OracleResult(R_REF, num_points=600, levels=2)
        assert calls == [R_REF]

    def test_study_makes_one_eigensolve_per_level(self, monkeypatch):
        # One even block per refinement level, checked and certified by
        # _lowest_vector: the module has no eigensolver to call, and the
        # spectral solve needs no grid ground state.
        ground_states = []
        lowest = grid_oracle._lowest_vector

        def counting_lowest(*args, **kwargs):
            ground_states.append(args)
            return lowest(*args, **kwargs)

        monkeypatch.setattr(grid_oracle, "_lowest_vector", counting_lowest)
        OracleResult(R_REF, num_points=600, levels=2)
        assert not hasattr(grid_oracle, "eigh_tridiagonal")
        assert not hasattr(grid_oracle, "dgtsv")
        assert not hasattr(grid_oracle, "dpttrf")
        assert len(ground_states) == 3

    @pytest.mark.parametrize(
        "well_R",
        [None, R_REF, ground_state_from_gamma(0.2 * math.pi).R, 49.008061, 1e3, 1e4]
        + [s.R for s in WELL_RANGE],
    )
    def test_each_ground_state_takes_few_solves(self, monkeypatch, well_R):
        # Every inverse iteration ends in exactly one factorisation with no
        # right-hand side.  Started at the grid's own state, an even block
        # makes no solve before it.  Only the dptsv calls inside
        # _lowest_vector count, not the Dalgarno-Lewis solve's.
        calls, sizes, inside = [], [], []
        lowest, solve = grid_oracle._lowest_vector, grid_oracle.dptsv

        def counting_lowest(diag, *args):
            sizes.append(diag.size)
            calls.append([])
            inside.append(True)
            try:
                return lowest(diag, *args)
            finally:
                inside.pop()

        def counting_solve(d, e, b, **kwargs):
            if inside:
                calls[-1].append(b.shape[1] if b.ndim == 2 else 1)
            return solve(d, e, b, **kwargs)

        monkeypatch.setattr(grid_oracle, "_lowest_vector", counting_lowest)
        monkeypatch.setattr(grid_oracle, "dptsv", counting_solve)
        result = OracleResult(well_R, study_points(well_R), levels=2)
        blocks = [n // 2 + 1 for n in result.diagnostics["refine_grid_sizes"]]
        assert sizes == blocks
        assert calls == [[0]] * 3

    def test_study_builds_each_grid_once(self, monkeypatch):
        # levels + 1 grids, one ground state solved on each.
        grids, ground_states = [], []
        build = grid_oracle._grid
        lowest = grid_oracle._lowest_vector

        def counting_grid(*args):
            grids.append(args)
            return build(*args)

        def counting_lowest(*args, **kwargs):
            ground_states.append(args)
            return lowest(*args, **kwargs)

        monkeypatch.setattr(grid_oracle, "_grid", counting_grid)
        monkeypatch.setattr(grid_oracle, "_lowest_vector", counting_lowest)
        OracleResult(R_REF, num_points=600, levels=2)
        assert len(grids) == 3
        assert len(set(grids)) == 3
        assert len(ground_states) == 3

    def test_study_reports_every_residual_it_computes(self, monkeypatch):
        # Outside _lowest_vector, one Dalgarno-Lewis solve per level and
        # one residual, the base grid's, the only one the study reports.
        outside = {"_tridiag_matvec": 0, "dptsv": 0}
        inside = []
        lowest = grid_oracle._lowest_vector

        def counting_lowest(*args):
            inside.append(True)
            try:
                return lowest(*args)
            finally:
                inside.pop()

        def counting(name):
            original = getattr(grid_oracle, name)

            def counted(*args, **kwargs):
                if not inside:
                    outside[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in outside:
            monkeypatch.setattr(grid_oracle, name, counting(name))
        monkeypatch.setattr(grid_oracle, "_lowest_vector", counting_lowest)
        OracleResult(R_REF, num_points=600, levels=2)
        assert outside == {"_tridiag_matvec": 1, "dptsv": 3}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"well_R": R_REF, "num_points": 100},
            {"levels": 1},
            {"well_R": -1.0},
            {"well_R": 100.0},  # h * beta0 = 0.497 on the base grid
            {"well_R": 300.0},  # 1.5
            {"well_R": 1e5},
            {"well_R": 1e7},
            {"well_R": R_REF, "num_points": math.nan},
            {"well_R": R_REF, "num_points": math.inf},
            {"levels": math.nan},
            {"num_points": 2**22 + 1},  # the base grid alone past the node budget
            {"well_R": 0.0},
            {"well_R": math.nan},
            {"well_R": math.inf},
            {"well_R": 10**400},  # no float holds it: math.isfinite raised OverflowError
        ],
    )
    def test_rejects_invalid(self, monkeypatch, kwargs):
        # Cases without a well_R study the hard wall.
        monkeypatch.setattr(grid_oracle, "_grid", no_grid)
        with pytest.raises(DomainError):
            OracleResult(**{"well_R": None, "num_points": 800, **kwargs})

    def test_hard_wall_ignores_num_states(self):
        # The benchmark's shim checks the count it does not use.
        assert GridOracleConfig.hard_wall(num_states=50) == GridOracleConfig.hard_wall()
        with pytest.raises(DomainError, match="num_states must be an integer >= 50, got 10"):
            GridOracleConfig.hard_wall(num_states=10)

    @pytest.mark.parametrize(
        "well_R, h_beta0, needed, over",
        # The ids give well_R, h*beta0 to three digits and needed.
        [
            pytest.param(1e3, "1.996005526471852", 9996, "", id="1000.0-2-9996"),
            pytest.param(1e4, "19.960079594120987", 99996, "", id="10000.0-20-99996"),
            # Its base grid of 2999999 nodes is inside the budget, but its
            # finest level is not: the note once said that num_points meets
            # the bound, and the study then refused it.
            pytest.param(
                3e5, "598.8023952013726", 2999996,
                ", but its finest level's 11999999 nodes exceed the budget of 4194304: no "
                "grid within the budget resolves this well",
                id="300000.0-599-2999996",
            ),
            pytest.param(
                1e9, "1996007.9840319362", 9999999996,
                ", but its finest level's 39999999999 nodes exceed the budget of 4194304: no "
                "grid within the budget resolves this well",
                id="1000000000.0-2e+06-9999999996",
            ),
        ],
    )
    def test_refuses_grid_too_coarse_for_tail(self, monkeypatch, well_R, h_beta0, needed, over):
        # At the default 2000 points the box is 2 and h = 1/501; the message
        # names h * beta0 and the smallest num_points that meets the bound,
        # and says when that study's finest level is past the node budget.
        with monkeypatch.context() as patch, pytest.raises(DomainError) as info:
            patch.setattr(grid_oracle, "_grid", no_grid)
            OracleResult(well_R)
        assert str(info.value) == (
            f"h*beta0 = {h_beta0} on the base grid exceeds 0.4: the grid is too "
            f"coarse for the bound-state tail; num_points >= {needed} meets the bound{over}"
        )
        if needed > grid_oracle._MAX_GRID_NODES:
            with pytest.raises(DomainError, match="^num_points must be <= 4194304, got "):
                OracleResult(well_R, num_points=needed)
            return
        if over:
            finest = over.split("level's ")[1].split()[0]
            with monkeypatch.context() as patch, pytest.raises(
                    DomainError, match=f"^the finest grid would have {finest} nodes "):
                patch.setattr(grid_oracle, "_grid", no_grid)
                OracleResult(well_R, num_points=needed)
            return
        plan = planned(well_R, needed)
        assert plan.ground.beta0 / plan.m <= 0.4
        with pytest.raises(DomainError, match="h\\*beta0"):
            planned(well_R, needed - 1)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_refuses_unprintable_point_counts(self, sign):
        # Past Python's 4,300-digit limit on int-to-str, printing the count
        # raised ValueError; it is named by its sign and bit length instead.
        with pytest.raises(DomainError) as info:
            OracleResult(None, num_points=sign * 10**5000)
        bits = (10**5000).bit_length()
        sign_word = "positive" if sign > 0 else "negative"
        assert str(info.value).endswith(f"got a {sign_word} int of {bits} bits")
        assert len(str(info.value)) < 300

    def test_refusal_never_prints_the_bound(self):
        # One size below the deep well's bound, h*beta0 = 0.40016 once
        # printed to three digits as "0.4 ... exceeds 0.4".
        with pytest.raises(DomainError) as info:
            OracleResult(1e3, num_points=9992)
        printed = str(info.value).split("h*beta0 = ")[1].split(" ")[0]
        assert float(printed) > 0.4


class TestSpectrum:
    def test_ground_energy_matches_bound_state(self):
        # Stated check: request ~4000 points on the derived half-width-13 box.
        _, _, diag, off = full_grid(planned(R_REF, 4000))
        energies, _ = lowest_pairs(diag, off, 1)
        beta0 = ground_state_from_R(R_REF).beta0
        assert energies[0] == pytest.approx(-beta0**2, rel=1e-3)

    def test_hard_wall_quadratic_ladder(self):
        _, _, diag, off = full_grid(planned(None, 1000))
        energies, _ = lowest_pairs(diag, off, 7)
        base = math.pi**2 / 4.0
        for n in range(1, 8):
            assert energies[n - 1] == pytest.approx(n * n * base, rel=1e-4)

    @pytest.mark.parametrize("well_R", [None, 0.6, R_REF, 49.008061])
    def test_even_block_ground_pair_matches_full_grid(self, well_R):
        # The half grid's pair, mirrored, is the whole box's ground pair.
        plan = planned(well_R)
        (x, _, _, _), e0, psi0 = even_ground(plan)
        _, full_v, full_diag, full_off = full_grid(plan)
        _, vec = lowest_pairs(full_diag, full_off, 1)
        assert psi0.size == x.size == (full_diag.size + 1) // 2
        assert e0 == pytest.approx(whole_quotient(full_off, full_v, vec[:, 0]), rel=1e-15, abs=0.0)
        assert np.max(np.abs(mirror(psi0) - vec[:, 0])) <= 1e-12

    @pytest.mark.parametrize("well_R", [None, 0.6, R_REF, 49.008061])
    @pytest.mark.parametrize("level", [0, 2])
    def test_continuum_start_matches_two_branch_formula(self, well_R, level):
        # The start is the continuum formula at the grid's phases (u, nu) in
        # place of (gamma0, beta0).  Evaluated branch by branch on the nodes
        # x' >= 0, it equals both branches taken on the whole grid and
        # selected by |x'| <= 1; on the hard wall it is cos(pi x'/2) bit for bit.
        plan = planned(well_R)
        m = plan.m * 2**level
        x = level_grid(plan, level)[0]
        ax = np.abs(mirror(x, -1.0))
        if well_R is None:
            whole = np.cos(0.5 * math.pi * ax)
        else:
            u, nu = grid_oracle._grid_phases(plan.ground, m)
            tail = math.cos(u) * np.exp(-nu * np.maximum(ax - 1.0, 0.0))
            whole = np.where(ax <= 1.0, np.cos(u * ax), tail)
        _, start = grid_oracle._grid_ground(plan.ground, x, m)
        assert np.array_equal(start, whole[x.size - 1 :])
        assert np.array_equal(mirror(start), whole)
        assert np.all(start > 0.0)

    @pytest.mark.parametrize("well_R", [None, R_REF])
    def test_last_factorisation_certifies_even_ground(self, monkeypatch, well_R):
        # The last dptsv call factorises T - sigma with no right-hand side,
        # and the vector it certifies is the one returned: sigma lies below
        # T's lowest eigenvalue, the returned vector's own residual passes
        # the stop 4 eps 4 m^2, and its quotient rho exceeds sigma by at
        # most 1e3 eps 4 m^2 plus twice that residual.
        records = []
        lowest, solve = grid_oracle._lowest_vector, grid_oracle.dptsv

        def recording_lowest(diag, off, *args):
            records.append((diag, off, []))
            vec = lowest(diag, off, *args)
            records[-1] += (vec.copy(),)  # _even_ground rescales it in place
            return vec

        def recording_solve(d, e, b, **kwargs):
            records[-1][2].append((d.copy(), b))  # the factorisation overwrites d
            return solve(d, e, b, **kwargs)

        plan = planned(well_R)
        monkeypatch.setattr(grid_oracle, "_lowest_vector", recording_lowest)
        monkeypatch.setattr(grid_oracle, "dptsv", recording_solve)
        even_ground(plan)
        m = plan.m
        assert len(records) == 1
        for block_diag, block_off, solves, vec in records:
            shifted, last = solves[-1]
            assert last.shape == (vec.size, 0)
            sigma = float(np.median(block_diag - shifted))
            assert sigma < lowest_pairs(block_diag, block_off, 1)[0][0]
            bound = 4.0 * m * m
            t_vec = grid_oracle._tridiag_matvec(block_diag, block_off, vec)
            rho = float(vec @ t_vec)
            residual = float(np.linalg.norm(t_vec - rho * vec))
            assert residual <= 4.0 * grid_oracle._EPS * bound
            assert 0.0 < rho - sigma <= 1e3 * grid_oracle._EPS * bound + 2.0 * residual

    def test_excited_start_is_not_certified(self):
        # Given the even block's first excited pair, the residual passes, but
        # the factorisation below its energy fails, so the pair is refused
        # instead of returned as the ground state.
        _, _, diag, off = level_grid(planned(R_REF, 900))
        block_diag, block_off = even_block(diag, off)
        energies, vec = lowest_pairs(block_diag, block_off, 2)
        with pytest.raises(NumericalError, match="has a state more than"):
            grid_oracle._lowest_vector(block_diag, block_off, energies[1], vec[:, 1],
                                       -4.0 * off[0])

    def test_continuum_start_is_refused_not_iterated(self, monkeypatch):
        # The continuum gamma0 and beta0 in place of the grid's phases give a
        # start O(h^2) off the grid's own state, far above the stop: the study
        # refuses it, naming the residual, instead of iterating towards it.
        monkeypatch.setattr(grid_oracle, "_grid_phases",
                            lambda ground, m: (ground.gamma0, ground.beta0))
        stop = 4.0 * grid_oracle._EPS * 4.0 * planned(R_REF).m ** 2
        with pytest.raises(NumericalError, match="the start's residual") as info:
            OracleResult(R_REF, levels=2)
        residual, shown_stop, n = re.fullmatch(
            r"the start's residual (\S+) exceeds the stop (\S+) \(n=(\d+)\)", str(info.value)
        ).groups()
        assert float(residual) > 1e3 * stop
        assert float(shown_stop) == pytest.approx(stop, rel=1e-2)
        assert int(n) == 2000 // 2 + 1

    def test_parity_of_lowest_states(self):
        _, _, diag, off = full_grid(planned(R_REF, 900))
        _, states = lowest_pairs(diag, off, 2)
        ground, first = states[:, 0], states[:, 1]
        assert np.max(np.abs(ground - ground[::-1])) <= 1e-8
        assert np.max(np.abs(first + first[::-1])) <= 1e-8


def ulps_off(value: float, reference) -> float:
    return float(abs(mpmath.mpf(value) - reference)) / math.ulp(value)


class TestGridStart:
    @pytest.mark.parametrize(
        "state", WELL_RANGE + [ground_state_from_R(1e4)], ids=lambda s: f"R={s.R:.6g}"
    )
    def test_phases_match_high_precision_root(self, state):
        # At m = 1 and at the three levels of the study at 2000 points (at
        # the coarsest admissible grid for R = 1e4), (m theta, m mu) is the
        # 40-digit root of the grid's own rows within a few ulp.
        m0 = planned(state.R, study_points(state.R)).m
        for m in (1, m0, 2 * m0, 4 * m0):
            u, nu = grid_oracle._grid_phases(state, m)
            u_ref, nu_ref = oracles.grid_phases(state.R, m)
            assert ulps_off(u, u_ref) <= 4.0
            assert ulps_off(nu, nu_ref) <= 4.0

    @pytest.mark.parametrize("gamma_pi", [0.05, 0.2, 0.39, 0.49])
    def test_phases_reach_gamma0_and_beta0_at_order_two(self, gamma_pi):
        # The three-point stencil's error is O(h^2): each doubling of m
        # cuts m theta - gamma0 and m mu - beta0 by ~4 (measured 3.995-4.009).
        state = ground_state_from_gamma(gamma_pi * math.pi)
        m0 = planned(state.R).m
        phases = [grid_oracle._grid_phases(state, m0 * 2**j) for j in range(4)]
        for (u1, nu1), (u2, nu2) in zip(phases, phases[1:]):
            assert (u1 - state.gamma0) / (u2 - state.gamma0) == pytest.approx(4.0, abs=0.05)
            assert (nu1 - state.beta0) / (nu2 - state.beta0) == pytest.approx(4.0, abs=0.05)

    @pytest.mark.parametrize(
        "well_R, levels",
        [(None, 3), (R_REF, 3), (ground_state_from_gamma(0.2 * math.pi).R, 3), (0.01, 2)],
        ids=["hard-wall", "R_REF", "0.2pi", "R=0.01"],
    )
    def test_energy_within_four_ulp_of_grid_eigenvalue(self, well_R, levels):
        # The energy above the well bottom is 4 m^2 sin^2(u/2m) at the grid's
        # phase u: on each level within 4 ulp of the eigenvalue of the grid's
        # rows at the 40-digit phase (pi/2 on the hard wall).  On R = 0.01's
        # first two levels (4e5 and 8e5 nodes x' >= 0) the Rayleigh quotient
        # of the certified state is 12 and 20 ulp off it (measured).
        plan = planned(well_R)
        for level in range(levels):
            m = plan.m * 2**level
            bottom, _ = grid_oracle._grid_ground(plan.ground, level_grid(plan, level)[0], m)
            with mpmath.workdps(40):
                u = mpmath.pi / 2 if well_R is None else oracles.grid_phases(well_R, m)[0]
                exact = 4 * m * m * mpmath.sin(u / (2 * m)) ** 2
            assert ulps_off(bottom, exact) <= 4.0

    @pytest.mark.parametrize(
        "state",
        WELL_RANGE + [None, ground_state_from_R(1e3), ground_state_from_R(1e4)],
        ids=lambda s: "hard-wall" if s is None else f"R={s.R:.6g}",
    )
    def test_start_passes_the_inverse_iteration_stop(self, state):
        # On the even block of every level, the start s already has
        # |T s - rho s| <= 4 eps 4 m^2 |s|, the stop of _lowest_vector, which
        # refuses a start that misses it.  R = 1e3 and 1e4 are on their
        # coarsest admitted grids, h beta0 up to the bound 0.4.
        well_R = None if state is None else state.R
        plan = planned(well_R, study_points(well_R))
        for level in range(3):
            (_, _, diag, off), start = grid_start(plan, level)
            block_diag, block_off = even_block(diag, off)
            s = start.copy()
            s[1:] *= math.sqrt(2.0)
            ts = grid_oracle._tridiag_matvec(block_diag, block_off, s)
            rho = (s @ ts) / (s @ s)
            m = plan.m * 2**level
            bound = 4.0 * grid_oracle._EPS * 4.0 * m * m * np.linalg.norm(s)
            assert np.linalg.norm(ts - rho * s) <= bound

    @pytest.mark.parametrize(
        "state",
        [None] + WELL_RANGE + [ground_state_from_R(1e3), ground_state_from_R(1e4)],
        ids=lambda s: "hard-wall" if s is None else f"R={s.R:.6g}",
    )
    def test_grid_norm_bound(self, state):
        # The stop and the shift's floor take |T|_2 <= 4 m^2 from the grid's
        # construction: on every level R^2 < 4 m^2, and the bound holds for
        # the largest |eigenvalue| of the whole grid and of the
        # sqrt(2)-scaled even block.  psi0 is positive up to the well edge
        # and nowhere negative (on the deep wells the tail e^-beta0
        # underflows to 0), so no sign convention is needed.  R = 1e3 and
        # 1e4 are on their coarsest admitted grids (9996 and 99999 points).
        if state is None:
            plan = planned(None)
        else:
            plan = planned(state.R, {1e3: 9996, 1e4: 99999}.get(state.R, 2000))
        for level in range(3):  # levels=2
            m = plan.m * 2**level
            assert (plan.well_R or 0.0) ** 2 < 4 * m * m
            (_, _, diag, off), _, psi0 = even_ground(plan, level)
            _, _, full_diag, full_off = full_grid(plan, level)
            bound = 4.0 * m * m
            for d, e in ((full_diag, full_off), even_block(diag, off)):
                # Sturm counts by bisection: no eigenvalue beyond +-bound.
                for outside in ((-math.inf, -bound), (bound, math.inf)):
                    assert eigh_tridiagonal(
                        d, e, eigvals_only=True, select="v", select_range=outside
                    ).size == 0
            assert np.all(psi0[: m + 1] > 0.0)
            assert np.all(psi0 >= 0.0)


def exact_quotient(off, onsite, vec) -> Fraction:
    """w.Tw / w.w of the well-bottom matrix T, diagonal 2 m^2 + onsite, exactly.

    Every double is an integer multiple of 2**-1074, so the sums run over
    Python integers in that unit, a rational only at the end.
    """
    unit = 2**1074
    e, u, w = (
        [p * (unit // q) for p, q in map(float.as_integer_ratio, a.tolist())]
        for a in (off, onsite, vec)
    )
    quad = sum((b - 2 * e[0]) * c * c for b, c in zip(u, w))
    quad += 2 * sum(a * b * c for a, b, c in zip(e, w, w[1:]))
    return Fraction(quad, sum(c * c for c in w) * unit)


class TestRayleighQuotient:
    @pytest.mark.parametrize("well_R", [None, R_REF, 49.008061])
    @pytest.mark.parametrize("case", ["base", "finest"])
    def test_within_four_ulp_of_exact_quotient(self, well_R, case):
        # The edge-difference form from the well bottom cancels no term of
        # size 4 m^2 or R^2, so the ground energy is as good as the stored
        # matrix and vector allow.  The even block's energy, taken on the
        # nodes x' >= 0, is checked against the exact quotient of the whole
        # box's mirrored vector.
        plan = planned(well_R)
        level = 2 if case == "finest" else 0  # levels=2
        _, energy, psi0 = even_ground(plan, level)
        _, full_v, _, full_off = full_grid(plan, level)
        vec = mirror(psi0)
        exact = exact_quotient(full_off, full_v, vec)
        assert abs(Fraction(energy) - exact) <= 4 * Fraction(math.ulp(float(exact)))

    def test_diagonal_is_potential_below_the_bottom(self):
        # diag = 2 m^2 + (v - R^2) is bit for bit the stencil plus V', and the
        # half grid mirrors into the whole box's nodes k/m, |k| < L m.
        plan = planned(R_REF)
        m, L = plan.m, plan.box_half_width
        x, v, diag, off = full_grid(plan)
        assert np.array_equal(x, np.arange(1 - L * m, L * m, dtype=float) / m)
        r_sq = R_REF**2
        inside = np.where(np.abs(x) < 1.0, -r_sq, 0.0)
        inside[np.abs(np.abs(x) - 1.0) < 0.5 / m] = -0.5 * r_sq
        assert np.array_equal(diag, 2.0 * m * m + inside)
        assert np.array_equal(off, np.full(x.size - 1, -float(m * m)))
        assert set(v.tolist()) == {0.0, 0.5 * r_sq, r_sq}


class TestAlphaSum:
    @pytest.fixture(scope="class")
    def every_state(self):
        """The solve result and each grid state's share of the spectral sum."""
        result = OracleResult(R_REF, num_points=900)
        size = result.diagnostics["grid_num_points_actual"]
        x, _, diag, off = full_grid(planned(R_REF, 900))
        energies, states = lowest_pairs(diag, off, x.size)
        assert energies.size == size
        ground = states[:, 0]
        elements = states[:, 1:].T @ (x * ground)
        gaps = energies[1:] - energies[0]
        return result, elements, 4.0 * elements**2 / gaps

    def test_solve_equals_sum_over_every_grid_state(self, every_state):
        result, _, contributions = every_state
        reference = float(np.sum(contributions))
        assert result.alpha_sum == pytest.approx(reference, rel=1e-12)

    def test_forbidden_states_do_not_contribute(self, every_state):
        # states alternate parity, so the even excited states are
        # dipole-forbidden from the even ground state
        _, elements, _ = every_state
        assert np.max(np.abs(elements[1::2])) <= 1e-10

    def test_tail_contribution_is_negligible(self, every_state):
        # the top ten grid states carry nothing the solve could depend on
        result, _, contributions = every_state
        assert float(np.sum(contributions[-10:])) < 1e-10 * result.alpha_sum

    @pytest.mark.parametrize(
        "well_R", [None, R_REF, 1.0, 49.008061, 1e3] + [s.R for s in WELL_RANGE]
    )
    def test_every_level_solve_is_backward_stable(self, well_R):
        # The study reports only the base grid's residual, so each level's
        # is checked here: |(T - E0) phi - b| <= 4 eps |T - E0| |phi| in the
        # infinity norm (worst measured: 0.23 of the bound, at gamma0 =
        # 0.41 pi on the finest grid).  The solve's own residual is scaled
        # by the grid's bound 4 m^2 + |E0| on |T - E0|, so it is rescaled
        # here by the matrix's own row sum.
        plan = planned(well_R, study_points(well_R))
        for level in range(3):  # levels=2
            (x, _, diag, off), bottom, psi0 = even_ground(plan, level)
            e0 = bottom - (well_R or 0.0) ** 2
            _, solve_residual = grid_oracle._dalgarno_lewis(x, diag, off, e0, psi0)
            d, e = diag[1:] - e0, off[1:]  # the nodes x' > 0
            row = np.abs(d)
            row[:-1] += np.abs(e)
            row[1:] += np.abs(e)
            bound = -4.0 * off[0] + abs(e0)
            assert solve_residual() <= 4.0 * grid_oracle._EPS * np.max(row) / bound

    @pytest.mark.parametrize(
        "well_R, num_points",
        [(None, 2000), (R_REF, 2000), (1.0, 2000), (49.008061, 2000), (1e3, 9996),
         (1e4, 99999)],
    )
    def test_reported_solve_residual_is_a_backward_error(self, well_R, num_points):
        # |(T - E0) phi - b| / ((4 m^2 + |E0|) |phi|): a backward-stable solve
        # reads a few eps on every grid, deep wells and fine grids included
        # (measured 0.34-0.67 eps here).
        residual = OracleResult(well_R, num_points).diagnostics["sum_solve_residual"]
        assert 0.0 < residual <= 4.0 * grid_oracle._EPS

    def test_shift_above_odd_states_raises(self):
        # H - E0 must be positive definite on the odd half-grid; an energy
        # between its first two states breaks the L D L^T solve.
        (x, _, diag, off), start = grid_start(planned(R_REF, 900))
        odd, _ = lowest_pairs(diag[1:], off[1:], 2)
        with pytest.raises(NumericalError, match="not positive definite"):
            grid_oracle._dalgarno_lewis(x, diag, off, 0.5 * (odd[0] + odd[1]), start)

    def test_hard_wall_matches_conventional_sum(self):
        result = OracleResult(None, num_points=1000)
        reference = infinite_well_alpha(50)
        assert result.alpha_sum == pytest.approx(reference, rel=2e-3)

    def test_reference_row_compared_to_published_value(self):
        # The published closed form at R = 9.037118 is 0.106382; the oracle
        # is exact, so the measured deviation (~1.5%) must stay inside 5%.
        result = OracleResult(9.037118, num_points=900)
        assert abs(result.alpha_sum - 0.106382) / 0.106382 < 0.05


HARD_WALL_ALPHA = 20.0 / math.pi**4 - 4.0 / (3.0 * math.pi**2)


def quadrature_tables(hard_wall):
    """The spectral solve's unprojected matrices and edge rows, by Gauss quadrature.

    Per parity: the inner and outer kinetic and mass matrices of
    q_a = sqrt(2a + 1) P_a on [0, 1] and l_j = sqrt(2) e^-t L_j(2t) at s = 1,
    and the row of values at x' = 1; then the odd-by-even dipole parts.  Built
    from numpy.polynomial, which the package does not use.
    """
    n = grid_oracle._SPECTRAL_TERMS
    outer = 0 if hard_wall else n
    size = n + outer
    x, wx = np.polynomial.legendre.leggauss(40)
    x, wx = 0.5 * (x + 1.0), 0.5 * wx  # on [0, 1]
    tau, wt = np.polynomial.laguerre.laggauss(40)  # int e^-tau f = int 2 e^-2t f(2t) dt

    def legendre(a, der=0):
        coef = np.polynomial.legendre.legder(np.eye(2 * n)[a], der)
        return math.sqrt(2 * a + 1) * np.polynomial.legendre.legval(x, coef)

    # l_j and dl_j/dt without their common factor sqrt(2) e^-t.
    lag = [np.polynomial.laguerre.lagval(tau, np.eye(n)[k]) for k in range(outer)]
    dlag = [-lag[k] + 2.0 * np.polynomial.laguerre.lagval(
        tau, np.polynomial.laguerre.lagder(np.eye(n)[k])) for k in range(outer)]

    def gram(f, g, weight=1.0, region="in"):
        out = np.zeros((size, size))
        if region == "in":
            out[:n, :n] = [[wx @ (weight * a * b) for b in g] for a in f]
        else:  # 2 int e^-2t f g dt = int e^-tau f g dtau
            out[n:, n:] = [[wt @ (weight * a * b) for b in g] for a in f]
        return out

    tables = []
    for parity in (0, 1):
        degrees = range(parity, parity + 2 * n, 2)
        q = [legendre(a) for a in degrees]
        dq = [legendre(a, 1) for a in degrees]
        edge = np.concatenate(([math.sqrt(2 * a + 1) for a in degrees], [-math.sqrt(2.0)] * outer))
        tables.append(((gram(dq, dq), gram(dlag, dlag, region="out"), gram(q, q),
                        gram(lag, lag, region="out")), edge, q))
    (even, even_edge, q_even), (odd, odd_edge, q_odd) = tables
    dipole = (gram(q_odd, q_even, x), gram(lag, lag, region="out"),
              gram(lag, lag, 0.5 * tau, region="out"))
    return even, even_edge, odd, odd_edge, dipole


class TestSpectral:
    """The second route: the Dalgarno-Lewis equation on the Legendre x Laguerre basis."""

    def test_hard_wall_matches_exact_polarizability(self):
        # 20/pi^4 - 4/(3 pi^2) exactly, measured 9e-15 off; E0 = pi^2/4 to 1.2e-14.
        alpha, energy = grid_oracle._spectral(None)
        assert alpha == pytest.approx(HARD_WALL_ALPHA, rel=1e-12, abs=0.0)
        assert energy == pytest.approx(math.pi**2 / 4.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "well_R, num_points, band",
        # Measured 1.3e-10, 7.0e-11, 2.9e-14 and 2.9e-13: the shallow wells'
        # M = M_in + M_out/beta0 mixes 1/beta0 with O(1) entries; the deep
        # wells' pencils, assembled from gamma0^2 and beta0^2, cancel no R^2.
        [(0.01, 2000, 1e-8), (0.009, 2000, 1e-8), (1e3, 9996, 1e-12), (1e4, 99999, 1e-11)],
    )
    def test_edges_of_the_oracle_domain(self, well_R, num_points, band):
        # The spectral solve builds no grid, so it is cheap at both ends of
        # the wells that a study at num_points admits.
        ground = planned(well_R, num_points).ground
        alpha, _ = grid_oracle._spectral(ground)
        assert alpha == pytest.approx(alpha_exact_prime(ground), rel=band, abs=0.0)

    def test_log_uniform_wells_match_exact_polarizability(self):
        # 400 wells log-uniform on [0.1, 1e5], most past the default grid's
        # reach, which the spectral solve of a ground state does not need.
        # Measured 2.2e-11 for alpha' and 1.2e-11 for E0; a threshold-frame
        # pencil, whose inside coefficient R^2 - beta0^2 cancels, misses
        # alpha' by 3.9e-7.
        rng = np.random.default_rng(11)
        for well_R in map(float, np.exp(rng.uniform(math.log(0.1), math.log(1e5), 400))):
            ground = ground_state_from_R(well_R)
            alpha, energy = grid_oracle._spectral(ground)
            assert alpha == pytest.approx(alpha_exact_prime(ground), rel=5e-11, abs=0.0)
            assert energy == pytest.approx(ground.energy_dimless, rel=5e-11, abs=0.0)

    @pytest.mark.parametrize("hard_wall", [False, True], ids=["well", "hard-wall"])
    def test_tables_match_quadrature(self, hard_wall):
        # The closed forms against Gauss quadrature of the basis functions.
        # Each table is Z^T A Z for an orthonormal basis Z of the continuous
        # coefficients; another such basis Y gives a similar matrix, so their
        # eigenvalues (singular values for the dipole) agree.
        blocks, dipole = grid_oracle._spectral_tables(hard_wall)
        even, even_edge, odd, odd_edge, parts = quadrature_tables(hard_wall)
        size = even_edge.size - 1  # 15 unknowns per parity, 7 on the hard wall
        assert size == (7 if hard_wall else 15)
        y_even, y_odd = (np.linalg.svd(edge[None, :])[2][1:].T for edge in (even_edge, odd_edge))
        tables = blocks.reshape(4, 2, size, size)
        for parity, (full, y) in enumerate(((even, y_even), (odd, y_odd))):
            for table, matrix in zip(tables[:, parity], full):
                reference = np.linalg.eigvalsh(y.T @ matrix @ y)
                assert np.allclose(np.linalg.eigvalsh(table), reference, rtol=1e-12, atol=1e-12)
        for table, matrix in zip(dipole.reshape(3, size, size), parts):
            reference = np.linalg.svd(y_odd.T @ matrix @ y_even, compute_uv=False)
            assert np.allclose(np.linalg.svd(table, compute_uv=False), reference,
                               rtol=1e-12, atol=1e-12)

    def test_tables_are_built_once_per_kind(self):
        grid_oracle._spectral_tables.cache_clear()
        for well_R in (None, R_REF, None, 0.6):
            OracleResult(well_R, num_points=600)
        info = grid_oracle._spectral_tables.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)

    def test_import_builds_no_table_and_a_study_loads_no_module(self):
        # In a fresh interpreter: the tables wait for the first study, and
        # the study imports nothing that importing the module did not.
        code = (
            "import sys\n"
            "import wellpol.grid_oracle as go\n"
            "assert go._spectral_tables.cache_info().misses == 0\n"
            "before = set(sys.modules)\n"
            "go.OracleResult(3.617018)\n"
            "go.OracleResult(None)\n"
            "assert go._spectral_tables.cache_info().currsize == 2\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC}, check=True)
        assert done.stdout == "[]\n"

    def test_study_reports_the_spectral_state(self):
        result = OracleResult(R_REF, num_points=600)
        energy = result.diagnostics["spectral_ground_energy"]
        assert energy == pytest.approx(-result.ground.beta0**2, rel=1e-11, abs=0.0)
        assert result.alpha_curvature == grid_oracle._spectral(result.ground)[0]

    def test_excited_state_is_refused(self, monkeypatch):
        # A shift halfway from E0 to the threshold lies above the ground
        # state, so inverse iteration there could land on another state: the
        # factorisation at the shift fails and refuses it.
        monkeypatch.setattr(grid_oracle, "_SPECTRAL_SHIFT", -0.5)
        with pytest.raises(NumericalError, match="a Galerkin state lies below the shift"):
            grid_oracle._spectral(ground_state_from_R(R_REF))

    def test_failed_factorisation_is_refused(self, monkeypatch):
        # The hard wall's ground state is within 1.2e-14 of pi^2/4, so a
        # shift 2 pi^2 * 1e-3 above it is caught.
        monkeypatch.setattr(grid_oracle, "_SPECTRAL_SHIFT", -1e-3)
        shift = math.pi**2 / 4.0 + 2e-3 * math.pi**2
        message = re.escape(f"below the shift {shift:.6e} of the spectral ground state: pivot ")
        with pytest.raises(NumericalError, match=message + r"\d+ is not positive"):
            grid_oracle._spectral(None)

    @pytest.mark.parametrize("well_R", [None, R_REF])
    def test_solves_are_the_only_lapack_calls(self, monkeypatch, well_R):
        # One Cholesky factorisation per parity: the even one at the shift
        # serves all _SPECTRAL_SOLVES triangular solves, the odd one the
        # solve for alpha'; no eigensolver, no general solve, no tridiagonal one.
        calls = []

        def counting(name):
            original = getattr(grid_oracle, name)

            def counted(a, *args, **kwargs):
                result = original(a, *args, **kwargs)
                calls.append((name, a.copy(), result[0]))
                return result

            return counted

        for name in ("dpotrf", "dpotrs", "dptsv"):
            monkeypatch.setattr(grid_oracle, name, counting(name))
        grid_oracle._spectral(None if well_R is None else ground_state_from_R(well_R))
        assert not any(hasattr(grid_oracle, name)
                       for name in ("dsygvx", "dgesv", "dsyev", "dposv"))
        solves = grid_oracle._SPECTRAL_SOLVES
        names = [name for name, _, _ in calls]
        assert names == ["dpotrf"] + ["dpotrs"] * solves + ["dpotrf", "dpotrs"]
        even_factor, odd_factor = calls[0][2], calls[solves + 1][2]
        assert all(np.array_equal(factor, even_factor) for _, factor, _ in calls[1:solves + 1])
        assert np.array_equal(calls[-1][1], odd_factor)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # A fresh interpreter per setting, never more threads than CPUs:
        # the hard wall and the 23 wells of the oracle's accuracy test.
        code = (
            "import math\n"
            "import wellpol.grid_oracle as go\n"
            "from wellpol.well_spectrum import ground_state_from_gamma\n"
            "for ground in [None] + [ground_state_from_gamma((0.05 + 0.02 * k) * math.pi)\n"
            "                        for k in range(23)]:\n"
            "    print(*(v.hex() for v in go._spectral(ground)))\n"
        )
        runs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads},
                           check=True, timeout=60).stdout
            for threads in ("1", str(min(2, os.cpu_count() or 1)))
        ]
        assert len(runs[0].splitlines()) == 24
        assert runs[0] == runs[1]


def probe_fields(plan):
    """Field sizes eps' of the tests' Stark reference, larger first.

    1e-3 and 5e-4, scaled by beta0^3 on wells with beta0 < 1: there alpha'
    grows as beta0^-4, and larger fields pull the ground state out of the well.
    """
    scale = 1.0 if plan.ground is None else min(1.0, plan.ground.beta0**3)
    return (scale * 1e-3, scale * 5e-4)


def field_energy(plan, size, sign=1.0):
    """Ground energy above the well bottom of the whole base grid at field sign * size, by bisection."""
    x, v, diag, off = full_grid(plan)
    tilt = sign * size * x
    _, vec = lowest_pairs(diag - tilt, off, 1)
    return whole_quotient(off, v - tilt, vec[:, 0])


def stark_quotients(plan):
    """q = -4 (E(eps') - E(0)) / eps'^2 at each probe size, = alpha' + O(eps'^2)."""
    zero = field_energy(plan, 0.0)
    return [-4.0 * (field_energy(plan, size) - zero) / size**2 for size in probe_fields(plan)]


class TestCurvature:
    """alpha' as the Stark curvature of the grid's ground energy, E(eps') = E0 - alpha' eps'^2 / 4.

    The package computes no field energy; the tests tilt the whole base grid
    and take its ground state by bisection, so the curvature checks the
    study's Dalgarno-Lewis solves from outside.
    """

    def test_two_routes_agree_at_matched_discretization(self):
        # The grid solve and the grid's own Stark curvature, taken to zero
        # field from the two probe sizes: measured 2.1e-8 apart.
        plan, result = planned(R_REF, 900), OracleResult(R_REF, num_points=900)
        fields = probe_fields(plan)
        curvature = extrapolate(stark_quotients(plan), ratio=(fields[1] / fields[0]) ** 2)
        gap = abs(result.alpha_sum - curvature)
        assert gap / result.alpha_sum < 1e-6

    def test_zero_field_row_reproduces_ground_energy(self):
        # E(0) = (4 E(eps'/2) - E(eps')) / 3 + O(eps'^4) from the field
        # energies alone is the study's ground energy.
        plan, result = planned(R_REF, 900), OracleResult(R_REF, num_points=900)
        large, small = (field_energy(plan, size) for size in probe_fields(plan))
        intercept = (4.0 * small - large) / 3.0 - R_REF**2
        assert intercept == pytest.approx(result.ground_energy_dimless, rel=1e-14, abs=0.0)

    def test_no_permanent_dipole(self):
        # The study takes the even ground state's response as the whole of
        # alpha', so E(eps') has no linear term: direct solves at +eps' and
        # -eps' check that symmetry instead of assuming it.
        plan = planned(R_REF, 900)
        eps = probe_fields(plan)[0]
        direct = field_energy(plan, eps, sign=-1.0)
        assert direct == pytest.approx(field_energy(plan, eps), rel=1e-14, abs=0.0)
        assert direct < field_energy(plan, 0.0)

    @pytest.mark.parametrize(
        "well_R", [None, ground_state_from_gamma(0.2 * math.pi).R, R_REF, 49.008061]
    )
    def test_field_energies_match_bisection_reference(self, well_R):
        # The study predicts E(eps') = E0 - alpha' eps'^2 / 4 + c eps'^4 on
        # its base grid.  At eps' and eps'/2, (16 E(eps'/2) - E(eps')) / 15
        # drops c and reads E0 - alpha' (eps'/2)^2 / 5: measured within
        # 4e-16 of the bisection energies.
        plan, result = planned(well_R), OracleResult(well_R)
        _, bottom, _ = even_ground(plan)
        large, small = probe_fields(plan)
        reference = (16.0 * field_energy(plan, small) - field_energy(plan, large)) / 15.0
        predicted = bottom - result.alpha_sum * small**2 / 5.0
        assert predicted == pytest.approx(reference, rel=1e-14, abs=0.0)

    def test_study_shares_zero_field_energy(self):
        # The spectral solve finds its own E_0', at which it solves for
        # alpha'; Romberg's table of the grid levels' ground energies
        # reaches it (measured 2.2e-11 apart).
        result = OracleResult(R_REF, num_points=600, levels=2)
        per_level = result.diagnostics["refine_ground_energy_per_level"]
        assert extrapolate(per_level, ratio=0.25) == pytest.approx(
            result.diagnostics["spectral_ground_energy"], rel=1e-10, abs=0.0
        )

    def test_quartic_share_is_tiny_for_reference_row(self):
        # The eps'^4 term's share of the probe fields' Stark shift, which
        # the extrapolation above removes: measured 1.3e-8.
        large, small = stark_quotients(planned(R_REF, 900))
        assert abs(large - small) / abs(small) <= 1e-6

    @pytest.mark.parametrize("well_R", [1e3, 1e4])
    def test_deep_wells_reach_route_agreement(self, well_R):
        # E' ~ -R^2 here, so a spectral solve at E' rather than in the
        # threshold frame would round E_0' = -beta0^2 against R^2; on the
        # coarsest grid whose h * beta0 meets the bound, both routes agree
        # (measured 4.7e-10 and 1.7e-7).
        result = OracleResult(well_R, study_points(well_R))
        beta0 = result.ground.beta0
        assert result.diagnostics["spectral_ground_energy"] == pytest.approx(
            -beta0**2, rel=1e-14, abs=0.0
        )
        assert result.route_gap <= grid_oracle._ROUTE_AGREEMENT
        assert result.richardson_alpha == pytest.approx(result.alpha_curvature, rel=1e-6, abs=0.0)


# well_R -> float.hex of (alpha_sum, alpha_curvature, richardson_alpha,
# ground_energy_dimless) of OracleResult at 600 points and levels=2, with
# every energy a quotient from the well bottom, alpha_curvature the spectral
# solve and richardson_alpha Romberg's h^2 and h^4 steps.  Each level is
# built on its nodes x' >= 0; each even block starts at the grid's own
# state, and each ground state is the vector whose residual passed the
# stop.
STUDY_HEX = {
    None: (
        "0x1.1fa4cf0381474p-4",
        "0x1.1fa3f860e5063p-4",
        "0x1.1fa3f860c47f1p-4",
        "0x1.3bd39da29fe9dp+1",
    ),
    R_REF: (
        "0x1.af48a9b39572ap-3",
        "0x1.afae858fd070fp-3",
        "0x1.afae858ff22f3p-3",
        "-0x1.7290f64de8508p+3",
    ),
    ground_state_from_gamma(0.2 * math.pi).R: (
        "0x1.0d83dc0d1f920p+5",
        "0x1.0b830f85389ecp+5",
        "0x1.0b830fa377c97p+5",
        "-0x1.a980539241944p-3",
    ),
}


# well_R -> float.hex of the diagnostics of the same studies: the base
# grid's solve residual (a backward error, scaled by 4 m^2 + |E0|), each
# level's alpha' and ground energy, the observed order and the spectral
# solve's ground energy.
DIAGNOSTIC_HEX = {
    None: {
        "sum_solve_residual": "0x1.834a2986b863ep-54",
        "refine_alpha_per_level": (
            "0x1.1fa4cf0381474p-4", "0x1.1fa42e097fd20p-4", "0x1.1fa405caf415ep-4",
        ),
        "refine_ground_energy_per_level": (
            "0x1.3bd39da29fe9dp+1", "0x1.3bd3c0dd92bacp+1", "0x1.3bd3c9ac4fecbp+1",
        ),
        "refine_observed_order": "0x1.ffff97a6d9efap+0",
        "spectral_ground_energy": "0x1.3bd3cc9be4600p+1",
    },
    R_REF: {
        "sum_solve_residual": "0x1.70f912dfa4db9p-54",
        "refine_alpha_per_level": (
            "0x1.af48a9b39572ap-3", "0x1.af950e13363f2p-3", "0x1.afa827a868e72p-3",
        ),
        "refine_ground_energy_per_level": (
            "-0x1.7290f64de8508p+3", "-0x1.7299e7b255057p+3", "-0x1.729c25e0b2c58p+3",
        ),
        "refine_observed_order": "0x1.fff6892a60f5bp+0",
        "spectral_ground_energy": "-0x1.729ce56f55f2ap+3",
    },
    ground_state_from_gamma(0.2 * math.pi).R: {
        "sum_solve_residual": "0x1.d70d196da498dp-54",
        "refine_alpha_per_level": (
            "0x1.0d83dc0d1f920p+5", "0x1.0c0298b4b3840p+5", "0x1.0ba2e74733d4ap+5",
        ),
        "refine_ground_energy_per_level": (
            "-0x1.a980539241944p-3", "-0x1.aa774a095c1fap-3", "-0x1.aab5096894fa8p-3",
        ),
        "refine_observed_order": "0x1.01329fd3590d5p+1",
        "spectral_ground_energy": "-0x1.aac99eb629738p-3",
    },
}


def pinned_study(well_R):
    return OracleResult(well_R, num_points=600, levels=2)


class TestPinnedStudy:
    @pytest.mark.parametrize("well_R", list(STUDY_HEX))
    def test_study_outputs_match_pinned_bits(self, well_R):
        result = pinned_study(well_R)
        got = (
            result.alpha_sum,
            result.alpha_curvature,
            result.richardson_alpha,
            result.ground_energy_dimless,
        )
        assert tuple(v.hex() for v in got) == STUDY_HEX[well_R]

    @pytest.mark.parametrize("well_R", list(DIAGNOSTIC_HEX))
    def test_study_diagnostics_match_pinned_bits(self, well_R):
        diagnostics = pinned_study(well_R).diagnostics
        got = {}
        for name in DIAGNOSTIC_HEX[well_R]:
            value = diagnostics[name]
            got[name] = tuple(v.hex() for v in value) if isinstance(value, tuple) else value.hex()
        assert got == DIAGNOSTIC_HEX[well_R]

    def test_large_study_bits_do_not_depend_on_the_blas_thread_count(self):
        # A fresh interpreter per setting, never more threads than CPUs: the
        # hard wall at 20,000 points has levels of 2e4 to 8e4 nodes, past
        # the size at which a threaded BLAS splits a dot product.
        code = (
            "import wellpol.grid_oracle as go\n"
            "r = go.OracleResult(None, num_points=20000)\n"
            "inputs = ('well_R', 'num_points', 'levels', 'box_half_width', 'ground')\n"
            "fields = [n for n in r._fields if n not in (*inputs, 'diagnostics')]\n"
            "for name, value in [*((n, getattr(r, n)) for n in fields), *r.diagnostics.items()]:\n"
            "    print(name, *(v.hex() if isinstance(v, float) else v\n"
            "                  for v in (value if isinstance(value, tuple) else (value,))))\n"
        )
        runs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads},
                           check=True, timeout=120).stdout
            for threads in ("1", str(min(2, os.cpu_count() or 1)))
        ]
        assert len(runs[0].splitlines()) == 15
        assert runs[0] == runs[1]


class TestRefine:
    def test_observed_order_near_two(self):
        result = OracleResult(R_REF, num_points=600, levels=2)
        assert 1.5 <= result.diagnostics["refine_observed_order"] <= 2.5

    def test_route_gap_alone_judges_romberg(self):
        # At the default 2000 points this well's levels agree to 3.6e-9, yet
        # their successive differences read as order 3.14, outside
        # [1.5, 2.5]: the h^2 coefficient passes near zero.  The order is
        # reported, not judged; the route gap (measured 4.5e-12) is the
        # study's verdict on Romberg's value, and nothing warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = OracleResult(2.244924107558891, levels=2)
        assert not 1.5 <= result.diagnostics["refine_observed_order"] <= 2.5
        assert result.route_gap <= 1e-10

    def test_hard_wall_extrapolation_is_stable(self):
        coarse = OracleResult(None, num_points=600, levels=2)
        finer = OracleResult(None, num_points=1200, levels=2)
        assert coarse.richardson_alpha == pytest.approx(
            finer.richardson_alpha, abs=1e-4 * finer.richardson_alpha
        )

    def test_deep_well_row_against_published_value(self):
        # R = 49.008061 is the one Table-1 row where the closed form is
        # essentially exact; the extrapolated oracle lands within 2%.
        result = OracleResult(49.008061, num_points=1200, levels=2)
        assert abs(result.richardson_alpha - 0.076129) / 0.076129 < 0.02

    @pytest.mark.parametrize("gamma_pi", [0.39, 0.41, 0.43, 0.45, 0.47, 0.49])
    def test_four_levels_match_edge_matched_closed_form(self, gamma_pi):
        # Order 2 holds; deep wells are only pre-asymptotic at two levels.
        state = ground_state_from_gamma(gamma_pi * math.pi)
        result = OracleResult(state.R, num_points=1100, levels=4)
        assert result.richardson_alpha == pytest.approx(alpha_exact_prime(state), rel=1e-6)

    def test_rejects_single_level(self):
        with pytest.raises(DomainError, match="levels must be an integer >= 2, got 1"):
            OracleResult(None, num_points=600, levels=1)

    @pytest.mark.parametrize("levels", [1, 2.5, 3.0])
    def test_levels_are_checked_before_any_grid(self, monkeypatch, levels):
        monkeypatch.setattr(grid_oracle, "_grid", no_grid)
        with pytest.raises(DomainError, match="levels must be an integer >= 2"):
            OracleResult(0.529, num_points=600, levels=levels)

    @pytest.mark.parametrize("well_R, nodes", [(1e-5, 3200000000223), (1e-3, 320000223)])
    def test_shallow_wells_are_refused_before_any_grid(self, monkeypatch, well_R, nodes):
        # The box is ceil(1 + 40/beta0), so its node count grows as 1/beta0.
        monkeypatch.setattr(grid_oracle, "_grid", no_grid)
        with pytest.raises(DomainError, match=f"would have {nodes} nodes .* budget of 4194304"):
            OracleResult(well_R)

    def test_node_budget_admits_its_bound(self, monkeypatch):
        # The hard wall's finest level has 8 m - 1 nodes, m = ceil((num_points + 1) / 2).
        monkeypatch.setattr(grid_oracle, "_grid", stop_at_grid)
        assert grid_oracle._MAX_GRID_NODES == 2**22
        with pytest.raises(GridBuilt):
            OracleResult(None, num_points=2**20 - 1)
        with pytest.raises(DomainError, match="would have 4194311 nodes"):
            OracleResult(None, num_points=2**20)

    @pytest.mark.parametrize(
        "well_R, num_points, levels, message",
        [(None, 10**4000, 2, "num_points must be <= 4194304, got a positive int of 13288 bits"),
         (R_REF, 10**400, 2, "num_points must be <= 4194304, got a positive int of 1329 bits"),
         (R_REF, 2000, 10**6, "levels must be <= 23, got 1000000"),
         (None, 2**22 + 1, 2, "num_points must be <= 4194304, got 4194305"),
         (None, 500, 24, "levels must be <= 23, got 24")],
        ids=["hard-wall-1e4000-points", "well-1e400-points", "1e6-levels", "points-cap",
             "levels-cap"],
    )
    def test_any_size_is_refused_before_any_grid(self, monkeypatch, well_R, num_points, levels,
                                                 message):
        # A 4000-digit count died in OverflowError, 20,000 levels in
        # ValueError printing the finest size.  A num_points past the budget
        # is refused, as the base grid alone would exceed it, and so are more
        # levels than the budget's bit length, as the finest grid would then
        # have more nodes than the budget whatever num_points is; neither
        # size is formed.
        monkeypatch.setattr(grid_oracle, "_grid", no_grid)
        with pytest.raises(DomainError) as info:
            OracleResult(well_R, num_points, levels)
        assert str(info.value) == message

    def test_unprintable_levels_are_refused(self, monkeypatch):
        # Past Python's 4,300-digit limit, printing the count raised ValueError.
        monkeypatch.setattr(grid_oracle, "_grid", lambda *args: pytest.fail("a grid was built"))
        with pytest.raises(DomainError) as info:
            OracleResult(None, num_points=500, levels=-(10**5000))
        assert len(str(info.value)) < 300

    def test_levels_below_the_cap_report_the_finest_size(self, monkeypatch):
        # Just inside the levels cap the exact size is formed and named.
        monkeypatch.setattr(grid_oracle, "_grid", lambda *args: pytest.fail("a grid was built"))
        with pytest.raises(DomainError, match="would have 4211081215 nodes"):
            OracleResult(None, num_points=500, levels=23)

    def test_multiplier_is_exact(self):
        # The base grid has the fewest nodes per unit length m, an int, whose
        # 2 L m - 1 nodes are at least num_points: checked on every
        # num_points from 500 to 1500, for the hard wall and wider boxes.
        for well_R, half_width in ((None, 1), (49.008061, 2), (R_REF, 13)):
            for num_points in range(500, 1501):
                plan = planned(well_R, num_points)
                width, m = 2 * half_width, plan.m
                assert plan.box_half_width == half_width and type(m) is int
                assert width * (m - 1) - 1 < num_points <= width * m - 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", range(23))
def test_both_routes_match_closed_form_across_well_range(k):
    # gamma0 = 0.05 pi ... 0.49 pi at the default 2000 points: the derived box
    # keeps both routes working down to the weak wells.  Measured: the
    # spectral solve within 6.3e-12 of the closed form, so the route gap is
    # Romberg's miss, 7.2e-9 at 0.05 pi and <= 6.5e-11 from 0.19 pi up.
    gamma_pi = 0.05 + 0.02 * k
    state = ground_state_from_gamma(gamma_pi * math.pi)
    result = OracleResult(state.R, levels=2)
    gap = abs(result.richardson_alpha - result.alpha_curvature) / result.alpha_curvature
    assert result.route_gap == gap
    assert result.route_gap <= 1e-6
    exact = alpha_exact_prime(state)
    assert result.alpha_curvature == pytest.approx(exact, rel=1e-10, abs=0.0)
    assert result.richardson_alpha == pytest.approx(
        exact, rel=2e-10 if gamma_pi > 0.18 else 2e-8, abs=0.0
    )


class TestOracleResult:
    """The result's gates, driven through a real 600-point study with one route's value set."""

    @staticmethod
    def study(monkeypatch, spectral=None, sum_sign=1.0):
        # ``spectral`` maps Romberg's value of the levels' solves to the
        # alpha_curvature reported; ``sum_sign`` scales every level's solve,
        # so the observed order, a ratio of differences, is unchanged.
        sums, real_solve = [], grid_oracle._dalgarno_lewis

        def solve(*args):
            alpha, residual = real_solve(*args)
            sums.append(sum_sign * alpha)
            return sums[-1], residual

        def spectral_value(ground):
            return spectral(extrapolate(sums, ratio=0.25)), 0.0

        with monkeypatch.context() as patch:
            patch.setattr(grid_oracle, "_dalgarno_lewis", solve)
            if spectral is not None:
                patch.setattr(grid_oracle, "_spectral", spectral_value)
            return OracleResult(R_REF, num_points=600, levels=2)

    def test_positivity_enforced(self, monkeypatch):
        with pytest.raises(NumericalError, match="alpha_sum must be positive"):
            self.study(monkeypatch, sum_sign=-1.0)
        with pytest.raises(NumericalError, match="alpha_curvature must be positive"):
            self.study(monkeypatch, spectral=lambda richardson: -1.0)

    def test_route_mismatch_enforced(self, monkeypatch):
        with pytest.raises(NumericalError, match="oracle routes disagree"):
            self.study(monkeypatch, spectral=lambda richardson: 0.5 * richardson)

    @pytest.mark.parametrize("gap,raises", [(5e-7, False), (2e-6, True)])
    def test_route_agreement_is_one_part_per_million(self, monkeypatch, gap, raises):
        # The gap is relative to the spectral value: richardson / (1 - gap).
        spectral = lambda richardson: richardson / (1.0 - gap)  # noqa: E731
        if raises:
            with pytest.raises(NumericalError, match="oracle routes disagree"):
                self.study(monkeypatch, spectral)
        else:
            result = self.study(monkeypatch, spectral)
            assert result.alpha_curvature == result.richardson_alpha / (1.0 - gap)
            assert result.route_gap == pytest.approx(gap, rel=1e-9)

    def test_combined_study_fills_everything(self):
        result = OracleResult(None, num_points=600, levels=2)
        assert result.alpha_sum > 0
        assert result.alpha_curvature > 0
        assert result.richardson_alpha > 0
        assert "sum_solve_residual" in result.diagnostics
        assert "spectral_ground_energy" in result.diagnostics
        assert "refine_observed_order" in result.diagnostics

    def test_refusals_come_in_order_before_any_grid(self, monkeypatch):
        # num_points, levels, well_R, h * beta0, then the node budget: each
        # call below mends the previous call's first fault.
        monkeypatch.setattr(grid_oracle, "_grid", no_grid)
        calls = [
            ((-1.0, 499, 1), "^num_points must be an integer >= 500, got 499$"),
            ((-1.0, 2000, 1), "^levels must be an integer >= 2, got 1$"),
            ((-1.0, 2000, 2), "^R must be finite and positive, got -1.0$"),
            ((1e3, 2000, 2), "^h\\*beta0 = .* num_points >= 9996 meets the bound$"),
            ((1e-3, 2000, 2), "^the finest grid would have 320000223 nodes"),
        ]
        for args, message in calls:
            with pytest.raises(DomainError, match=message):
                OracleResult(*args)

    def test_an_int_well_is_the_float_well(self):
        # R = 3 as an int: the edge node's depth R^2/2 = 4.5 was once stored
        # in an int array as 4, and the grid's own state missed its rows.
        whole, real = OracleResult(3, num_points=600), OracleResult(3.0, num_points=600)
        assert whole.well_R == 3 and type(whole.well_R) is int
        assert whole[5:] == real[5:]

    def test_benchmark_shims_study_the_same_well(self):
        # The benchmark's calls, which go with ROADMAP item 4.
        study = oracle_study(GridOracleConfig(R_REF, 600), levels=3)
        assert study == OracleResult(R_REF, 600, 3)
        hard_wall = oracle_study(GridOracleConfig.hard_wall(num_points=500, num_states=50))
        assert hard_wall == OracleResult(None, 500, 2)
        assert GridOracleConfig(well_R=R_REF)[:] == (R_REF, 2000)


# Runs in a fresh interpreter: solves a fixed tridiagonal SPD system, and
# factorises and solves a dense SPD one, with the three routines that
# grid_oracle binds, before any scipy
# module is imported and again after ``import scipy.linalg`` initialises the
# extension a second time under its package name, and with
# scipy.linalg.lapack's own.  Prints whether each set of outputs has the
# direct load's bytes.
LAPACK_BITS = """
import sys
import numpy as np
import wellpol.grid_oracle as go

def outputs(dpotrf, dpotrs, dptsv):
    n = 7
    k = np.arange(n, dtype=float)
    general = np.sin(np.add.outer(3.0 * k, k * k) + 1.0)
    spd = general @ general.T + n * np.eye(n)
    rhs = np.cos(np.outer(k, (1.0, 2.0)))
    factor = dpotrf(spd)
    runs = (dptsv(4.0 + np.sin(k), np.cos(k[1:]), rhs), factor, dpotrs(factor[0], rhs))
    return [np.asarray(value).tobytes() for run in runs for value in run]

names = ("dpotrf", "dpotrs", "dptsv")
bound = [getattr(go, name) for name in names]
direct = outputs(*bound)
assert not any(m.split(".")[0] in ("scipy", "_flapack") for m in sys.modules)
from scipy.linalg import lapack
assert not any(routine is getattr(lapack, name) for routine, name in zip(bound, names))
print(outputs(*bound) == direct, outputs(*(getattr(lapack, name) for name in names)) == direct)
"""

# Runs in a fresh interpreter with the direct load made to fail, by a missing
# file or by a load that raises ImportError, then runs the pinned R_REF study.
LAPACK_FALLBACK = """
import importlib.machinery
import sys

if sys.argv[1] == "missing":
    importlib.machinery.EXTENSION_SUFFIXES = []
else:
    exec_module = importlib.machinery.ExtensionFileLoader.exec_module

    def failing(self, module):
        if self.name == "_flapack":
            raise ImportError("a library the extension needs is not on the search path")
        return exec_module(self, module)

    importlib.machinery.ExtensionFileLoader.exec_module = failing

import wellpol.grid_oracle as go
from scipy.linalg import lapack

assert all(getattr(go, n) is getattr(lapack, n) for n in ("dpotrf", "dpotrs", "dptsv"))
assert "_flapack" not in sys.modules
result = go.OracleResult(%r, num_points=600)
print(*(value.hex() for value in (result.alpha_sum, result.alpha_curvature,
                                  result.richardson_alpha)))
""" % R_REF


class TestLapackLoad:
    """grid_oracle loads scipy's LAPACK extension from its file, not through scipy.linalg."""

    @staticmethod
    def python(*args):
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_bound_routines_match_scipy_bit_for_bit(self):
        assert self.python("-c", LAPACK_BITS) == "True True\n"

    def test_loaded_extension_is_not_registered(self):
        from scipy.linalg import lapack

        assert "_flapack" not in sys.modules
        assert grid_oracle.dptsv is not lapack.dptsv

    @pytest.mark.parametrize("failure", ["missing", "raises"])
    def test_failed_load_falls_back_to_scipy_linalg(self, failure):
        result = OracleResult(R_REF, num_points=600)
        direct = " ".join(value.hex() for value in (result.alpha_sum, result.alpha_curvature,
                                                    result.richardson_alpha))
        assert self.python("-c", LAPACK_FALLBACK, failure) == direct + "\n"
