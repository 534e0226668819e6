"""Grid oracle tests: spectra, both alpha routes, refinement."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import oracles

from wellpol.conventional_sum import infinite_well_alpha
from wellpol.dalgarno_lewis import alpha_exact_prime
from wellpol import grid_oracle
from wellpol.errors import ConvergenceWarning, DomainError, NumericalError
from wellpol.grid_oracle import GridOracleConfig, OracleResult, oracle_study
from wellpol.well_spectrum import ground_state_from_R, ground_state_from_gamma

R_REF = 3.617018  # gamma0 = 0.39 pi row


def base_grid(config):
    """Abscissae, well-bottom potential, diagonal and off-diagonal of the study's base grid."""
    return grid_oracle._grid(config, grid_oracle._multiplier(config))


def lowest_pairs(diag, off, count):
    """The ``count`` lowest eigenvalues and unit eigenvectors of the tridiagonal (diag, off).

    The full-spectrum reference, by scipy's bisection and inverse iteration;
    the package ships no spectrum solver.  Each column takes the oracle's
    sign convention: its largest-magnitude component is positive.
    """
    energies, states = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    for j in range(count):
        col = states[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            states[:, j] = -col
    return energies, states


def grid_start(config, level=0):
    """A grid of the study and the grid's own ground state on its nodes x' >= 0."""
    m = grid_oracle._multiplier(config) * 2**level
    x, v, diag, off = grid_oracle._grid(config, m)
    return (x, v, diag, off), grid_oracle._grid_ground(config, x, m)


def bottom_ground(config):
    """The base grid, its ground energy above the well bottom, psi0, and phi on x' > 0.

    phi is the Dalgarno-Lewis solution that, extended oddly, starts each tilted grid
    at psi0 + eps' phi.
    """
    (x, v, diag, off), start = grid_start(config)
    bottom, psi0 = grid_oracle._even_ground(v, diag, off, start)
    e0 = bottom - (config.well_R or 0.0) ** 2
    _, _, phi = grid_oracle._dalgarno_lewis(x, diag, off, e0, psi0)
    return (x, v, diag, off), bottom, psi0, phi


# gamma0 = 0.05 pi ... 0.49 pi, the well range of the oracle's accuracy test.
WELL_RANGE = [ground_state_from_gamma((0.05 + 0.02 * k) * math.pi) for k in range(23)]


def deep_config(well_R):
    """The coarsest grid whose h * beta0 meets the bound: 4 (m - 1) points on the box of 2."""
    m = math.ceil(ground_state_from_R(well_R).beta0 / grid_oracle._MAX_H_BETA0)
    return GridOracleConfig(well_R=well_R, num_points=4 * (m - 1))


class TestConfig:
    def test_defaults_resolve_box(self):
        config = GridOracleConfig(well_R=R_REF, num_points=800)
        assert config.box_half_width == 13
        # ceil(1 + 40/beta0) with no floor: beta0 = 49 needs only 2
        assert GridOracleConfig(well_R=49.008061).box_half_width == 2

    @pytest.mark.parametrize("gamma_pi", [0.05, 0.15, 0.2, 0.39, 0.49])
    def test_probe_fields_scale_with_binding(self, gamma_pi):
        # Wells with beta0 < 1 probe at beta0^3 times the hard wall's two
        # field sizes, larger first, and at the hard wall's from beta0 = 1 up.
        config = GridOracleConfig(well_R=ground_state_from_gamma(gamma_pi * math.pi).R)
        hard = GridOracleConfig.hard_wall().field_values
        assert hard == (1e-3, 5e-4)
        scale = min(1.0, config.ground.beta0**3)
        assert config.field_values == tuple(scale * v for v in hard)

    def test_hard_wall_forces_unit_box(self):
        config = GridOracleConfig.hard_wall(num_points=600)
        assert config.box_half_width == 1

    def test_study_solves_bound_state_once(self, monkeypatch):
        # The config resolves its box from one bound-state solve; the grids
        # of every route and refinement level reuse it.
        calls = []
        solve = grid_oracle.ground_state_from_R

        def counting(R):
            calls.append(R)
            return solve(R)

        monkeypatch.setattr(grid_oracle, "ground_state_from_R", counting)
        oracle_study(GridOracleConfig(well_R=R_REF, num_points=600), levels=2)
        assert calls == [R_REF]

    def test_study_makes_five_eigensolves(self, monkeypatch):
        # One even block per refinement level (the base grid's serves the
        # sum route and the zero field too) and one full-grid ground state
        # per probe field size, each by inverse iteration: the module has no
        # bisection eigensolver to call.
        ground_states = []
        lowest = grid_oracle._lowest_vector

        def counting_lowest(*args, **kwargs):
            ground_states.append(args)
            return lowest(*args, **kwargs)

        monkeypatch.setattr(grid_oracle, "_lowest_vector", counting_lowest)
        oracle_study(GridOracleConfig(well_R=R_REF, num_points=600), levels=2)
        assert not hasattr(grid_oracle, "eigh_tridiagonal")
        assert not hasattr(grid_oracle, "dgtsv")
        assert not hasattr(grid_oracle, "dpttrf")
        assert len(ground_states) == 5

    @pytest.mark.parametrize(
        "well_R", [None, R_REF, ground_state_from_gamma(0.2 * math.pi).R, 49.008061, 1e3]
    )
    def test_each_ground_state_takes_few_solves(self, monkeypatch, well_R):
        # Started at the grid's own state, every even block takes exactly one
        # shifted solve (the one step after the stop); each tilted grid,
        # started at psi0 + eps' phi, takes at most three.  Only the dptsv
        # calls inside _lowest_vector count, not the Dalgarno-Lewis solve's.
        solves, sizes, inside = [], [], []
        lowest, solve = grid_oracle._lowest_vector, grid_oracle.dptsv

        def counting_lowest(diag, off, start):
            sizes.append(diag.size)
            solves.append(0)
            inside.append(True)
            try:
                return lowest(diag, off, start)
            finally:
                inside.pop()

        def counting_solve(*args):
            if inside:
                solves[-1] += 1
            return solve(*args)

        monkeypatch.setattr(grid_oracle, "_lowest_vector", counting_lowest)
        monkeypatch.setattr(grid_oracle, "dptsv", counting_solve)
        if well_R is None:
            config = GridOracleConfig.hard_wall()
        else:
            config = deep_config(well_R) if well_R >= 1e3 else GridOracleConfig(well_R=well_R)
        result = oracle_study(config, levels=2)
        blocks = [n // 2 + 1 for n in result.diagnostics["refine_grid_sizes"]]
        tilted = result.diagnostics["grid_num_points_actual"]
        assert sizes == [blocks[0], tilted, tilted, blocks[1], blocks[2]]
        assert [solves[0], solves[3], solves[4]] == [1, 1, 1]
        assert max(solves[1:3]) <= 3

    def test_study_builds_each_grid_once(self, monkeypatch):
        # levels + 1 grids, the base one shared by both routes; the five
        # ground states above are solved on them.
        grids, ground_states = [], []
        build = grid_oracle._grid
        lowest = grid_oracle._lowest_vector

        def counting_grid(*args, **kwargs):
            grids.append(args[1:] + tuple(kwargs.values()))
            return build(*args, **kwargs)

        def counting_lowest(*args, **kwargs):
            ground_states.append(args)
            return lowest(*args, **kwargs)

        monkeypatch.setattr(grid_oracle, "_grid", counting_grid)
        monkeypatch.setattr(grid_oracle, "_lowest_vector", counting_lowest)
        oracle_study(GridOracleConfig(well_R=R_REF, num_points=600), levels=2)
        assert len(grids) == 3
        assert len(set(grids)) == 3
        assert len(ground_states) == 5

    def test_study_reports_every_residual_it_computes(self, monkeypatch):
        # Outside inverse iteration, one Dalgarno-Lewis solve per level and
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

            def counted(*args):
                if not inside:
                    outside[name] += 1
                return original(*args)

            return counted

        for name in outside:
            monkeypatch.setattr(grid_oracle, name, counting(name))
        monkeypatch.setattr(grid_oracle, "_lowest_vector", counting_lowest)
        oracle_study(GridOracleConfig(well_R=R_REF, num_points=600), levels=2)
        assert outside == {"_tridiag_matvec": 1, "dptsv": 3}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"well_R": R_REF, "num_points": 100},
            {"num_states": 10},
            {"well_R": -1.0},
            {"well_R": 100.0},  # h * beta0 = 0.497 on the base grid
            {"well_R": 300.0},  # 1.5
            {"well_R": 1e5},
            {"well_R": 1e7},
            {"well_R": R_REF, "num_points": math.nan},
            {"well_R": R_REF, "num_points": math.inf},
            {"num_states": math.nan},
            {"well_R": 0.0},
            {"well_R": math.nan},
            {"well_R": math.inf},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        # Cases without a well_R go to the hard wall, which still checks the
        # num_states it no longer uses.
        make = GridOracleConfig if "well_R" in kwargs else GridOracleConfig.hard_wall
        with pytest.raises(DomainError):
            make(**{"num_points": 800, **kwargs})

    def test_hard_wall_ignores_num_states(self):
        assert GridOracleConfig.hard_wall(num_states=50) == GridOracleConfig.hard_wall()

    @pytest.mark.parametrize(
        "well_R, h_beta0, needed",
        [
            (1e3, "1.996005526471852", 9996),
            (1e4, "19.960079594120987", 99996),
            (1e9, "1996007.9840319362", 9999999996),
        ],
        # The ids give h*beta0 to three digits.
        ids=lambda v: f"{float(v):.3g}" if isinstance(v, str) else None,
    )
    def test_refuses_grid_too_coarse_for_tail(self, well_R, h_beta0, needed):
        # At the default 2000 points the box is 2 and h = 1/501; the message
        # names h * beta0 and the smallest num_points that meets the bound.
        with pytest.raises(DomainError) as info:
            GridOracleConfig(well_R=well_R)
        assert str(info.value) == (
            f"h*beta0 = {h_beta0} on the base grid exceeds 0.4: the grid is too "
            f"coarse for the bound-state tail; num_points >= {needed} meets the bound"
        )
        config = GridOracleConfig(well_R=well_R, num_points=needed)
        assert config.ground.beta0 / grid_oracle._multiplier(config) <= 0.4
        with pytest.raises(DomainError, match="h\\*beta0"):
            GridOracleConfig(well_R=well_R, num_points=needed - 1)

    def test_refusal_never_prints_the_bound(self):
        # One size below the deep well's bound, h*beta0 = 0.40016 once
        # printed to three digits as "0.4 ... exceeds 0.4".
        with pytest.raises(DomainError) as info:
            GridOracleConfig(well_R=1e3, num_points=9992)
        printed = str(info.value).split("h*beta0 = ")[1].split(" ")[0]
        assert float(printed) > 0.4


class TestSpectrum:
    def test_ground_energy_matches_bound_state(self):
        # Stated check: request ~4000 points on the derived half-width-13 box.
        config = GridOracleConfig(well_R=R_REF, num_points=4000)
        _, _, diag, off = base_grid(config)
        energies, _ = lowest_pairs(diag, off, 1)
        beta0 = ground_state_from_R(R_REF).beta0
        assert energies[0] == pytest.approx(-beta0**2, rel=1e-3)

    def test_hard_wall_quadratic_ladder(self):
        config = GridOracleConfig.hard_wall(num_points=1000)
        _, _, diag, off = base_grid(config)
        energies, _ = lowest_pairs(diag, off, 7)
        base = math.pi**2 / 4.0
        for n in range(1, 8):
            assert energies[n - 1] == pytest.approx(n * n * base, rel=1e-4)

    @pytest.mark.parametrize("well_R", [None, 0.6, R_REF, 49.008061])
    def test_even_block_ground_pair_matches_full_grid(self, well_R):
        config = GridOracleConfig(well_R=well_R)
        (x, v, diag, off), start = grid_start(config)
        e0, psi0 = grid_oracle._even_ground(v, diag, off, start)
        _, vec = lowest_pairs(diag, off, 1)
        assert psi0.size == diag.size
        assert e0 == pytest.approx(
            grid_oracle._rayleigh_quotient(off, v, vec[:, 0]), rel=1e-15, abs=0.0
        )
        assert np.max(np.abs(psi0 - vec[:, 0])) <= 1e-12

    @pytest.mark.parametrize("well_R", [None, 0.6, R_REF, 49.008061])
    @pytest.mark.parametrize("level", [0, 2])
    def test_continuum_start_matches_two_branch_formula(self, well_R, level):
        # The start is the continuum formula at the grid's phases (u, nu) in
        # place of (gamma0, beta0).  Evaluated branch by branch on the nodes
        # x' >= 0, it equals both branches taken on the whole grid and
        # selected by |x'| <= 1; on the hard wall it is cos(pi x'/2) bit for bit.
        config = GridOracleConfig(well_R=well_R)
        m = grid_oracle._multiplier(config) * 2**level
        x = grid_oracle._grid(config, m)[0]
        ax = np.abs(x)
        if well_R is None:
            whole = np.cos(0.5 * math.pi * x)
        else:
            u, nu = grid_oracle._grid_phases(config.ground, m)
            tail = math.cos(u) * np.exp(-nu * np.maximum(ax - 1.0, 0.0))
            whole = np.where(ax <= 1.0, np.cos(u * ax), tail)
        start = grid_oracle._grid_ground(config, x, m)
        assert np.array_equal(x[x.size // 2 :], ax[x.size // 2 :])
        assert np.array_equal(start, whole[x.size // 2 :])
        assert np.array_equal(np.concatenate((start[:0:-1], start)), whole)

    @pytest.mark.parametrize("well_R", [None, R_REF])
    def test_last_factorisation_certifies_even_ground(self, monkeypatch, well_R):
        # The last L D L^T solve is the certificate: its shift lies below the
        # even block's lowest eigenvalue, and below the returned state's
        # Rayleigh quotient by at most 1e3 eps |T|_inf plus the residual of
        # the vector that step was given.
        blocks, solves = [], []
        lowest, solve = grid_oracle._lowest_vector, grid_oracle.dptsv

        def recording_lowest(diag, off, start):
            blocks.append((diag, off, lowest(diag, off, start)))
            return blocks[-1][2]

        def recording_solve(d, e, b):
            solves.append((d, b))
            return solve(d, e, b)

        config = GridOracleConfig(well_R=well_R)
        (_, v, diag, off), start = grid_start(config)
        monkeypatch.setattr(grid_oracle, "_lowest_vector", recording_lowest)
        monkeypatch.setattr(grid_oracle, "dptsv", recording_solve)
        grid_oracle._even_ground(v, diag, off, start)
        ((block_diag, block_off, vec),) = blocks
        shifted, last = solves[-1]
        sigma = float(np.median(block_diag - shifted))
        lowest_energy = lowest_pairs(block_diag, block_off, 1)[0][0]
        row = np.abs(block_diag)
        row[:-1] += np.abs(block_off)
        row[1:] += np.abs(block_off)
        floor = 1e3 * np.finfo(float).eps * float(np.max(row))
        t_last = grid_oracle._tridiag_matvec(block_diag, block_off, last)
        residual = float(np.linalg.norm(t_last - (last @ t_last) * last))
        rho = float(vec @ grid_oracle._tridiag_matvec(block_diag, block_off, vec))
        assert sigma < lowest_energy
        assert 0.0 < rho - sigma <= floor + residual

    def test_excited_start_is_not_certified(self):
        # Started on the even block's first excited state, inverse iteration
        # stays there; the factorisation below it fails, so the pair is
        # refused instead of returned as the ground state.
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        _, _, diag, off = base_grid(config)
        centre = diag.size // 2
        block_diag = diag[centre:]
        block_off = off[centre:].copy()
        block_off[0] *= math.sqrt(2.0)
        _, vec = lowest_pairs(block_diag, block_off, 2)
        with pytest.raises(NumericalError, match="has a state more than"):
            grid_oracle._lowest_vector(block_diag, block_off, vec[:, 1])

    def test_parity_of_lowest_states(self):
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        _, _, diag, off = base_grid(config)
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
        config = GridOracleConfig(well_R=state.R) if state.R < 1e3 else deep_config(state.R)
        m0 = grid_oracle._multiplier(config)
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
        m0 = grid_oracle._multiplier(GridOracleConfig(well_R=state.R))
        phases = [grid_oracle._grid_phases(state, m0 * 2**j) for j in range(4)]
        for (u1, nu1), (u2, nu2) in zip(phases, phases[1:]):
            assert (u1 - state.gamma0) / (u2 - state.gamma0) == pytest.approx(4.0, abs=0.05)
            assert (nu1 - state.beta0) / (nu2 - state.beta0) == pytest.approx(4.0, abs=0.05)

    @pytest.mark.parametrize("state", WELL_RANGE, ids=lambda s: f"R={s.R:.6g}")
    def test_start_passes_the_inverse_iteration_stop(self, state):
        # On the even block of every level, the start s already has
        # |T s - rho s| <= 4 eps |T|_inf |s|, the stop of _lowest_vector.
        config = GridOracleConfig(well_R=state.R)
        for level in range(3):
            (_, _, diag, off), start = grid_start(config, level)
            centre = diag.size // 2
            block_diag, block_off = diag[centre:], off[centre:].copy()
            block_off[0] *= math.sqrt(2.0)
            s = start.copy()
            s[1:] *= math.sqrt(2.0)
            ts = grid_oracle._tridiag_matvec(block_diag, block_off, s)
            rho = (s @ ts) / (s @ s)
            row = np.abs(block_diag)
            row[:-1] += np.abs(block_off)
            row[1:] += np.abs(block_off)
            bound = 4.0 * grid_oracle._EPS * np.max(row) * np.linalg.norm(s)
            assert np.linalg.norm(ts - rho * s) <= bound


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
    @pytest.mark.parametrize("case", ["base", "tilted", "finest"])
    def test_within_four_ulp_of_exact_quotient(self, well_R, case):
        # The edge-difference form from the well bottom cancels no term of
        # size 4 m^2 or R^2, so the ground energy is as good as the stored
        # matrix and vector allow.
        config = GridOracleConfig(well_R=well_R)
        (x, v, diag, off), start = grid_start(config, 2 if case == "finest" else 0)  # levels=2
        if case == "tilted":
            tilt = 1e-3 * x
            v = v - tilt
            vec = grid_oracle._lowest_vector(
                diag - tilt, off, np.concatenate((start[:0:-1], start))
            )
        else:
            _, vec = grid_oracle._even_ground(v, diag, off, start)
        energy = grid_oracle._rayleigh_quotient(off, v, vec)
        exact = exact_quotient(off, v, vec)
        assert abs(Fraction(energy) - exact) <= 4 * Fraction(math.ulp(float(exact)))

    @pytest.mark.parametrize("well_R", [None, R_REF, 49.008061])
    def test_identity_holds_for_any_vector(self, well_R):
        # The form is an identity for the oracle's grids, not an
        # approximation near eigenvectors: check it on random vectors
        # against w.(T w) of the well-bottom matrix in long double.
        rng = np.random.default_rng(7)
        _, v, _, off = base_grid(GridOracleConfig(well_R=well_R))
        bottom = (v - 2.0 * off[0]).astype(np.longdouble)
        for _ in range(5):
            vec = rng.standard_normal(v.size)
            w = vec.astype(np.longdouble)
            tw = grid_oracle._tridiag_matvec(bottom, off.astype(np.longdouble), w)
            reference = float((w @ tw) / (w @ w))
            assert grid_oracle._rayleigh_quotient(off, v, vec) == pytest.approx(
                reference, rel=1e-13, abs=0.0
            )

    def test_diagonal_is_potential_below_the_bottom(self):
        # diag = 2 m^2 + (v - R^2) is bit for bit the stencil plus V'.
        m = grid_oracle._multiplier(GridOracleConfig(well_R=R_REF))
        x, v, diag, off = base_grid(GridOracleConfig(well_R=R_REF))
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
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = oracle_study(config)
        size = result.diagnostics["grid_num_points_actual"]
        x, _, diag, off = base_grid(config)
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
        # infinity norm, relative to |b| (worst measured: 0.23 of the bound,
        # at gamma0 = 0.41 pi on the finest grid).
        if well_R is None:
            config = GridOracleConfig.hard_wall()
        else:
            config = deep_config(well_R) if well_R >= 1e3 else GridOracleConfig(well_R=well_R)
        for level in range(3):  # levels=2
            (x, v, diag, off), start = grid_start(config, level)
            bottom, psi0 = grid_oracle._even_ground(v, diag, off, start)
            e0 = bottom - (well_R or 0.0) ** 2
            _, solve_residual, phi = grid_oracle._dalgarno_lewis(x, diag, off, e0, psi0)
            right = slice(x.size // 2 + 1, None)
            d, e = diag[right] - e0, off[right]
            row = np.abs(d)
            row[:-1] += np.abs(e)
            row[1:] += np.abs(e)
            b = x[right] * psi0[right]
            scale = np.max(row) * np.max(np.abs(phi)) / np.max(np.abs(b))
            assert solve_residual() <= 4.0 * grid_oracle._EPS * scale

    def test_shift_above_odd_states_raises(self, monkeypatch):
        # H - E0 must be positive definite on the odd half-grid; a shift
        # past the first odd state breaks the Cholesky solve.
        monkeypatch.setattr(grid_oracle, "_rayleigh_quotient", lambda *args: 1e3 + R_REF**2)
        with pytest.raises(NumericalError, match="not positive definite"):
            oracle_study(GridOracleConfig(well_R=R_REF, num_points=900))

    def test_hard_wall_matches_conventional_sum(self):
        config = GridOracleConfig.hard_wall(num_points=1000)
        result = oracle_study(config)
        reference = infinite_well_alpha(50)
        assert result.alpha_sum == pytest.approx(reference, rel=2e-3)

    def test_reference_row_compared_to_published_value(self):
        # The published closed form at R = 9.037118 is 0.106382; the oracle
        # is exact, so the measured deviation (~1.5%) must stay inside 5%.
        config = GridOracleConfig(well_R=9.037118, num_points=900)
        result = oracle_study(config)
        assert abs(result.alpha_sum - 0.106382) / 0.106382 < 0.05


def field_energy(grid, size, sign=1.0):
    """Ground energy above the well bottom of the base grid at field sign * size, by bisection."""
    x, v, diag, off = grid
    tilt = sign * size * x
    _, vec = lowest_pairs(diag - tilt, off, 1)
    return grid_oracle._rayleigh_quotient(off, v - tilt, vec[:, 0])


def energies_from_quotients(result, bottom):
    """E(eps') = E0 - q eps'^2 / 4 at each probe size, from the study's Stark quotients."""
    fields = result.diagnostics["curvature_field_values"]
    quotients = result.diagnostics["curvature_stark_quotients"]
    return [bottom - q * eps**2 / 4.0 for eps, q in zip(fields, quotients)]


class TestCurvature:
    def test_two_routes_agree_at_matched_discretization(self):
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = oracle_study(config)
        gap = abs(result.alpha_sum - result.alpha_curvature)
        assert gap / result.alpha_sum < 1e-6

    def test_zero_field_row_reproduces_ground_energy(self):
        # The quotients' zero-field point is the base grid's own ground
        # energy: rebuilt from it and the field solves, each started at
        # psi0 + eps' phi, they come out bit for bit.
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = oracle_study(config)
        (x, v, diag, off), bottom, psi0, phi = bottom_ground(config)
        stark = np.concatenate((-phi[::-1], [0.0], phi))
        quotients = []
        for eps in config.field_values:
            vec = grid_oracle._lowest_vector(diag - eps * x, off, psi0 + eps * stark)
            energy = grid_oracle._rayleigh_quotient(off, v - eps * x, vec)
            quotients.append(-4.0 * (energy - bottom) / eps**2)
        assert result.diagnostics["curvature_stark_quotients"] == tuple(quotients)

    def test_no_permanent_dipole(self):
        # The route takes E(-eps') from the solve at +eps'; a direct solve at
        # -eps' checks that symmetry instead of assuming it.
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = oracle_study(config)
        grid, bottom, _, _ = bottom_ground(config)
        eps = config.field_values[0]
        mirrored = energies_from_quotients(result, bottom)[0]
        direct = field_energy(grid, eps, sign=-1.0)
        assert direct == pytest.approx(mirrored, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "well_R", [None, ground_state_from_gamma(0.2 * math.pi).R, R_REF, 49.008061]
    )
    def test_field_energies_match_bisection_reference(self, well_R):
        config = GridOracleConfig(well_R=well_R)
        result = oracle_study(config)
        grid, bottom, _, _ = bottom_ground(config)
        energies = energies_from_quotients(result, bottom)
        for eps, energy in zip(config.field_values, energies):
            reference = field_energy(grid, eps)
            assert energy == pytest.approx(reference, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("step", range(17))
    def test_field_guard_matches_bisection_reference(self, step):
        # gamma0 = 0.15 pi ... 0.19 pi at the unscaled probe fields, which
        # are too large for all of these weak wells: the certificate must
        # refuse them exactly where the grid's lowest state at some field
        # has left the well, which the full bisection solve shows by where
        # it peaks; on the other wells the eps'^4 share refuses them.
        state = ground_state_from_gamma((0.15 + 0.0025 * step) * math.pi)
        config = GridOracleConfig(well_R=state.R)
        (x, v, diag, off), bottom, psi0, phi = bottom_ground(config)
        fields = grid_oracle._PROBE_FIELDS
        escaped = False
        for size in fields:
            _, vec = lowest_pairs(diag - size * x, off, 1)
            escaped |= abs(x[int(np.argmax(np.abs(vec[:, 0])))]) > 1.0
        reason = "has a state more than" if escaped else "eps'\\^4 term"
        with pytest.raises(NumericalError, match=reason):
            grid_oracle._curvature(x, v, diag, off, psi0, phi, fields, bottom)

    def test_study_shares_zero_field_energy(self, monkeypatch):
        # The curvature route's zero field is the sum route's ground energy,
        # measured from the well bottom.
        seen = []
        curvature = grid_oracle._curvature

        def recording(*args):
            seen.append(args[-1])
            return curvature(*args)

        monkeypatch.setattr(grid_oracle, "_curvature", recording)
        result = oracle_study(GridOracleConfig(well_R=R_REF, num_points=600), levels=2)
        assert len(seen) == 1
        assert seen[0] - R_REF**2 == result.ground_energy_dimless

    def test_quartic_share_is_tiny_for_reference_row(self):
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = oracle_study(config)
        assert result.diagnostics["curvature_quartic_share"] <= 1e-6

    def test_shallow_well_with_large_fields_trips_guard(self):
        # Fields of +-1e-2, unscaled, pull the ground state of this weak
        # well out of the box's well.
        config = GridOracleConfig(well_R=0.6, num_points=500)
        (x, v, diag, off), bottom, psi0, phi = bottom_ground(config)
        with pytest.raises(NumericalError, match="has a state more than"):
            grid_oracle._curvature(x, v, diag, off, psi0, phi, (1e-2, 5e-3), bottom)

    def test_quartic_term_trips_guard(self):
        # At fields 0.3 and 0.15 the ground state stays in this well, so the
        # certificate holds, but the eps'^4 term is 3.2e-4 of the shift.
        config = GridOracleConfig(well_R=R_REF)
        (x, v, diag, off), bottom, psi0, phi = bottom_ground(config)
        with pytest.raises(NumericalError, match="eps'\\^4 term") as info:
            grid_oracle._curvature(x, v, diag, off, psi0, phi, (0.3, 0.15), bottom)
        assert "3.2e-04 relative" in str(info.value)

    @pytest.mark.parametrize("well_R", [1e3, 1e4])
    def test_deep_wells_reach_route_agreement(self, well_R):
        # E' ~ -R^2 here, so quotients taken from E' = 0 would lose the
        # Stark shift to its rounding; from the well bottom both routes agree.
        # The grid is the coarsest whose h * beta0 meets the bound.
        config = deep_config(well_R)
        (x, v, diag, off), start = grid_start(config)
        bottom, psi0 = grid_oracle._even_ground(v, diag, off, start)
        alpha_sum, _, phi = grid_oracle._dalgarno_lewis(x, diag, off, bottom - well_R**2, psi0)
        alpha, _ = grid_oracle._curvature(x, v, diag, off, psi0, phi, config.field_values, bottom)
        assert alpha == pytest.approx(alpha_sum, rel=1e-6, abs=0.0)


# well_R -> float.hex of (alpha_sum, alpha_curvature, richardson_alpha,
# ground_energy_dimless) of oracle_study at 600 points and levels=2, with
# every energy a quotient from the well bottom, alpha_curvature the Stark
# quotients extrapolated to zero field and richardson_alpha Romberg's h^2
# and h^4 steps; at 0.2 pi (beta0 < 1) the probe fields are scaled by beta0^3.
# Each even block starts at the grid's own state, each tilted grid at
# psi0 + eps' phi.  Bit pins hold only on grids below about 1e4 nodes:
# above that a threaded BLAS sums the dot products in another order, and
# CHANGES.md records a 12,871-node level whose last bits change with
# OPENBLAS_NUM_THREADS.  At 600 points the finest level has under 1e4.
STUDY_HEX = {
    None: (
        "0x1.1fa4cf0381543p-4",
        "0x1.1fa4cc2d5d555p-4",
        "0x1.1fa3f860c3bf8p-4",
        "0x1.3bd39da29fe9dp+1",
    ),
    R_REF: (
        "0x1.af48a9b395722p-3",
        "0x1.af48a8c47f2abp-3",
        "0x1.afae858ff233dp-3",
        "-0x1.7290f64de8509p+3",
    ),
    ground_state_from_gamma(0.2 * math.pi).R: (
        "0x1.0d83dc0d1f956p+5",
        "0x1.0d83dc112ebc3p+5",
        "0x1.0b830fa377a20p+5",
        "-0x1.a98053924194ap-3",
    ),
}


# well_R -> float.hex of the diagnostics of the same studies: the base
# grid's solve residual, each level's alpha' and ground energy, the observed
# order and the two Stark quotients with their eps'^4 share.
DIAGNOSTIC_HEX = {
    None: {
        "sum_solve_residual": "0x1.236b2e0f73b65p-38",
        "refine_alpha_per_level": (
            "0x1.1fa4cf0381543p-4", "0x1.1fa42e097fdecp-4", "0x1.1fa405caf392fp-4",
        ),
        "refine_ground_energy_per_level": (
            "0x1.3bd39da29fe9dp+1", "0x1.3bd3c0dd92babp+1", "0x1.3bd3c9ac4fecbp+1",
        ),
        "refine_observed_order": "0x1.ffff9280a2318p+0",
        "curvature_stark_quotients": ("0x1.1fa4ceb868000p-4", "0x1.1fa4ccd020000p-4"),
        "curvature_quartic_share": "0x1.b290b92fefc69p-24",
    },
    R_REF: {
        "sum_solve_residual": "0x1.858caa850c912p-45",
        "refine_alpha_per_level": (
            "0x1.af48a9b395722p-3", "0x1.af950e133645fp-3", "0x1.afa827a868ec8p-3",
        ),
        "refine_ground_energy_per_level": (
            "-0x1.7290f64de8509p+3", "-0x1.7299e7b255057p+3", "-0x1.729c25e0b2c58p+3",
        ),
        "refine_observed_order": "0x1.fff6892aa01c2p+0",
        "curvature_stark_quotients": ("0x1.af48a98ff2800p-3", "0x1.af48a8f75c000p-3"),
        "curvature_quartic_share": "0x1.6a4a5913a8245p-26",
    },
    ground_state_from_gamma(0.2 * math.pi).R: {
        "sum_solve_residual": "0x1.bc4f9431ab846p-47",
        "refine_alpha_per_level": (
            "0x1.0d83dc0d1f956p+5", "0x1.0c0298b4b3856p+5", "0x1.0ba2e74733b94p+5",
        ),
        "refine_ground_energy_per_level": (
            "-0x1.a98053924194ap-3", "-0x1.aa774a095c1fcp-3", "-0x1.aab5096894fa8p-3",
        ),
        "refine_observed_order": "0x1.01329fd32287bp+1",
        "curvature_stark_quotients": ("0x1.0d840a764a107p+5", "0x1.0d83e7aa75914p+5"),
        "curvature_quartic_share": "0x1.086911110936cp-19",
    },
}


def pinned_study(well_R):
    config = (
        GridOracleConfig.hard_wall(num_points=600)
        if well_R is None
        else GridOracleConfig(well_R=well_R, num_points=600)
    )
    return oracle_study(config, levels=2)


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


class TestRefine:
    def test_observed_order_near_two(self):
        config = GridOracleConfig(well_R=R_REF, num_points=600)
        result = oracle_study(config, levels=2)
        assert 1.5 <= result.diagnostics["refine_observed_order"] <= 2.5

    def test_convergence_warning_points_at_caller(self):
        # At the default 2000 points this well's levels agree to 3.6e-9,
        # but their successive differences read as order 3.14 (measured).
        config = GridOracleConfig(well_R=2.244924107558891)
        with pytest.warns(ConvergenceWarning, match="observed convergence order") as record:
            oracle_study(config, levels=2)
        assert record[0].filename == __file__

    def test_hard_wall_extrapolation_is_stable(self):
        coarse = oracle_study(GridOracleConfig.hard_wall(num_points=600), levels=2)
        finer = oracle_study(GridOracleConfig.hard_wall(num_points=1200), levels=2)
        assert coarse.richardson_alpha == pytest.approx(
            finer.richardson_alpha, abs=1e-4 * finer.richardson_alpha
        )

    def test_deep_well_row_against_published_value(self):
        # R = 49.008061 is the one Table-1 row where the closed form is
        # essentially exact; the extrapolated oracle lands within 2%.
        config = GridOracleConfig(well_R=49.008061, num_points=1200)
        result = oracle_study(config, levels=2)
        assert abs(result.richardson_alpha - 0.076129) / 0.076129 < 0.02

    @pytest.mark.parametrize("gamma_pi", [0.39, 0.41, 0.43, 0.45, 0.47, 0.49])
    def test_four_levels_match_edge_matched_closed_form(self, gamma_pi):
        # Order 2 holds; deep wells are only pre-asymptotic at two levels.
        state = ground_state_from_gamma(gamma_pi * math.pi)
        config = GridOracleConfig(well_R=state.R, num_points=1100)
        result = oracle_study(config, levels=4)
        assert result.richardson_alpha == pytest.approx(alpha_exact_prime(state), rel=1e-6)

    def test_rejects_single_level(self):
        with pytest.raises(DomainError, match="need at least 2 grid doublings"):
            oracle_study(GridOracleConfig.hard_wall(num_points=600), levels=1)

    @pytest.mark.parametrize("levels", [1, 2.5, 3.0])
    def test_levels_are_checked_before_any_grid(self, monkeypatch, levels):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(grid_oracle, "_grid", no_grid)
        with pytest.raises(DomainError, match="grid doublings|must be an integer"):
            oracle_study(GridOracleConfig(well_R=0.529, num_points=600), levels=levels)

    @pytest.mark.parametrize("well_R, nodes", [(1e-5, 3200000000223), (1e-3, 320000223)])
    def test_shallow_wells_are_refused_before_any_grid(self, monkeypatch, well_R, nodes):
        # The box is ceil(1 + 40/beta0), so its node count grows as 1/beta0.
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(grid_oracle, "_grid", no_grid)
        with pytest.raises(DomainError, match=f"would have {nodes} nodes .* budget of 4194304"):
            oracle_study(GridOracleConfig(well_R=well_R))

    def test_node_budget_admits_its_bound(self, monkeypatch):
        # The hard wall's finest level has 8 m - 1 nodes, m = ceil((num_points + 1) / 2).
        class Built(Exception):
            pass

        def built(*args):
            raise Built

        monkeypatch.setattr(grid_oracle, "_grid", built)
        assert grid_oracle._MAX_GRID_NODES == 2**22
        with pytest.raises(Built):
            oracle_study(GridOracleConfig(well_R=None, num_points=2**20 - 1))
        with pytest.raises(DomainError, match="would have 4194311 nodes"):
            oracle_study(GridOracleConfig(well_R=None, num_points=2**20))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", range(23))
def test_both_routes_match_closed_form_across_well_range(k):
    # gamma0 = 0.05 pi ... 0.49 pi at the default 2000 points: the derived box
    # and probe fields keep both routes working down to the weak wells.
    # Measured: route gap <= 2.6e-7 (at 0.49 pi); Romberg 7.2e-9 off at
    # 0.05 pi and <= 6.5e-11 from 0.19 pi up.
    gamma_pi = 0.05 + 0.02 * k
    state = ground_state_from_gamma(gamma_pi * math.pi)
    result = oracle_study(GridOracleConfig(well_R=state.R), levels=2)
    assert result.route_gap == abs(result.alpha_sum - result.alpha_curvature) / result.alpha_sum
    assert result.route_gap <= 1e-6
    exact = alpha_exact_prime(state)
    assert result.richardson_alpha == pytest.approx(
        exact, rel=2e-10 if gamma_pi > 0.18 else 2e-8, abs=0.0
    )


class TestOracleResult:
    def test_positivity_enforced(self):
        with pytest.raises(NumericalError, match="alpha_sum must be positive"):
            OracleResult(
                alpha_sum=-1.0, alpha_curvature=0.1, ground_energy_dimless=0.0,
                richardson_alpha=0.1,
            )
        with pytest.raises(NumericalError, match="alpha_curvature must be positive"):
            OracleResult(
                alpha_sum=0.1, alpha_curvature=-1.0, ground_energy_dimless=0.0,
                richardson_alpha=0.1,
            )

    def test_route_mismatch_enforced(self):
        with pytest.raises(NumericalError, match="oracle routes disagree"):
            OracleResult(
                alpha_sum=0.2, alpha_curvature=0.1, ground_energy_dimless=0.0,
                richardson_alpha=0.2,
            )

    @pytest.mark.parametrize("gap,raises", [(5e-7, False), (2e-6, True)])
    def test_route_agreement_is_one_part_per_million(self, gap, raises):
        kwargs = dict(
            alpha_sum=1.0, alpha_curvature=1.0 + gap, ground_energy_dimless=0.0,
            richardson_alpha=1.0,
        )
        if raises:
            with pytest.raises(NumericalError, match="oracle routes disagree"):
                OracleResult(**kwargs)
        else:
            result = OracleResult(**kwargs)
            assert result.alpha_curvature == 1.0 + gap
            assert result.route_gap == (1.0 + gap) - 1.0

    def test_combined_study_fills_everything(self):
        result = oracle_study(GridOracleConfig.hard_wall(num_points=600), levels=2)
        assert result.alpha_sum > 0
        assert result.alpha_curvature > 0
        assert result.richardson_alpha > 0
        assert "sum_solve_residual" in result.diagnostics
        assert "curvature_quartic_share" in result.diagnostics
        assert "refine_observed_order" in result.diagnostics
