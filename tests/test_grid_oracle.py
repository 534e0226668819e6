"""Grid oracle tests: spectra, both alpha routes, refinement."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from wellpol.conventional_sum import infinite_well_alpha
from wellpol.dalgarno_lewis import alpha_exact_prime
from wellpol import grid_oracle
from wellpol.errors import ConvergenceWarning, DomainError, FieldTooLargeError, NumericalError
from wellpol.grid_oracle import GridOracleConfig, OracleResult, oracle_study, solve_spectrum
from wellpol.well_spectrum import ground_state_from_R, ground_state_from_gamma

R_REF = 3.617018  # gamma0 = 0.39 pi row


def base_grid(config):
    """Abscissae, diagonal and off-diagonal of the study's base grid."""
    return grid_oracle._grid(config, grid_oracle._multiplier(config))


class TestConfig:
    def test_defaults_resolve_box(self):
        config = GridOracleConfig(well_R=R_REF, num_points=800)
        assert config.box_half_width == 13
        # ceil(1 + 40/beta0) with no floor: beta0 = 49 needs only 2
        assert GridOracleConfig(well_R=49.008061).box_half_width == 2

    @pytest.mark.parametrize("gamma_pi", [0.05, 0.15, 0.2, 0.39, 0.49])
    def test_probe_fields_scale_with_binding(self, gamma_pi):
        # Wells with beta0 < 1 probe at beta0^3 times the hard wall's fields,
        # which stay symmetric about 0 and are the hard wall's from beta0 = 1 up.
        config = GridOracleConfig(well_R=ground_state_from_gamma(gamma_pi * math.pi).R)
        hard = GridOracleConfig.hard_wall().field_values
        assert hard == (-1e-3, -5e-4, 0.0, 5e-4, 1e-3)
        scale = min(1.0, config.ground.beta0**3)
        assert config.field_values == tuple(scale * v for v in hard)
        assert config.field_values == tuple(-v for v in reversed(config.field_values))

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
        # per distinct |eps'|, each by inverse iteration: no bisection.
        bisections, ground_states = [], []
        eigh = grid_oracle.eigh_tridiagonal
        lowest = grid_oracle._lowest_vector

        def counting_eigh(*args, **kwargs):
            bisections.append(args)
            return eigh(*args, **kwargs)

        def counting_lowest(*args, **kwargs):
            ground_states.append(args)
            return lowest(*args, **kwargs)

        monkeypatch.setattr(grid_oracle, "eigh_tridiagonal", counting_eigh)
        monkeypatch.setattr(grid_oracle, "_lowest_vector", counting_lowest)
        oracle_study(GridOracleConfig(well_R=R_REF, num_points=600), levels=2)
        assert len(bisections) == 0
        assert len(ground_states) == 5

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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"well_R": R_REF, "num_points": 100},
            {"well_R": R_REF, "num_states": 10},
            {"well_R": -1.0},
            {"well_R": R_REF, "box_half_width": 1},
            {"well_R": 0.6, "box_half_width": 12},  # tail needs ~113
            {"well_R": R_REF, "box_half_width": 12.5},
            {"well_R": R_REF, "box_half_width": 13.0},
            {"well_R": R_REF, "num_points": math.nan},
            {"well_R": R_REF, "num_points": math.inf},
            {"well_R": R_REF, "num_states": math.nan},
            {"well_R": 0.0},
            {"well_R": math.nan},
            {"well_R": math.inf},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(DomainError):
            GridOracleConfig(**{"num_points": 800, **kwargs})


class TestSpectrum:
    def test_ground_energy_matches_bound_state(self):
        # Stated check: request ~4000 points on a half-width-12 box.
        config = GridOracleConfig(well_R=R_REF, box_half_width=12, num_points=4000)
        result = solve_spectrum(config)
        beta0 = ground_state_from_R(R_REF).beta0
        assert result.energies[0] == pytest.approx(-beta0**2, rel=1e-3)

    def test_hard_wall_quadratic_ladder(self):
        config = GridOracleConfig.hard_wall(num_points=1000)
        result = solve_spectrum(config)
        base = math.pi**2 / 4.0
        for n in range(1, 8):
            assert result.energies[n - 1] == pytest.approx(n * n * base, rel=1e-4)

    @pytest.mark.parametrize("well_R", [None, 0.6, R_REF, 49.008061])
    def test_even_block_ground_pair_matches_full_grid(self, well_R):
        config = GridOracleConfig(well_R=well_R)
        x, diag, off = base_grid(config)
        start = grid_oracle._continuum_ground(config, x)
        e0, psi0 = grid_oracle._even_ground(diag, off, start)
        _, vec = grid_oracle._solve_band(diag, off, 0)
        assert psi0.size == diag.size
        assert e0 == pytest.approx(
            grid_oracle._rayleigh_refine(diag, off, vec[:, 0]), rel=1e-15, abs=0.0
        )
        assert np.max(np.abs(psi0 - vec[:, 0])) <= 1e-12

    @pytest.mark.parametrize("well_R", [None, 0.6, R_REF, 49.008061])
    @pytest.mark.parametrize("level", [0, 2])
    def test_continuum_start_matches_two_branch_formula(self, well_R, level):
        # Evaluated branch by branch on the nodes x' >= 0, the start equals
        # both branches taken on the whole grid and selected by |x'| <= 1.
        config = GridOracleConfig(well_R=well_R)
        x, _, _ = grid_oracle._grid(config, grid_oracle._multiplier(config) * 2**level)
        ax = np.abs(x)
        if well_R is None:
            whole = np.cos(0.5 * math.pi * x)
        else:
            g, b = config.ground.gamma0, config.ground.beta0
            tail = math.cos(g) * np.exp(-b * np.maximum(ax - 1.0, 0.0))
            whole = np.where(ax <= 1.0, np.cos(g * ax), tail)
        start = grid_oracle._continuum_ground(config, x)
        assert np.array_equal(x[x.size // 2 :], ax[x.size // 2 :])
        assert np.array_equal(start, whole[x.size // 2 :])
        assert np.array_equal(np.concatenate((start[:0:-1], start)), whole)

    def test_excited_start_is_not_certified(self):
        # Started on the even block's first excited state, inverse iteration
        # stays there; the factorisation below it fails, so the pair is
        # refused instead of returned as the ground state.
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        _, diag, off = base_grid(config)
        centre = diag.size // 2
        block_diag = diag[centre:]
        block_off = off[centre:].copy()
        block_off[0] *= math.sqrt(2.0)
        _, vec = grid_oracle._solve_band(block_diag, block_off, 1)
        with pytest.raises(NumericalError, match="has a state more than"):
            grid_oracle._lowest_vector(block_diag, block_off, vec[:, 1])

    def test_parity_of_lowest_states(self):
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = solve_spectrum(config)
        ground, first = result.states[:, 0], result.states[:, 1]
        assert np.max(np.abs(ground - ground[::-1])) <= 1e-8
        assert np.max(np.abs(first + first[::-1])) <= 1e-8


def exact_quotient(diag, off, vec) -> Fraction:
    """w.Tw / w.w of the stored arrays, exactly.

    Every double is an integer multiple of 2**-1074, so the sums run over
    Python integers in that unit, a rational only at the end.
    """
    unit = 2**1074
    d, e, w = (
        [p * (unit // q) for p, q in map(float.as_integer_ratio, a.tolist())]
        for a in (diag, off, vec)
    )
    quad = sum(a * b * b for a, b in zip(d, w))
    quad += 2 * sum(a * b * c for a, b, c in zip(e, w, w[1:]))
    return Fraction(quad, sum(b * b for b in w) * unit)


class TestRayleighQuotient:
    @pytest.mark.parametrize("well_R", [None, R_REF, 49.008061])
    @pytest.mark.parametrize("case", ["base", "tilted", "finest"])
    def test_within_four_ulp_of_exact_quotient(self, well_R, case):
        # The edge-difference form cancels no term of size |T| ~ 4 m^2, so
        # the ground energy is as good as the stored matrix and vector allow.
        config = GridOracleConfig(well_R=well_R)
        m = grid_oracle._multiplier(config) * (2**2 if case == "finest" else 1)  # levels=2
        x, diag, off = grid_oracle._grid(config, m)
        start = grid_oracle._continuum_ground(config, x)
        if case == "tilted":
            diag = diag - 1e-3 * x
            vec = grid_oracle._lowest_vector(diag, off, np.concatenate((start[:0:-1], start)))
        else:
            _, vec = grid_oracle._even_ground(diag, off, start)
        energy = grid_oracle._rayleigh_refine(diag, off, vec)
        exact = exact_quotient(diag, off, vec)
        assert abs(Fraction(energy) - exact) <= 4 * Fraction(math.ulp(float(exact)))

    @pytest.mark.parametrize("well_R", [None, R_REF, 49.008061, "random"])
    def test_identity_holds_for_any_vector(self, well_R):
        # The form is an identity for every symmetric tridiagonal, not an
        # approximation near eigenvectors: check it on random vectors, and
        # on a random matrix whose off-diagonal takes both signs.
        rng = np.random.default_rng(7)
        if well_R == "random":
            diag, off = rng.standard_normal(999), rng.standard_normal(998)
        else:
            _, diag, off = base_grid(GridOracleConfig(well_R=well_R))
        for _ in range(5):
            vec = rng.standard_normal(diag.size)
            w = vec.astype(np.longdouble)
            tw = grid_oracle._tridiag_matvec(
                diag.astype(np.longdouble), off.astype(np.longdouble), w
            )
            reference = float((w @ tw) / (w @ w))
            assert grid_oracle._rayleigh_refine(diag, off, vec) == pytest.approx(
                reference, rel=1e-13, abs=0.0
            )


class TestAlphaSum:
    @pytest.fixture(scope="class")
    def every_state(self):
        """The solve result and each grid state's share of the spectral sum."""
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = oracle_study(config)
        size = result.diagnostics["sum_num_points_actual"]
        spectrum = solve_spectrum(dataclasses.replace(config, num_states=size))
        assert spectrum.energies.size == size
        ground = spectrum.states[:, 0]
        elements = spectrum.states[:, 1:].T @ (spectrum.x * ground)
        gaps = spectrum.energies[1:] - spectrum.energies[0]
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

    def test_shift_above_odd_states_raises(self, monkeypatch):
        # H - E0 must be positive definite on the odd half-grid; a shift
        # past the first odd state breaks the Cholesky solve.
        monkeypatch.setattr(grid_oracle, "_rayleigh_refine", lambda *args: 1e3)
        with pytest.raises(NumericalError, match="not positive definite"):
            oracle_study(GridOracleConfig(well_R=R_REF, num_points=900))

    def test_hard_wall_matches_conventional_sum(self):
        config = GridOracleConfig.hard_wall(num_points=1000)
        result = oracle_study(config)
        reference = infinite_well_alpha(50).partial_alpha_prime
        assert result.alpha_sum == pytest.approx(reference, rel=2e-3)

    def test_reference_row_compared_to_published_value(self):
        # The published closed form at R = 9.037118 is 0.106382; the oracle
        # is exact, so the measured deviation (~1.5%) must stay inside 5%.
        config = GridOracleConfig(well_R=9.037118, num_points=900)
        result = oracle_study(config)
        assert abs(result.alpha_sum - 0.106382) / 0.106382 < 0.05


class TestCurvature:
    def test_two_routes_agree_at_matched_discretization(self):
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = oracle_study(config)
        gap = abs(result.alpha_sum - result.alpha_curvature)
        assert gap / result.alpha_sum < 5e-3

    def test_zero_field_row_reproduces_ground_energy(self):
        # The fit's zero-field point is the base grid's own ground energy.
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = oracle_study(config)
        fields = result.diagnostics["curvature_field_values"]
        energies = result.diagnostics["curvature_ground_energies"]
        x, diag, off = base_grid(config)
        e0, _ = grid_oracle._even_ground(diag, off, grid_oracle._continuum_ground(config, x))
        assert energies[fields.index(0.0)] == e0

    def test_no_permanent_dipole(self):
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = oracle_study(config)
        # linear term of the fit ~ 0 relative to the curvature scale
        assert abs(result.diagnostics["curvature_linear_coeff"]) <= 1e-6 * abs(
            result.diagnostics["curvature_quadratic_coeff"]
        )
        # The route takes E(-eps') from the solve at +eps'; a direct solve at
        # -eps' checks that symmetry instead of assuming it.
        x, diag, off = base_grid(config)
        eps = max(config.field_values)
        shifted = diag + eps * x
        _, vec = grid_oracle._solve_band(shifted, off, 0)
        energies = result.diagnostics["curvature_ground_energies"]
        mirrored = energies[config.field_values.index(-eps)]
        assert grid_oracle._rayleigh_refine(shifted, off, vec[:, 0]) == pytest.approx(
            mirrored, rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize(
        "well_R", [None, ground_state_from_gamma(0.2 * math.pi).R, R_REF, 49.008061]
    )
    def test_field_energies_match_bisection_reference(self, well_R):
        config = GridOracleConfig(well_R=well_R)
        energies = oracle_study(config).diagnostics["curvature_ground_energies"]
        x, diag, off = base_grid(config)
        for eps, energy in zip(config.field_values, energies):
            if eps == 0.0:
                continue
            shifted = diag - abs(eps) * x
            _, vec = grid_oracle._solve_band(shifted, off, 0)
            reference = grid_oracle._rayleigh_refine(shifted, off, vec[:, 0])
            assert energy == pytest.approx(reference, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("step", range(17))
    def test_field_guard_matches_bisection_reference(self, step):
        # gamma0 = 0.15 pi ... 0.19 pi: the route must refuse the field
        # exactly where the grid's lowest state at some |eps'| has left the
        # well, which the full bisection solve shows by where it peaks.
        state = ground_state_from_gamma((0.15 + 0.0025 * step) * math.pi)
        config = GridOracleConfig(well_R=state.R)
        x, diag, off = base_grid(config)
        escaped = False
        for size in {abs(eps) for eps in config.field_values} - {0.0}:
            _, vec = grid_oracle._solve_band(diag - size * x, off, 0)
            escaped |= abs(x[int(np.argmax(np.abs(vec[:, 0])))]) > 1.0
        if escaped:
            with pytest.raises(FieldTooLargeError):
                oracle_study(config)
        else:
            assert oracle_study(config).alpha_curvature > 0.0

    def test_study_shares_zero_field_energy(self):
        result = oracle_study(GridOracleConfig(well_R=R_REF, num_points=600), levels=2)
        fields = result.diagnostics["curvature_field_values"]
        energies = result.diagnostics["curvature_ground_energies"]
        assert energies[fields.index(0.0)] == result.ground_energy_dimless

    def test_fit_residual_is_tiny_for_reference_row(self):
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = oracle_study(config)
        assert result.diagnostics["curvature_fit_residual_rel"] <= 1e-10

    def test_shallow_well_with_large_fields_trips_guard(self):
        # Fields of +-1e-2, unscaled, pull the ground state of this weak
        # well out of the box's well.
        config = GridOracleConfig(well_R=0.6, num_points=500)
        x, diag, off = base_grid(config)
        start = grid_oracle._continuum_ground(config, x)
        e0, _ = grid_oracle._even_ground(diag, off, start)
        whole = np.concatenate((start[:0:-1], start))
        with pytest.raises(FieldTooLargeError):
            grid_oracle._curvature(x, diag, off, whole, (-1e-2, -5e-3, 0.0, 5e-3, 1e-2), e0)


# well_R -> float.hex of (alpha_sum, alpha_curvature, richardson_alpha,
# ground_energy_dimless) of oracle_study at 600 points and levels=2, as the
# continuum start evaluated on the whole grid gave them; at 0.2 pi
# (beta0 < 1) alpha_curvature is from the probe fields scaled by beta0^3.
STUDY_HEX = {
    None: (
        "0x1.1fa4cf038157dp-4",
        "0x1.1fa4d17e75e2ep-4",
        "0x1.1fa3f860c4175p-4",
        "0x1.3bd39da29fe9ep+1",
    ),
    R_REF: (
        "0x1.af48a9b395714p-3",
        "0x1.af48a5134fcd0p-3",
        "0x1.afae8584d16dcp-3",
        "-0x1.7290f64de850ep+3",
    ),
    ground_state_from_gamma(0.2 * math.pi).R: (
        "0x1.0d83dc0d1f922p+5",
        "0x1.0d840f5b54897p+5",
        "0x1.0b830178095bap+5",
        "-0x1.a980539241938p-3",
    ),
}


class TestPinnedStudy:
    @pytest.mark.parametrize("well_R", list(STUDY_HEX))
    def test_study_outputs_match_pinned_bits(self, well_R):
        config = (
            GridOracleConfig.hard_wall(num_points=600)
            if well_R is None
            else GridOracleConfig(well_R=well_R, num_points=600)
        )
        result = oracle_study(config, levels=2)
        got = (
            result.alpha_sum,
            result.alpha_curvature,
            result.richardson_alpha,
            result.ground_energy_dimless,
        )
        assert tuple(v.hex() for v in got) == STUDY_HEX[well_R]


class TestRefine:
    def test_observed_order_near_two(self):
        config = GridOracleConfig(well_R=R_REF, num_points=600)
        result = oracle_study(config, levels=2)
        assert 1.5 <= result.diagnostics["refine_observed_order"] <= 2.5

    def test_convergence_warning_points_at_caller(self):
        # 500 points on a half-width-12 box at gamma0 = 0.49 pi are
        # pre-asymptotic (order ~1.07); the derived box of 2 is not.
        state = ground_state_from_gamma(0.49 * math.pi)
        config = GridOracleConfig(well_R=state.R, box_half_width=12, num_points=500)
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", range(23))
def test_both_routes_match_closed_form_across_well_range(k):
    # gamma0 = 0.05 pi ... 0.49 pi at the default 2000 points: the derived box
    # and probe fields keep both routes working down to the weak wells.
    # Measured: route gap <= 3.2e-6 up to 0.47 pi and 1.2e-4 at 0.49 pi;
    # Richardson 9.7e-7 off at 0.05 pi and <= 1.2e-8 from 0.19 pi up.
    gamma_pi = 0.05 + 0.02 * k
    state = ground_state_from_gamma(gamma_pi * math.pi)
    result = oracle_study(GridOracleConfig(well_R=state.R), levels=2)
    route_gap = abs(result.alpha_sum - result.alpha_curvature) / result.alpha_sum
    assert route_gap <= (1e-5 if gamma_pi < 0.48 else 5e-4)
    exact = alpha_exact_prime(state)
    assert result.richardson_alpha == pytest.approx(
        exact, rel=2e-8 if gamma_pi > 0.18 else 2e-6, abs=0.0
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

    def test_combined_study_fills_everything(self):
        result = oracle_study(GridOracleConfig.hard_wall(num_points=600), levels=2)
        assert result.alpha_sum > 0
        assert result.alpha_curvature > 0
        assert result.richardson_alpha > 0
        assert "sum_solve_residual" in result.diagnostics
        assert "curvature_fit_residual" in result.diagnostics
        assert "refine_observed_order" in result.diagnostics
