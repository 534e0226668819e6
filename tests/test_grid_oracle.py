"""Grid oracle tests: spectra, both alpha routes, refinement."""

import dataclasses
import math

import numpy as np
import pytest

from wellpol.conventional_sum import infinite_well_alpha
from wellpol.dalgarno_lewis import alpha_exact_prime
from wellpol import grid_oracle
from wellpol.errors import DomainError, FieldTooLargeError, NumericalError
from wellpol.grid_oracle import (
    GridOracleConfig,
    OracleResult,
    alpha_from_curvature,
    alpha_sum_over_states,
    oracle_study,
    refine,
    solve_spectrum,
)
from wellpol.well_spectrum import ground_state_from_R, ground_state_from_gamma

R_REF = 3.617018  # gamma0 = 0.39 pi row


class TestConfig:
    def test_defaults_resolve_box(self):
        config = GridOracleConfig(well_R=R_REF, num_points=800)
        assert config.box_half_width == 13

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
        # sum route and the zero field too) and one full-grid solve per
        # distinct |eps'|.
        calls = []
        solve = grid_oracle.eigh_tridiagonal

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(grid_oracle, "eigh_tridiagonal", counting)
        oracle_study(GridOracleConfig(well_R=R_REF, num_points=600), levels=2)
        assert len(calls) == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"well_R": R_REF, "num_points": 100},
            {"well_R": R_REF, "num_states": 10},
            {"well_R": -1.0},
            {"well_R": R_REF, "box_half_width": 1},
            {"well_R": 0.6, "box_half_width": 12},  # tail needs ~113
            {"well_R": R_REF, "field_values": (0.0, 1e-3, 2e-3)},
            {"well_R": R_REF, "field_values": (-0.5, 0.0, 0.5)},
            {"well_R": R_REF, "field_values": (0.0, 1e-3)},
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
        _, diag, off, *_ = grid_oracle._grid(config)
        e0, psi0 = grid_oracle._even_ground(diag, off)
        _, vec = grid_oracle._solve_band(diag, off, 0)
        assert psi0.size == diag.size
        assert e0 == pytest.approx(
            grid_oracle._rayleigh_refine(diag, off, vec[:, 0]), rel=1e-15, abs=0.0
        )
        assert np.max(np.abs(psi0 - vec[:, 0])) <= 1e-12

    def test_parity_of_lowest_states(self):
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = solve_spectrum(config)
        ground, first = result.states[:, 0], result.states[:, 1]
        assert np.max(np.abs(ground - ground[::-1])) <= 1e-8
        assert np.max(np.abs(first + first[::-1])) <= 1e-8


class TestAlphaSum:
    @pytest.fixture(scope="class")
    def every_state(self):
        """The solve result and each grid state's share of the spectral sum."""
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = alpha_sum_over_states(config)
        size = result.diagnostics["num_points_actual"]
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
        with pytest.raises(NumericalError):
            alpha_sum_over_states(GridOracleConfig(well_R=R_REF, num_points=900))

    def test_hard_wall_matches_conventional_sum(self):
        config = GridOracleConfig.hard_wall(num_points=1000)
        result = alpha_sum_over_states(config)
        reference = infinite_well_alpha(50).partial_alpha_prime
        assert result.alpha_sum == pytest.approx(reference, rel=2e-3)

    def test_reference_row_compared_to_published_value(self):
        # The published closed form at R = 9.037118 is 0.106382; the oracle
        # is exact, so the measured deviation (~1.5%) must stay inside 5%.
        config = GridOracleConfig(well_R=9.037118, num_points=900)
        result = alpha_sum_over_states(config)
        assert abs(result.alpha_sum - 0.106382) / 0.106382 < 0.05


class TestCurvature:
    def test_two_routes_agree_at_matched_discretization(self):
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        by_sum = alpha_sum_over_states(config)
        by_curvature = alpha_from_curvature(config)
        gap = abs(by_sum.alpha_sum - by_curvature.alpha_curvature)
        assert gap / by_sum.alpha_sum < 5e-3

    def test_zero_field_row_reproduces_ground_energy(self):
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = alpha_from_curvature(config)
        fields = result.diagnostics["field_values"]
        energies = result.diagnostics["ground_energies"]
        assert energies[fields.index(0.0)] == result.ground_energy_dimless

    def test_no_permanent_dipole(self):
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = alpha_from_curvature(config)
        # linear term of the fit ~ 0 relative to the curvature scale
        assert abs(result.diagnostics["linear_coeff"]) <= 1e-6 * abs(
            result.diagnostics["quadratic_coeff"]
        )
        # The route takes E(-eps') from the solve at +eps'; a direct solve at
        # -eps' checks that symmetry instead of assuming it.
        x, diag, off, *_ = grid_oracle._grid(config)
        eps = max(config.field_values)
        shifted = diag + eps * x
        _, vec = grid_oracle._solve_band(shifted, off, 0)
        mirrored = result.diagnostics["ground_energies"][config.field_values.index(-eps)]
        assert grid_oracle._rayleigh_refine(shifted, off, vec[:, 0]) == pytest.approx(
            mirrored, rel=1e-14, abs=0.0
        )

    def test_study_shares_zero_field_energy(self):
        result = oracle_study(GridOracleConfig(well_R=R_REF, num_points=600), levels=2)
        fields = result.diagnostics["curvature_field_values"]
        energies = result.diagnostics["curvature_ground_energies"]
        assert energies[fields.index(0.0)] == result.ground_energy_dimless

    def test_fit_residual_is_tiny_for_reference_row(self):
        config = GridOracleConfig(well_R=R_REF, num_points=900)
        result = alpha_from_curvature(config)
        assert result.diagnostics["fit_residual_rel"] <= 1e-10

    def test_shallow_well_with_large_fields_trips_guard(self):
        config = GridOracleConfig(
            well_R=0.6,
            num_points=500,
            field_values=(-1e-2, -5e-3, 0.0, 5e-3, 1e-2),
        )
        with pytest.raises(FieldTooLargeError):
            alpha_from_curvature(config)


class TestRefine:
    def test_observed_order_near_two(self):
        config = GridOracleConfig(well_R=R_REF, num_points=600)
        result = refine(config, levels=2)
        assert 1.5 <= result.diagnostics["observed_order"] <= 2.5

    def test_hard_wall_extrapolation_is_stable(self):
        coarse = refine(GridOracleConfig.hard_wall(num_points=600), levels=2)
        finer = refine(GridOracleConfig.hard_wall(num_points=1200), levels=2)
        assert coarse.richardson_alpha == pytest.approx(
            finer.richardson_alpha, abs=1e-4 * finer.richardson_alpha
        )

    def test_deep_well_row_against_published_value(self):
        # R = 49.008061 is the one Table-1 row where the closed form is
        # essentially exact; the extrapolated oracle lands within 2%.
        config = GridOracleConfig(well_R=49.008061, num_points=1200)
        result = refine(config, levels=2)
        assert abs(result.richardson_alpha - 0.076129) / 0.076129 < 0.02

    @pytest.mark.parametrize("gamma_pi", [0.39, 0.41, 0.43, 0.45, 0.47, 0.49])
    def test_four_levels_match_edge_matched_closed_form(self, gamma_pi):
        # Order 2 holds; deep wells are only pre-asymptotic at two levels.
        state = ground_state_from_gamma(gamma_pi * math.pi)
        config = GridOracleConfig(well_R=state.R, num_points=1100)
        result = refine(config, levels=4)
        assert result.richardson_alpha == pytest.approx(alpha_exact_prime(state), rel=1e-6)

    def test_rejects_single_level(self):
        with pytest.raises(DomainError):
            refine(GridOracleConfig.hard_wall(num_points=600), levels=1)


class TestOracleResult:
    def test_positivity_enforced(self):
        with pytest.raises(NumericalError):
            OracleResult(alpha_sum=-1.0, alpha_curvature=None, ground_energy_dimless=0.0)

    def test_route_mismatch_enforced(self):
        with pytest.raises(NumericalError):
            OracleResult(
                alpha_sum=0.2, alpha_curvature=0.1, ground_energy_dimless=0.0
            )

    def test_combined_study_fills_everything(self):
        result = oracle_study(GridOracleConfig.hard_wall(num_points=600), levels=2)
        assert result.alpha_sum > 0
        assert result.alpha_curvature > 0
        assert result.richardson_alpha > 0
        assert "sum_solve_residual" in result.diagnostics
        assert "curvature_fit_residual" in result.diagnostics
        assert "refine_observed_order" in result.diagnostics
