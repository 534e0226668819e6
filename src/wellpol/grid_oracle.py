"""Brute-force polarizability oracle on a finite-difference grid.

The dimensionless Hamiltonian -d^2/dx'^2 - R^2 * [|x'| < 1] (energies in
hbar^2 / (2 m a^2)) is discretized with the three-point stencil on a hard-
wall box [-L, L] as a symmetric tridiagonal matrix.  The grid is mirror-
symmetric node for node, so the zero-field ground state is exactly even and
its eigenpair comes from the even block (nodes x' >= 0), half the size of
the grid.  The polarizability then comes out two independent ways:

  * Dalgarno-Lewis solve  (H - E_0') phi = x' psi0 on the odd half-grid,
                          alpha' = 4 <x' psi0|phi>, which is the spectral
                          sum 4 sum_n |<n|x'|0>|^2 / (E_n' - E_0') over every
                          grid state, without building one excited state
  * field curvature       E_0'(eps') = E_0' - (alpha'/4) eps'^2, quadratic fit;
                          the matrix at -eps' is the exact mirror image of
                          the one at +eps', so one full-grid eigensolve per
                          |eps'| serves both signs, and E_0' is the even
                          block's

The grid is always aligned so the well edges +-1 fall on nodes (edge nodes
take half the well depth), which keeps the eigenvalue error a clean O(h^2)
and makes Richardson extrapolation across grid doublings meaningful
(``refine`` calls ``limits.extrapolate`` with ratio 1/4).
Ground energies are refined with an extended-precision Rayleigh quotient so
the curvature fit is not polluted by eigensolver noise.  ``oracle_study``
makes one even-block eigensolve per refinement level, whose base level
serves the sum route and the zero field of the curvature fit too.

A ``well_R`` of None selects the bare hard-wall box of half-width 1 (the
infinite-well configuration); responses then check out against the
analytic transition sum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, solveh_banded

from .errors import ConvergenceWarning, DomainError, FieldTooLargeError, NumericalError
from .limits import extrapolate
from .well_spectrum import ground_state_from_R

__all__ = [
    "DEFAULT_FIELDS",
    "GridOracleConfig",
    "SpectrumResult",
    "OracleResult",
    "solve_spectrum",
    "alpha_sum_over_states",
    "alpha_from_curvature",
    "refine",
    "oracle_study",
]

DEFAULT_FIELDS: tuple[float, ...] = (-1e-3, -5e-4, 0.0, 5e-4, 1e-3)

# Relative agreement required between the two oracle routes at matched
# discretization before a combined result is considered sane.
_ROUTE_AGREEMENT = 5e-3


@dataclass(frozen=True)
class GridOracleConfig:
    """Discretization and study parameters for one oracle run.

    ``well_R`` is the dimensionless well strength; None selects the
    hard-wall box of half-width 1.  ``box_half_width`` is resolved on
    construction, from the one bound-state solve: 1 for the hard wall, and
    max(12, ceil(1 + 40/beta0)) for a well when none is given.
    ``num_points`` is a request: the actual grid is snapped up to the
    nearest size whose nodes hit the well edges.
    """

    well_R: Optional[float]
    box_half_width: Optional[int] = None
    num_points: int = 2000
    num_states: int = 200
    field_values: tuple[float, ...] = DEFAULT_FIELDS

    def __post_init__(self) -> None:
        if self.num_points < 500:
            raise DomainError(f"num_points must be >= 500, got {self.num_points!r}")
        if self.num_states < 50:
            raise DomainError(f"num_states must be >= 50, got {self.num_states!r}")
        fields = tuple(float(v) for v in self.field_values)
        object.__setattr__(self, "field_values", fields)
        if len(fields) < 3:
            raise DomainError("need at least 3 field values for a quadratic fit")
        if max(abs(v) for v in fields) > 1e-2:
            raise DomainError("field strengths must satisfy |eps'| <= 1e-2")
        lo = sorted(fields)
        if any(a != -b for a, b in zip(lo, reversed(lo))):
            raise DomainError("field values must be symmetric about 0")
        if self.well_R is None:
            if self.box_half_width not in (None, 1):
                raise DomainError("hard-wall configuration fixes the box half-width to 1")
            object.__setattr__(self, "box_half_width", 1)
            return
        if not (math.isfinite(self.well_R) and self.well_R > 0.0):
            raise DomainError(f"well_R must be positive, got {self.well_R!r}")
        beta0 = ground_state_from_R(self.well_R).beta0
        if self.box_half_width is None:
            object.__setattr__(
                self, "box_half_width", max(12, math.ceil(1.0 + 40.0 / beta0))
            )
        else:
            if self.box_half_width < 2:
                raise DomainError("box half-width must be an integer >= 2")
            if self.box_half_width < 1.0 + 30.0 / beta0:
                raise DomainError(
                    f"box half-width {self.box_half_width} does not contain the "
                    f"bound-state tail; need >= 1 + 30/beta0 = {1.0 + 30.0 / beta0:.2f}"
                )

    @classmethod
    def hard_wall(
        cls,
        num_points: int = 2000,
        num_states: int = 200,
        field_values: tuple[float, ...] = DEFAULT_FIELDS,
    ) -> "GridOracleConfig":
        return cls(
            well_R=None,
            num_points=num_points,
            num_states=num_states,
            field_values=field_values,
        )


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest eigenpairs of the discretized Hamiltonian on its grid."""

    x: np.ndarray
    h: float
    box_half_width: int
    energies: np.ndarray
    states: np.ndarray  # column n is the n-th eigenvector, unit 2-norm


@dataclass(frozen=True)
class OracleResult:
    """Oracle polarizabilities plus convergence metadata."""

    alpha_sum: Optional[float]
    alpha_curvature: Optional[float]
    ground_energy_dimless: float
    richardson_alpha: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.alpha_sum is not None and not self.alpha_sum > 0.0:
            raise NumericalError(f"alpha_sum must be positive, got {self.alpha_sum!r}")
        if self.alpha_curvature is not None and not self.alpha_curvature > 0.0:
            raise NumericalError(
                f"alpha_curvature must be positive, got {self.alpha_curvature!r}"
            )
        if self.alpha_sum is not None and self.alpha_curvature is not None:
            gap = abs(self.alpha_sum - self.alpha_curvature) / self.alpha_sum
            if gap > _ROUTE_AGREEMENT:
                raise NumericalError(
                    f"oracle routes disagree by {gap:.2e} at matched discretization"
                )


def _grid(config: GridOracleConfig, m_override: Optional[int] = None):
    """Aligned grid arrays: abscissae, diagonal, off-diagonal, spacing, L, m."""
    L = config.box_half_width
    m = m_override if m_override is not None else math.ceil(
        (config.num_points + 1) / (2 * L)
    )
    n = 2 * L * m - 1
    k = np.arange(1, n + 1) - L * m
    x = k / float(m)
    if config.well_R is None:
        v = np.zeros(n)
    else:
        r_sq = config.well_R**2
        v = np.where(np.abs(k) < m, -r_sq, 0.0)
        v[np.abs(k) == m] = -0.5 * r_sq  # edge nodes take the mean of the jump
    diag = 2.0 * m * m + v
    off = np.full(n - 1, -float(m) * m)
    return x, diag, off, 1.0 / m, L, m


def _rayleigh_refine(diag: np.ndarray, off: np.ndarray, vec: np.ndarray) -> float:
    """Rayleigh quotient of an eigenvector in extended precision.

    Backward-stable tridiagonal solvers leave absolute eigenvalue noise of
    order eps * ||T||, which is comparable to the Stark curvature signal on
    fine grids; the long-double quotient removes it.
    """
    d = diag.astype(np.longdouble)
    e = off.astype(np.longdouble)
    w = vec.astype(np.longdouble)
    tw = d * w
    tw[:-1] += e * w[1:]
    tw[1:] += e * w[:-1]
    return float((w @ tw) / (w @ w))


def _solve_band(diag, off, hi_index: int):
    try:
        lam, vec = eigh_tridiagonal(diag, off, select="i", select_range=(0, hi_index))
    except Exception as exc:  # pragma: no cover - LAPACK failure path
        raise NumericalError(
            f"tridiagonal eigensolver failed (n={diag.size}): {exc}"
        ) from exc
    # Deterministic sign convention: largest-magnitude component positive.
    for j in range(vec.shape[1]):
        col = vec[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            vec[:, j] = -col
    return lam, vec


def solve_spectrum(config: GridOracleConfig) -> SpectrumResult:
    """Lowest ``num_states`` eigenpairs of the discretized Hamiltonian."""
    x, diag, off, h, L, _ = _grid(config)
    hi = min(config.num_states, x.size) - 1
    lam, vec = _solve_band(diag, off, hi)
    return SpectrumResult(x=x, h=h, box_half_width=L, energies=lam, states=vec)


def _even_ground(diag: np.ndarray, off: np.ndarray):
    """Ground energy and unit eigenvector of the grid from its even block.

    The ground state is even, so the nodes x' >= 0 carry it.  On them the
    centre row reads d psi(0) + 2 e psi(h); with psi(0) scaled by 1/sqrt(2)
    the block is symmetric tridiagonal, half the size of the grid.  The
    energy is the Rayleigh quotient of the rebuilt full vector: taken on the
    scaled block, the rounded sqrt(2) would move it by ~1e-13 relative.
    """
    centre = diag.size // 2
    block_off = off[centre:].copy()
    block_off[0] *= math.sqrt(2.0)
    _, vec = _solve_band(diag[centre:], block_off, 0)
    half = vec[1:, 0] / math.sqrt(2.0)
    psi = np.concatenate((half[::-1], vec[:1, 0], half))
    return _rayleigh_refine(diag, off, psi), psi


def _alpha_sum_at(config: GridOracleConfig, m_override: Optional[int] = None):
    x, diag, off, h, L, m = _grid(config, m_override)
    e0, psi0 = _even_ground(diag, off)
    # phi is odd, so phi(0) = 0 and the nodes x' > 0 carry the whole
    # problem.  That block holds only odd states, all above E_0', so
    # H - E_0' is positive definite there and Cholesky applies.
    right = x > 0.0
    b = (x * psi0)[right]
    band = np.empty((2, b.size))
    band[0, 0] = 0.0
    band[0, 1:] = off[x.size - b.size:]
    band[1] = diag[right] - e0
    try:
        phi = solveh_banded(band, b)
    except LinAlgError as exc:
        raise NumericalError(
            f"H - E0 is not positive definite on the odd half-grid (n={x.size}): {exc}"
        ) from exc
    residual = band[1] * phi - b
    residual[:-1] += band[0, 1:] * phi[1:]
    residual[1:] += band[0, 1:] * phi[:-1]
    solve_residual = float(np.max(np.abs(residual)) / np.max(np.abs(b)))
    # the full-grid <x psi0|phi> counts each half once: 4 * 2 * b.phi
    alpha = 8.0 * float(b @ phi)
    return alpha, e0, solve_residual, h, L, m, x.size


def _sum_result(solve) -> OracleResult:
    """OracleResult of the sum route from one ``_alpha_sum_at`` solve."""
    alpha, e0, solve_residual, h, L, m, n = solve
    diagnostics = {
        "num_points_actual": n,
        "box_half_width": L,
        "grid_spacing": h,
        "solve_residual": solve_residual,
    }
    return OracleResult(
        alpha_sum=alpha,
        alpha_curvature=None,
        ground_energy_dimless=e0,
        diagnostics=diagnostics,
    )


def alpha_sum_over_states(config: GridOracleConfig) -> OracleResult:
    """Polarizability from the discrete Dalgarno-Lewis equation.

    Equal to the transition sum over every state of the grid Hamiltonian;
    ``solve_residual`` is the relative infinity-norm residual of the solve.
    """
    return _sum_result(_alpha_sum_at(config))


def alpha_from_curvature(config: GridOracleConfig) -> OracleResult:
    """Polarizability from the curvature of the ground energy in the field.

    The zero-field energy comes from the even block of the grid.  The grid
    is mirror-symmetric node for node, so the matrix at -eps' is the exact
    reversal of the one at +eps' and has the same spectrum: one eigensolve
    per distinct |eps'| serves both signs.
    """
    return _curvature(config)


def _curvature(config: GridOracleConfig, e0: Optional[float] = None) -> OracleResult:
    """``alpha_from_curvature``, reusing ``e0``, the zero-field energy of the grid, if given."""
    x, diag, off, h, L, m = _grid(config)
    if e0 is None:
        e0, _ = _even_ground(diag, off)
    fields = np.asarray(config.field_values)
    by_size = {0.0: e0}
    for size in np.abs(fields):
        if size not in by_size:
            shifted = diag - size * x
            _, vec = _solve_band(shifted, off, 0)
            by_size[size] = _rayleigh_refine(shifted, off, vec[:, 0])
    energies = np.array([by_size[size] for size in np.abs(fields)])
    coeffs = np.polyfit(fields, energies, 2)
    fit = np.polyval(coeffs, fields)
    residual = float(np.max(np.abs(fit - energies)))
    curvature = float(coeffs[0])
    rel_residual = residual / max(abs(curvature), 1e-300)
    if rel_residual > 1e-8:
        raise FieldTooLargeError(
            f"non-quadratic fit residual {residual:.3e} is {rel_residual:.3e} of the "
            f"curvature coefficient {curvature:.3e}; shrink the probe fields"
        )
    return OracleResult(
        alpha_sum=None,
        alpha_curvature=-4.0 * curvature,
        ground_energy_dimless=e0,
        diagnostics={
            "num_points_actual": x.size,
            "box_half_width": L,
            "grid_spacing": h,
            "field_values": tuple(float(v) for v in fields),
            "ground_energies": tuple(float(v) for v in energies),
            "fit_residual": residual,
            "fit_residual_rel": rel_residual,
            "linear_coeff": float(coeffs[1]),
            "quadratic_coeff": curvature,
        },
    )


def refine(config: GridOracleConfig, levels: int = 2) -> OracleResult:
    """Richardson-extrapolate the Dalgarno-Lewis alpha' over grid doublings.

    Assumes the second-order convergence of the three-point stencil; the
    observed order is reported, with a warning outside [1.5, 2.5].  Deep
    wells approach that order late (successive-difference ratios 3.32,
    3.80, 3.95 against the asymptotic 4 at gamma0 = 0.49 pi from 1100
    points), so two doublings leave the extrapolated value 3.5e-5 off there.
    With ``levels=4`` from 1100 points it lies within 1e-6 (relative) of
    ``alpha_exact_prime`` on every Table-1 row.
    """
    return _refine(config, levels)


def _refine(config: GridOracleConfig, levels: int, base=None) -> OracleResult:
    """``refine``, reusing ``base``, the ``_alpha_sum_at`` solve of level 0, if given."""
    if levels < 2:
        raise DomainError(f"need at least 2 grid doublings, got {levels!r}")
    if base is None:
        base = _alpha_sum_at(config)
    _, _, _, _, L, m0, _ = base
    solves = [base] + [
        _alpha_sum_at(config, m_override=m0 * 2**level) for level in range(1, levels + 1)
    ]
    alphas, e0s, _, _, _, ms, ns = zip(*solves)
    d_prev = alphas[-2] - alphas[-3]
    d_last = alphas[-1] - alphas[-2]
    observed = math.log2(abs(d_prev / d_last)) if d_last != 0.0 and d_prev != 0.0 else math.nan
    if not 1.5 <= observed <= 2.5:
        warnings.warn(
            f"observed convergence order {observed:.2f} outside [1.5, 2.5]",
            ConvergenceWarning,
            stacklevel=3,
        )
    richardson = extrapolate(alphas, ratio=0.25)
    return OracleResult(
        alpha_sum=alphas[-1],
        alpha_curvature=None,
        ground_energy_dimless=e0s[-1],
        richardson_alpha=richardson,
        diagnostics={
            "box_half_width": L,
            "grid_multipliers": ms,
            "grid_sizes": ns,
            "alpha_per_level": alphas,
            "ground_energy_per_level": e0s,
            "observed_order": observed,
        },
    )


def oracle_study(config: GridOracleConfig, levels: int = 2) -> OracleResult:
    """Run both oracle routes and the refinement, and merge the results."""
    # The sum route solves the same grid as level 0 of the refinement, so
    # that one solve serves both, and its ground energy is the zero-field
    # point of the curvature fit.
    base = _alpha_sum_at(config)
    sum_result = _sum_result(base)
    curv_result = _curvature(config, sum_result.ground_energy_dimless)
    refined = _refine(config, levels, base)
    diagnostics = {f"sum_{k}": v for k, v in sum_result.diagnostics.items()}
    diagnostics.update({f"curvature_{k}": v for k, v in curv_result.diagnostics.items()})
    diagnostics.update({f"refine_{k}": v for k, v in refined.diagnostics.items()})
    return OracleResult(
        alpha_sum=sum_result.alpha_sum,
        alpha_curvature=curv_result.alpha_curvature,
        ground_energy_dimless=sum_result.ground_energy_dimless,
        richardson_alpha=refined.richardson_alpha,
        diagnostics=diagnostics,
    )
