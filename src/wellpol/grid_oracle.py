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
                          the one at +eps', so one full-grid ground state per
                          |eps'| serves both signs, and E_0' is the even
                          block's

Every ground state comes from shifted inverse iteration started at the
continuum ground state sampled on the nodes, one O(n) tridiagonal solve per
step, and is certified as the lowest state by one positive-definite
factorisation below it (Sylvester's law of inertia).  No ground state needs
a bisection eigensolver; ``solve_spectrum`` keeps one as the full-spectrum
reference.

The grid is always aligned so the well edges +-1 fall on nodes (edge nodes
take half the well depth), which keeps the eigenvalue error a clean O(h^2)
and makes Richardson extrapolation across grid doublings meaningful
(``limits.extrapolate`` with ratio 1/4).
Ground energies are Rayleigh quotients in an edge-difference form free of
cancellation, so the curvature fit is not polluted by eigensolver noise.
``oracle_study`` is the one entry point: it builds each of its grids once
and finds one even-block ground state on each, for the Dalgarno-Lewis solve
of that level; the base grid's also serves as the zero field of the
curvature fit.

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
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dpttrf, dptsv

from .errors import ConvergenceWarning, DomainError, FieldTooLargeError, NumericalError
from .limits import extrapolate
from .well_spectrum import GroundState, ground_state_from_R

__all__ = [
    "GridOracleConfig",
    "SpectrumResult",
    "OracleResult",
    "solve_spectrum",
    "oracle_study",
]

# Stark probe fields eps' of the curvature route, scaled per well on construction.
_PROBE_FIELDS = (-1e-3, -5e-4, 0.0, 5e-4, 1e-3)

# Relative agreement required between the two oracle routes at matched
# discretization before a combined result is considered sane.
_ROUTE_AGREEMENT = 5e-3

# Inverse-iteration steps allowed before a ground state counts as lost.
_MAX_INVERSE_STEPS = 30
_EPS = float(np.finfo(float).eps)


def _require_int(name: str, value, minimum: int) -> None:
    if not (isinstance(value, int) and value >= minimum):
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class GridOracleConfig:
    """Discretization and study parameters for one oracle run.

    ``well_R`` is the dimensionless well strength; None selects the
    hard-wall box of half-width 1.  ``box_half_width`` and ``field_values``
    are resolved on construction, from the one bound-state solve: the box is
    1 for the hard wall and ceil(1 + 40/beta0) for a well when none is given,
    where psi0 has fallen to e^-40 of its edge value; the probe fields are
    ``_PROBE_FIELDS`` times min(1, beta0^3).  That solve is kept as
    ``ground`` (None for the hard wall); it starts the grid's ground-state
    iterations.  ``num_points`` is a request: the actual grid is snapped up
    to the nearest size whose nodes hit the well edges.
    """

    well_R: Optional[float]
    box_half_width: Optional[int] = None
    num_points: int = 2000
    num_states: int = 200
    field_values: tuple[float, ...] = field(init=False)
    ground: Optional[GroundState] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_int("num_points", self.num_points, 500)
        _require_int("num_states", self.num_states, 50)
        if self.well_R is None:
            if self.box_half_width not in (None, 1):
                raise DomainError("hard-wall configuration fixes the box half-width to 1")
            object.__setattr__(self, "box_half_width", 1)
            object.__setattr__(self, "field_values", _PROBE_FIELDS)
            object.__setattr__(self, "ground", None)
            return
        if not (math.isfinite(self.well_R) and self.well_R > 0.0):
            raise DomainError(f"well_R must be positive, got {self.well_R!r}")
        object.__setattr__(self, "ground", ground_state_from_R(self.well_R))
        beta0 = self.ground.beta0
        if self.box_half_width is None:
            object.__setattr__(self, "box_half_width", math.ceil(1.0 + 40.0 / beta0))
        else:
            _require_int("box half-width", self.box_half_width, 2)
            if self.box_half_width < 1.0 + 30.0 / beta0:
                raise DomainError(
                    f"box half-width {self.box_half_width} does not contain the "
                    f"bound-state tail; need >= 1 + 30/beta0 = {1.0 + 30.0 / beta0:.2f}"
                )
        # The field drops by ~eps'/beta0 across the tail, which must stay
        # small against the binding beta0^2, or the tilted box's ground
        # state leaves the well.
        scale = min(1.0, beta0**3)
        object.__setattr__(self, "field_values", tuple(scale * v for v in _PROBE_FIELDS))

    @classmethod
    def hard_wall(cls, num_points: int = 2000, num_states: int = 200) -> "GridOracleConfig":
        return cls(well_R=None, num_points=num_points, num_states=num_states)


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

    alpha_sum: float
    alpha_curvature: float
    ground_energy_dimless: float
    richardson_alpha: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.alpha_sum > 0.0:
            raise NumericalError(f"alpha_sum must be positive, got {self.alpha_sum!r}")
        if not self.alpha_curvature > 0.0:
            raise NumericalError(
                f"alpha_curvature must be positive, got {self.alpha_curvature!r}"
            )
        gap = abs(self.alpha_sum - self.alpha_curvature) / self.alpha_sum
        if gap > _ROUTE_AGREEMENT:
            raise NumericalError(
                f"oracle routes disagree by {gap:.2e} at matched discretization"
            )


def _multiplier(config: GridOracleConfig) -> int:
    """Nodes per unit length of the base grid: the fewest that give ``num_points``."""
    return math.ceil((config.num_points + 1) / (2 * config.box_half_width))


def _grid(config: GridOracleConfig, m: int):
    """Abscissae, diagonal and off-diagonal of the aligned grid, m nodes per unit length."""
    L = config.box_half_width
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
    return x, diag, off


def _tridiag_matvec(diag, off, vec, minus=None):
    """T vec - minus for the symmetric tridiagonal T = (diag, off), in the inputs' precision."""
    out = diag * vec if minus is None else diag * vec - minus
    out[:-1] += off * vec[1:]
    out[1:] += off * vec[:-1]
    return out


def _rayleigh_refine(diag: np.ndarray, off: np.ndarray, vec: np.ndarray) -> float:
    """Rayleigh quotient of an eigenvector in the edge-difference form.

    w.Tw = sum (-off_k) (w_{k+1} - w_k)^2 + sum (diag_k + off_{k-1} + off_k) w_k^2
    exactly.  On the oracle's grids off = -m^2 < 0 and the on-site factor is
    the potential, so no term of size |T| ~ 4 m^2 cancels as in w.(T w),
    whose rounding in double is comparable to the Stark curvature signal.
    """
    step = vec[1:] - vec[:-1]
    onsite = diag.copy()
    onsite[:-1] += off
    onsite[1:] += off
    return float((step @ (-off * step) + vec @ (onsite * vec)) / (vec @ vec))


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
    m = _multiplier(config)
    x, diag, off = _grid(config, m)
    hi = min(config.num_states, x.size) - 1
    lam, vec = _solve_band(diag, off, hi)
    return SpectrumResult(
        x=x, h=1.0 / m, box_half_width=config.box_half_width, energies=lam, states=vec
    )


def _continuum_ground(config: GridOracleConfig, x: np.ndarray) -> np.ndarray:
    """The continuum ground state at the nodes x' >= 0 of the grid ``x``, not normalised.

    The grid is mirror-symmetric node for node and the state is even, so
    these nodes, ``x[x.size // 2:]`` in ascending order, carry it.  Each
    branch is evaluated only on its own nodes: cos(gamma0 x') up to the
    edge, the exponential tail beyond it.
    """
    half = x[x.size // 2 :]
    if config.ground is None:
        return np.cos(0.5 * math.pi * half)
    gamma0, beta0 = config.ground.gamma0, config.ground.beta0
    edge = int(np.searchsorted(half, 1.0, side="right"))
    tail = math.cos(gamma0) * np.exp(-beta0 * (half[edge:] - 1.0))
    return np.concatenate((np.cos(gamma0 * half[:edge]), tail))


def _lowest_vector(
    diag, off, start, not_lowest: type[NumericalError] = NumericalError
) -> np.ndarray:
    """Unit eigenvector of the lowest eigenvalue of the tridiagonal T = (diag, off).

    Shifted inverse iteration from ``start``: each step solves
    (T - sigma) w = v by LU with partial pivoting, where sigma = rho - 2|r|
    sits below the Rayleigh quotient rho of v and r = T v - rho v.  The
    solve is indefinite on purpose: a state below sigma does not stop it.
    Once |r| <= 4 eps |T| the iteration takes one more step.  The pair is
    the lowest if T - (rho - delta) factors as L D L^T with D > 0, which by
    Sylvester's law of inertia leaves no eigenvalue below rho - delta,
    delta = max(4|r|, 1e3 eps |T|); ``not_lowest`` is raised otherwise.
    """
    row = np.abs(diag)
    row[:-1] += np.abs(off)
    row[1:] += np.abs(off)
    scale = _EPS * float(np.max(row))
    vec = start / np.linalg.norm(start)
    converged = False
    for _ in range(_MAX_INVERSE_STEPS):
        tv = _tridiag_matvec(diag, off, vec)
        rho = float(vec @ tv)
        res = float(np.linalg.norm(tv - rho * vec))
        if converged:
            break
        converged = res <= 4.0 * scale
        _, _, _, w, info = dgtsv(off, diag - (rho - 2.0 * res), off, vec)
        if info != 0:
            raise NumericalError(f"shifted tridiagonal solve is singular (n={diag.size})")
        vec = w / np.linalg.norm(w)
    else:
        raise NumericalError(
            f"inverse iteration left residual {res:.2e} after {_MAX_INVERSE_STEPS} "
            f"steps (n={diag.size})"
        )
    delta = max(4.0 * res, 1e3 * scale)
    if dpttrf(diag - (rho - delta), off)[2] != 0:
        raise not_lowest(
            f"inverse iteration from the continuum ground state settled at "
            f"E' = {rho:.6e}, but the grid (n={diag.size}) has a state more than "
            f"{delta:.1e} below it"
        )
    # Deterministic sign convention: largest-magnitude component positive.
    return -vec if vec[int(np.argmax(np.abs(vec)))] < 0.0 else vec


def _even_ground(diag: np.ndarray, off: np.ndarray, start: np.ndarray):
    """Ground energy and unit eigenvector of the grid from its even block.

    The ground state is even, so the nodes x' >= 0 carry it.  On them the
    centre row reads d psi(0) + 2 e psi(h); with psi(0) scaled by 1/sqrt(2)
    the block is symmetric tridiagonal, half the size of the grid.
    ``start``, the continuum ground state on those nodes, starts the
    block's inverse iteration.  The energy is the Rayleigh quotient of the
    rebuilt full vector: taken on the scaled block, the rounded sqrt(2)
    would move it by ~1e-13 relative.
    """
    centre = diag.size // 2
    block_off = off[centre:].copy()
    block_off[0] *= math.sqrt(2.0)
    block_start = start.copy()
    block_start[1:] *= math.sqrt(2.0)
    vec = _lowest_vector(diag[centre:], block_off, block_start)
    half = vec[1:] / math.sqrt(2.0)
    psi = np.concatenate((half[::-1], vec[:1], half))
    return _rayleigh_refine(diag, off, psi), psi


def _dalgarno_lewis(x, diag, off, e0: float, psi0: np.ndarray):
    """alpha' from the discrete Dalgarno-Lewis solve, and the solve's residual.

    Equal to the transition sum over every state of the grid Hamiltonian;
    the residual is the relative infinity-norm residual of the solve.  phi
    is odd, so phi(0) = 0 and the nodes x' > 0 carry the whole problem.
    That block holds only odd states, all above E_0', so H - E_0' is
    positive definite there and LAPACK's L D L^T solve ``dptsv`` applies.
    """
    right = slice(x.size // 2 + 1, None)
    b = x[right] * psi0[right]
    d, e = diag[right] - e0, off[right]
    phi, info = dptsv(d, e, b)[2:]
    if info != 0:
        raise NumericalError(
            f"H - E0 is not positive definite on the odd half-grid (n={x.size}): "
            f"pivot {info} is not positive"
        )
    residual = _tridiag_matvec(d, e, phi, b)
    solve_residual = float(np.max(np.abs(residual)) / np.max(np.abs(b)))
    # the full-grid <x psi0|phi> counts each half once: 4 * 2 * b.phi
    return 8.0 * float(b @ phi), solve_residual


def _curvature(x, diag, off, start, fields: tuple[float, ...], e0: float) -> dict:
    """Quadratic fit of the ground energy over the probe ``fields``.

    ``e0`` is the zero-field energy, from the even block of the grid.  The
    grid is mirror-symmetric node for node, so the matrix at -eps' is the
    exact reversal of the one at +eps' and has the same spectrum: one
    ground state per distinct |eps'| serves both signs.  Each starts from
    ``start``, the continuum ground state on the whole grid;
    ``FieldTooLargeError`` is raised when it is not the lowest state of the
    tilted box, i.e. the field has pulled the box's ground state out of the
    well.
    """
    fields = np.asarray(fields)
    by_size = {0.0: e0}
    for size in np.abs(fields):
        if size not in by_size:
            shifted = diag - size * x
            vec = _lowest_vector(shifted, off, start, FieldTooLargeError)
            by_size[size] = _rayleigh_refine(shifted, off, vec)
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
    return {
        "field_values": tuple(float(v) for v in fields),
        "ground_energies": tuple(float(v) for v in energies),
        "fit_residual": residual,
        "fit_residual_rel": rel_residual,
        "linear_coeff": float(coeffs[1]),
        "quadratic_coeff": curvature,
    }


def oracle_study(config: GridOracleConfig, levels: int = 2) -> OracleResult:
    """Both oracle routes on the base grid, and the sum route over ``levels`` doublings.

    Each grid gives one even-block ground state and one Dalgarno-Lewis
    solve.  On the base grid, ``alpha_sum`` is that solve and its ground
    energy is the zero-field point of the curvature fit, which gives
    ``alpha_curvature``.  ``richardson_alpha`` extrapolates the solves of
    all levels, assuming the second-order convergence of the three-point
    stencil; the observed order is reported, with a warning outside
    [1.5, 2.5].  With the box sized to the tail, even gamma0 = 0.49 pi is
    near that order from 1100 points (successive-difference ratios 3.98
    and 3.99 against the asymptotic 4), and two doublings leave the
    extrapolated value within 3e-8 (relative) of ``alpha_exact_prime`` on
    every Table-1 row; ``levels=4`` leaves 3e-10.
    """
    if not isinstance(levels, int):
        raise DomainError(f"levels must be an integer, got {levels!r}")
    if levels < 2:
        raise DomainError(f"need at least 2 grid doublings, got {levels!r}")
    L = config.box_half_width
    ms = tuple(_multiplier(config) * 2**level for level in range(levels + 1))
    alphas, e0s, sizes = [], [], []
    for m in ms:
        x, diag, off = _grid(config, m)
        start = _continuum_ground(config, x)
        e0, psi0 = _even_ground(diag, off, start)
        alpha, solve_residual = _dalgarno_lewis(x, diag, off, e0, psi0)
        if m == ms[0]:
            grid = {"num_points_actual": x.size, "box_half_width": L, "grid_spacing": 1.0 / m}
            # the field breaks the parity, so the curvature route starts
            # from the continuum state mirrored onto the whole grid
            whole = np.concatenate((start[:0:-1], start))
            fit = _curvature(x, diag, off, whole, config.field_values, e0)
            diagnostics = {f"sum_{k}": v for k, v in grid.items()}
            diagnostics["sum_solve_residual"] = solve_residual
            diagnostics.update({f"curvature_{k}": v for k, v in {**grid, **fit}.items()})
        alphas.append(alpha)
        e0s.append(e0)
        sizes.append(x.size)
    d_prev = alphas[-2] - alphas[-3]
    d_last = alphas[-1] - alphas[-2]
    observed = math.log2(abs(d_prev / d_last)) if d_last != 0.0 and d_prev != 0.0 else math.nan
    if not 1.5 <= observed <= 2.5:
        warnings.warn(
            f"observed convergence order {observed:.2f} outside [1.5, 2.5]",
            ConvergenceWarning,
            stacklevel=2,
        )
    diagnostics.update(
        refine_box_half_width=L,
        refine_grid_multipliers=ms,
        refine_grid_sizes=tuple(sizes),
        refine_alpha_per_level=tuple(alphas),
        refine_ground_energy_per_level=tuple(e0s),
        refine_observed_order=observed,
    )
    return OracleResult(
        alpha_sum=alphas[0],
        alpha_curvature=-4.0 * fit["quadratic_coeff"],
        ground_energy_dimless=e0s[0],
        richardson_alpha=extrapolate(alphas, ratio=0.25),
        diagnostics=diagnostics,
    )
