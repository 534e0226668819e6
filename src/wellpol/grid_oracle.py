"""Brute-force polarizability oracle on a finite-difference grid.

The dimensionless Hamiltonian -d^2/dx'^2 - R^2 * [|x'| < 1] (energies in
hbar^2 / (2 m a^2)) is discretized with the three-point stencil on a hard-
wall box [-L, L] as a symmetric tridiagonal matrix.  The grid is mirror-
symmetric node for node, so each level is built on its nodes x' >= 0 only:
they carry the exactly even zero-field ground state, as the even block.
The polarizability then comes out two independent ways:

  * Dalgarno-Lewis solve  (H - E_0') phi = x' psi0 on the odd half-grid,
                          alpha' = 4 <x' psi0|phi>, which is the spectral
                          sum 4 sum_n |<n|x'|0>|^2 / (E_n' - E_0') over every
                          grid state, without building one excited state
  * field curvature       Stark quotients -4 (E_0'(eps') - E_0') / eps'^2 =
                          alpha' + O(eps'^2) at two field sizes, taken to
                          eps' -> 0 on the base grid mirrored into the whole
                          box; the matrix at -eps' is the mirror image of
                          the one at +eps', so one ground state per size
                          serves both signs, and E_0' is the even block's

Every ground state comes from inverse iteration started at the grid's own
state, one O(n) positive-definite L D L^T solve per step shifted below the
state, its stop scaled by the bound |T|_2 <= 4 m^2 + |eps'| L that the
grid's construction gives.  The vector that passes the stop is returned,
certified as the lowest (Sylvester's law of inertia) by one more
factorisation, with no right-hand side.  The even block starts at its exact
eigenvector, the continuum ground state at the grid's own phases
(``_grid_phases``), so it takes no solve; a tilted grid starts at
psi0 + eps' phi, phi the discrete Dalgarno-Lewis solution and first-order
Stark state, so its start is off by O(eps'^2).

The grid is always aligned so the well edges +-1 fall on nodes (edge nodes
take half the well depth), which keeps the eigenvalue error a clean O(h^2)
and makes Richardson extrapolation across grid doublings meaningful
(``limits.extrapolate`` with ratio 1/4).  Every ground energy is one
Rayleigh quotient from the well bottom, free of cancellation, so the Stark
shifts are not polluted by rounding.
``oracle_study``, the one entry point, is the result type ``OracleResult``:
it builds each of its grids once and finds one even-block ground state on
each, for the Dalgarno-Lewis solve of that level; the base grid's also
serves as the zero field of the curvature route.

A ``well_R`` of None selects the bare hard-wall box of half-width 1 (the
infinite-well configuration); responses then check out against the
analytic transition sum.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dptsv

from .errors import ConvergenceWarning, DomainError, NumericalError
from .limits import extrapolate
from .well_spectrum import GroundState, _Record, _require_int, ground_state_from_R

__all__ = ["GridOracleConfig", "OracleResult", "oracle_study"]

# Stark probe field sizes eps' (larger first; -eps' mirrors +eps'), scaled per well.
_PROBE_FIELDS = (1e-3, 5e-4)

# Relative agreement required between the two oracle routes at matched
# discretization before a combined result is considered sane.
_ROUTE_AGREEMENT = 1e-6

# Largest eps'^4 share |q1 - q2| / |q2| of the two Stark quotients.
_QUARTIC_SHARE = 1e-4

# Largest h * beta0 of the base grid, the decay of psi0 per grid step.  At
# 0.2-0.4 the observed order is 1.96-1.99 and Romberg's value is within
# 1.2e-8 of alpha_exact_prime for R = 100, 300 and 1e3; at 0.6 the order
# is 1.91, at 2 (R = 1e3 at 2000 points) 1.31.
_MAX_H_BETA0 = 0.4

# Most nodes the finest level may hold; a study that needs more is refused
# before any grid is built.  The box is ceil(1 + 40/beta0), so the count
# grows as 1/beta0 on shallow wells: R = 1e-5 would need 3.2e12.  Near
# the budget, the three levels of R = 0.009 (3.95e6 nodes on the finest)
# peak at 283 MB RSS; the largest grid that the tests and the benchmark
# use, R = 1e4 on its coarsest accepted grid, has ~4e5.
_MAX_GRID_NODES = 2**22

# Inverse-iteration steps allowed before a ground state counts as lost.
_MAX_INVERSE_STEPS = 30
# Cap on Newton steps for the grid's phases; on gamma0 in [1e-6, pi/2 - 1e-9]
# and m from 1 to 1e5 the root settles after five at most.
_PHASE_STEPS = 40
_EPS = float(np.finfo(float).eps)


class GridOracleConfig(_Record):
    """Discretization and study parameters for one oracle run.

    ``well_R`` is the dimensionless well strength; None selects the
    hard-wall box of half-width 1.  ``box_half_width`` and ``field_values``
    are derived on construction from the one bound-state solve, which also
    checks ``well_R``: the box is 1 for the hard wall and ceil(1 + 40/beta0)
    for a well, where psi0 has fallen to e^-40 of its edge value; the probe
    fields are ``_PROBE_FIELDS`` times min(1, beta0^3).  That solve is kept
    as ``ground`` (None for the hard wall); its gamma0 starts the root of
    each grid's own phases.  ``num_points`` is a request: the actual grid is
    snapped up to the nearest size whose nodes hit the well edges.  A well
    whose base grid has h * beta0 above ``_MAX_H_BETA0`` is refused, naming
    the smallest ``num_points`` that resolves its tail.
    """

    __slots__ = ()
    _fields = ("well_R", "num_points", "box_half_width", "field_values", "ground")

    def __new__(cls, well_R: Optional[float], num_points: int = 2000) -> "GridOracleConfig":
        _require_int("num_points", num_points, 500)
        if well_R is None:
            return tuple.__new__(cls, (None, num_points, 1, _PROBE_FIELDS, None))
        ground = ground_state_from_R(well_R)
        beta0 = ground.beta0
        # The field drops by ~eps'/beta0 across the tail, which must stay
        # small against the binding beta0^2, or the tilted box's ground
        # state leaves the well.
        scale = min(1.0, beta0**3)
        self = tuple.__new__(cls, (well_R, num_points, math.ceil(1.0 + 40.0 / beta0),
                                   tuple(scale * v for v in _PROBE_FIELDS), ground))
        m, m_min = _multiplier(self), math.ceil(beta0 / _MAX_H_BETA0)
        if m < m_min:
            nodes = 2 * self.box_half_width * m_min - 1
            over = (f", but its {nodes} nodes exceed the budget of {_MAX_GRID_NODES}: no grid "
                    f"within the budget resolves this well" if nodes > _MAX_GRID_NODES else "")
            # repr, so a value just over the bound never prints as the bound.
            raise DomainError(
                f"h*beta0 = {beta0 / m!r} on the base grid exceeds {_MAX_H_BETA0:g}: the "
                f"grid is too coarse for the bound-state tail; num_points >= "
                f"{2 * self.box_half_width * (m_min - 1)} meets the bound{over}"
            )
        return self

    @classmethod
    def hard_wall(cls, num_points: int = 2000, num_states: int = 200) -> "GridOracleConfig":
        """The hard-wall box of half-width 1, ``cls(well_R=None, num_points)``.

        Kept only for the benchmark's callers, which pass ``num_states``;
        it is checked and unused, and ROADMAP item 4 removes both.
        """
        _require_int("num_states", num_states, 50)
        return cls(well_R=None, num_points=num_points)


def _multiplier(config: GridOracleConfig) -> int:
    """Nodes per unit length of the base grid: the fewest that give ``num_points``."""
    return math.ceil((config.num_points + 1) / (2 * config.box_half_width))


def _grid(config: GridOracleConfig, m: int):
    """Abscissae, well-bottom potential, diagonal and off-diagonal on the nodes x' >= 0.

    These are x' = k/m, k = 0 ... L m - 1, of the 2 L m - 1 nodes of [-L, L].
    v = V' + R^2 is exact: 0 inside, R^2 outside, R^2/2 on the edge node.
    R^2 < 4 m^2 on every admitted grid (h beta0 <= 0.4), so |T|_2 <= 4 m^2.
    """
    L = config.box_half_width
    x = np.arange(L * m, dtype=float) / m
    r_sq = (config.well_R or 0.0) ** 2
    v = np.full(x.size, r_sq)
    v[:m] = 0.0
    if L > 1:  # the hard wall's box ends at the edges; it has no edge nodes
        v[m] = 0.5 * r_sq
    diag = 2.0 * m * m + (v - r_sq)
    off = np.full(x.size - 1, -float(m) * m)
    return x, v, diag, off


def _tridiag_matvec(diag, off, vec, minus=None):
    """T vec - minus for the symmetric tridiagonal T = (diag, off), in the inputs' precision."""
    out = diag * vec if minus is None else diag * vec - minus
    out[:-1] += off * vec[1:]
    out[1:] += off * vec[:-1]
    return out


def _rayleigh_quotient(off, onsite, vec, even: bool = False) -> float:
    """Energy above the well bottom, w.Tw / w.w, of T = (2 m^2 + ``onsite``, off = -m^2).

    ``onsite`` is the exact potential above the well bottom, minus eps' x' on
    a tilted grid.  w.Tw = m^2 [sum (w_{k+1} - w_k)^2 + w_0^2 + w_{n-1}^2]
    + sum onsite_k w_k^2 exactly, the end terms being the hard walls, so no
    term of size 4 m^2 or R^2 cancels, as it would in w.(T w) or from E' = 0.
    With ``even``, ``vec`` is an even state on the nodes x' >= 0 from the
    centre, where ``onsite`` is 0: its mirror image weighs them (1, 2, 2, ...),
    here halved to (1/2, 1, 1, ...) with the one wall at x' = L.
    """
    step = vec[1:] - vec[:-1]
    if even:
        centre = 0.5 * vec[0] ** 2
        kinetic = step @ step + vec[-1] ** 2
        return float((-off[0] * kinetic + vec @ (onsite * vec)) / (vec @ vec - centre))
    kinetic = step @ step + vec[0] ** 2 + vec[-1] ** 2
    return float((-off[0] * kinetic + vec @ (onsite * vec)) / (vec @ vec))


def _grid_phases(ground: GroundState, m: int) -> tuple[float, float]:
    """The grid's gamma0 and beta0: (u, nu) = (m theta, m mu) of its even bound state.

    On the grid of m nodes per unit length, cos(k theta) up to the edge node
    k = m and cos(m theta) e^{-mu (k - m)} beyond it solve the rows inside and
    beyond the well at one energy if sin^2(theta/2) + sinh^2(mu/2) = (R/2m)^2,
    and the edge row, at half the depth, if sin(theta) tan(m theta) =
    sinh(mu).  Together these read

        m sin(theta) = R P cos(u),   m sinh(mu) = R P sin(u),
        P = sqrt((R/2m)^2 + cos(theta)),

    the discrete gamma0 = R cos(gamma0), beta0 = R sin(gamma0); as m grows,
    u -> gamma0 and nu -> beta0.  u is the root of
    G(u) = R P C - 1, C = cos(u) / (m sin(theta)), on (0, pi/2) by Newton's
    method.  There G decreases, since P and C do, and it is convex: P is
    concave, but in (P C)'' = P''C + 2 P'C' + P C'' the last two terms
    outweigh the first (at m = 1 term by term, for m >= 2 through
    theta cot(theta) >= 1 - (2 theta/pi)^2).  So Newton started left of the
    root increases monotonically onto it.  gamma0 is such a start:
    G(gamma0) > 0 reads P > sin(x)/x at x = gamma0/m, which holds as
    R > gamma0 and x^2/4 + cos(x) > (sin(x)/x)^2 on (0, pi/2].  Iteration
    stops once a step is no longer negative or no longer increases u.  Near
    the root G is ~eps off and |G'| ~ (1 + beta0)/u, so u is within a few
    ulp, and nu, taken from its own condition, is too: sin(u) damps the
    rounding of u.
    """
    ratio = ground.R / m
    rho_sq = 0.25 * ratio * ratio
    u = ground.gamma0
    for _ in range(_PHASE_STEPS):
        s, c = math.sin(u / m), math.cos(u / m)
        p = math.sqrt(rho_sq + c)
        cos_u, sin_u = math.cos(u), math.sin(u)
        g = ratio * p * cos_u / s - 1.0
        slope = -ratio * (0.5 * cos_u / p + p * (m * sin_u * s + cos_u * c) / (s * s)) / m
        step = g / slope
        if not (step < 0.0 and u - step > u):
            return u, m * math.asinh(ratio * p * sin_u)
        u -= step
    raise NumericalError(
        f"grid phases for R = {ground.R!r} at m = {m} did not settle in {_PHASE_STEPS} steps"
    )


def _grid_ground(config: GridOracleConfig, x: np.ndarray, m: int) -> np.ndarray:
    """The grid's own even ground state at the nodes ``x`` (x' >= 0), not normalised.

    The continuum ground state with the grid's phases (u, nu) from
    ``_grid_phases`` in place of gamma0 and beta0: cos(u x') up to the edge,
    cos(u) e^{-nu (x' - 1)} beyond it, each branch on its own nodes.  It is
    positive, and the even block's eigenvector to rounding but for the tail
    cut at ~e^-40 of its edge value.  The hard wall is the same formula with
    u = pi/2 and no node beyond the edge: cos(pi x'/2) vanishes at its wall.
    """
    if config.ground is None:
        u, nu = 0.5 * math.pi, 0.0
    else:
        u, nu = _grid_phases(config.ground, m)
    edge = min(m + 1, x.size)  # the nodes 0 ... m, of which the hard wall lacks m
    start = np.empty(x.size)
    np.cos(u * x[:edge], out=start[:edge])
    np.exp(-nu * (x[edge:] - 1.0), out=start[edge:])
    start[edge:] *= math.cos(u)
    return start


def _lowest_vector(diag, off, start, norm: float) -> np.ndarray:
    """Unit eigenvector of the lowest eigenvalue of the tridiagonal T = (diag, off).

    Shifted inverse iteration from ``start``, ``norm`` a bound on |T|_2: for
    the unit vector v with quotient rho and residual r = T v - rho v, the
    shift is sigma = rho - delta, delta = max(2|r|, 1e3 eps ``norm``), whose
    floor keeps rounding from failing the factorisation at the ground state.
    While |r| > 4 eps ``norm``, each step solves (T - sigma) w = v by the
    L D L^T factorisation ``dptsv``; then T - sigma is factorised with no
    right-hand side and v is returned: D > 0 certifies, by Sylvester's law
    of inertia, that T has no eigenvalue below sigma.  NumericalError: a
    factorisation fails, or ``_MAX_INVERSE_STEPS`` steps leave r above the stop.
    """
    scale = _EPS * norm
    # sqrt(v @ v) is np.linalg.norm(v) of a 1-D double array bit for bit.
    vec = start / math.sqrt(start @ start)
    for _ in range(_MAX_INVERSE_STEPS):
        tv = _tridiag_matvec(diag, off, vec)
        rho = float(vec @ tv)
        tv -= rho * vec
        res = math.sqrt(tv @ tv)
        delta = max(2.0 * res, 1e3 * scale)
        done = res <= 4.0 * scale
        w, info = dptsv(diag - (rho - delta), off, np.empty((vec.size, 0)) if done else vec)[2:]
        if info != 0:
            raise NumericalError(
                f"inverse iteration at E' = {rho:.6e}: the grid (n={diag.size}) has a "
                f"state more than {delta:.1e} below it"
            )
        if done:
            return vec
        vec = w / math.sqrt(w @ w)
    raise NumericalError(
        f"inverse iteration left residual {res:.2e} after {_MAX_INVERSE_STEPS} "
        f"steps (n={diag.size})"
    )


def _even_ground(v: np.ndarray, diag: np.ndarray, off: np.ndarray, start: np.ndarray):
    """Well-bottom ground energy and unit eigenvector of the grid on its nodes x' >= 0.

    The ground state is even, so these nodes carry it.  Their centre row
    reads d psi(0) + 2 e psi(h); with psi(0) scaled by 1/sqrt(2) the block is
    symmetric tridiagonal, with the grid's even eigenvalues, so 4 m^2 bounds
    it.  ``start`` (``_grid_ground``, scaled in place, so the caller passes
    an array of its own) is its eigenvector to rounding: one residual and
    one factorisation settle it.  The energy is the even quotient of the
    unscaled vector: on the block, the rounded sqrt(2) would move it ~1e-13.
    """
    block_off = off.copy()
    block_off[0] *= math.sqrt(2.0)
    start[1:] *= math.sqrt(2.0)
    psi = _lowest_vector(diag, block_off, start, -4.0 * off[0])
    psi[1:] /= math.sqrt(2.0)
    return _rayleigh_quotient(off, v, psi, even=True), psi


def _dalgarno_lewis(x, diag, off, e0: float, psi0: np.ndarray):
    """alpha' from the discrete Dalgarno-Lewis solve, its residual on demand, and phi.

    alpha' equals the transition sum over every state of the grid
    Hamiltonian.  The second value takes no argument and returns the
    solve's backward error |(T - E_0') phi - b| / ((4 m^2 + |E_0'|) |phi|)
    in infinity norms, 4 m^2 + |E_0'| bounding |T - E_0'| on the grid;
    ``oracle_study`` reports the base grid's.  phi is odd, so phi(0) = 0
    and the nodes x' > 0 carry the whole problem; phi is returned on them.
    That block holds only odd states, all above E_0', so H - E_0' is
    positive definite there and LAPACK's L D L^T solve ``dptsv`` applies,
    the one that inverse iteration uses.
    """
    b = x[1:] * psi0[1:]
    d, e = diag[1:] - e0, off[1:]
    phi, info = dptsv(d, e, b)[2:]
    if info != 0:
        raise NumericalError(
            f"H - E0 is not positive definite on the odd half-grid (n={d.size}): "
            f"pivot {info} is not positive"
        )

    def solve_residual() -> float:
        residual = _tridiag_matvec(d, e, phi, b)
        return float(np.max(np.abs(residual)) / ((-4.0 * e[0] + abs(e0)) * np.max(np.abs(phi))))

    # the full-grid <x psi0|phi> counts each half once: 4 * 2 * b.phi
    return 8.0 * float(b @ phi), solve_residual, phi


def _curvature(x, v, diag, off, psi0, phi, fields: tuple[float, ...], e0: float):
    """alpha' from the Stark quotients at the two probe sizes, and their record.

    At each size eps' (larger first) q = -4 (E(eps') - e0) / eps'^2 =
    alpha' + O(eps'^2), with e0 the even block's zero-field energy, so
    ``extrapolate`` at ratio (eps2/eps1)^2 takes them to zero field.  The
    matrix at -eps' is the mirror image of the one at +eps', so one ground
    state per size serves both signs.  The field breaks the parity, so each
    is solved on the whole grid, which only this route builds, mirroring the
    base grid's nodes x' >= 0; there |T|_2 <= 4 m^2 + eps' max|x'|.  Each is
    started at psi0 + eps' phi, with ``phi``, the Dalgarno-Lewis solution
    on the nodes x' > 0 extended oddly, the first-order Stark state, so the
    start is off by O(eps'^2).
    NumericalError: the state is not the lowest of the tilted box (the field
    pulled it out of the well), or the eps'^4 share |q1 - q2| / |q2| exceeds
    ``_QUARTIC_SHARE``.
    """
    x = np.concatenate((-x[:0:-1], x))
    v, diag, psi0 = (np.concatenate((a[:0:-1], a)) for a in (v, diag, psi0))
    off = np.concatenate((off, off))
    stark = np.concatenate((-phi[::-1], [0.0], phi))
    quotients = []
    for size in fields:
        tilt = size * x
        norm = -4.0 * off[0] + size * x[-1]
        vec = _lowest_vector(diag - tilt, off, psi0 + size * stark, norm)
        energy = _rayleigh_quotient(off, v - tilt, vec)
        quotients.append(-4.0 * (energy - e0) / size**2)
    share = abs(quotients[0] - quotients[1]) / abs(quotients[1])
    if not share <= _QUARTIC_SHARE:
        raise NumericalError(
            f"Stark quotients differ by {share:.1e} relative, above {_QUARTIC_SHARE:g}: "
            f"the eps'^4 term is not small at fields {fields[0]:.1e} and {fields[1]:.1e}"
        )
    alpha = extrapolate(quotients, ratio=(fields[1] / fields[0]) ** 2)
    return alpha, {
        "curvature_field_values": fields,
        "curvature_stark_quotients": tuple(quotients),
        "curvature_quartic_share": share,
    }


class OracleResult(_Record):
    """Both oracle routes on the base grid, and the sum route over ``levels`` doublings.

    ``oracle_study`` is this type.  It takes only the study's inputs and
    derives the rest, so a copy or a pickle re-runs the study: seconds for a
    grid near ``_MAX_GRID_NODES``.  Each grid gives one even-block ground state
    and one Dalgarno-Lewis solve.  On the base grid, ``alpha_sum`` is that
    solve, whose residual is the one reported (``sum_solve_residual``), and its
    ground energy is the zero-field point of the Stark quotients, which give
    ``alpha_curvature``; both must be positive, with a ``route_gap`` of at most
    ``_ROUTE_AGREEMENT``.  ``richardson_alpha`` extrapolates the solves of all
    levels by Romberg's table, assuming the even-power error expansion of the
    three-point stencil; the observed order is reported, with a warning outside
    [1.5, 2.5].  With the box sized to the tail, even gamma0 = 0.49 pi is near
    that order from 1100 points (successive-difference ratios 3.98 and 3.99
    against the asymptotic 4), and two doublings leave the extrapolated value
    within 2e-10 (relative) of ``alpha_exact_prime`` on every Table-1 row.  A
    finest level of more than ``_MAX_GRID_NODES`` nodes raises DomainError
    before any grid.
    """

    __slots__ = ()
    _fields = ("config", "levels", "alpha_sum", "alpha_curvature", "ground_energy_dimless",
               "richardson_alpha", "diagnostics", "route_gap")

    def __new__(cls, config: GridOracleConfig, levels: int = 2) -> "OracleResult":
        _require_int("levels", levels, 2)
        ms = tuple(_multiplier(config) * 2**level for level in range(levels + 1))
        nodes = 2 * config.box_half_width * ms[-1] - 1
        if nodes > _MAX_GRID_NODES:
            raise DomainError(
                f"the finest grid would have {nodes} nodes on a box of half-width "
                f"{config.box_half_width}, more than the budget of {_MAX_GRID_NODES}"
            )
        alphas, e0s, sizes = [], [], []
        for m in ms:
            x, v, diag, off = _grid(config, m)
            sizes.append(2 * x.size - 1)
            bottom, psi0 = _even_ground(v, diag, off, _grid_ground(config, x, m))
            e0 = bottom - (config.well_R or 0.0) ** 2
            alpha, solve_residual, phi = _dalgarno_lewis(x, diag, off, e0, psi0)
            if m == ms[0]:
                fields = config.field_values
                alpha_curvature, stark = _curvature(x, v, diag, off, psi0, phi, fields, bottom)
                diagnostics = {
                    "grid_num_points_actual": sizes[0],
                    "grid_box_half_width": config.box_half_width,
                    "grid_spacing": 1.0 / m,
                    "sum_solve_residual": solve_residual(),
                    **stark,
                }
            alphas.append(alpha)
            e0s.append(e0)
        d_prev = alphas[-2] - alphas[-3]
        d_last = alphas[-1] - alphas[-2]
        observed = (math.log2(abs(d_prev / d_last)) if d_last != 0.0 and d_prev != 0.0
                    else math.nan)
        if not 1.5 <= observed <= 2.5:
            warnings.warn(
                f"observed convergence order {observed:.2f} outside [1.5, 2.5]",
                ConvergenceWarning,
                stacklevel=2,
            )
        diagnostics.update(
            refine_grid_multipliers=ms,
            refine_grid_sizes=tuple(sizes),
            refine_alpha_per_level=tuple(alphas),
            refine_ground_energy_per_level=tuple(e0s),
            refine_observed_order=observed,
        )
        alpha_sum = alphas[0]
        for name, value in (("alpha_sum", alpha_sum), ("alpha_curvature", alpha_curvature)):
            if not value > 0.0:
                raise NumericalError(f"{name} must be positive, got {value!r}")
        gap = abs(alpha_sum - alpha_curvature) / alpha_sum
        if gap > _ROUTE_AGREEMENT:
            raise NumericalError(f"oracle routes disagree by {gap:.2e} at matched discretization")
        return tuple.__new__(cls, (config, levels, alpha_sum, alpha_curvature, e0s[0],
                                   extrapolate(alphas, ratio=0.25), diagnostics, gap))


oracle_study = OracleResult
