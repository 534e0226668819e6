"""Brute-force polarizability oracle: a finite-difference grid, checked by a spectral solve.

The dimensionless Hamiltonian -d^2/dx'^2 - R^2 * [|x'| < 1] (energies in
hbar^2 / (2 m a^2)) is discretized with the three-point stencil on a hard-
wall box [-L, L] as a symmetric tridiagonal matrix.  The grid is mirror-
symmetric node for node, so each level is built on its nodes x' >= 0 only:
they carry the exactly even zero-field ground state, as the even block.
The polarizability then comes out of one Dalgarno-Lewis equation
(H - E_0') phi = x' psi0, alpha' = 4 <x' psi0|phi>, discretized two
independent ways:

  * grid solve      on the odd half-grid of each level, which is the spectral
                    sum 4 sum_n |<n|x'|0>|^2 / (E_n' - E_0') over every grid
                    state, without building one excited state; taken to
                    h -> 0 by Romberg's table over grid doublings
  * spectral solve  a Galerkin solve on x' >= 0, by parity: 8 orthonormal
                    Legendre polynomials of one parity on [0, 1] and 8
                    Laguerre functions e^-t L_j(2t), t = beta0 (x' - 1),
                    beyond, joined by one continuity constraint into 15
                    unknowns (the hard wall: psi(1) = 0 and no outer part,
                    7 unknowns), from exact closed-form matrices
                    (``_spectral_tables``)

No route calls an eigensolver: each finds its ground state by positive-
definite factorisations (LAPACK ``dptsv``, ``dposv``) shifted below it,
whose success certifies it as the lowest (Sylvester's law of inertia).  The
grid's is the continuum ground state at the grid's own phases
(``_grid_phases``), checked by a residual stop scaled by |T|_2 <= 4 m^2 and
certified by one L D L^T factorisation with no right-hand side; the
spectral one comes of inverse iteration at a shift just below the exact
E_0'.

The grid's well edges +-1 fall on nodes (edge nodes take half the well
depth), which keeps the eigenvalue error a clean O(h^2) and makes Romberg's
table across grid doublings (``limits.extrapolate``, ratio 1/4)
meaningful.  Every grid ground energy is one Rayleigh quotient from the
well bottom, free of cancellation.  ``oracle_study``, the one entry point,
is the result type ``OracleResult``: one grid, ground state and solve per
level, and one spectral solve.  A ``well_R`` of None selects the hard-wall
box of half-width 1, whose responses check out against the analytic
transition sum.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from typing import Optional

import numpy as np

from .errors import ConvergenceWarning, DomainError, NumericalError
from .limits import extrapolate
from .well_spectrum import GroundState, _Record, _require_int, ground_state_from_R

__all__ = ["GridOracleConfig", "OracleResult", "oracle_study"]

# Relative agreement required between Romberg's grid value and the spectral
# solve before a combined result is considered sane.
_ROUTE_AGREEMENT = 1e-6

# Legendre polynomials of one parity, and Laguerre functions, of the spectral
# solve.  By 6 the value has settled; past ~12 rounding grows, as the
# Legendre kinetic entries grow as n^4.
_SPECTRAL_TERMS = 8

# The spectral ground state's shift below the exact E_0', as a fraction of
# the gap scale min(beta0^2, 2 pi^2), and its solves from an all-ones start:
# on 179 wells, R = 0.0088 ... 1e5, rounding fails 2 factorisations at 1e-8,
# none at 1e-6; two solves leave the hard wall 6e-13 off, three 1.2e-14.
_SPECTRAL_SHIFT = 1e-6
_SPECTRAL_SOLVES = 3

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

# Cap on Newton steps for the grid's phases; on gamma0 in [1e-6, pi/2 - 1e-9]
# and m from 1 to 1e5 the root settles after five at most.
_PHASE_STEPS = 40
_EPS = float(np.finfo(float).eps)


def _lapack_routines():
    """``dposv`` and ``dptsv``, the oracle's two solves, from scipy's f2py LAPACK extension.

    The extension is loaded from its file alone: importing it through
    ``scipy.linalg`` runs that whole package, which costs a ``wellpol
    oracle`` process more CPU and memory than numpy and the study together.
    The public import remains for a layout where the file is missing or
    will not load on its own (a wheel whose libraries only scipy's own
    import sets up).
    """
    spec = importlib.util.find_spec("scipy")
    folders = (spec.submodule_search_locations or ()) if spec is not None else ()
    paths = [os.path.join(folder, "linalg", "_flapack" + suffix)
             for folder in folders for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next(filter(os.path.isfile, paths), None)
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader("_flapack", path)
        previous = sys.modules.get("_flapack")
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location("_flapack", path, loader=loader))
            loader.exec_module(module)
            return module.dposv, module.dptsv
        except ImportError:
            pass
        finally:
            # A single-phase extension enters itself in sys.modules as it loads.
            sys.modules.pop("_flapack", None)
            if previous is not None:
                sys.modules["_flapack"] = previous
    from scipy.linalg.lapack import dposv, dptsv
    return dposv, dptsv


dposv, dptsv = _lapack_routines()


class GridOracleConfig(_Record):
    """Discretization and study parameters for one oracle run.

    ``well_R`` is the dimensionless well strength; None selects the
    hard-wall box of half-width 1.  ``box_half_width`` is derived on
    construction from the one bound-state solve, which also checks
    ``well_R``: it is 1 for the hard wall and ceil(1 + 40/beta0) for a well,
    where psi0 has fallen to e^-40 of its edge value.  That solve is kept as
    ``ground`` (None for the hard wall); its gamma0 starts the root of each
    grid's own phases, and its beta0 scales the spectral solve's Laguerre
    functions.  ``num_points`` is a request of at most ``_MAX_GRID_NODES``,
    which the base grid alone would otherwise exceed: the actual grid is
    snapped up to the nearest size whose nodes hit the well edges.  A well
    whose base grid has h * beta0 above ``_MAX_H_BETA0`` is refused, naming
    the smallest ``num_points`` that resolves its tail.
    """

    __slots__ = ()
    _fields = ("well_R", "num_points", "box_half_width", "ground")

    def __new__(cls, well_R: Optional[float], num_points: int = 2000) -> "GridOracleConfig":
        _require_int("num_points", num_points, 500, _MAX_GRID_NODES)
        if well_R is None:
            return tuple.__new__(cls, (None, num_points, 1, None))
        ground = ground_state_from_R(well_R)
        beta0 = ground.beta0
        self = tuple.__new__(cls, (well_R, num_points, math.ceil(1.0 + 40.0 / beta0), ground))
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
        """``cls(well_R=None, num_points)``, for the benchmark's callers: ``num_states`` is
        checked and unused, and ROADMAP item 4 removes both."""
        _require_int("num_states", num_states, 50)
        return cls(well_R=None, num_points=num_points)


def _multiplier(config: GridOracleConfig) -> int:
    """Nodes per unit length of the base grid: the fewest that give ``num_points``, exactly."""
    return -(-(config.num_points + 1) // (2 * config.box_half_width))


def _grid(config: GridOracleConfig, m: int):
    """Abscissae, well-bottom potential, diagonal and off-diagonal on the nodes x' >= 0.

    These are x' = k/m, k = 0 ... L m - 1, of the 2 L m - 1 nodes of [-L, L].
    v = V' + R^2 is exact: 0 inside, R^2 outside, R^2/2 on the edge node.
    R^2 < 4 m^2 on every admitted grid (h beta0 <= 0.4), so |T|_2 <= 4 m^2.
    """
    x = np.arange(config.box_half_width * m, dtype=float) / m
    r_sq = (config.well_R or 0.0) ** 2
    v = np.full(x.size, r_sq)
    v[:m] = 0.0
    v[m:m + 1] = 0.5 * r_sq  # the hard wall's box ends at its edges: no edge node
    diag = 2.0 * m * m + (v - r_sq)
    off = np.full(x.size - 1, -float(m) * m)
    return x, v, diag, off


def _tridiag_matvec(diag, off, vec, minus=None):
    """T vec - minus for the symmetric tridiagonal T = (diag, off), in the inputs' precision."""
    out = diag * vec if minus is None else diag * vec - minus
    out[:-1] += off * vec[1:]
    out[1:] += off * vec[:-1]
    return out


def _rayleigh_quotient(off, onsite, vec) -> float:
    """Energy above the well bottom, w.Tw / w.w, of the even state ``vec`` on the nodes x' >= 0.

    T = (2 m^2 + ``onsite``, off = -m^2) is the whole grid and ``onsite`` the
    exact potential above the well bottom, 0 at the centre.  The mirror image
    of ``vec`` weighs its nodes (1, 2, 2, ...), here halved to (1/2, 1, 1, ...),
    so w.Tw = m^2 [sum (w_{k+1} - w_k)^2 + w_{n-1}^2] + sum onsite_k w_k^2
    exactly, the end term being the hard wall at x' = L: no term of size
    4 m^2 or R^2 cancels, as it would in w.(T w) or from E' = 0.
    """
    step = vec[1:] - vec[:-1]
    centre = 0.5 * vec[0] ** 2
    kinetic = step @ step + vec[-1] ** 2
    return float((-off[0] * kinetic + vec @ (onsite * vec)) / (vec @ vec - centre))


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
    u, nu = (0.5 * math.pi, 0.0) if config.ground is None else _grid_phases(config.ground, m)
    edge = m + 1  # the nodes 0 ... m, of which the hard wall lacks m
    start = np.empty(x.size)
    np.cos(u * x[:edge], out=start[:edge])
    np.exp(-nu * (x[edge:] - 1.0), out=start[edge:])
    start[edge:] *= math.cos(u)
    return start


def _lowest_vector(diag, off, start, norm: float) -> np.ndarray:
    """Unit eigenvector of the lowest eigenvalue of the tridiagonal T = (diag, off).

    ``start`` must be that eigenvector to rounding and ``norm`` a bound on
    |T|_2: for the unit vector v along it, with quotient rho, the residual
    r = T v - rho v must be within the stop 4 eps ``norm``.  T - sigma,
    sigma = rho - 1e3 eps ``norm``, is then factorised by the L D L^T
    factorisation ``dptsv`` with no right-hand side, and v is returned: D > 0
    certifies, by Sylvester's law of inertia, that T has no eigenvalue below
    sigma, and the one within |r| of rho lies above it.  The shift, 250
    times the stop, keeps rounding from failing the factorisation at the
    ground state.  NumericalError: r is above the stop, or the factorisation
    fails.
    """
    scale = _EPS * norm
    # sqrt(v @ v) is np.linalg.norm(v) of a 1-D double array bit for bit.
    vec = start / math.sqrt(start @ start)
    tv = _tridiag_matvec(diag, off, vec)
    rho = float(vec @ tv)
    tv -= rho * vec
    res = math.sqrt(tv @ tv)
    if res > 4.0 * scale:
        raise NumericalError(f"the start's residual {res:.2e} exceeds the stop "
                             f"{4.0 * scale:.2e} (n={diag.size})")
    # The shifted diagonal is a temporary of this call: dptsv factorises it in place.
    if dptsv(diag - (rho - 1e3 * scale), off, np.empty((vec.size, 0)), overwrite_d=True)[3] != 0:
        raise NumericalError(f"the state at E' = {rho:.6e} is not the lowest: the grid "
                             f"(n={diag.size}) has a state more than {1e3 * scale:.1e} below it")
    return vec


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
    return _rayleigh_quotient(off, v, psi), psi


def _dalgarno_lewis(x, diag, off, e0: float, psi0: np.ndarray):
    """alpha' from the discrete Dalgarno-Lewis solve, and its residual on demand.

    alpha' equals the transition sum over every state of the grid
    Hamiltonian.  The second value takes no argument and returns the
    solve's backward error |(T - E_0') phi - b| / ((4 m^2 + |E_0'|) |phi|)
    in infinity norms, 4 m^2 + |E_0'| bounding |T - E_0'| on the grid;
    ``oracle_study`` reports the base grid's.  phi is odd, so phi(0) = 0
    and the nodes x' > 0 carry the whole problem.
    That block holds only odd states, all above E_0', so H - E_0' is
    positive definite there and LAPACK's L D L^T solve ``dptsv`` applies.
    """
    b = x[1:] * psi0[1:]
    d, e = diag[1:] - e0, off[1:]
    phi, info = dptsv(d, e, b)[2:]
    if info != 0:
        raise NumericalError(f"H - E0 is not positive definite on the odd half-grid "
                             f"(n={d.size}): pivot {info} is not positive")

    def solve_residual() -> float:
        residual = _tridiag_matvec(d, e, phi, b)
        return float(np.max(np.abs(residual)) / ((-4.0 * e[0] + abs(e0)) * np.max(np.abs(phi))))

    # the full-grid <x psi0|phi> counts each half once: 4 * 2 * b.phi
    return 8.0 * float(b @ phi), solve_residual


@functools.cache
def _spectral_tables(hard_wall: bool):
    """The spectral solve's matrices at unit R and beta0, built once per kind on first use.

    Inside, q_a = sqrt(2a + 1) P_a(x'), a = p, p + 2, ... of parity p, is
    orthonormal on [0, 1], with q_a(1) = sqrt(2a + 1) and, for k = min(a, b),

        int q_a' q_b' = sqrt((2a + 1)(2b + 1)) k (k + 1) / 2     (a - b even),
        int x' q_a q_b = (k + 1) / sqrt((2k + 1)(2k + 3))       (|a - b| = 1).

    Beyond, l_j = sqrt(2) e^-t L_j(2t), t = s (x' - 1), has l_j(1) = sqrt(2) and

        int l_i l_j = delta_ij / s,   int l_i' l_j' = s (4 min(i, j) + 2 - delta_ij),
        int (x' - 1) l_i l_j = T_ij / s^2,  T = tridiag(-j/2, j + 1/2, -(j + 1)/2),

    by the Laguerre recurrences and L_j' = -sum_{k<j} L_k; the hard wall has
    no l_j.  Every entry is exact, so no quadrature is needed.  An orthonormal
    basis Z of the coefficients continuous at x' = 1 (zero there on the hard
    wall) projects each matrix.  Returned: K_in, K_out, M_in and M_out, each
    Z^T A Z of both parities flattened into one row (s = 1), and the
    odd-by-even dipole inside, from int l_i l_j and from T.
    """
    n = _SPECTRAL_TERMS
    j = np.arange(0 if hard_wall else n)

    def split(inner=0.0, beyond=0.0):
        full = np.zeros((n + j.size, n + j.size))
        full[:n, :n], full[n:, n:] = inner, beyond
        return full

    even, odd = np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)
    nulls, blocks = [], []
    for a in (even, odd):
        k = np.minimum.outer(a, a)
        q_edge = np.sqrt(2.0 * a + 1.0)
        edge = np.concatenate((q_edge, np.full(j.size, -math.sqrt(2.0))))
        z = np.linalg.svd(edge[None, :])[2][1:].T
        parts = (split(inner=np.outer(q_edge, q_edge) * k * (k + 1) / 2.0),
                 split(beyond=4.0 * np.minimum.outer(j, j) + 2.0 - np.eye(j.size)),
                 split(inner=np.eye(n)), split(beyond=np.eye(j.size)))
        blocks.append(np.array([(z.T @ part @ z).ravel() for part in parts]))
        nulls.append(z)
    k = np.minimum.outer(odd, even)
    inside = np.where(abs(np.subtract.outer(odd, even)) == 1,
                      (k + 1) / np.sqrt((2.0 * k + 1) * (2.0 * k + 3)), 0.0)
    moment = np.diag(j + 0.5) - 0.5 * (np.diag(j[1:], 1) + np.diag(j[1:], -1))
    parts = (split(inner=inside), split(beyond=np.eye(j.size)), split(beyond=moment))
    dipole = np.array([(nulls[1].T @ part @ nulls[0]).ravel() for part in parts])
    blocks = np.concatenate(blocks, axis=1)
    blocks.flags.writeable = dipole.flags.writeable = False  # shared by every study
    return blocks, dipole


def _spectral(config: GridOracleConfig) -> tuple[float, float]:
    """alpha' and E_0' of the Legendre x Laguerre Galerkin solve.

    With s = beta0 (1 and R = 0 on the hard wall) the Galerkin matrices are
    H = K_in + s K_out - R^2 M_in, in the threshold frame, so a shallow
    well's E_0' = -beta0^2 is not rounded against R^2, and
    M = M_in + M_out / s, each parity from ``_spectral_tables``.  Galerkin
    energies bound the true ones from above, so ``_SPECTRAL_SOLVES`` solves
    (H - sigma M) c = M c at sigma just below the exact E_0' (LAPACK's
    Cholesky solve ``dposv``) find the even ground state, whose Rayleigh
    quotient is E_0', and certify it: no Galerkin state lies below sigma.
    Then alpha' = 4 b^T (H_odd - E_0' M_odd)^-1 b, b the dipole image of the
    unit ground state, by ``dposv`` too: that block holds only states above
    E_0'.  NumericalError: a factorisation fails.
    """
    hard_wall = config.ground is None
    blocks, dipole = _spectral_tables(hard_wall)
    s, r_sq = (1.0, 0.0) if hard_wall else (config.ground.beta0, config.well_R**2)
    size = math.isqrt(dipole.shape[1])
    weights = np.array(((1.0, s, -r_sq, 0.0), (0.0, 0.0, 1.0, 1.0 / s)))
    (h_even, h_odd), (m_even, m_odd) = (weights @ blocks).reshape(2, 2, size, size)
    x = (np.array((1.0, 1.0 / s, 1.0 / (s * s))) @ dipole).reshape(size, size)
    exact, gap = (0.25 * math.pi**2, math.inf) if hard_wall else (-s * s, s * s)
    shift = exact - _SPECTRAL_SHIFT * min(gap, 2.0 * math.pi**2)
    shifted = h_even - shift * m_even
    c = np.ones(size)
    for _ in range(_SPECTRAL_SOLVES):
        c, info = dposv(shifted, m_even @ c)[1:]
        if info != 0:
            raise NumericalError(f"a Galerkin state lies below the shift {shift:.6e} of the "
                                 f"spectral ground state: pivot {info} is not positive")
    m_c = m_even @ c
    e0 = float(c @ (h_even @ c) / (c @ m_c))
    b = (x @ c) / math.sqrt(c @ m_c)
    phi, info = dposv(h_odd - e0 * m_odd, b)[1:]
    if info != 0:
        raise NumericalError(f"H - E0 is not positive definite on the odd spectral basis: "
                             f"pivot {info} is not positive")
    return 4.0 * float(b @ phi), e0


class OracleResult(_Record):
    """The grid's Dalgarno-Lewis solve over ``levels`` doublings, checked by the spectral solve.

    ``oracle_study`` is this type.  It takes only the study's inputs and
    derives the rest, so a copy or a pickle re-runs the study: seconds for a
    grid near ``_MAX_GRID_NODES``.  Each grid gives one even-block ground state
    and one Dalgarno-Lewis solve.  On the base grid, ``alpha_sum`` is that
    solve, whose residual is the one reported (``sum_solve_residual``), and
    ``ground_energy_dimless`` its ground energy.  ``richardson_alpha``
    extrapolates the solves of all levels by Romberg's table, assuming the
    even-power error expansion of the three-point stencil; the observed order
    is reported, with a warning outside [1.5, 2.5].  With the box sized to the
    tail, even gamma0 = 0.49 pi is near that order from 1100 points
    (successive-difference ratios 3.98 and 3.99 against the asymptotic 4), and
    two doublings leave the extrapolated value within 2e-10 (relative) of
    ``alpha_exact_prime`` on every Table-1 row.  ``alpha_curvature``, named for
    the Stark-curvature route it replaced, is the spectral solve, which has no
    grid, so ``route_gap`` = |richardson_alpha - alpha_curvature| /
    alpha_curvature reads the grid's discretisation error; it must be at most
    ``_ROUTE_AGREEMENT``, and both alphas must be positive.
    The multipliers and node counts of every level are exact integers worked
    out first, and a finest level of more than ``_MAX_GRID_NODES`` nodes, for
    any ``levels``, raises DomainError before any grid.
    """

    __slots__ = ()
    _fields = ("config", "levels", "alpha_sum", "alpha_curvature", "ground_energy_dimless",
               "richardson_alpha", "diagnostics", "route_gap")

    def __new__(cls, config: GridOracleConfig, levels: int = 2) -> "OracleResult":
        _require_int("levels", levels, 2)
        L = config.box_half_width
        # The base grid has at least num_points nodes and each level doubles
        # them: past these caps the finest has over 4x the budget, not formed.
        small = levels <= _MAX_GRID_NODES.bit_length()
        ms = tuple(_multiplier(config) << level for level in range(levels + 1)) if small else ()
        sizes = tuple(2 * L * m - 1 for m in ms)
        if not small or sizes[-1] > _MAX_GRID_NODES:
            nodes = sizes[-1] if small else f"over {4 * _MAX_GRID_NODES}"
            raise DomainError(f"the finest grid would have {nodes} nodes on a box of half-width "
                              f"{L}, more than the budget of {_MAX_GRID_NODES}")
        alphas, e0s = [], []
        for m in ms:
            x, v, diag, off = _grid(config, m)
            bottom, psi0 = _even_ground(v, diag, off, _grid_ground(config, x, m))
            e0 = bottom - (config.well_R or 0.0) ** 2
            alpha, solve_residual = _dalgarno_lewis(x, diag, off, e0, psi0)
            if m == ms[0]:
                residual = solve_residual()
            alphas.append(alpha)
            e0s.append(e0)
        alpha_curvature, spectral_e0 = _spectral(config)
        d_prev, d_last = alphas[-2] - alphas[-3], alphas[-1] - alphas[-2]
        observed = math.log2(abs(d_prev / d_last)) if d_last != 0.0 and d_prev != 0.0 else math.nan
        if not 1.5 <= observed <= 2.5:
            warnings.warn(f"observed convergence order {observed:.2f} outside [1.5, 2.5]",
                          ConvergenceWarning, stacklevel=2)
        diagnostics = {
            "grid_num_points_actual": sizes[0],
            "grid_box_half_width": L,
            "grid_spacing": 1.0 / ms[0],
            "sum_solve_residual": residual,
            "spectral_ground_energy": spectral_e0,
            "refine_grid_multipliers": ms,
            "refine_grid_sizes": sizes,
            "refine_alpha_per_level": tuple(alphas),
            "refine_ground_energy_per_level": tuple(e0s),
            "refine_observed_order": observed,
        }
        alpha_sum, richardson = alphas[0], extrapolate(alphas, ratio=0.25)
        for name, value in (("alpha_sum", alpha_sum), ("alpha_curvature", alpha_curvature)):
            if not value > 0.0:
                raise NumericalError(f"{name} must be positive, got {value!r}")
        gap = abs(richardson - alpha_curvature) / alpha_curvature
        if gap > _ROUTE_AGREEMENT:
            raise NumericalError(f"oracle routes disagree by {gap:.2e}: Romberg's grid value "
                                 f"against the spectral solve")
        return tuple.__new__(cls, (config, levels, alpha_sum, alpha_curvature, e0s[0],
                                   richardson, diagnostics, gap))


oracle_study = OracleResult
