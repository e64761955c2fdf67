"""Factorization identities for the integral transforms, checked on grids.

The central construction: given an exponent Phi_nu and an index beta, the
background factor is

    rho = (2 beta)-transform of the half convolution power of nu,

and the beta-transform of nu factors as (beta-transform of rho) * rho.
The grid identities eq3, eq15, cor1a and prop2 are written once, in
:data:`SIDES`, with three law operations, the methods ``mapped(m)``,
``convolve(other)`` and ``conv_power(c)``: on a CharExponent they build
exponent nodes, on a LevyTriplet triplets in closed form, and any other
type with the three methods runs through the table unchanged. Each grid
checker evaluates both sides of one identity at a quadrature tolerance
derived from the check's own and reports pointwise residuals.
:data:`IDENTITIES` maps the identity tokens (eq3, eq15, cor1a, cor5,
prop2, eq2-timechange, area), the stable CLI vocabulary, to the checks
that run them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import maps, simulate
from .errors import LawSpecError, positive_finite
from .exponent import CharExponent, closed_form, default_grid, log_sinhc, xcothx
from .report import CheckReport, abs_diff
from .spectral import SpectralMeasure


@dataclass(frozen=True, eq=False)
class FactorizationReport(CheckReport):
    """Two exponent evaluations on a common grid, compared pointwise."""

    kind = "identity"
    template = "{r.identity}: max residual {r.max_residual:.3e} (tol {r.tol:.1e}) {word}"

    tol: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        lhs = np.asarray(self.lhs, dtype=complex)
        rhs = np.asarray(self.rhs, dtype=complex)
        if grid.shape[0] == 0:
            raise ValueError("report grid must be non-empty")
        if lhs.shape != (grid.shape[0],) or rhs.shape != (grid.shape[0],):
            raise ValueError("lhs/rhs must hold one value per grid point")
        if not self.tol > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())


def _quadrature_tol(tol: float) -> float:
    """Quadrature tolerance for an identity check at tolerance ``tol``.

    One order tighter than the check itself, clamped so that extreme
    check tolerances still yield trustworthy quadrature rather than
    non-convergence.
    """
    return min(max(0.1 * tol, 1e-10), 1e-6)


def rho_from_nu(nu, beta: float):
    """Background factor of the beta-transform image of nu.

    Returns the (2 beta)-transform of the half convolution power, i.e.
    Phi_rho(y) = (1/2) * integral of Phi_nu(t**(1/(2 beta)) y) dt.
    """
    positive_finite(beta)
    return nu.conv_power(0.5).mapped(maps.jbeta_map(2.0 * beta))


def mu_from_rho(rho, beta: float):
    """Reassembled image law: beta-transform of rho, convolved with rho."""
    positive_finite(beta)
    return rho.mapped(maps.jbeta_map(beta)).convolve(rho)


def _grid_check(
    identity: str, phi, beta: float, grid: np.ndarray | None = None, tol: float = 1e-8
) -> FactorizationReport:
    """Evaluate the two sides of a :data:`SIDES` identity on one grid, for the
    grid checkers below: one per entry, by the names callers use."""
    lhs, rhs = SIDES[identity](phi, beta)
    qtol = _quadrature_tol(tol)
    if grid is None:
        grid = default_grid(lhs.dim)
    grid = np.asarray(grid, dtype=float)
    return FactorizationReport(
        identity, {"beta": beta}, grid, lhs.eval_grid(grid, qtol), rhs.eval_grid(grid, qtol), tol
    )


def verify_factorization(phi_nu, beta, grid=None, tol=1e-8) -> FactorizationReport:
    """eq3: the beta-transform of nu against its two-factor assembly."""
    return _grid_check("eq3", phi_nu, beta, grid, tol)


def identity_e_check(phi_rho, beta, grid=None, tol=1e-8) -> FactorizationReport:
    """eq15: the rebracketing identity on transforms of a factor rho."""
    return _grid_check("eq15", phi_rho, beta, grid, tol)


def ubeta_f_membership(phi_nu, beta, grid=None, tol=1e-8) -> FactorizationReport:
    """cor1a: the square-root kernel map against the (2 beta)- after the beta-transform."""
    return _grid_check("cor1a", phi_nu, beta, grid, tol)


def clock_composition_check(phi_nu, beta, grid=None, tol=1e-8) -> FactorizationReport:
    """prop2: the kernel u**-1 - u**(beta-1) against the log map after the beta-transform."""
    return _grid_check("prop2", phi_nu, beta, grid, tol)


def default_radius_grid(G: SpectralMeasure, n_points: int = 20) -> np.ndarray:
    """Radii spanning the support of G's rays for tail comparisons."""
    rmax = 0.0
    for ray_ in G.rays:
        atoms, segments = ray_.radial.parts
        for at in atoms:
            rmax = max(rmax, at.r)
        for sg in segments:
            rmax = max(rmax, sg.hi if math.isfinite(sg.hi) else 4.0 * max(sg.lo, 1.0))
    if rmax <= 0.0:
        rmax = 2.0
    return np.linspace(0.05 * rmax, 1.2 * rmax, n_points)


def spectral_factor_check(
    G: SpectralMeasure,
    beta: float,
    radius_grid: np.ndarray | None = None,
    tol: float = 1e-9,
) -> FactorizationReport:
    """Measure-level factorization on tail sets, ray by ray.

    With M = half the (2 beta)-image of G, checks that the beta-image of M
    plus M itself has the same right tails as the beta-image of G, at each
    radius of the grid and along every ray.
    """
    positive_finite(beta)
    G.require_valid()
    if radius_grid is None:
        radius_grid = default_radius_grid(G)
    radius_grid = np.asarray(radius_grid, dtype=float)
    if radius_grid.ndim != 1 or radius_grid.size == 0:
        raise ValueError("radius grid must be a non-empty 1-d array")

    parts = []
    kernel = maps.POWER_KERNELS["jbeta"](2.0 * beta)
    for ray_ in G.rays:
        m_rad = maps._radial_image(ray_.radial, kernel).scaled(0.5)
        lhs = maps.transformed_tail(m_rad, beta, radius_grid) + m_rad.tail(radius_grid)
        parts.append((lhs, maps.transformed_tail(ray_.radial, beta, radius_grid)))
    if not parts:
        # empty measure: tails vanish identically
        parts = [(np.zeros_like(radius_grid),) * 2]
    lhs, rhs = (np.concatenate(side).astype(complex) for side in zip(*parts))
    return FactorizationReport(
        "cor5", {"beta": beta, "rays": len(G.rays)}, np.tile(radius_grid, len(parts)), lhs, rhs, tol
    )


# -- stochastic-area example ---------------------------------------------------


@dataclass(frozen=True)
class LevyAreaCase:
    """Stationary law of the conditioned stochastic-area integral.

    For conditioning parameter u > 0, the log characteristic function
    chi(t) splits into a driving part 1 - t*u*coth(t*u) and a
    selfdecomposable part log(t*u / sinh(t*u)); both vanish at t = 0 and
    their sum is log chi by construction.
    """

    u: float

    def __post_init__(self):
        positive_finite(self.u, "conditioning parameter u")

    def bdlp_exponent(self, t) -> np.ndarray:
        """Exponent of the driving law: 1 - t*u*coth(t*u)."""
        t = np.asarray(t, dtype=float)
        return 1.0 - xcothx(t * self.u)

    def class_l_exponent(self, t) -> np.ndarray:
        """Closed form of the selfdecomposable part: log(t*u / sinh(t*u))."""
        t = np.asarray(t, dtype=float)
        return -log_sinhc(t * self.u)

    def chi_log(self, t) -> np.ndarray:
        return self.bdlp_exponent(t) + self.class_l_exponent(t)

    def chi(self, t) -> np.ndarray:
        return np.exp(self.chi_log(t))

    def cosh_variant_exponent(self, t) -> np.ndarray:
        """The driving exponent as printed with cosh in place of coth.

        Does not vanish at t = 0 (limit 1), so the corresponding
        characteristic function would tend to e instead of 1; kept only to
        document the suspected misprint.
        """
        t = np.asarray(t, dtype=float)
        return 1.0 - t * self.u * np.cosh(t * self.u)

    def driving_char_exponent(self) -> CharExponent:
        return closed_form("levy_area_bdlp", u=self.u)


@dataclass(frozen=True, eq=False)
class LevyAreaReport(CheckReport):
    """Quadrature-vs-closed-form checks for the stochastic-area law.

    The sides are the logarithmic map of the driving exponent (lhs) and
    the closed-form selfdecomposable part (rhs) on the t grid; the
    assembled characteristic functions are compared as well.
    """

    kind = "area"
    template = "area (u={r.params[u]}): max residual {r.max_residual:.3e} (tol {r.tol:.1e}) {word}"

    chi_quad: np.ndarray
    chi_closed: np.ndarray
    tol: float

    @property
    def case(self) -> LevyAreaCase:
        return LevyAreaCase(self.params["u"])

    @property
    def product_residuals(self) -> np.ndarray:
        return abs_diff(self.chi_quad, self.chi_closed)

    @property
    def max_residual(self) -> float:
        return float(max(self.residuals.max(), self.product_residuals.max()))

    def _extra_row(self, k: int) -> dict:
        return {
            "chi_quadrature": [self.chi_quad[k].real, self.chi_quad[k].imag],
            "chi_closed_form": [self.chi_closed[k].real, self.chi_closed[k].imag],
            "cosh_variant_exponent": float(self.case.cosh_variant_exponent(self.grid[k])),
        }

    def _extra_doc(self) -> dict:
        return {
            "max_transform_residual": float(self.residuals.max()),
            "max_product_residual": float(self.product_residuals.max()),
            "cosh_variant": {
                "exponent_limit_at_zero": 1.0,
                "cf_limit_at_zero": math.e,
                "cf_deviation_from_one": math.e - 1.0,
                "note": (
                    "with cosh instead of coth the driving exponent tends to 1 "
                    "at t = 0, so its characteristic function tends to e; the "
                    "coth form is used everywhere else"
                ),
            },
        }


def levy_area_demo(
    u: float,
    t_grid: np.ndarray | None = None,
    tol: float = 1e-8,
) -> LevyAreaReport:
    """Check the stochastic-area factorization numerically.

    (i) the logarithmic map applied to the driving exponent reproduces the
    closed-form selfdecomposable part log(t*u/sinh(t*u)); (ii) assembling
    driving part + mapped part reproduces the conditioned characteristic
    function chi. The report also tabulates the cosh variant of the
    driving exponent to document its defective t -> 0 limit.
    """
    case = LevyAreaCase(u)
    if t_grid is None:
        t_grid = np.linspace(0.1, 5.0, 25)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t grid must be a non-empty 1-d array")
    phi_nu = case.driving_char_exponent()
    # evaluate on an explicit (n, 1) grid so singleton inputs stay arrays
    i_part_quad = maps.map_exponent_grid(
        maps.i_map(), phi_nu, t_grid[:, None], _quadrature_tol(tol)
    )
    i_part_closed = case.class_l_exponent(t_grid).astype(complex)
    chi_quad = np.exp(case.bdlp_exponent(t_grid) + i_part_quad)
    chi_closed = case.chi(t_grid).astype(complex)
    return LevyAreaReport(
        "area", {"u": u}, t_grid, i_part_quad, i_part_closed, chi_quad, chi_closed, tol
    )


# -- identity tables -------------------------------------------------------------

# token -> (law, beta) -> (lhs, rhs): the grid identities, each written once
# with the law operations mapped(m), convolve(other) and conv_power(c), so it
# holds for any type that has them: CharExponent builds exponent nodes,
# LevyTriplet closed-form triplets
SIDES: dict[str, Callable[[Any, float], tuple[Any, Any]]] = {
    "eq3": lambda nu, b: (mu_from_rho(rho_from_nu(nu, b), b), nu.mapped(maps.jbeta_map(b))),
    "eq15": lambda rho, b: (
        mu_from_rho(rho, b).mapped(maps.jbeta_map(2.0 * b)),
        rho.conv_power(2.0).mapped(maps.jbeta_map(b)),
    ),
    "cor1a": lambda nu, b: (
        nu.mapped(maps.ubetaf_map(b)),
        nu.mapped(maps.jbeta_map(b)).mapped(maps.jbeta_map(2.0 * b)),
    ),
    "prop2": lambda nu, b: (
        nu.mapped(maps.i_jbeta_map(b)),
        nu.mapped(maps.jbeta_map(b)).mapped(maps.i_map()),
    ),
}


@dataclass(frozen=True)
class Identity:
    """How one identity token is checked.

    ``subject`` names what the check takes: "exponent" (a CharExponent),
    "jumps" (a SpectralMeasure), "sim" (a simulate.SimSpec) or None.
    ``run(subject, value, opts)`` returns the report, where ``value`` is
    the index named by ``param`` and ``opts`` has the attributes tol,
    cor5_tol, grid, n, seed and z_max.
    """

    subject: str | None
    run: Callable[[Any, float, Any], CheckReport]
    param: str = "beta"


def _cor5(G: SpectralMeasure, beta: float, o) -> FactorizationReport:
    if o.grid is not None:
        raise LawSpecError("cor5 compares tails at radii of its own; it takes no grid of points")
    return spectral_factor_check(G, beta, tol=o.cor5_tol)


# each SIDES entry's checker, looked up when it runs, so that a replaced
# module attribute (a tracer's wrapper, a test double) takes effect
_GRID_CHECKERS = {"eq3": "verify_factorization", "eq15": "identity_e_check",
                  "cor1a": "ubeta_f_membership", "prop2": "clock_composition_check"}
IDENTITIES: dict[str, Identity] = {
    **{
        token: Identity(
            "exponent",
            lambda phi, b, o, name=_GRID_CHECKERS[token]: globals()[name](phi, b, o.grid, o.tol),
        )
        for token in SIDES
    },
    "cor5": Identity("jumps", _cor5),
    "eq2-timechange": Identity(
        "sim",
        lambda spec, beta, o: simulate.time_change_equivalence(
            spec, beta, o.n, o.seed, o.grid, z_max=o.z_max
        ),
    ),
    # the grid's points are the area's t values
    "area": Identity(
        None,
        lambda _, u, o: levy_area_demo(u, None if o.grid is None else o.grid[:, 0], o.tol),
        param="u",
    ),
}
