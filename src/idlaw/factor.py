"""Factorization identities for the integral transforms, checked on grids.

The central construction: given an exponent Phi_nu and an index beta, the
background factor is

    rho = (2 beta)-transform of the half convolution power of nu,

and the beta-transform of nu factors as (beta-transform of rho) * rho.
Each checker evaluates both sides of one such identity on a grid and
reports pointwise residuals. :data:`IDENTITIES` maps the identity tokens
(eq3, eq15, cor1a, cor5, prop2, eq2-timechange, area), the stable CLI
vocabulary, to the checks that run them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import maps, simulate
from .exponent import CharExponent, closed_form, conv_power, convolve, log_sinhc, xcothx
from .report import CheckReport
from .spectral import SpectralMeasure


def default_grid(dim: int, n_points: int = 41, span: float = 5.0) -> np.ndarray:
    """Standard verification grid: symmetric line (d=1) or a radial fan.

    For d >= 2 the grid is the origin plus 8 fixed directions at 5 radii,
    so the default point count stays at 41.
    """
    if dim == 1:
        return np.linspace(-span, span, n_points)[:, None]
    if dim == 2:
        angles = np.arange(8) * (np.pi / 4.0)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        gen = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
        dirs = gen.standard_normal((8, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.linspace(span / 5.0, span, 5)
    pts = (dirs[:, None, :] * radii[None, :, None]).reshape(-1, dim)
    return np.vstack([np.zeros((1, dim)), pts])


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


def _derived_quad_tol(tol: float) -> float:
    """Quadrature tolerance for an identity check at tolerance ``tol``.

    One order tighter than the check itself, clamped so that extreme
    check tolerances still yield trustworthy quadrature rather than
    non-convergence.
    """
    return min(max(0.1 * tol, 1e-10), 1e-6)


def rho_from_nu(phi_nu: CharExponent, beta: float) -> CharExponent:
    """Background factor of the beta-transform image of nu.

    Returns the (2 beta)-transform of the half convolution power, i.e.
    Phi_rho(y) = (1/2) * integral of Phi_nu(t**(1/(2 beta)) y) dt.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    return maps.apply_map(maps.jbeta_map(2.0 * beta), conv_power(phi_nu, 0.5))


def mu_from_rho(phi_rho: CharExponent, beta: float) -> CharExponent:
    """Reassembled image law: beta-transform of rho, convolved with rho."""
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    return convolve(maps.apply_map(maps.jbeta_map(beta), phi_rho), phi_rho)


def _grid_check(
    identity: str,
    lhs: CharExponent,
    rhs: CharExponent,
    beta: float,
    grid: np.ndarray | None,
    tol: float,
    quad_tol: float | None,
) -> FactorizationReport:
    """Evaluate two independently built sides of an identity on one grid."""
    if quad_tol is None:
        quad_tol = _derived_quad_tol(tol)
    if grid is None:
        grid = default_grid(lhs.dim)
    grid = np.asarray(grid, dtype=float)
    return FactorizationReport(
        identity,
        {"beta": beta},
        grid,
        lhs.eval_grid(grid, quad_tol),
        rhs.eval_grid(grid, quad_tol),
        tol,
    )


def verify_factorization(
    phi_nu: CharExponent,
    beta: float,
    grid: np.ndarray | None = None,
    tol: float = 1e-8,
    quad_tol: float | None = None,
) -> FactorizationReport:
    """Check that the beta-transform of nu equals its two-factor assembly."""
    return _grid_check(
        "eq3",
        mu_from_rho(rho_from_nu(phi_nu, beta), beta),
        maps.apply_map(maps.jbeta_map(beta), phi_nu),
        beta, grid, tol, quad_tol,
    )


def identity_e_check(
    phi_rho: CharExponent,
    beta: float,
    grid: np.ndarray | None = None,
    tol: float = 1e-8,
    quad_tol: float | None = None,
) -> FactorizationReport:
    """Check the rebracketing identity on transforms of a factor rho.

    Left side: (2 beta)-transform of [beta-transform of rho, convolved
    with rho]. Right side: beta-transform of the squared convolution
    power of rho.
    """
    return _grid_check(
        "eq15",
        maps.apply_map(maps.jbeta_map(2.0 * beta), mu_from_rho(phi_rho, beta)),
        maps.apply_map(maps.jbeta_map(beta), conv_power(phi_rho, 2.0)),
        beta, grid, tol, quad_tol,
    )


def ubeta_f_membership(
    phi_nu: CharExponent,
    beta: float,
    grid: np.ndarray | None = None,
    tol: float = 1e-8,
    quad_tol: float | None = None,
) -> FactorizationReport:
    """Check that the square-root kernel map equals the two-step composition.

    Left side: the (1 - sqrt(t))**(1/beta) kernel applied to nu. Right
    side: the (2 beta)-transform of the beta-transform of nu.
    """
    inner = maps.apply_map(maps.jbeta_map(beta), phi_nu)
    return _grid_check(
        "cor1a",
        maps.apply_map(maps.ubetaf_map(beta), phi_nu),
        maps.apply_map(maps.jbeta_map(2.0 * beta), inner),
        beta, grid, tol, quad_tol,
    )


def clock_composition_check(
    phi_nu: CharExponent,
    beta: float,
    grid: np.ndarray | None = None,
    tol: float = 1e-8,
    quad_tol: float | None = None,
) -> FactorizationReport:
    """Check the combined-kernel map against the explicit two-map composition.

    Left side: single integral with kernel u**-1 - u**(beta-1), which is
    also the law of integrating exp(-s) against the time-changed process.
    Right side: the logarithmic map applied after the beta-transform.
    """
    inner = maps.apply_map(maps.jbeta_map(beta), phi_nu)
    return _grid_check(
        "prop2",
        maps.apply_map(maps.i_jbeta_map(beta), phi_nu),
        maps.apply_map(maps.i_map(), inner),
        beta, grid, tol, quad_tol,
    )


def default_radius_grid(G: SpectralMeasure, n_points: int = 20) -> np.ndarray:
    """Radii spanning the support of G's rays for tail comparisons."""
    rmax = 0.0
    for ray_ in G.rays:
        rad = ray_.radial
        for at in rad.atoms:
            rmax = max(rmax, at.r)
        for sg in rad.segments:
            rmax = max(rmax, sg.hi if math.isfinite(sg.hi) else 4.0 * max(sg.lo, 1.0))
        if rad.grid_tail is not None:
            rmax = max(rmax, float(rad.grid_tail.radii[-1]))
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
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    G.require_valid()
    if radius_grid is None:
        radius_grid = default_radius_grid(G)
    radius_grid = np.asarray(radius_grid, dtype=float)
    if radius_grid.ndim != 1 or radius_grid.size == 0:
        raise ValueError("radius grid must be a non-empty 1-d array")

    grids, lhs_parts, rhs_parts = [], [], []
    rays = G.rays if G.rays else ()
    for ray_ in rays:
        m_rad = maps.jbeta_radial(ray_.radial, 2.0 * beta).scaled(0.5)
        lhs = maps.transformed_tail(m_rad, beta, radius_grid) + m_rad.tail(radius_grid)
        rhs = maps.transformed_tail(ray_.radial, beta, radius_grid)
        grids.append(radius_grid)
        lhs_parts.append(lhs)
        rhs_parts.append(rhs)
    if not rays:
        # empty measure: tails vanish identically
        grids = [radius_grid]
        lhs_parts = [np.zeros_like(radius_grid)]
        rhs_parts = [np.zeros_like(radius_grid)]
    return FactorizationReport(
        "cor5",
        {"beta": beta, "rays": max(len(rays), 0)},
        np.concatenate(grids),
        np.concatenate(lhs_parts).astype(complex),
        np.concatenate(rhs_parts).astype(complex),
        tol,
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
        if not self.u > 0.0:
            raise ValueError(f"conditioning parameter u must be > 0, got {self.u}")

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
        return np.abs(self.chi_quad - self.chi_closed)

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
    quad_tol: float | None = None,
) -> LevyAreaReport:
    """Check the stochastic-area factorization numerically.

    (i) the logarithmic map applied to the driving exponent reproduces the
    closed-form selfdecomposable part log(t*u/sinh(t*u)); (ii) assembling
    driving part + mapped part reproduces the conditioned characteristic
    function chi. The report also tabulates the cosh variant of the
    driving exponent to document its defective t -> 0 limit.
    """
    case = LevyAreaCase(u)
    if quad_tol is None:
        quad_tol = _derived_quad_tol(tol)
    if t_grid is None:
        t_grid = np.linspace(0.1, 5.0, 25)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t grid must be a non-empty 1-d array")
    phi_nu = case.driving_char_exponent()
    # evaluate on an explicit (n, 1) grid so singleton inputs stay arrays
    i_part_quad = maps.map_exponent_grid(maps.i_map(), phi_nu, t_grid[:, None], quad_tol)
    i_part_closed = case.class_l_exponent(t_grid).astype(complex)
    chi_quad = np.exp(case.bdlp_exponent(t_grid) + i_part_quad)
    chi_closed = case.chi(t_grid).astype(complex)
    return LevyAreaReport(
        "area", {"u": u}, t_grid, i_part_quad, i_part_closed, chi_quad, chi_closed, tol
    )


# -- identity table --------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """How one identity token is checked.

    ``subject`` names what the check takes: "exponent" (a CharExponent),
    "jumps" (a SpectralMeasure), "sim" (a simulate.SimSpec) or None.
    ``run(subject, value, opts)`` returns the report, where ``value`` is
    the index named by ``param`` and ``opts`` has the attributes tol,
    cor5_tol, grid, n, seed, z_max and workers.
    """

    subject: str | None
    run: Callable[[Any, float, Any], CheckReport]
    param: str = "beta"


# the lambdas look the checks up when they run, so a replaced module
# attribute (a tracer's wrapper, a test double) takes effect
IDENTITIES: dict[str, Identity] = {
    "eq3": Identity(
        "exponent", lambda phi, beta, o: verify_factorization(phi, beta, o.grid, o.tol)
    ),
    "eq15": Identity(
        "exponent", lambda phi, beta, o: identity_e_check(phi, beta, o.grid, o.tol)
    ),
    "cor1a": Identity(
        "exponent", lambda phi, beta, o: ubeta_f_membership(phi, beta, o.grid, o.tol)
    ),
    "cor5": Identity(
        "jumps", lambda G, beta, o: spectral_factor_check(G, beta, tol=o.cor5_tol)
    ),
    "prop2": Identity(
        "exponent", lambda phi, beta, o: clock_composition_check(phi, beta, o.grid, o.tol)
    ),
    "eq2-timechange": Identity(
        "sim",
        lambda spec, beta, o: simulate.time_change_equivalence(
            spec, beta, o.n, o.seed, z_max=o.z_max, workers=o.workers
        ),
    ),
    "area": Identity(None, lambda _, u, o: levy_area_demo(u, tol=o.tol), param="u"),
}
