"""Numerics for infinitely divisible laws and their random-integral maps.

Laws are handled through generating triplets (shift, Gaussian covariance,
polar jump measure) and characteristic exponents. The integral transforms
act either by quadrature on exponents or in closed form on triplets, the
factorization identities they satisfy are checked on grids, and exact
Monte Carlo samplers validate the distributional claims.
"""

from .errors import (
    DimensionMismatchError,
    InvalidMeasureError,
    LawSpecError,
    NotLogIntegrableError,
    QuadratureError,
)
from .exponent import (
    CharExponent,
    closed_form,
    conv_power,
    convolve,
    from_callable,
    from_triplet,
)
from .factor import (
    IDENTITIES,
    FactorizationReport,
    Identity,
    LevyAreaCase,
    LevyAreaReport,
    clock_composition_check,
    default_grid,
    identity_e_check,
    levy_area_demo,
    mu_from_rho,
    rho_from_nu,
    spectral_factor_check,
    ubeta_f_membership,
    verify_factorization,
)
from .lawio import BUILTIN_LAWS, LoadedLaw, builtin_law, law_from_dict, load_law
from .maps import (
    IntegralMap,
    apply_map,
    i_jbeta_map,
    i_map,
    inner_clock,
    inner_clock_rate,
    jbeta_inverse,
    jbeta_map,
    jbeta_measure,
    jbeta_radial,
    jbeta_triplet,
    log_moment_preserved,
    map_exponent_grid,
    transformed_tail,
    ubetaf_map,
)
from .report import CheckReport
from .simulate import (
    EmpiricalCF,
    MCReport,
    SimSpec,
    empirical_cf,
    mc_report,
    mc_vs_quadrature,
    sample_clocked_integral,
    sample_integral,
    sample_jbeta_integral,
    sample_time_changed_integral,
    samples_to_csv,
    time_change_equivalence,
)
from .spectral import Atom, GridTail, RadialMeasure, Ray, Segment, SpectralMeasure, ray
from .triplet import LevyTriplet, ValidationReport, validate

__version__ = "0.1.0"
