"""Vacuum fluctuations of a massless scalar field between parallel plates.

Computes the regularized field and derivative fluctuations, the
canonical and conformally improved energy-momentum tensor components,
and the global Casimir energy and pressure for Dirichlet or Neumann
plates, cross-validating every closed form against independent
brute-force summation oracles.
"""

from .casimir import em_reference, integrated_density_check, pressure, total_energy
from .dimreg import master_integral, quadrature_reference
from .errors import (
    ConsistencyError,
    DomainError,
    InvalidConfigError,
    PlateVacError,
    PoleError,
    QuadratureError,
)
from .fluctuations import (
    ABPair,
    FluctuationSet,
    InteriorPoint,
    ab_values,
    expectation_columns,
    expectation_set,
    phi_squared,
    phi_squared_single_plate,
)
from .oracle import mode_sum_finite_part
from .regsum import FinitePartResult, bernoulli, zeta_neg_int
from .spectrum import BoundaryCondition, PlateConfig, k_n
from .stress import StressReport, stress_report

__all__ = [
    "em_reference", "integrated_density_check", "pressure", "total_energy", "master_integral",
    "quadrature_reference", "ConsistencyError", "DomainError", "InvalidConfigError",
    "PlateVacError", "PoleError", "QuadratureError", "ABPair", "FluctuationSet", "InteriorPoint", "ab_values",
    "expectation_columns", "expectation_set", "phi_squared", "phi_squared_single_plate",
    "mode_sum_finite_part", "FinitePartResult", "bernoulli", "zeta_neg_int",
    "BoundaryCondition", "PlateConfig", "k_n", "StressReport", "stress_report",
]

__version__ = "0.1.0"
