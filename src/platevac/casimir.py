"""Global quantities: total Casimir energy, pressure, and reference values.

The total energy per unit plate area is computed through the full
regularization pipeline rather than stored as a constant: the continued
transverse integral turns the zero-point sum into

    E0 = (1/2) sum_n I(N=-1/2, m^2=k_n^2) = (1/2) sum_n k_n^3 / (4 pi (-3/2))
       = (-pi^2 / (12 L^3)) sum_n n^3,

and the remaining power sum is the exact rational zeta(-3) = 1/120,
giving E0 = -pi^2/(1440 L^3) for either boundary condition.  Its
comparison with that closed constant is ``verify``'s ``energy_pipeline``
check.
"""

from __future__ import annotations

import math

from .dimreg import master_integral
from .fluctuations import InteriorPoint, ab_values, expectation_set
from .regsum import zeta_neg_int
from .spectrum import BoundaryCondition, PlateConfig, k_n
from .stress import stress_report

__all__ = ["total_energy", "pressure", "em_reference", "integrated_density_check"]


def total_energy(config: PlateConfig) -> float:
    """Casimir energy per unit plate area, -pi^2/(1440 L^3).

    Identical for Dirichlet and Neumann plates: both spectra give the
    same continued value.  The value is half the master integral at
    N = -1/2 and m^2 = k_1^2, -k_1^3 / (6 pi), times the exact zeta(-3);
    ``master_integral`` raises :class:`DomainError` unless its value is
    a normal double, which it is at every L in [L_MIN, L_MAX].
    """
    per_mode = 0.5 * master_integral(-0.5, k_n(config, 1) ** 2)
    return per_mode * float(zeta_neg_int(3))


def pressure(config: PlateConfig) -> float:
    """Pressure -pi^2/(480 L^4) = -dE0/dL normal to the plates (attractive)."""
    return 3.0 * total_energy(config) / config.L


def em_reference(config: PlateConfig) -> tuple[float, float, float]:
    """Electromagnetic (energy per area, energy density, pressure).

    Each component is exactly twice its scalar counterpart, the photon
    having two spin degrees of freedom: (-pi^2/720 L^3, -pi^2/720 L^4,
    -pi^2/240 L^4).  The pressure is :func:`pressure`'s expression in the
    same energy, so the pipeline runs once.
    """
    scalar_energy = total_energy(config)
    scalar_density = scalar_energy / config.L
    scalar_pressure = 3.0 * scalar_energy / config.L
    return 2.0 * scalar_energy, 2.0 * scalar_density, 2.0 * scalar_pressure


def integrated_density_check(config: PlateConfig, bc: BoundaryCondition) -> tuple[float, float]:
    """Integrate the improved energy density across the gap by quadrature.

    The density is constant, so the integral must reproduce the total
    energy: this ties the local closed forms to the independent zeta
    pipeline of :func:`total_energy`.  Returns the integral and its
    absolute mismatch against :func:`total_energy`.  The density is -A
    to the bit at every point, so the midpoint rule is exact at any
    resolution; four points, evaluated one at a time and added in order,
    keep the summation round-off to a few ulp.
    """
    h = config.L / 4
    integral = 0.0
    for i in range(4):
        point = InteriorPoint.from_theta(config, math.pi * ((i + 0.5) * h) / config.L)
        fluct = expectation_set(bc, config, point)
        integral += stress_report(fluct, ab_values(config, point)).energy_density_improved
    integral *= h
    return integral, abs(integral - total_energy(config))
