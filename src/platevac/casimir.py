"""Global quantities: total Casimir energy, pressure, and reference values.

The total energy per unit plate area is computed through the full
regularization pipeline rather than stored as a constant: the continued
transverse integral turns the zero-point sum into

    E0 = (1/2) sum_n I(d=2, N=-1/2, m^2=k_n^2)
       = (-pi^2 / (12 L^3)) sum_n n^3,

and the remaining power sum is the exact rational zeta(-3) = 1/120,
giving E0 = -pi^2/(1440 L^3) for either boundary condition.  The result
is asserted against the closed constant on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dimreg import MasterIntegralSpec, master_integral
from .errors import ConsistencyError
from .fluctuations import expectation_columns
from .regsum import zeta_neg_int
from .spectrum import BoundaryCondition, PlateConfig, k_n
from .stress import canonical_T00, improved_energy_density

__all__ = ["GlobalResult", "total_energy", "pressure", "em_reference",
           "global_result", "integrated_density_check", "canonical_density_integral"]

_PIPELINE_RTOL = 1e-12


@dataclass(frozen=True)
class GlobalResult:
    """Energy per unit area, pressure, and the boundary condition used."""

    energy_per_area: float
    pressure: float
    bc: BoundaryCondition

    def __post_init__(self) -> None:
        if not (self.energy_per_area < 0.0 and self.pressure < 0.0):
            raise ConsistencyError("plate interaction must be attractive")


def total_energy(config: PlateConfig, bc: BoundaryCondition = BoundaryCondition.DIRICHLET) -> float:
    """Casimir energy per unit plate area, -pi^2/(1440 L^3).

    Identical for Dirichlet and Neumann plates (the ``bc`` argument only
    records which spectrum was summed; both give the same continued
    value).  The value is produced by the master-integral coefficient
    times the exact zeta(-3) and cross-checked against the closed
    constant.
    """
    per_mode = 0.5 * master_integral(
        MasterIntegralSpec(d=2.0, N=-0.5, m_sq=k_n(config, 1) ** 2)
    )
    energy = per_mode * float(zeta_neg_int(3))
    closed = -math.pi ** 2 / (1440.0 * config.L ** 3)
    if not abs(energy - closed) <= _PIPELINE_RTOL * abs(closed):
        raise ConsistencyError(
            f"regularization pipeline gave {energy!r}, closed form {closed!r}"
        )
    return energy


def pressure(config: PlateConfig) -> float:
    """Pressure -pi^2/(480 L^4) = -dE0/dL normal to the plates (attractive)."""
    return 3.0 * total_energy(config) / config.L


def em_reference(config: PlateConfig) -> tuple[float, float, float]:
    """Electromagnetic (energy per area, energy density, pressure).

    Each component is exactly twice its scalar counterpart, the photon
    having two spin degrees of freedom: (-pi^2/720 L^3, -pi^2/720 L^4,
    -pi^2/240 L^4).
    """
    scalar_energy = total_energy(config)
    scalar_density = scalar_energy / config.L
    scalar_pressure = pressure(config)
    return 2.0 * scalar_energy, 2.0 * scalar_density, 2.0 * scalar_pressure


def global_result(config: PlateConfig, bc: BoundaryCondition) -> GlobalResult:
    """Bundle the global quantities for one boundary condition."""
    return GlobalResult(energy_per_area=total_energy(config, bc),
                        pressure=pressure(config), bc=bc)


def integrated_density_check(
    config: PlateConfig, bc: BoundaryCondition, grid_points: int = 4
) -> tuple[float, float]:
    """Integrate the improved energy density across the gap by quadrature.

    The density is constant, so the integral must reproduce the total
    energy; the midpoint rule on the open interval makes this a genuine
    numerical test rather than -A * L by construction.  Returns the
    integral and its absolute mismatch against :func:`total_energy`.

    The default grid is deliberately coarse.  Each density evaluation
    carries round-off proportional to the profile part B it cancels,
    which grows like the inverse fourth power of the distance to the
    nearest plate; refining the midpoint grid therefore pushes the
    innermost points into a regime where accumulated round-off
    (~ grid_points^3 ulp) swamps the 1e-12 mismatch contract, while the
    midpoint rule is already exact for a constant at any resolution.
    """
    if grid_points < 2:
        raise ValueError("need at least two quadrature points")
    h = config.L / grid_points
    centers = (np.arange(grid_points) + 0.5) * h
    with np.errstate(over="ignore", invalid="ignore"):
        _, fluct, ab = expectation_columns(bc, config, centers)
        integral = float(np.sum(improved_energy_density(fluct, ab))) * h
    return integral, abs(integral - total_energy(config, bc))


def canonical_density_integral(
    config: PlateConfig, bc: BoundaryCondition, margin: float, grid_points: int = 2000
) -> float:
    """Quadrature of the canonical energy density over [m L, (1-m) L].

    The canonical density grows like theta^-4 toward the plates, so this
    integral has no margin -> 0 limit; shrinking the margin makes it
    grow without bound, which is precisely why only the improved density
    can integrate up to the total energy.
    """
    if not 0.0 < margin < 0.5:
        raise ValueError(f"margin must lie in (0, 0.5), got {margin}")
    if grid_points < 2:
        raise ValueError("need at least two quadrature points")
    lo = margin * config.L
    width = config.L - 2.0 * lo
    h = width / grid_points
    centers = lo + (np.arange(grid_points) + 0.5) * h
    with np.errstate(over="ignore", invalid="ignore"):
        _, fluct, _ = expectation_columns(bc, config, centers)
        return float(np.sum(canonical_T00(fluct))) * h
