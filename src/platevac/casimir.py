"""Global quantities: total Casimir energy, pressure, and reference values.

The total energy per unit plate area is computed through the full
regularization pipeline rather than stored as a constant: the continued
transverse integral turns the zero-point sum into

    E0 = (1/2) sum_n I(d=2, N=-1/2, m^2=k_n^2)
       = (-pi^2 / (12 L^3)) sum_n n^3,

and the remaining power sum is the exact rational zeta(-3) = 1/120,
giving E0 = -pi^2/(1440 L^3) for either boundary condition.  Its
comparison with that closed constant is ``verify``'s ``energy_pipeline``
check.
"""

from __future__ import annotations

import math

from .dimreg import master_integral
from .errors import DomainError, _require
from .fluctuations import InteriorPoint, ab_values, expectation_set
from .regsum import zeta_neg_int
from .spectrum import BoundaryCondition, PlateConfig, k_n
from .stress import stress_report

__all__ = ["total_energy", "pressure", "em_reference", "integrated_density_check",
           "canonical_density_integral", "canonical_density_quadrature"]


def total_energy(config: PlateConfig) -> float:
    """Casimir energy per unit plate area, -pi^2/(1440 L^3).

    Identical for Dirichlet and Neumann plates: both spectra give the
    same continued value.  The value is produced by the master-integral
    coefficient times the exact zeta(-3); ``master_integral`` raises
    :class:`DomainError` unless its value is a finite double.
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


def canonical_density_integral(config: PlateConfig, bc: BoundaryCondition, margin: float) -> float:
    """The canonical energy density -(A + 2t) integrated over [m L, (1-m) L], exactly.

    With u = cot theta, f d theta = -(1 + 3u^2) du, and dz = (L/pi) d theta,
    so for m = ``margin`` in (0, 0.5) the integral is

        -A L (1 - 2m) - s pi/(24 L^3) (cot pi m + cot^3 pi m).

    It grows like -s/(24 pi^2 L^3 m^3) without limit as m -> 0, which is
    precisely why only the improved density can integrate up to the
    total energy.  A value past the double range raises :class:`DomainError`.
    """
    _require(0.0 < margin < 0.5, margin, "margin must lie in (0, 0.5), got {}")
    L = config.L
    cot = 1.0 / math.tan(math.pi * margin)
    try:
        value = (-math.pi ** 2 / (1440.0 * L ** 4) * L * (1.0 - 2.0 * margin)
                 - bc.sign_upper * math.pi / (24.0 * L ** 3) * (cot + cot ** 3))
    except OverflowError:  # cot^3
        value = math.inf
    if not abs(value) < math.inf:
        raise DomainError(f"the canonical density integral overflows at margin {margin!r}: "
                          "the margin is too close to a plate")
    return value


def canonical_density_quadrature(config: PlateConfig, margin: float) -> tuple[float, float]:
    """The pointwise canonical density integrated over [m L, (1 - m) L] by quadrature.

    The second route to :func:`canonical_density_integral`, returned as
    (Dirichlet, Neumann): the density of :func:`stress_report`, evaluated
    one point at a time, under the tanh-sinh rule (Takahasi and Mori,
    Publ. RIMS 9, 721, 1974):
    theta = a + w (1 + tanh u)/2, u = (pi/2) sinh t, a = pi m, w = pi (1 - 2m),
    at t = k/24, |k| <= 80, which clusters the nodes where the density
    grows as theta^-4.  Each node's distance to the nearer end,
    w e/(1 + e) with e = exp(-2u), is formed directly, so none loses
    digits to 1 - tanh u; dz = (L/pi) d theta.  Each node's point and
    (A, B) are built once and serve both conditions.
    """
    _require(0.0 < margin < 0.5, margin, "margin must lie in (0, 0.5), got {}")
    start, width, nodes = math.pi * margin, math.pi * (1.0 - 2.0 * margin), []
    for k in range(81):
        t = k / 24
        e = math.exp(-math.pi * math.sinh(t))
        near = start + width * e / (1.0 + e)
        weight = width * math.pi * math.cosh(t) * e / (1.0 + e) ** 2
        for theta in (near, math.pi - near) if k else (near,):
            point = InteriorPoint.from_theta(config, theta)
            nodes.append((weight, point, ab_values(config, point)))
    values = []
    for bc in BoundaryCondition:  # Dirichlet, then Neumann
        terms = []
        for weight, point, ab in nodes:
            report = stress_report(expectation_set(bc, config, point), ab)
            terms.append(weight * report.energy_density_canonical)
        values.append(math.fsum(terms) / 24 * config.L / math.pi)
    dirichlet, neumann = values
    return dirichlet, neumann
