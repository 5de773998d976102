"""The checks `platevac verify` runs, :data:`VERIFY_CHECKS`, and their measures.

Every bound is an upper bound: a check passes when its measured value,
a relative error unless noted, is at most its bound, so a NaN fails.
Each measure takes one :class:`Sample`, the plates of a run, and
computes what it reads itself, with one exception: the three mode-sum
checks share the oracle's cached power sums (``oracle._power_sums``),
so each reads the sums an earlier one computed at its angles, and costs
less.  This module loads neither numpy nor the CLI.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import partial

from . import casimir, dimreg, oracle, stress
from .errors import _FrozenRecord, _set_field
from .fluctuations import (InteriorPoint, ab_values, expectation_set, phi_squared,
                           phi_squared_single_plate)
from .spectrum import L_MAX, L_MIN, BoundaryCondition, PlateConfig


class Check(_FrozenRecord):
    """A claim, its upper bound, and ``measure(sample)``, its value on a :class:`Sample`."""

    def __init__(self, name: str, bound: float, measure: Callable[[Sample], float]) -> None:
        _set_field(self, "name", name)
        _set_field(self, "bound", bound)
        _set_field(self, "measure", measure)

    def passes(self, measured: float) -> bool:
        return measured <= self.bound


def _worst(num, den) -> float:
    """max |n| / |d| over lists (or floats; a float den pairs with every n).

    A zero or NaN d reads inf, a NaN n makes it NaN.  Either way the
    check fails: no comparison with a bound holds for NaN.
    """
    nums = num if isinstance(num, list) else [num]
    dens = den if isinstance(den, list) else [den] * len(nums)
    ratios = [abs(n) / abs(d) if abs(d) > 0.0 else math.inf for n, d in zip(nums, dens)]
    return math.nan if any(map(math.isnan, ratios)) else max(ratios)


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num), bit for bit."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


# The angles of the mode-sum checks (the canonical density's 1e-4 from each
# plate too, where 2t is about 9e17 times A) and of the stress-tensor grid,
# and the k_n of the kernel check (np.geomspace(pi 1e-3, 40, 8), bit for bit).
_MODE_SUM_THETAS = _linspace(0.3, math.pi - 0.3, 5)
_CANONICAL_THETAS = [1e-4, *_MODE_SUM_THETAS, math.pi - 1e-4]
_STRESS_THETAS = _linspace(0.4, math.pi - 0.4, 100)
_KERNEL_KN = [math.pi * 1e-3, *(10.0 ** x for x in _linspace(math.log10(math.pi * 1e-3),
                                                             math.log10(40.0), 8)[1:-1]), 40.0]


class Sample(_FrozenRecord):
    """Plates L apart; ``sign_flip`` makes the closed forms take every plate as Dirichlet."""

    def __init__(self, L: float, sign_flip: bool = False) -> None:
        _set_field(self, "L", L)
        _set_field(self, "sign_flip", sign_flip)

    def evaluated(self, bc: BoundaryCondition) -> BoundaryCondition:
        return BoundaryCondition.DIRICHLET if self.sign_flip else bc


def _dimreg_quadrature(sample: Sample) -> float:
    analytic, numeric = [], []
    for N in (1.5, 2.0, 3.0):
        for m_sq in (0.5, 1.0, 4.0):
            analytic.append(dimreg.master_integral(N, m_sq))
            numeric.append(dimreg.quadrature_reference(N, m_sq))
    return _worst([a - n for a, n in zip(analytic, numeric)], analytic)


def _oracle_transverse_kernel(sample: Sample) -> float:
    """The oracle's radial kernels against quadrature of their integrands.

    k_n from pi 1e-3 to 40 at eps = 1 and 1/2 in turn, so that a wrong
    power of eps shows: any L."""
    closed, numeric = [], []
    for field in ("phi2", "phidot2"):
        for i, q in enumerate(_KERNEL_KN):
            e = 0.5 if i % 2 else 1.0
            closed.append(oracle._transverse_closed(field, q, e))
            numeric.append(oracle.transverse_quadrature(field, q, e))
    return _worst([c - n for c, n in zip(closed, numeric)], closed)


def _mode_sum_error(field: str, thetas: list[float], sample: Sample) -> float:
    """Mode-sum oracle against ``field`` of expectation_set or stress_report, both conditions."""
    plate = PlateConfig(sample.L)
    finite, closed = [], []
    for theta in thetas:
        point = InteriorPoint.from_theta(plate, theta)
        for bc in BoundaryCondition:
            finite.append(oracle.mode_sum_finite_part(field, bc, plate, point).finite_part)
            values = expectation_set(sample.evaluated(bc), plate, point)
            if not hasattr(values, field):
                values = stress.stress_report(values, ab_values(plate, point))
            closed.append(getattr(values, field))
    return _worst([f - c for f, c in zip(finite, closed)], closed)


def _single_plate_limit(sample: Sample) -> float:
    """phi2 at 1e-4 L from one plate of the gap against the single-plate form."""
    plate, z_near = PlateConfig(sample.L), 1e-4 * sample.L
    gap = [phi_squared(bc, plate, InteriorPoint.from_z(plate, z_near)) for bc in BoundaryCondition]
    single = [phi_squared_single_plate(bc, z_near) for bc in BoundaryCondition]
    return _worst([g - s for g, s in zip(gap, single)], single)


def _tzz_equals_pressure(sample: Sample) -> float:
    """T_zz on the stress grid against the pressure, and the pressure against its closed form.

    Dirichlet then Neumann, one point at a time; each point and its (A, B)
    serve both conditions.
    """
    plate = PlateConfig(sample.L)
    points = [InteriorPoint.from_theta(plate, theta) for theta in _STRESS_THETAS]
    pairs = [ab_values(plate, point) for point in points]
    t_zz = [stress.stress_report(expectation_set(sample.evaluated(bc), plate, point), ab).t_zz
            for bc in BoundaryCondition for point, ab in zip(points, pairs)]
    p_ref = casimir.pressure(plate)
    closed = -math.pi ** 2 / (480.0 * sample.L ** 4)
    return max(_worst([t - p_ref for t in t_zz], p_ref), _worst(p_ref - closed, closed))


def _length_scaling(sample: Sample) -> float:
    """phi2 ~ L^-2, phidot2 and the pressure ~ L^-4 under L -> 2L (L -> L/2 where 2L > L_MAX)."""
    ratio = 2.0 if 2.0 * sample.L <= L_MAX else 0.5
    plate, scaled = PlateConfig(sample.L), PlateConfig(ratio * sample.L)
    f1 = expectation_set(BoundaryCondition.DIRICHLET, plate, InteriorPoint.from_theta(plate, 1.1))
    f2 = expectation_set(BoundaryCondition.DIRICHLET, scaled,
                         InteriorPoint.from_theta(scaled, 1.1))
    p1, p2 = casimir.pressure(plate), casimir.pressure(scaled)
    return _worst([f2.phidot2 * ratio ** 4 - f1.phidot2, f2.phi2 * ratio ** 2 - f1.phi2,
                   p2 * ratio ** 4 - p1], [f1.phidot2, f1.phi2, p1])


def _energy_pipeline(sample: Sample) -> float:
    closed = -math.pi ** 2 / (1440.0 * sample.L ** 3)
    return _worst(casimir.total_energy(PlateConfig(sample.L)) - closed, closed)


def _pressure_finite_difference(sample: Sample) -> float:
    # centred at least 1e-4 inside [L_MIN, L_MAX], so that L +- h are valid plates
    L = min(max(sample.L, L_MIN * (1.0 + 1e-4)), L_MAX * (1.0 - 1e-4))
    h = 1e-5 * L
    fd = -(casimir.total_energy(PlateConfig(L + h)) - casimir.total_energy(PlateConfig(L - h))) / (2.0 * h)
    p_ref = casimir.pressure(PlateConfig(L))
    return _worst(fd - p_ref, p_ref)


def _integrated_density(sample: Sample) -> float:
    plate = PlateConfig(sample.L)
    mismatch = [casimir.integrated_density_check(plate, bc)[1] for bc in BoundaryCondition]
    return _worst(mismatch, casimir.total_energy(plate))


# Every check `verify` runs, in report order, grouped under the claim it
# stands for.  Each compares two independently computed routes.  The keep
# rule, over the generated sweep (tests/sweep_mutants.py) and the
# hand-picked table of tests/test_mutations.py:
# - A check stays if some mutant FAILs it and no other check, and that
#   mutant changes something a user reads: a value of the point API
#   (expectation_set, ab_values, stress_report, phi_squared*,
#   total_energy, pressure, integrated_density_check) or a byte of
#   `profile` or `energy`.  A unique catch in code that only checks read
#   keeps nothing.
# - Two checks that are the only ones to FAIL such a mutant (the sweep's
#   `pair:` lines) both stay, and are decided together.
#   mode_sum_phidot2 and mode_sum_canonical_density share 21, 5 of them in
#   regsum._f_of_sin2 and 3 in fluctuations._ab.  tzz_equals_pressure and
#   pressure_finite_difference share casimir.pressure.  energy_pipeline,
#   which the sweep finds in no pair and alone in no catch (only the hand
#   row k_n-pi FAILs it alone), and pressure_finite_difference wait for the
#   spectral energy of ROADMAP item 3 to decide them.
# - An anchor, a check of an oracle against its defining integral, stays
#   while a check this rule keeps reads that oracle.
# - The only check of a claim stays.
VERIFY_CHECKS = (
    # Claim: the regularized sums and integrals the closed forms rest on.
    # Continued master integral against direct quadrature.
    Check("dimreg_quadrature", 2e-14, _dimreg_quadrature),
    # The mode-sum oracle's radial kernels against quadrature.
    Check("oracle_transverse_kernel", 2e-14, _oracle_transverse_kernel),
    # Claim: the fluctuations of the field and its derivatives diverge toward
    # a plate.  The closed forms against the mode sums' finite parts, and phi2
    # near one plate of the gap against the single-plate form.
    Check("mode_sum_phi2", 1e-13, partial(_mode_sum_error, "phi2", _MODE_SUM_THETAS)),
    Check("mode_sum_phidot2", 1e-12, partial(_mode_sum_error, "phidot2", _MODE_SUM_THETAS)),
    Check("single_plate_limit", 1e-5, _single_plate_limit),
    # Claim: the improved density and T_zz agree with the total Casimir energy.
    Check("tzz_equals_pressure", 1e-12, _tzz_equals_pressure),
    Check("length_scaling", 1e-12, _length_scaling),
    Check("energy_pipeline", 1e-14, _energy_pipeline),
    Check("pressure_finite_difference", 1e-8, _pressure_finite_difference),
    Check("integrated_density", 1e-12, _integrated_density),
    # Claim: the canonical tensor does not, until the Huggins term is added:
    # its density -(A + 2t) grows as theta^-4 toward the plates, next to
    # which the mode sums' finite part meets it too.
    Check("mode_sum_canonical_density", 4e-13,
          partial(_mode_sum_error, "energy_density_canonical", _CANONICAL_THETAS)),
)
