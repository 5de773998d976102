"""The checks `platevac verify` runs, :data:`VERIFY_CHECKS`, and their measures.

Every bound is an upper bound: a check passes when its measured value,
a relative error unless noted, is at most its bound, so a NaN fails.
Each measure takes one :class:`Sample`, the plates of a run, which
holds what several checks read: the stress grid, its mirror image and
the canonical quadratures.  The first check to read one pays for building it.
This module loads neither numpy nor the CLI.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cached_property, partial

from . import casimir, dimreg, oracle, regsum, stress
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


# The angles of the Abel checks, down to 1e-6 from either plate.
_NEAR_PLATE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
_ABEL_THETAS = ([0.1 * k for k in range(1, 31)] + list(_NEAR_PLATE)
                + [math.pi - t for t in _NEAR_PLATE])


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num), bit for bit."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


# The angles of the mode-sum checks and of the stress-tensor grid, the k_n
# of the kernel check (np.geomspace(pi 1e-3, 40, 8), bit for bit) and the
# plate margins of the canonical density checks.
_MODE_SUM_THETAS = _linspace(0.3, math.pi - 0.3, 5)
_STRESS_THETAS = _linspace(0.4, math.pi - 0.4, 100)
_KERNEL_KN = [math.pi * 1e-3, *(10.0 ** x for x in _linspace(math.log10(math.pi * 1e-3),
                                                             math.log10(40.0), 8)[1:-1]), 40.0]
_CANONICAL_MARGINS = (1e-2, 1e-3, 1e-4)


class Sample(_FrozenRecord):
    """Plates L apart; ``sign_flip`` makes the closed forms take every plate as Dirichlet."""

    def __init__(self, L: float, sign_flip: bool = False) -> None:
        _set_field(self, "L", L)
        _set_field(self, "sign_flip", sign_flip)

    def evaluated(self, bc: BoundaryCondition) -> BoundaryCondition:
        return BoundaryCondition.DIRICHLET if self.sign_flip else bc

    @cached_property
    def grid(self) -> dict[str, list[float]]:
        return _stress_grid(self)

    @cached_property
    def mirror(self) -> list[float]:
        """phidot2 at pi - theta for the grid's theta, Dirichlet then Neumann."""
        plate = PlateConfig(self.L)
        points = [InteriorPoint.from_theta(plate, math.pi - theta) for theta in _STRESS_THETAS]
        return [expectation_set(self.evaluated(bc), plate, point).phidot2
                for bc in BoundaryCondition for point in points]

    @cached_property
    def canonical(self) -> list[float]:
        plate = PlateConfig(self.L)
        return [casimir.canonical_density_quadrature(plate, bc, m)
                for bc in BoundaryCondition for m in _CANONICAL_MARGINS]


def _abel_error(k: int, closed) -> float:
    """The Abel oracle against ``closed``, relative to max(1, |closed|)."""
    pairs = [(regsum.abel_sum_oracle(k, t), closed(t)) for t in _ABEL_THETAS]
    return _worst([a - c for a, c in pairs], [max(1.0, abs(c)) for _, c in pairs])


def _dimreg_quadrature(sample: Sample) -> float:
    analytic, numeric = [], []
    for N in (1.5, 2.0, 3.0):
        for m_sq in (0.5, 1.0, 4.0):
            analytic.append(dimreg.master_integral(2.0, N, m_sq))
            numeric.append(dimreg.quadrature_reference(2, N, m_sq))
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


def _mode_sum_error(field: str, sample: Sample) -> float:
    """Mode-sum oracle against the closed-form profile of ``field``, both conditions."""
    plate = PlateConfig(sample.L)
    finite, closed = [], []
    for theta in _MODE_SUM_THETAS:
        point = InteriorPoint.from_theta(plate, theta)
        for bc in BoundaryCondition:
            finite.append(oracle.mode_sum_finite_part(field, bc, plate, point).finite_part)
            closed.append(getattr(expectation_set(sample.evaluated(bc), plate, point), field))
    return _worst([f - c for f, c in zip(finite, closed)], closed)


def _stress_grid(sample: Sample) -> dict[str, list[float]]:
    """Every field and stress component on the grid, Dirichlet then Neumann, by name.

    One point at a time; each point and its (A, B) serve both conditions.
    ``trace_expected`` is -6 s B, s the sign of the true condition.
    """
    plate = PlateConfig(sample.L)
    points = [InteriorPoint.from_theta(plate, theta) for theta in _STRESS_THETAS]
    pairs = [ab_values(plate, point) for point in points]
    flucts, reports, expected = [], [], []
    for bc in BoundaryCondition:
        evaluated = sample.evaluated(bc)
        for point, ab in zip(points, pairs):
            fluct = expectation_set(evaluated, plate, point)
            flucts.append(fluct)
            reports.append(stress.stress_report(fluct, ab))
            expected.append(-6.0 * bc.sign_upper * ab.B)
    grid = {"trace_expected": expected}
    for records in (flucts, reports):
        columns = zip(*(vars(record).values() for record in records))
        grid.update(zip(vars(records[0]), map(list, columns)))
    return grid


def _trace_canonical_sign(sample: Sample) -> float:
    grid = sample.grid
    return _worst([t - e for t, e in zip(grid["trace_canonical"], grid["trace_expected"])],
                  grid["trace_expected"])


def _improved_density_value(sample: Sample) -> float:
    """The improved energy density on the grid against -A, A = pi^2/(1440 L^4)."""
    a_const = math.pi ** 2 / (1440.0 * sample.L ** 4)
    return _worst([e + a_const for e in sample.grid["energy_density_improved"]], a_const)


def _tzz_equals_pressure(sample: Sample) -> float:
    """T_zz on the grid against the pressure, and the pressure against its closed form."""
    p_ref = casimir.pressure(PlateConfig(sample.L))
    closed = -math.pi ** 2 / (480.0 * sample.L ** 4)
    return max(_worst([t - p_ref for t in sample.grid["t_zz"]], p_ref),
               _worst(p_ref - closed, closed))


def _mirror_symmetry(sample: Sample) -> float:
    grid, mirror = sample.grid, sample.mirror
    return _worst([g - m for g, m in zip(grid["phidot2"], mirror)],
                  [abs(p) + abs(d) for p, d in zip(grid["phidot2"], grid["dzphi2"])])


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


def _single_plate_limit(sample: Sample) -> float:
    """phi2 at 1e-4 L from one plate of the gap against the single-plate form."""
    plate, z_near = PlateConfig(sample.L), 1e-4 * sample.L
    gap = [phi_squared(bc, plate, InteriorPoint.from_z(plate, z_near)) for bc in BoundaryCondition]
    single = [phi_squared_single_plate(bc, z_near) for bc in BoundaryCondition]
    return _worst([g - s for g, s in zip(gap, single)], single)


def _integrated_density(sample: Sample) -> float:
    plate = PlateConfig(sample.L)
    mismatch = [casimir.integrated_density_check(plate, bc)[1] for bc in BoundaryCondition]
    return _worst(mismatch, casimir.total_energy(plate))


def _canonical_density_integral(sample: Sample) -> float:
    """The canonical density integral by quadrature against its closed form, both conditions."""
    plate = PlateConfig(sample.L)
    closed = [casimir.canonical_density_integral(plate, bc, m)
              for bc in BoundaryCondition for m in _CANONICAL_MARGINS]
    return _worst([q - c for q, c in zip(sample.canonical, closed)], closed)


def _canonical_density_divergence(sample: Sample) -> float:
    """Worst |growth / 1000 - 1| of the canonical density integral per tenfold smaller margin.

    The canonical density has no finite margin -> 0 limit: it grows as
    m^-3, so each step from margin 0.01 to 0.001 to 0.0001 must grow the
    quadrature a thousandfold.  The steps read 1000.0, so the bound 0.1
    fails a growth outside [900, 1100], or a NaN anywhere.
    """
    n = len(_CANONICAL_MARGINS)
    rows = sample.canonical[:n], sample.canonical[n:]  # Dirichlet, Neumann
    steps = [(inner, outer) for row in rows for inner, outer in zip(row, row[1:])]
    return _worst([outer - 1000.0 * inner for inner, outer in steps],
                  [1000.0 * inner for inner, _ in steps])


# Every claim `verify` checks, in report order.  The keep rule: a check
# compares two independently computed routes, some mutant makes it FAIL,
# and it goes if one other check catches every mutant it catches, over the
# generated sweep (tests/sweep_mutants.py) and the hand-picked table of
# tests/test_mutations.py.  A second rule, which would keep the only check
# of one of the paper's claims, is still to come; until it does, no check
# that may stand alone for a claim is deleted.
VERIFY_CHECKS = (
    # The regularized power sum zeta(-3) against the exponential-cutoff oracle (absolute).
    Check("zeta_cutoff_k3", 2e-15, lambda sample: abs(
        regsum.cutoff_sum_oracle(3).finite_part - float(regsum.zeta_neg_int(3)))),
    # Oscillatory sums against the Abel oracle (relative to max(1, |closed form|)).
    Check("abel_n_cos", 1e-13, lambda sample: _abel_error(1, regsum.trig_sum_n_cos)),
    Check("abel_n3_cos", 1e-13, lambda sample: _abel_error(3, regsum.trig_sum_n3_cos)),
    # Continued master integral against direct quadrature.
    Check("dimreg_quadrature", 2e-14, _dimreg_quadrature),
    # Mode-sum oracle: radial kernels against quadrature, finite parts against closed forms.
    Check("oracle_transverse_kernel", 2e-14, _oracle_transverse_kernel),
    Check("mode_sum_phi2", 1e-13, partial(_mode_sum_error, "phi2")),
    Check("mode_sum_phidot2", 1e-12, partial(_mode_sum_error, "phidot2")),
    # Stress-tensor invariants on the interior grid.
    Check("trace_canonical_sign", 1e-10, _trace_canonical_sign),
    Check("improved_density_value", 1e-12, _improved_density_value),
    Check("tzz_equals_pressure", 1e-12, _tzz_equals_pressure),
    Check("mirror_symmetry", 1e-12, _mirror_symmetry),
    Check("length_scaling", 1e-12, _length_scaling),
    # Global quantities.
    Check("energy_pipeline", 1e-14, _energy_pipeline),
    Check("pressure_finite_difference", 1e-8, _pressure_finite_difference),
    Check("single_plate_limit", 1e-5, _single_plate_limit),
    Check("integrated_density", 1e-12, _integrated_density),
    Check("canonical_density_integral", 4e-11, _canonical_density_integral),
    # The growth per tenfold smaller margin against 1000 (relative).
    Check("canonical_density_divergence", 0.1, _canonical_density_divergence),
)
