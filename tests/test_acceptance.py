"""Acceptance suite: every release criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion including the measured error.
"""

import math

import numpy as np

from platevac.casimir import (
    canonical_density_integral,
    em_reference,
    integrated_density_check,
    pressure,
    total_energy,
)
from platevac.fluctuations import (
    InteriorPoint,
    ab_values,
    expectation_set,
    phi_squared,
    phi_squared_single_plate,
)
from platevac.oracle import ModeSumSpec, Observable, mode_sum_finite_part
from platevac.regsum import abel_sum_oracle, cutoff_sum_oracle, trig_sum_n3_cos, trig_sum_n_cos
from platevac.spectrum import BoundaryCondition, PlateConfig
from platevac.stress import stress_report

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
BOTH = (D, N)

# Interior evaluation grid: wide enough to exercise the profile.  The
# stress cancellations are exact, so the grid edge sets no accuracy.
GRID_LO = 0.4


def _stress(bc, config, point):
    return stress_report(expectation_set(bc, config, point), ab_values(config, point))


def _report(criterion: str, measured: float, tolerance: float, passed: bool) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}: measured {measured:.3e}, "
          f"allowed {tolerance:.3e}")
    assert passed, f"{criterion}: measured {measured:.3e} vs allowed {tolerance:.3e}"


def test_criterion_1_total_energy():
    value = total_energy(PlateConfig(1.0))
    closed = -math.pi**2 / 1440.0
    error = abs(value - closed) / abs(closed)
    _report("1 total scalar Casimir energy (zeta pipeline)", error, 1e-14, error < 1e-14)


def test_criterion_2_pressure_equals_tzz():
    config = PlateConfig(1.0)
    p = pressure(config)
    reference = -math.pi**2 / 480.0
    worst = abs(p - reference) / abs(reference)
    for bc in BOTH:
        for theta in np.linspace(GRID_LO, math.pi - GRID_LO, 20):
            point = InteriorPoint.from_theta(config, float(theta))
            value = _stress(bc, config, point).t_zz
            worst = max(worst, abs(value - p) / abs(p))
    _report("2 pressure and T_zz at 20 interior points", worst, 1e-12, worst < 1e-12)


def test_criterion_3_improved_density_constancy():
    config = PlateConfig(1.0)
    reference = -math.pi**2 / 1440.0
    values = []
    for bc in BOTH:
        for theta in np.linspace(GRID_LO, math.pi - GRID_LO, 100):
            point = InteriorPoint.from_theta(config, float(theta))
            values.append(_stress(bc, config, point).energy_density_improved)
    spread = (max(values) - min(values)) / abs(reference)
    offset = max(abs(v - reference) for v in values) / abs(reference)
    worst = max(spread, offset)
    _report("3 improved energy density constant", worst, 1e-12, worst < 1e-12)


def test_criterion_4_trace_cancellation():
    config = PlateConfig(1.0)
    worst = 0.0
    checked = 0
    for bc in BOTH:
        for theta in np.linspace(GRID_LO, math.pi - GRID_LO, 100):
            point = InteriorPoint.from_theta(config, float(theta))
            report = _stress(bc, config, point)
            if report.trace_canonical != 0.0:
                worst = max(worst, abs(report.trace_improved) / abs(report.trace_canonical))
                checked += 1
    assert checked == 200
    _report("4 improved trace vanishes", worst, 1e-12, worst < 1e-12)


def test_criterion_5_zeta_oracle():
    worst = max(
        abs(cutoff_sum_oracle(1).finite_part - (-1.0 / 12.0)),
        abs(cutoff_sum_oracle(3).finite_part - 1.0 / 120.0),
    )
    _report("5 cutoff oracle reproduces zeta(-1), zeta(-3)", worst, 1e-6, worst < 1e-6)


def test_criterion_6_trig_sum_oracle():
    worst = 0.0
    for i in range(1, 31):
        theta = 0.1 * i
        if not 0.0 < theta < math.pi:
            continue
        worst = max(worst, abs(abel_sum_oracle(1, theta) - trig_sum_n_cos(theta)))
        worst = max(worst, abs(abel_sum_oracle(3, theta) - trig_sum_n3_cos(theta)))
    _report("6 Abel oracle matches trig closed forms", worst, 1e-8, worst < 1e-8)


def test_criterion_7_mode_sum_profile_oracle():
    config = PlateConfig(1.0)
    worst_ratio = 0.0
    for bc in BOTH:
        for theta in np.linspace(0.3, math.pi - 0.3, 5):
            point = InteriorPoint.from_theta(config, float(theta))
            fs = expectation_set(bc, config, point)
            for observable, closed, rtol in (
                (Observable.PHI2, fs.phi2, 1e-4),
                (Observable.PHIDOT2, fs.phidot2, 1e-3),
            ):
                finite = mode_sum_finite_part(
                    ModeSumSpec(bc=bc, L=1.0, theta=float(theta), observable=observable)
                ).finite_part
                worst_ratio = max(worst_ratio, abs(finite - closed) / abs(closed) / rtol)
    _report("7 mode-sum oracle matches profiles (scaled to tolerance)",
            worst_ratio, 1.0, worst_ratio < 1.0)


def test_criterion_8_single_plate_limit():
    config = PlateConfig(100.0)
    z = 0.01
    worst = 0.0
    for bc in BOTH:
        wide = phi_squared(bc, config, InteriorPoint.from_z(config, z))
        single = phi_squared_single_plate(bc, z)
        worst = max(worst, abs(wide - single) / abs(single))
    _report("8 single-plate limit", worst, 1e-4, worst < 1e-4)


def test_criterion_9_em_factor_of_two():
    config = PlateConfig(1.0)
    em = em_reference(config)
    scalar = (total_energy(config), total_energy(config) / config.L, pressure(config))
    exact = all(e == 2.0 * s for e, s in zip(em, scalar))
    worst = max(abs(e - 2.0 * s) for e, s in zip(em, scalar))
    _report("9 electromagnetic values exactly twice scalar", worst, 0.0, exact)


def test_criterion_10_canonical_density_diverges():
    config = PlateConfig(1.0)
    worst_growth = math.inf
    monotone = True
    for bc in BOTH:
        values = [abs(canonical_density_integral(config, bc, margin))
                  for margin in (0.01, 0.001, 0.0001)]
        monotone = monotone and values[0] < values[1] < values[2]
        worst_growth = min(worst_growth, values[2] / values[0])
    _report("10 canonical density integral grows unboundedly (x10 floor)",
            worst_growth, 10.0, monotone and worst_growth >= 10.0)


def test_supplementary_integrated_density():
    # ties criteria 1 and 3 together: the constant density integrates to
    # the pipeline energy on the open interval
    worst = 0.0
    for bc in BOTH:
        for L in (0.5, 1.0, 2.0, 10.0):
            config = PlateConfig(L)
            _, mismatch = integrated_density_check(config, bc)
            worst = max(worst, mismatch / abs(total_energy(config)))
    _report("supplementary: density integrates to total energy", worst, 1e-12, worst < 1e-12)
