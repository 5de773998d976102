"""Every public entry point reports a bad argument as a PlateVacError."""

import cmath
import math
import re
from pathlib import Path

import numpy as np
import pytest

import platevac
from platevac import casimir, dimreg, fluctuations, oracle, regsum, spectrum
from platevac.errors import PlateVacError
from platevac.spectrum import BoundaryCondition, PlateConfig

D = BoundaryCondition.DIRICHLET
PLATE = PlateConfig(1.0)


def _cutoff_sums(eps):
    """S(eps) = sum_n n^3 e^(-eps n), in closed form: 6/eps^4 overflows at 1e-100."""
    return regsum._power_series(3, cmath.exp(-eps), -regsum._expm1(-eps))


HUGE = 10**400  # past the double range
LONG = 10**5000  # past the 4300 digits Python writes out


@pytest.mark.parametrize("call", [
    lambda: casimir.canonical_density_integral(PLATE, D, 0.5),
    # cot^3 of the margin, or the L^-3 in front of it, past the double range
    lambda: casimir.canonical_density_integral(PLATE, D, 1e-110),
    lambda: casimir.canonical_density_integral(PlateConfig(1e-72), D, 1e-40),
    lambda: regsum.bernoulli(-1),
    lambda: regsum.zeta_neg_int(-1),
    lambda: regsum.fit_finite_part(lambda eps: eps * math.nan, 1.0, 1),
    lambda: regsum.fit_finite_part(lambda eps: eps * math.inf, 1.0, 1),
    lambda: regsum.fit_finite_part(_cutoff_sums, 1e-100, 4),
    # a radius that underflowed, or none at all
    *(lambda radius=radius: regsum.fit_finite_part(_cutoff_sums, radius, 4)
      for radius in (0.0, -1.0, math.nan, math.inf)),
    lambda: spectrum.k_n(PLATE, 0),
    lambda: dimreg.master_integral(10.0, 1e-300),
    # a pole of Gamma(N - 1), Gamma(N) past the double range, both gammas zero
    lambda: dimreg.master_integral(1.0, 1.0),
    lambda: dimreg.master_integral(172.0, 1.0),
    lambda: dimreg.master_integral(-180.5, 1.0),
    lambda: oracle.transverse_quadrature("dzphi2", 1.0, 1.0),
    # no cutoff: the integral diverges
    lambda: oracle.transverse_quadrature("phi2", 1.0, 0.0),
    lambda: spectrum.k_n(PLATE, math.inf),
    lambda: spectrum.k_n(PLATE, math.nan),
    lambda: spectrum.k_n(PLATE, 1.5),
    lambda: spectrum.k_n(PLATE, True),
    lambda: spectrum.k_n(PLATE, 10**400),
    lambda: regsum.zeta_neg_int(3.0),
    lambda: regsum.zeta_neg_int(regsum._MAX_SCALAR_POWER + 1),
    # refused before any recursion: the recurrence would never return
    lambda: regsum.zeta_neg_int(10**400),
    lambda: regsum.bernoulli(2.0),
    lambda: regsum.bernoulli(True),
    lambda: regsum.bernoulli(regsum._MAX_SCALAR_POWER + 2),
    # an int too long to write out is quoted by its size
    lambda: regsum.zeta_neg_int(LONG),
    lambda: regsum.bernoulli(LONG),
    lambda: spectrum.k_n(PLATE, -LONG),
    # an int past the double range is refused, not converted
    lambda: fluctuations.InteriorPoint(HUGE),
    lambda: fluctuations.InteriorPoint.from_z(PLATE, HUGE),
    lambda: fluctuations.InteriorPoint.from_theta(PLATE, HUGE),
    lambda: fluctuations.phi_squared_single_plate(D, HUGE),
    lambda: dimreg.master_integral(HUGE, 1.0),
    lambda: dimreg.quadrature_reference(HUGE, 1.0),
    lambda: PlateConfig(LONG),
    lambda: casimir.canonical_density_integral(PLATE, D, LONG),
    # sin^2 theta underflows to 0 (1e-200, 1e-320), or B overflows (1e-100)
    *(lambda theta=theta: fluctuations.ab_values(PLATE, fluctuations.InteriorPoint(theta))
      for theta in (1e-100, 1e-200, 1e-320)),
    *(lambda theta=theta: fluctuations.phi_squared(D, PLATE, fluctuations.InteriorPoint(theta))
      for theta in (1e-200, 1e-320)),
    lambda: fluctuations.expectation_set(D, PLATE, fluctuations.InteriorPoint(1e-320)),
    lambda: fluctuations.expectation_columns(D, PLATE, np.array([1.0, 1e-320])),
], ids=[
    "canonical_density_integral", "canonical_density_integral-cot-overflow",
    "canonical_density_integral-L-overflow", "bernoulli", "zeta_neg_int", "fit_finite_part-nan",
    "fit_finite_part-inf", "cutoff_sums-tiny-cutoffs",
    *(f"fit_finite_part-radius-{radius}" for radius in ("zero", "negative", "nan", "inf")),
    "k_n", "master_integral",
    "master_integral-pole", "master_integral-gamma-overflow", "master_integral-gamma-underflow",
    "transverse_quadrature-field", "transverse_quadrature-no-cutoff",
    "k_n-inf", "k_n-nan", "k_n-fractional", "k_n-bool", "k_n-huge",
    "zeta_neg_int-float", "zeta_neg_int-above-bound",
    "zeta_neg_int-huge", "bernoulli-float", "bernoulli-bool", "bernoulli-above-bound",
    "zeta_neg_int-long", "bernoulli-long", "k_n-long",
    *(f"{name}-huge" for name in ("InteriorPoint", "from_z", "from_theta",
                                  "phi_squared_single_plate", "master_integral",
                                  "quadrature_reference")),
    "PlateConfig-long", "canonical_density_integral-long",
    *(f"ab_values-{theta}" for theta in ("1e-100", "1e-200", "1e-320")),
    *(f"phi_squared-{theta}" for theta in ("1e-200", "1e-320")),
    "expectation_set-1e-320", "expectation_columns-1e-320",
])
def test_bad_argument_raises_library_error(call):
    with pytest.raises(PlateVacError):
        call()


def test_a_cached_bernoulli_number_does_not_answer_a_float_index():
    assert regsum.bernoulli(3) == 0
    with pytest.raises(PlateVacError):
        regsum.bernoulli(3.0)


def test_the_bound_itself_is_evaluated():
    # zeta(-171) = -B_172 / 172 > 0: B_172, the last Bernoulli number the
    # bound admits, is negative
    assert regsum.zeta_neg_int(regsum._MAX_SCALAR_POWER) > 0


def test_no_bare_value_error_in_the_package():
    sources = sorted(Path(platevac.__file__).parent.glob("*.py"))
    assert sources
    offenders = [f"{path.name}:{number}" for path in sources
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"\braise ValueError\(", line)]
    assert offenders == []
