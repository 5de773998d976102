"""Every public entry point reports a bad argument as a PlateVacError."""

import math
import re
from pathlib import Path

import pytest

import platevac
from platevac import casimir, dimreg, regsum, spectrum
from platevac.errors import PlateVacError
from platevac.spectrum import BoundaryCondition, PlateConfig

D = BoundaryCondition.DIRICHLET
PLATE = PlateConfig(1.0)
EPS5 = regsum.EpsilonSchedule((0.1, 0.05, 0.02, 0.01, 0.005))  # enough for one divergent power
TINY = regsum.EpsilonSchedule.log_spaced(1e-120, 1e-100, 12)


@pytest.mark.parametrize("call", [
    lambda: casimir.canonical_density_integral(PLATE, D, 0.5),
    lambda: regsum.bernoulli(-1),
    lambda: regsum.zeta_neg_int(-1),
    lambda: regsum.geometric_power_sum(-1, 0.5),
    lambda: regsum.geometric_power_sum(3, complex(math.nan, 0.0)),
    lambda: regsum.exp_cutoff_power_sum(-1, 0.1),
    lambda: regsum.exp_cutoff_power_sum(3, 1e-200),
    lambda: regsum.exp_cutoff_power_sum(171, 1e-3),
    lambda: regsum.exp_cutoff_power_sum(200, 100.0),
    lambda: regsum.exp_cutoff_power_sum(1500, 1e3),
    lambda: regsum.exp_cutoff_power_sum(3, math.nan),
    lambda: regsum.extrapolate_to_zero([0.5, 0.25], [1.0]),
    lambda: regsum.FinitePartResult(0.0, (), -1.0),
    lambda: regsum.FinitePartResult(0.0, (), math.nan),
    lambda: regsum.fit_finite_part(regsum.EpsilonSchedule((0.1, 0.05, 0.02)), (1.0, 2.0), 1),
    lambda: regsum.fit_finite_part(EPS5, [[1.0] * 5] * 2, 1),
    lambda: regsum.fit_finite_part(EPS5, (math.nan, 1.0, 1.0, 1.0, 1.0), 1),
    lambda: regsum.fit_finite_part(EPS5, (math.inf, 1.0, 1.0, 1.0, 1.0), 1),
    lambda: regsum.fit_finite_part(EPS5, (1.0,) * 5, -1),
    lambda: regsum.fit_finite_part(EPS5, (1.0,) * 5, 1.5),
    lambda: regsum.fit_finite_part(regsum.EpsilonSchedule.log_spaced(1e-3, 1e-1, 12, 2.5),
                                   (1.0,) * 12, 1),
    lambda: regsum.cutoff_sum_oracle(2),
    lambda: regsum.fit_finite_part(TINY, [regsum.exp_cutoff_power_sum(3, e) for e in TINY.values], 4),
    # numpy refuses these sizes at once, without allocating anything
    lambda: regsum.EpsilonSchedule.log_spaced(1e-3, 1e-1, 10**15),
    lambda: spectrum.k_n(PLATE, 0),
    lambda: dimreg.master_integral(dimreg.MasterIntegralSpec(3.0, 10.0, 1e-300)),
], ids=[
    "canonical_density_integral", "bernoulli", "zeta_neg_int", "geometric_power_sum",
    "geometric_power_sum-nan", "exp_cutoff_power_sum-negative-k",
    "exp_cutoff_power_sum-underflow", "exp_cutoff_power_sum-overflow",
    "exp_cutoff_power_sum-power-200", "exp_cutoff_power_sum-power-1500",
    "exp_cutoff_power_sum-nan", "extrapolate_to_zero", "FinitePartResult",
    "FinitePartResult-nan", "fit_finite_part", "fit_finite_part-2d", "fit_finite_part-nan",
    "fit_finite_part-inf", "fit_finite_part-negative-power", "fit_finite_part-fractional-power",
    "log_spaced-fractional-degree", "cutoff_sum_oracle", "cutoff_sums-tiny-cutoffs",
    "log_spaced-count",
    "k_n", "master_integral",
])
def test_bad_argument_raises_library_error(call):
    with pytest.raises(PlateVacError):
        call()


def test_no_bare_value_error_in_the_package():
    sources = sorted(Path(platevac.__file__).parent.glob("*.py"))
    assert sources
    offenders = [f"{path.name}:{number}" for path in sources
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"\braise ValueError\(", line)]
    assert offenders == []
