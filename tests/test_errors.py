"""Every public entry point reports a bad argument as a PlateVacError."""

import re
from pathlib import Path

import pytest

import platevac
from platevac import casimir, dimreg, regsum, spectrum
from platevac.errors import PlateVacError
from platevac.spectrum import BoundaryCondition, PlateConfig

D = BoundaryCondition.DIRICHLET
PLATE = PlateConfig(1.0)


@pytest.mark.parametrize("call", [
    lambda: casimir.canonical_density_integral(PLATE, D, 0.5),
    lambda: regsum.bernoulli(-1),
    lambda: regsum.zeta_neg_int(-1),
    lambda: regsum.geometric_power_sum(-1, 0.5),
    lambda: regsum.extrapolate_to_zero([0.5, 0.25], [1.0]),
    lambda: regsum.FinitePartResult(0.0, (), -1.0),
    lambda: regsum.fit_finite_part((0.1, 0.05, 0.02), (1.0, 2.0), 1),
    lambda: regsum.cutoff_sum_oracle(2),
    lambda: spectrum.k_n(PLATE, 0),
    lambda: spectrum.mode_profile(D, PLATE, 0, 0.5),
    lambda: spectrum.orthonormality_check(D, PLATE, 0),
    lambda: spectrum.orthonormality_check(D, PLATE, 4, 32),
    lambda: dimreg.master_integral(dimreg.MasterIntegralSpec(3.0, 10.0, 1e-300)),
], ids=[
    "canonical_density_integral", "bernoulli", "zeta_neg_int", "geometric_power_sum",
    "extrapolate_to_zero", "FinitePartResult", "fit_finite_part", "cutoff_sum_oracle",
    "k_n", "mode_profile", "orthonormality_check-n_max", "orthonormality_check-points",
    "master_integral",
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
