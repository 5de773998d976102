"""Acceptance suite: every ``verify`` check at four plate separations.

The checks, their tolerances and their directions are ``cli.VERIFY_CHECKS``,
the table ``platevac verify`` runs, evaluated here on the same grids.
``pytest tests/test_acceptance.py -v`` lists one case per check and
separation.
"""

import pytest

from platevac.cli import VERIFY_CHECKS, RunConfig
from platevac.spectrum import BoundaryCondition


@pytest.mark.parametrize("L", [0.5, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("check", VERIFY_CHECKS, ids=lambda check: check.name)
def test_verify_check(check, L):
    result = check.run(RunConfig(bc=BoundaryCondition.DIRICHLET, L=L))
    assert result.ok, result
