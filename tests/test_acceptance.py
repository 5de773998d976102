"""Acceptance suite: every ``verify`` check at four plate separations.

The checks and their bounds are ``verify.VERIFY_CHECKS``, the table
``platevac verify`` runs, evaluated here on the same grids.  Every bound
is an upper bound.  ``pytest tests/test_acceptance.py -v`` lists one
case per check and separation, each on the :class:`verify.Sample` of its
separation.
"""

import pytest

from platevac.verify import VERIFY_CHECKS, Sample

SAMPLES = {L: Sample(L) for L in (0.5, 1.0, 2.0, 10.0)}


@pytest.mark.parametrize("L", SAMPLES)
@pytest.mark.parametrize("check", VERIFY_CHECKS, ids=lambda check: check.name)
def test_verify_check(check, L):
    measured = check.measure(SAMPLES[L])
    assert check.passes(measured), (check, measured)
