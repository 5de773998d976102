"""Plate geometry and the longitudinal mode spectrum.

A massless scalar field lives between two infinite parallel plates a
distance L apart.  Dirichlet plates force the field to vanish on the
surfaces and select sine modes; Neumann plates force the normal
derivative to vanish and select cosines.  Both have the wavenumbers
k_n = n pi / L.  No mode function is materialized: every expectation
value reduces to sums over n, and the mode-sum oracle writes the
squared profiles' weights 1 -+ cos 2 n theta itself.

The sign convention that threads every closed form is owned by
:class:`BoundaryCondition.sign_upper`: +1 selects the upper sign of a
plus-minus pair (Dirichlet), -1 the lower sign (Neumann).
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DomainError, InvalidConfigError, _FrozenRecord, _is_count, _quoted, _set_field

__all__ = ["BoundaryCondition", "PlateConfig", "L_MIN", "L_MAX", "k_n"]


class BoundaryCondition(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"

    def __init__(self, value: str) -> None:
        # sign_upper: +1 for Dirichlet (upper sign), -1 for Neumann (lower
        # sign); a plain attribute, read once per point.
        self.sign_upper = 1 if value == "dirichlet" else -1


# The separations every closed form accepts: the densities scale as L^-4
# and the energies as L^-3, so L^4 and L^-4 must both be finite doubles.
# They overflow below about 8.6e-78 and above 1.2e77; the factor 1e5 of
# headroom keeps the sin^-4 theta profile factors finite on the CLI's
# default grid as well.
L_MIN, L_MAX = 1e-72, 1e72


class PlateConfig(_FrozenRecord):
    """Plate separation L (length units), within [L_MIN, L_MAX]."""

    def __init__(self, L: float) -> None:
        if not L_MIN <= L <= L_MAX:
            raise InvalidConfigError(
                f"plate separation must lie in [{L_MIN:g}, {L_MAX:g}], got {_quoted(L)}"
            )
        _set_field(self, "L", L)


def k_n(config: PlateConfig, n: int) -> float:
    """Longitudinal wavenumber k_n = n pi / L, for an integer n >= 1 (not a bool).

    The n = 0 Neumann mode is constant in space and contributes nothing,
    so n starts at 1 for both boundary conditions.  A k_n past the
    double range raises DomainError.
    """
    if not (_is_count(n) and n >= 1):
        raise DomainError(f"mode number must be an integer >= 1, got {_quoted(n)}")
    try:
        value = n * math.pi / config.L
    except OverflowError:  # an int past the double range
        value = math.inf
    if not value < math.inf:
        raise DomainError(f"k_n is past the double range for L = {config.L!r}")
    return value
