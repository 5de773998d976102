"""Plate geometry, mode spectrum, and longitudinal mode profiles.

A massless scalar field lives between two infinite parallel plates a
distance L apart.  Dirichlet plates force the field to vanish on the
surfaces and select sine profiles; Neumann plates force the normal
derivative to vanish and select cosines.  Only the longitudinal factor
of each mode is materialized here: every expectation value downstream
reduces to longitudinal sums once the transverse integrals are done in
continued dimension, so a complex time/transverse-plane-wave layer
would go unused.

The sign convention that threads every downstream formula is owned by
:class:`BoundaryCondition.sign_upper`: +1 selects the upper sign of a
plus-minus pair (Dirichlet), -1 the lower sign (Neumann).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InvalidConfigError
from .regsum import _MAX_FLOATS

__all__ = ["BoundaryCondition", "PlateConfig", "L_MIN", "L_MAX", "k_n", "mode_profile",
           "orthonormality_check"]


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


@dataclass(frozen=True)
class PlateConfig:
    """Plate separation L (length units), within [L_MIN, L_MAX]."""

    L: float

    def __post_init__(self) -> None:
        if not L_MIN <= self.L <= L_MAX:
            raise InvalidConfigError(
                f"plate separation must lie in [{L_MIN:g}, {L_MAX:g}], got {self.L}"
            )


def k_n(config: PlateConfig, n: int) -> float:
    """Longitudinal wavenumber k_n = n pi / L, n >= 1.

    The n = 0 Neumann mode is constant in space and contributes nothing,
    so n starts at 1 for both boundary conditions.
    """
    if n < 1:
        raise DomainError(f"mode number must be >= 1, got {n}")
    return n * math.pi / config.L


def mode_profile(bc: BoundaryCondition, config: PlateConfig, n, z):
    """Longitudinal factor of the orthonormal mode: sqrt(2/L) sin or cos(k_n z).

    ``n >= 1`` and ``0 <= z <= L`` are numbers or arrays that broadcast
    together, e.g. a column of mode numbers against a row of positions.
    """
    n, z = np.asarray(n), np.asarray(z, dtype=float)
    if np.any(n < 1):
        raise DomainError(f"mode number must be >= 1, got {n}")
    if not np.all((0.0 <= z) & (z <= config.L)):
        raise DomainError(f"z = {z} outside the slab [0, {config.L}]")
    arg = n * z * (math.pi / config.L)
    wave = np.sin(arg) if bc is BoundaryCondition.DIRICHLET else np.cos(arg)
    return math.sqrt(2.0 / config.L) * wave


def orthonormality_check(
    bc: BoundaryCondition,
    config: PlateConfig,
    n_max: int,
    quadrature_points: int = 2048,
) -> np.ndarray:
    """Gram matrix of the first n_max profiles by composite Simpson quadrature.

    The panel count is rounded up to a power of two; the integrands are
    trigonometric polynomials whose odd derivatives vanish at both
    endpoints, so the equal-spaced rule is exact up to round-off and the
    result is the identity matrix to better than 1e-10 for n_max <= 20
    with 2048 or more panels.
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    if quadrature_points < 64:
        raise InvalidConfigError("need at least 64 quadrature points")
    panels = 1 << (quadrature_points - 1).bit_length()
    too_big = InvalidConfigError(f"{n_max} modes on {panels} panels do not fit in memory")
    if max(n_max, panels + 1) * n_max > _MAX_FLOATS:
        raise too_big
    try:
        z = np.linspace(0.0, config.L, panels + 1)
        h = config.L / panels

        weights = np.full(panels + 1, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        weights *= h / 3.0

        profiles = mode_profile(bc, config, np.arange(1, n_max + 1)[:, None], z)
        return (profiles * weights) @ profiles.T
    except MemoryError as exc:
        raise too_big from exc
