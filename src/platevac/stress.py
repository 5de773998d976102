"""Energy-momentum tensor expectation values between the plates.

The canonical energy density is position dependent and diverges at the
plates; the conformal improvement term restores tracelessness for the
massless field and cancels the position dependence exactly.  Every
component is a rational combination of the fluctuation fields, hence an
exact pair alpha A + beta t (t = s B, s = sign_upper):

    canonical energy density   (1/2)(<phidot^2> + <(d_z phi)^2> + <(grad_T phi)^2>)
                                 = -(A + 2 t)
    improvement, 00 component  (1/3) <(d_lam phi)^2> = 2 t
    improved energy density    canonical + improvement = -A     (constant)
    T_zz                       (2/3)<(d_z phi)^2> - (1/3)<phi d_z^2 phi>
                                 + (1/6)<(d_lam phi)^2> = -3 A  (constant, the pressure)
    canonical trace            -<(d_lam phi)^2> = -6 t
    improved trace             canonical trace + <(d_lam phi)^2> = 0

These cancellations, the Brown-Maclay form -A (eta + 4 n x n) (Phys.
Rev. 184, 1272 (1969)), and the Lorentzian contraction identity are
proved once, at import, in exact rational arithmetic on the table
:data:`fluctuations.FIELD_PAIRS` that the code evaluates; a table that
breaks one raises :class:`ConsistencyError`.  Only A and t are floats,
so the improved density is -A and T_zz is -3A to the bit, however close
the point is to a plate.  :func:`stress_report` takes one point (float
fields) or a grid (:func:`fluctuations.expectation_columns`), which the
components' kernel (``fluctuations._kernel``, built once at import)
evaluates into a StressReport.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConsistencyError, _Record
from .fluctuations import FIELD_PAIRS, ABPair, FluctuationSet, Pair, _kernel

__all__ = ["StressReport", "stress_report"]


class StressReport(_Record):
    """Canonical, improvement, and improved tensor components at a point."""

    def __init__(self, energy_density_canonical: float, huggins_00: float,
                 energy_density_improved: float, t_zz: float, trace_canonical: float,
                 trace_improved: float) -> None:
        self.energy_density_canonical = energy_density_canonical
        self.huggins_00 = huggins_00
        self.energy_density_improved = energy_density_improved
        self.t_zz = t_zz
        self.trace_canonical = trace_canonical
        self.trace_improved = trace_improved


def _derive(fields: dict[str, Pair]) -> dict[str, Pair]:
    """The StressReport components, in field order, as pairs of ``fields``.

    Raises ConsistencyError unless the improved density is -A, T_zz is
    -3A, the improved trace vanishes and the fields satisfy
    phidot2 - dzphi2 - gradTphi2 - dlambda_phi2 = 0, all exactly.
    """
    phidot2, dzphi2, gradT, dlambda, phi_d2z = fields.values()
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    canonical = half * (phidot2 + dzphi2 + gradT)
    huggins = third * dlambda
    trace_canonical = -1 * dlambda
    components = {
        "energy_density_canonical": canonical,
        "huggins_00": huggins,
        "energy_density_improved": canonical + huggins,
        "t_zz": 2 * third * dzphi2 - third * phi_d2z + sixth * dlambda,
        "trace_canonical": trace_canonical,
        "trace_improved": trace_canonical + dlambda,
    }
    for name, pair, expected in (
        ("improved energy density", components["energy_density_improved"], Pair(-1, 0)),
        ("T_zz", components["t_zz"], Pair(-3, 0)),
        ("improved trace", components["trace_improved"], Pair(0, 0)),
        ("contraction identity", phidot2 - dzphi2 - gradT - dlambda, Pair(0, 0)),
    ):
        if pair != expected:
            raise ConsistencyError(f"{name} is {pair}, not {expected}")
    return components


_COMPONENTS = _derive(FIELD_PAIRS)
_COMPONENT_KERNEL = _kernel(tuple(_COMPONENTS.values()), StressReport)


def stress_report(fluct: FluctuationSet, ab: ABPair) -> StressReport:
    """Every tensor component the profile tables emit.

    Each is its proved pair evaluated from A and t = s B.  s is read off
    the sign of <(d_lam phi)^2> = 6 t, which is exact because
    B >= pi^2/(96 L^4) > 0.
    """
    d = fluct.dlambda_phi2
    if isinstance(d, float):
        return _COMPONENT_KERNEL(ab.A, math.copysign(ab.B, d))
    import numpy as np

    # A of t's shape (a view, no copy): the beta = 0 components are arrays too
    return _COMPONENT_KERNEL(np.broadcast_to(ab.A, d.shape), np.copysign(ab.B, d))
