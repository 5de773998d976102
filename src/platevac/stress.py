"""Energy-momentum tensor expectation values between the plates.

The canonical tensor's 00-component (the Hamiltonian density) is
position dependent and diverges at the plates.  Adding the conformal
improvement term restores tracelessness for the massless field and
cancels the position dependence exactly:

    canonical energy density   -(A + 2 s B)
    improvement, 00 component  +2 s B
    improved energy density    -A                (constant)
    T_zz                       -3 A              (constant, the pressure)

with s = sign_upper.  The B-cancellations are the package's main
internal consistency probes, so they are computed and checked rather
than simplified away; the checks are scaled by the magnitude that
cancels, since near the plates B dwarfs A and double precision cannot
cancel more accurately than round-off on B.

Every function takes either one point (float fields) or a whole grid
(the float64-array fields of :func:`fluctuations.expectation_columns`);
the checks then hold element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConsistencyError
from .fluctuations import ABPair, FluctuationSet

__all__ = ["StressReport", "TensorForm", "FieldType", "canonical_T00",
           "huggins_delta_T00", "improved_energy_density", "t_zz", "traces",
           "brown_maclay_form", "stress_report"]

# Relative tolerance of the internal cancellation checks, measured
# against the magnitude of the terms that are supposed to cancel.
CANCELLATION_RTOL = 1e-12

_ETA = np.diag([1.0, -1.0, -1.0, -1.0])
_NORMAL = np.array([0.0, 0.0, 0.0, 1.0])


class FieldType(Enum):
    SCALAR = "scalar"
    ELECTROMAGNETIC = "electromagnetic"


@dataclass(frozen=True)
class StressReport:
    """Canonical, improvement, and improved tensor components at a point."""

    energy_density_canonical: float
    huggins_00: float
    energy_density_improved: float
    t_zz: float
    trace_canonical: float
    trace_improved: float


@dataclass(frozen=True)
class TensorForm:
    """Vacuum tensor of the symmetry-dictated shape c (eta + 4 n x n)."""

    components: np.ndarray
    normal: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        comp = np.asarray(self.components, dtype=float)
        if comp.shape != (4, 4):
            raise ValueError("tensor components must form a 4x4 matrix")
        if not np.array_equal(comp, comp.T):
            raise ValueError("tensor components must be symmetric")
        if np.any(comp[~np.eye(4, dtype=bool)] != 0.0):
            raise ValueError("this geometry admits no off-diagonal components")
        object.__setattr__(self, "components", comp)

    def coefficient(self) -> float:
        """Solve c from the 00 entry and verify every other entry matches."""
        c = self.components[0, 0] / (_ETA[0, 0] + 4.0 * _NORMAL[0] ** 2)
        expected = c * (_ETA + 4.0 * np.outer(_NORMAL, _NORMAL))
        if not np.allclose(self.components, expected, rtol=1e-13, atol=0.0):
            raise ConsistencyError("tensor is not of the form c (eta + 4 n x n)")
        return float(c)


def _require(err, bound, message: str, *values) -> None:
    """Raise ConsistencyError unless err <= bound, element by element.

    Written as ``not err <= bound`` so that a NaN fails the check
    instead of passing it.  On arrays the message quotes the values at
    the first failing element.
    """
    if isinstance(err, np.ndarray):
        passed = err <= bound
        if passed.all():
            return
        i = int(np.argmin(passed))
        values = tuple(v[i] if isinstance(v, np.ndarray) else v for v in values)
    elif err <= bound:
        return
    raise ConsistencyError(message.format(*map(float, values)))


def canonical_T00(fluct: FluctuationSet) -> float:
    """Hamiltonian density (1/2) (<phidot^2> + <(grad phi)^2>) = -(A + 2 s B)."""
    return 0.5 * (fluct.phidot2 + fluct.dzphi2 + fluct.gradTphi2)


def _recovered_A(fluct: FluctuationSet) -> float:
    # <phidot^2> = -(A - s B) and <(d_lam phi)^2> = 6 s B pin A from the set.
    return -fluct.phidot2 + fluct.dlambda_phi2 / 6.0


def huggins_delta_T00(fluct: FluctuationSet) -> float:
    """00-component of the conformal improvement term, +2 s B.

    Computed from the subtractive form -(canonical_T00 - (-A)), i.e. the
    exact amount by which the canonical density exceeds the constant -A,
    and cross-checked against the constructive form: the improvement's
    00-component is -(1/3)(<phidot^2> + <phi d_t^2 phi> - <(d_lam phi)^2>),
    and since <phi d_t^2 phi> = -<phidot^2> the first two parts cancel,
    leaving (1/3) <(d_lam phi)^2> = 2 s B.
    """
    return _huggins(fluct, canonical_T00(fluct))


def _huggins(fluct: FluctuationSet, canonical):
    subtractive = -(canonical + _recovered_A(fluct))
    constructive = fluct.dlambda_phi2 / 3.0
    scale = abs(constructive) + abs(_recovered_A(fluct))
    _require(abs(subtractive - constructive), CANCELLATION_RTOL * scale,
             "improvement term disagrees between its subtractive and "
             "constructive forms: {!r} vs {!r}", subtractive, constructive)
    return subtractive


def improved_energy_density(fluct: FluctuationSet, ab: ABPair) -> float:
    """Conformally improved energy density; equals -A for any theta and bc."""
    canonical = canonical_T00(fluct)
    return _improved(ab, canonical, _huggins(fluct, canonical))


def _improved(ab: ABPair, canonical, huggins):
    value = canonical + huggins
    cancelled = ab.A + 2.0 * abs(ab.B)
    _require(abs(value + ab.A), CANCELLATION_RTOL * cancelled,
             "improved energy density {!r} failed to settle at -A = {!r}", value, -ab.A)
    return value


def t_zz(fluct: FluctuationSet, ab: ABPair) -> float:
    """Pressure component (2/3)(d_z phi)^2 - (1/3) phi d_z^2 phi + (1/6)(d_lam phi)^2.

    The theta-dependent parts cancel and the value is -3A for any theta
    and boundary condition.
    """
    value = (
        2.0 / 3.0 * fluct.dzphi2
        - fluct.phi_d2z_phi / 3.0
        + fluct.dlambda_phi2 / 6.0
    )
    cancelled = 3.0 * ab.A + 4.0 * abs(ab.B)
    _require(abs(value + 3.0 * ab.A), CANCELLATION_RTOL * cancelled,
             "T_zz = {!r} failed to cancel its theta dependence (-3A = {!r})",
             value, -3.0 * ab.A)
    return value


def traces(fluct: FluctuationSet) -> tuple[float, float]:
    """(canonical trace, improved trace).

    The canonical trace is -<(d_lam phi)^2> = -6 s B; the improvement
    contributes +<(d_lam phi)^2> on shell, so the improved trace is the
    computed sum of the two, which must vanish.
    """
    trace_canonical = -fluct.dlambda_phi2
    huggins_trace = fluct.dlambda_phi2
    return trace_canonical, trace_canonical + huggins_trace


def stress_report(fluct: FluctuationSet, ab: ABPair) -> StressReport:
    """Assemble every tensor component the profile tables emit."""
    canonical = canonical_T00(fluct)
    huggins = _huggins(fluct, canonical)
    trace_canonical, trace_improved = traces(fluct)
    return StressReport(
        energy_density_canonical=canonical,
        huggins_00=huggins,
        energy_density_improved=_improved(ab, canonical, huggins),
        t_zz=t_zz(fluct, ab),
        trace_canonical=trace_canonical,
        trace_improved=trace_improved,
    )


def brown_maclay_form(L: float, coefficient_source: FieldType) -> TensorForm:
    """Symmetry-dictated vacuum tensor c (eta + 4 n x n) for the plate gap.

    The scalar coefficient is c = -pi^2/(1440 L^4); the electromagnetic
    one is exactly twice that (two photon polarizations).  The 00 entry
    reproduces the improved energy density and the zz entry the
    pressure.
    """
    if not L > 0.0:
        raise ValueError(f"plate separation must be positive, got {L}")
    c = -math.pi ** 2 / (1440.0 * L ** 4)
    if coefficient_source is FieldType.ELECTROMAGNETIC:
        c = 2.0 * c
    components = c * (_ETA + 4.0 * np.outer(_NORMAL, _NORMAL))
    return TensorForm(components=components)
