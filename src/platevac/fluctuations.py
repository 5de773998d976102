"""Local vacuum expectation values of field bilinears between the plates.

All quantities are closed forms in the dimensionless angle
theta = pi z / L and split into a position-independent piece

    A = pi^2 / (1440 L^4)

and a profile piece

    B = pi^2 / (96 L^4) f(theta),      f(theta) = 3/sin^4 - 2/sin^2,

with every boundary-condition dependence carried by the single sign
s = sign_upper (+1 Dirichlet, -1 Neumann).  The individual fluctuations
diverge on the plates; the surfaces are therefore excluded from the
domain rather than mapped to infinities.

The literals are those of the regularized mode sums: zeta(-1) = -1/12,
zeta(-3) = 1/120, and

    sum_n n   cos(2 n theta) = -1 / (4 sin^2 theta),
    sum_n n^3 cos(2 n theta) = f(theta) / 8,

in phi2 = -(zeta(-1) - s sum_n n cos(2 n theta)) / (4 L^2) and
(A, B) = pi^2 / (12 L^4) (zeta(-3), sum_n n^3 cos(2 n theta)).  So
1440 = 12 / zeta(-3), 96 = 12 * 8, and phi2's 48 = 4 / (-zeta(-1)) and
3 = (-1/4) / zeta(-1).  The mode-sum oracle rebuilds phi2 and phidot2
from these sums independently, at a complex cutoff.

Every 1/length^4 field is an exact rational combination alpha A + beta t
with t = s B, held as a :class:`Pair` in :data:`FIELD_PAIRS`.
A pair meets floating point in one place: :func:`_kernel` compiles a
table of pairs into one straight-line function of A and t that builds
the table's record.  The one for this table, built at import, returns
the :class:`FluctuationSet` of one point or of a whole grid.

Every formula is written once, in terms of L, s and s2 = sin^2 theta,
and is shared by the scalar API (one point, Python floats, no numpy)
and by :func:`expectation_columns` (a whole grid of points at once,
float64 arrays).  Only the sine differs between the two: ``math.sin``
or ``np.sin``, which the tests check agree to the bit.  s2 is taken as
``s * s``, which is correctly rounded, where ``s ** 2`` can be one ulp
off.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, _FrozenRecord, _is_finite, _quoted, _Record, _require, _set_field
from .regsum import _check_theta, _f_of_sin2
from .spectrum import BoundaryCondition, PlateConfig

__all__ = ["InteriorPoint", "ABPair", "FluctuationSet", "Pair", "FIELD_PAIRS",
           "ab_values", "phi_squared", "phi_squared_single_plate",
           "expectation_set", "expectation_columns"]


class InteriorPoint(_FrozenRecord):
    """A point strictly between the plates, held as theta = pi z / L, which every formula reads."""

    def __init__(self, theta: float) -> None:
        _set_field(self, "theta", _check_theta(theta))

    @classmethod
    def from_z(cls, config: PlateConfig, z: float) -> "InteriorPoint":
        return cls(_theta_of_z(config, z))

    @classmethod
    def from_theta(cls, config: PlateConfig, theta: float) -> "InteriorPoint":
        return cls(theta)


class ABPair(_Record):
    """Position-independent part A and profile part B, both 1/length^4."""

    def __init__(self, A: float, B: float) -> None:
        self.A = A
        self.B = B


class FluctuationSet(_Record):
    """The quadratic expectation values at one interior point.

    ``phi2`` scales as 1/length^2, all other fields as 1/length^4.
    ``phi_d2z_phi`` equals -``dzphi2`` only after integrating over the
    whole gap; pointwise the two are independent fields and no relation
    between them is assumed anywhere.
    """

    def __init__(self, phi2: float, phidot2: float, dzphi2: float, gradTphi2: float,
                 dlambda_phi2: float, phi_d2z_phi: float) -> None:
        self.phi2 = phi2
        self.phidot2 = phidot2
        self.dzphi2 = dzphi2
        self.gradTphi2 = gradTphi2
        self.dlambda_phi2 = dlambda_phi2
        self.phi_d2z_phi = phi_d2z_phi


class Pair(_FrozenRecord):
    """alpha A + beta t, t = s B, with exact rational (int or Fraction) alpha, beta.

    Rational combinations of pairs are pairs, computed exactly.
    """

    def __init__(self, alpha: Fraction, beta: Fraction) -> None:
        _set_field(self, "alpha", alpha)
        _set_field(self, "beta", beta)

    def __add__(self, other: "Pair") -> "Pair":
        return Pair(self.alpha + other.alpha, self.beta + other.beta)

    def __sub__(self, other: "Pair") -> "Pair":
        return self + -1 * other

    def __rmul__(self, c: Fraction) -> "Pair":
        return Pair(c * self.alpha, c * self.beta)


# The five 1/length^4 fields of FluctuationSet in field order, as listed
# in the expectation_set docstring (phi2 scales as 1/length^2 and is no
# such combination).
FIELD_PAIRS = {
    "phidot2": Pair(-1, 1),
    "dzphi2": Pair(-3, -3),
    "gradTphi2": Pair(2, -2),
    "dlambda_phi2": Pair(0, 6),
    "phi_d2z_phi": Pair(3, -3),
}


def _kernel(pairs: tuple, record, passed: tuple = ()):
    """One compiled function (*passed, A, t) -> record(*passed, *values).

    The values are alpha A + beta t of each pair.  ``passed`` names
    arguments handed through to the record ahead of them; the record is
    called in the compiled function itself, so no tuple is built and
    unpacked.  A and t may be floats or float64 arrays; each value has
    the shape of what it reads, so a beta = 0 value has A's.

    A pair with both coefficients nonzero becomes the term
    alpha (A + (beta/alpha) t), the form every field above is written
    in; beta = 0 gives alpha A, which never reads t, alpha = 0 gives
    beta t, and (0, 0) gives 0.0 A.  Each coefficient is the float of
    its exact rational, written into the source by ``repr``, which reads
    back as the same double; nothing else enters the source.
    """
    terms = []
    for pair in pairs:
        ratio = Fraction(pair.beta, pair.alpha) if pair.alpha and pair.beta else pair.beta
        scale, ratio = float(pair.alpha), float(ratio)
        terms.append(f"{scale!r} * A" if not ratio else f"{ratio!r} * t" if not scale
                     else f"{scale!r} * (A + {ratio!r} * t)")
    args = ", ".join((*passed, "A", "t"))
    namespace: dict = {}
    exec(f"def kernel({args}):\n    return record({', '.join((*passed, *terms))})",
         {"record": record}, namespace)
    return namespace["kernel"]


# Every pair here has beta != 0, so each field takes t's shape.
_FIELD_KERNEL = _kernel(tuple(FIELD_PAIRS.values()), FluctuationSet, ("phi2",))


def _theta_of_z(config: PlateConfig, z):
    """theta = pi z / L of a position ``z`` strictly inside (0, L), a float or an array.

    A position on a plate can round to an angle just inside (0, pi), so
    the position itself is checked; DomainError quotes the first bad one.
    """
    _require((z > 0.0) & (z < config.L), z, f"z = {{}} is not strictly inside (0, {config.L})")
    return math.pi * z / config.L


def _sin2(theta: float) -> float:
    s = math.sin(theta)
    s2 = s * s
    if not s2 > 0.0:
        raise DomainError(f"sin^2 theta underflows to 0 at theta = {theta!r}")
    return s2


_PI_SQUARED = math.pi ** 2


def _ab(L, s2) -> tuple:
    """(A, B) at sin^2 theta = ``s2``, a float or an array; B is checked."""
    scale = _PI_SQUARED / L ** 4
    B = scale / 96.0 * _f_of_sin2(s2)
    # No field or tensor component exceeds 6 t, so a finite 6 B keeps
    # every value finite; a NaN fails this too.
    if not (isinstance(B, float) and 6.0 * B < math.inf):
        _require(6.0 * B < math.inf, s2,
                 "the profile part B overflows at sin^2 theta = {}: "
                 "the point is too close to a plate")
    return scale / 1440.0, B


def _phi2(s: int, L, s2):
    return (1.0 - s * 3.0 / s2) / (48.0 * L ** 2)


def _fluctuations(s: int, L, s2, A, B) -> FluctuationSet:
    return _FIELD_KERNEL(_phi2(s, L, s2), A, s * B)


def ab_values(config: PlateConfig, point: InteriorPoint) -> ABPair:
    """A = pi^2/(1440 L^4) and B = pi^2/(96 L^4) f(theta)."""
    A, B = _ab(config.L, _sin2(point.theta))
    return ABPair(A, B)


def phi_squared(bc: BoundaryCondition, config: PlateConfig, point: InteriorPoint) -> float:
    """Field fluctuation (1/(48 L^2)) (1 -+ 3/sin^2 theta) between the plates.

    Diverges toward -inf (Dirichlet) or +inf (Neumann) as the point
    approaches either plate; where it overflows, DomainError.
    """
    value = _phi2(bc.sign_upper, config.L, _sin2(point.theta))
    if not abs(value) < math.inf:
        raise DomainError(f"<phi^2> overflows at theta = {point.theta!r}: "
                          "the point is too close to a plate")
    return value


def phi_squared_single_plate(bc: BoundaryCondition, z: float) -> float:
    """Fluctuation outside a single plate, -+ 1/(16 pi^2 z^2).

    ``z`` must be positive and finite; where the value overflows,
    DomainError.
    """
    if not (_is_finite(z) and z > 0.0):
        raise DomainError(f"distance from the plate must be positive and finite, got {_quoted(z)}")
    denominator = 16.0 * _PI_SQUARED * z * z
    if denominator > 0.0:  # z * z underflows to 0 below z ~ 1e-162
        value = -bc.sign_upper / denominator
        if abs(value) < math.inf:
            return value
    raise DomainError(f"<phi^2> overflows at distance {z!r} from the plate: "
                      "the point is too close to it")


def expectation_set(
    bc: BoundaryCondition, config: PlateConfig, point: InteriorPoint
) -> FluctuationSet:
    """All quadratic expectation values at one point.

    With s = sign_upper and t = s B:

        <phidot^2>        = -(A - t)
        <(d_z phi)^2>     = -3 (A + t)
        <(grad_T phi)^2>  =  2 (A - t)
        <(d_lam phi)^2>   =  6 t
        <phi d_z^2 phi>   =  3 (A - t)

    which satisfies the Lorentzian contraction identity
    phidot2 - dzphi2 - gradTphi2 = dlambda_phi2 identically.
    """
    L = config.L
    s2 = _sin2(point.theta)
    A, B = _ab(L, s2)
    return _fluctuations(bc.sign_upper, L, s2, A, B)


def expectation_columns(
    bc: BoundaryCondition, config: PlateConfig, theta
) -> tuple[FluctuationSet, ABPair]:
    """:func:`expectation_set` and :func:`ab_values` at many points at once.

    ``theta`` is a 1-D array of angles, authoritative as in
    :class:`InteriorPoint`.  Returns the set and pair whose fields are
    float64 arrays over ``theta`` (``A`` stays a float), equal bit for
    bit to the scalar functions point by point.  Every point must pass
    the scalar domain checks, including the one on B: a point close
    enough to a plate for B to overflow raises :class:`DomainError`
    here as it does there.
    """
    import numpy as np

    theta = _check_theta(np.asarray(theta, dtype=float))
    s = np.sin(theta)
    s2 = s * s
    _require(s2 > 0.0, theta, "sin^2 theta underflows to 0 at theta = {}")
    with np.errstate(over="ignore", invalid="ignore"):
        A, B = _ab(config.L, s2)
    return _fluctuations(bc.sign_upper, config.L, s2, A, B), ABPair(A, B)
