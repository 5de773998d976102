"""Mode-sum oracle for the fluctuation profiles.

Independently of every closed form elsewhere in the package, the raw
mode sums are rebuilt here with an exponential frequency cutoff
e^(-eps omega), and the finite part is read off as the constant term of
the regulated sum's Laurent series in eps.  :func:`mode_sum_finite_part`
takes the name of a ``FluctuationSet`` field and the arguments of
``expectation_set``.  The cutoff is applied to omega, not to n alone,
so the transverse momentum integral converges absolutely and reduces
in closed radial form (substituting omega d omega = k dk):

    phi2:    integral d^2k/(2pi)^2 e^(-eps omega)/omega
                 = (1/2pi) int_{k_n}^inf e^(-eps w) dw
                 = e^(-eps k_n) / (2 pi eps)

    phidot2: integral d^2k/(2pi)^2 omega e^(-eps omega)
                 = (1/2pi) int_{k_n}^inf w^2 e^(-eps w) dw
                 = e^(-eps k_n) (k_n^2/eps + 2 k_n/eps^2 + 2/eps^3) / (2 pi)

(the second is d^2/d eps^2 of the first's kernel).  ``verify`` checks
both against :func:`transverse_quadrature` of the original integrand.

Each kernel is e^(-eps k_n) times a polynomial sum_j c_j k_n^j with
j <= 2, and k_n = n pi / L, so the regulated sum over every mode n >= 1
with the boundary-condition weight (1 - s cos 2 n theta) is exact and
finite: with q = e^(-eps pi / L),

    sum_n n^j q^n (1 - s cos 2 n theta)
        = Li_j(q) - (s/2) [Li_j(q e^(2i theta)) + Li_j(q e^(-2i theta))],

where Li_j(x) = sum_n n^j x^n is the Eulerian closed form shared with
the cutoff oracle.  Only the c_j depend on the field, and only s on the
condition, so the sums Li_j(q) and Li_j(z) + Li_j(z') at one (L, theta,
eps) serve both fields under both conditions: :func:`_power_sums` keeps
the last :data:`_SUMS_CACHED` of them, and ``verify`` computes each of
its 165 once.  Nothing is truncated, and the sum is analytic in
complex eps but for poles where q or q e^(+-2i theta) reaches 1.  The
nearest of them after eps = 0 lies at |eps| = 2 min(theta, pi - theta)
L / pi, so ``regsum.fit_finite_part`` takes the mean over a circle half
that size around eps = 0.  The pole at 0 has order 2 (phi2) or 4
(phidot2), :data:`_FIELDS`; its coefficients are known analytically,
1/(4 pi^2) and -(1 - s)/(8 pi L) for phi2, 3/(2 pi^2),
-(1 - s)/(4 pi L), 0 and 0 for phidot2, the (1 - s) terms being the
omitted Neumann n = 0 mode.  The constant is the finite part and must
land on the closed-form field, to about 1e-14 relative at any angle in
(0, pi) where the sums on the circle stay finite doubles.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from . import dimreg
from .errors import InvalidConfigError
from .fluctuations import InteriorPoint
from .regsum import FinitePartResult, _expm1, _power_series, fit_finite_part
from .spectrum import BoundaryCondition, PlateConfig

__all__ = ["mode_sum_finite_part", "transverse_quadrature"]


# Per field: the order P of the pole at eps = 0, eps^-P ... eps^-1; the
# kernel is _kernel_coefficients.
_FIELDS = {"phi2": 2, "phidot2": 4}
# What math.pi falls short of pi.
_PI_LO = 1.2246467991473532e-16


def _divergent_powers(field: str) -> int:
    """The pole order of ``field`` in :data:`_FIELDS`; InvalidConfigError if it has none."""
    if isinstance(field, str) and field in _FIELDS:
        return _FIELDS[field]
    raise InvalidConfigError(f"the mode-sum oracle rebuilds {sorted(_FIELDS)}, got {field!r}")


def _kernel_coefficients(field: str, eps):
    """(c_0, c_1, ...) of the transverse integral e^(-eps k) sum_j c_j k^j."""
    if field == "phi2":
        return (1.0 / (2.0 * math.pi * eps),)
    return tuple(c / (2.0 * math.pi) for c in (2.0 / eps**3, 2.0 / eps**2, 1.0 / eps))


def _transverse_closed(field: str, kn: float, eps: float) -> float:
    """The transverse integral e^(-eps k_n) sum_j c_j k_n^j at one real k_n and eps."""
    coeffs = _kernel_coefficients(field, eps)
    return math.exp(-eps * kn) * sum(c * kn**j for j, c in enumerate(coeffs))


def transverse_quadrature(field: str, kn: float, eps: float) -> float:
    """:func:`_transverse_closed` by ``dimreg``'s exp-sinh rule, sharing no code with it.

    integral_0^inf k omega^p e^(-eps omega) dk / (2 pi), omega = hypot(k, k_n), where
    p = P - 3 for the pole order P in :data:`_FIELDS`: -1 for phi2, 1 for phidot2.
    """
    power = _divergent_powers(field) - 3
    two_pi = 2.0 * math.pi

    def integrand(k):
        omega = math.hypot(k, kn)
        return k * omega ** power * math.exp(-eps * omega) / two_pi

    return dimreg._half_line_integral(integrand)


# Power sums held at once: a verify run reads 5 angles x 33 cutoffs at one L.
_SUMS_CACHED = 256


# typed: a numpy L or cutoff, which computes in numpy's arithmetic, must not
# read the sums of an equal float
@lru_cache(maxsize=_SUMS_CACHED, typed=True)
def _power_sums(L: float, theta: float, eps: complex) -> tuple[tuple[complex, complex], ...]:
    """(Li_j(q), Li_j(z) + Li_j(z')) for j = 0, 1, 2, the sums every mode-sum kernel reads.

    q = e^(-eps pi / L) and z, z' = q e^(+-2i theta).  They depend on
    neither the field nor the boundary condition, so both fields under
    both conditions read one evaluation.  Each 1 - x is taken through
    ``regsum._expm1``, so it keeps its digits near a plate.
    """
    w = -(math.pi / L) * eps
    phase = 1j * (2.0 * theta)
    nodes = [(cmath.exp(v), -_expm1(v)) for v in (w, w + phase, w - phase)]
    sums = []
    for j in range(3):
        free, up, down = (_power_series(j, x, one_minus_x) for x, one_minus_x in nodes)
        sums.append((free, up + down))
    return tuple(sums)


def _regulated_sums(field: str, bc: BoundaryCondition, L: float, theta: float,
                    eps: complex) -> complex:
    """The cutoff-regulated mode sum at the complex cutoff ``eps``, summed exactly.

    sum_{n>=1} (1 - s cos 2 n theta) T(k_n, eps) / (2 L) with T the
    transverse kernel, as Li_j(q) - (s/2) [Li_j(z) + Li_j(z')] per power
    of k_n, z and z' = q e^(+-2i theta), from :func:`_power_sums`.  The
    cosine is the mean of the two phases, not Re Li_j(z), which is not
    analytic in eps.
    """
    a = math.pi / L
    # s comes from the modes summed, not from BoundaryCondition.sign_upper,
    # so the oracle shares no sign convention with the closed forms:
    # Dirichlet sin^2 gives 1 - cos 2 n theta, Neumann cos^2 1 + cos 2 n theta.
    s = 1 if bc is BoundaryCondition.DIRICHLET else -1
    total = 0.0
    for j, (c, (free, pair)) in enumerate(zip(_kernel_coefficients(field, eps),
                                              _power_sums(L, theta, eps))):
        total += c * a**j * (free - s * 0.5 * pair)
    return total / (2.0 * L)


def mode_sum_finite_part(
    field: str, bc: BoundaryCondition, config: PlateConfig, point: InteriorPoint
) -> FinitePartResult:
    """Finite part of the cutoff-regulated mode sum of ``field`` at one point.

    ``field`` names a ``FluctuationSet`` field in :data:`_FIELDS`; the
    other arguments are those of ``expectation_set``, whose ``field``
    the constant term reproduces.  The transverse integrals are summed
    over all n >= 1 with the boundary-condition weight
    (1 - s cos(2 n theta)), in closed form, on the 33 complex cutoffs of
    the upper half of a circle around eps = 0, and
    ``regsum.fit_finite_part`` takes the mean over the whole circle.  The
    circle's radius min(theta, pi - theta) L / pi is half the distance
    to the nearest other singularity, so it shrinks toward a plate with
    the finite part's own length scale; where it underflows, or a sum
    overflows on it, the fit raises DomainError.
    """
    powers = _divergent_powers(field)
    L = config.L
    # cos 2 n theta = cos 2 n (pi - theta): sum at the angle from the nearer
    # plate, with pi - theta exact, so that e^(+-2i theta) - 1 keeps its digits
    angle = min(point.theta, (math.pi - point.theta) + _PI_LO)
    radius = angle * L / math.pi
    return fit_finite_part(lambda eps: _regulated_sums(field, bc, L, angle, eps), radius, powers)
