"""Mode-sum oracle for the fluctuation profiles.

Independently of every closed form elsewhere in the package, the raw
mode sums are rebuilt here with an exponential frequency cutoff
e^(-eps omega) and the finite part is extracted from a fixed set of
cutoffs per field.  :func:`mode_sum_finite_part` takes the name of a
``FluctuationSet`` field and the arguments of ``expectation_set``.  The
cutoff is applied to omega, not to n alone, so the transverse momentum
integral converges absolutely and reduces in closed radial form
(substituting omega d omega = k dk):

    phi2:    integral d^2k/(2pi)^2 e^(-eps omega)/omega
                 = (1/2pi) int_{k_n}^inf e^(-eps w) dw
                 = e^(-eps k_n) / (2 pi eps)

    phidot2: integral d^2k/(2pi)^2 omega e^(-eps omega)
                 = (1/2pi) int_{k_n}^inf w^2 e^(-eps w) dw
                 = e^(-eps k_n) (k_n^2/eps + 2 k_n/eps^2 + 2/eps^3) / (2 pi)

(the second is d^2/d eps^2 of the first's kernel).  ``verify`` checks
both against quadrature of the original integrand.

Each kernel is e^(-eps k_n) times a polynomial sum_j c_j k_n^j with
j <= 2, and k_n = n pi / L, so the regulated sum over every mode n >= 1
with the boundary-condition weight (1 - s cos 2 n theta) is exact and
finite: with q = e^(-eps pi / L) and z = q e^(2 i theta),

    sum_n n^j q^n (1 - s cos 2 n theta) = Li_j(q) - s Re Li_j(z),

where Li_j(x) = sum_n n^j x^n is the Eulerian closed form shared with
the cutoff oracle.  Nothing is truncated.  Expanding in small eps, these
sums behave like 1/(e^(a eps) - 1) and its derivatives (a = pi/L), so
the divergent bases are known analytically per field:

    phi2:    eps^-2, eps^-1   (constant, then all integer powers)
    phidot2: eps^-4, eps^-3, eps^-2, eps^-1

The least-squares machinery shared with the cutoff oracle strips those
powers plus a low-degree polynomial tail, both per field in the one
table :data:`_FIELDS`, which also fixes the field's cutoffs; the
constant is the finite part and must land on the closed-form field.
phidot2 carries a stronger eps^-4 divergence and correspondingly worse
fit conditioning, hence its looser documented tolerance (1e-3 relative
against 1e-4 for phi2).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidConfigError
from .fluctuations import InteriorPoint
from .regsum import _FIT_CACHE_SIZE, FinitePartResult, _log_spaced, _power_series, fit_finite_part
from .spectrum import BoundaryCondition, PlateConfig

if TYPE_CHECKING:
    import numpy as np

__all__ = ["mode_sum_finite_part"]


class _Field(NamedTuple):
    divergent_powers: int
    smallest: float
    largest: float
    count: int
    tail_degree: int


# Per field: P of the divergent basis eps^-P ... eps^-1, and ``count``
# cutoffs from ``smallest`` to ``largest`` per unit L fitted with a tail
# up to eps^``tail_degree``; the kernel is _kernel_coefficients.  The
# cutoff eps carries length units (it multiplies a frequency), so the
# cutoffs scale with L.  The oscillatory weight sums are analytic
# in a disk of radius 2 theta in pi eps / L around zero cutoff, so the
# largest cutoff must stay well inside it for the working range
# theta >= 0.3, which caps it at 0.02 L; and the basis needs a quartic
# (phi2) or quintic (phidot2) tail because those sums contribute every
# integer power of eps with pole-driven coefficient growth.  phidot2
# starts its cutoffs higher, its eps^-4 divergence being the fit's
# worst conditioning case.
_FIELDS = {
    "phi2": _Field(2, 1e-3, 2e-2, 12, 4),
    "phidot2": _Field(4, 2e-3, 2e-2, 16, 5),
}


def _field(field: str) -> _Field:
    """The row of ``field`` in :data:`_FIELDS`; InvalidConfigError if it has none."""
    if isinstance(field, str) and field in _FIELDS:
        return _FIELDS[field]
    raise InvalidConfigError(f"the mode-sum oracle rebuilds {sorted(_FIELDS)}, got {field!r}")


@lru_cache(maxsize=_FIT_CACHE_SIZE)
def _cutoffs(field: str, config: PlateConfig) -> tuple[float, ...]:
    """The cutoffs of ``field`` at the separation of ``config``, largest first."""
    row, L = _field(field), config.L
    return _log_spaced(row.smallest * L, row.largest * L, row.count)


def _kernel_coefficients(field: str, eps):
    """(c_0, c_1, ...) of the transverse integral e^(-eps k) sum_j c_j k^j."""
    if field == "phi2":
        return (1.0 / (2.0 * math.pi * eps),)
    return tuple(c / (2.0 * math.pi) for c in (2.0 / eps**3, 2.0 / eps**2, 1.0 / eps))


def _transverse_closed(field: str, kn, eps):
    import numpy as np

    coeffs = _kernel_coefficients(field, eps)
    return np.exp(-eps * kn) * sum(c * kn**j for j, c in enumerate(coeffs))


def _regulated_sums(field: str, bc: BoundaryCondition, L: float, theta: float,
                    eps_values) -> np.ndarray:
    """The cutoff-regulated mode sum at every cutoff in ``eps_values``, summed exactly.

    sum_{n>=1} (1 - s cos 2 n theta) T(k_n, eps) / (2 L) with T the
    transverse kernel, as Li_j(q) - s Re Li_j(z) per power of k_n.
    """
    import numpy as np

    eps = np.asarray(eps_values, dtype=np.longdouble)
    a = np.longdouble(math.pi) / np.longdouble(L)
    q = np.exp(-eps * a)
    one_minus_q = -np.expm1(-eps * a)
    z = q * np.exp(1j * np.longdouble(2.0 * theta))
    one_minus_z = 1.0 - z
    # s comes from the modes summed, not from BoundaryCondition.sign_upper,
    # so the oracle shares no sign convention with the closed forms:
    # Dirichlet sin^2 gives 1 - cos 2 n theta, Neumann cos^2 1 + cos 2 n theta.
    s = 1 if bc is BoundaryCondition.DIRICHLET else -1
    total = np.zeros_like(eps)
    for j, c in enumerate(_kernel_coefficients(field, eps)):
        weighted = _power_series(j, q, one_minus_q) - s * _power_series(j, z, one_minus_z).real
        total += c * a**j * weighted
    return total / (2.0 * np.longdouble(L))


def mode_sum_finite_part(
    field: str, bc: BoundaryCondition, config: PlateConfig, point: InteriorPoint
) -> FinitePartResult:
    """Finite part of the cutoff-regulated mode sum of ``field`` at one point.

    ``field`` names a ``FluctuationSet`` field in :data:`_FIELDS`; the
    other arguments are those of ``expectation_set``, whose ``field``
    the constant term reproduces.  For each cutoff of
    :func:`_cutoffs` the transverse integrals are summed over all
    n >= 1 with the boundary-condition weight (1 - s cos(2 n theta)),
    in closed form, then the divergent powers are fitted away.

    The sums run in extended precision.  At the smallest cutoff they
    reach ~ eps^-4 while the finite part is O(1), so
    double-precision round-off would already be comparable to the
    quantity being extracted; x86 long double buys the three extra
    digits the fit needs, and on a platform without it the fit raises
    :class:`PrecisionError` instead of returning a degraded value.
    """
    row = _field(field)
    cutoffs = _cutoffs(field, config)
    sums = _regulated_sums(field, bc, config.L, point.theta, cutoffs)
    return fit_finite_part(cutoffs, sums, row.divergent_powers, row.tail_degree)
