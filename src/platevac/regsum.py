"""Regularized lattice sums: zeta at negative integers, the power series
sum_n n^k x^n, and the circle fit that reads off a finite part.

The divergent power sums sum_n n^k over the longitudinal mode number n
are assigned finite values by analytic continuation, through the
Riemann zeta function at negative integers, exactly in rational
arithmetic (:func:`zeta_neg_int`); ``casimir`` reads zeta(-3).  The
profile function f(theta) = 3/sin^4 theta - 2/sin^2 theta, which
``fluctuations`` evaluates after :func:`_check_theta` has validated
its angle, is 8 times the regularized sum_n n^3 cos(2 n theta).

The mode-sum oracle, ``oracle``, reads the rest:

* :func:`_power_series`, the closed form
  sum_{n>=1} n^k x^n = x P_k(x) / (1 - x)^(k+1), with P_k the Eulerian
  polynomial, for a complex x; each 1 - x is taken through the complex
  expm1 :func:`_expm1`, so that it keeps its digits near x = 1.

* :func:`fit_finite_part`, which reads the constant term of a regulated
  sum's Laurent series at eps = 0 off the mean over 64 equally spaced
  points of a circle around it: the trapezoid rule for the Laurent
  coefficient, in double precision on Python complex numbers.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, _FrozenRecord, _is_count, _quoted, _require, _set_field

__all__ = [
    "FinitePartResult",
    "bernoulli",
    "zeta_neg_int",
]


# ---------------------------------------------------------------------------
# Exact rational machinery
# ---------------------------------------------------------------------------

# The largest k zeta_neg_int takes, so bernoulli stops at index 172.  The
# exact recurrence costs about n^2.6 and the package asks for k = 3 alone;
# 171 keeps a cold call under 0.1 s (2-vCPU Xeon).  It is also the
# last row of Eulerian numbers that are all finite doubles.
_MAX_SCALAR_POWER = 171


# typed: a cached B_3 must not answer bernoulli(3.0), which is refused
@lru_cache(maxsize=None, typed=True)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n as an exact rational (convention B_1 = -1/2).

    Uses the defining recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0, which
    is exact in rational arithmetic.  Its cost grows as about n^2.6, so
    n must be an integer in [0, _MAX_SCALAR_POWER + 1], or DomainError.
    """
    if not (_is_count(n) and n <= _MAX_SCALAR_POWER + 1):
        raise DomainError(f"Bernoulli index must be an integer in [0, {_MAX_SCALAR_POWER + 1}], "
                          f"got {_quoted(n)}")
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def zeta_neg_int(k: int) -> Fraction:
    """Riemann zeta at a non-positive integer argument, zeta(-k), exactly.

    zeta(-k) = (-1)^k B_{k+1} / (k+1).  With B_1 = -1/2 this yields
    zeta(0) = -1/2, zeta(-1) = -1/12, zeta(-3) = 1/120, and the trivial
    zeros zeta(-2m) = 0 through the vanishing odd Bernoulli numbers.
    k must be an integer in [0, _MAX_SCALAR_POWER], or DomainError.
    """
    if not (_is_count(k) and k <= _MAX_SCALAR_POWER):
        raise DomainError(f"zeta_neg_int expects an integer k in [0, {_MAX_SCALAR_POWER}], "
                          f"got {_quoted(k)}")
    value = bernoulli(k + 1) / (k + 1)
    return -value if k % 2 else value


# ---------------------------------------------------------------------------
# The angle and the profile function f
# ---------------------------------------------------------------------------

def _check_theta(theta):
    """``theta``, a float or a float64 array, if it lies strictly inside (0, pi).

    The one place an angle is validated: every scalar and array path
    calls it.  DomainError quotes the first angle outside.
    """
    if isinstance(theta, float) and 0.0 < theta < math.pi:
        return theta  # the scalar path, kept to one comparison
    _require((theta > 0.0) & (theta < math.pi), theta,
             "theta must lie strictly between 0 and pi, got {}; "
             "the sums diverge on the plate surfaces")
    return theta


def _f_of_sin2(s2):
    """The profile function f as a function of s2 = sin^2(theta).

    Shared by the scalar and the array paths: s2 may be a float or a
    float64 array, and the arithmetic is the same element by element.
    """
    return (3.0 / s2 - 2.0) / s2


# ---------------------------------------------------------------------------
# Convergent power-geometric sums (read by the mode-sum oracle)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _eulerian_row(k: int) -> tuple[int, ...]:
    """Eulerian numbers A(k, m) for m = 0 .. k-1 (k >= 1); (1,) for k = 0."""
    if k <= 1:
        return (1,)
    prev = _eulerian_row(k - 1)
    row = []
    for m in range(k):
        left = (k - m) * prev[m - 1] if m >= 1 else 0
        right = (m + 1) * prev[m] if m < k - 1 else 0
        row.append(left + right)
    return tuple(row)


def _power_series(k: int, x, one_minus_x):
    """sum_{n>=1} n^k x^n = x P_k(x) / (1-x)^(k+1), P_k the Eulerian polynomial.

    The one place this closed form is written, for a float or complex
    ``x``; ``1 - x`` is passed in so that callers near x = 1 can form it
    without cancellation.
    On |x| = 1 it is the series' Abel limit, and past it the analytic
    continuation, which the mode-sum oracle's circles reach.  It
    checks nothing; a caller whose nodes can overflow checks the result.
    """
    poly = 0
    for a in reversed(_eulerian_row(k)):
        poly = poly * x + a
    return x * poly / one_minus_x ** (k + 1)


# ---------------------------------------------------------------------------
# Finite parts as Laurent coefficients: the trapezoid rule on a circle
# ---------------------------------------------------------------------------

class FinitePartResult(_FrozenRecord):
    """Finite part of a cutoff-regulated sum plus its divergent coefficients.

    ``divergent_coeffs`` are ordered from the most divergent power down,
    eps^-P ... eps^-1; ``error_estimate`` bounds the finite part's error
    (:func:`fit_finite_part`).
    """

    def __init__(self, finite_part: float, divergent_coeffs: tuple[float, ...],
                 error_estimate: float) -> None:
        _set_field(self, "finite_part", finite_part)
        _set_field(self, "divergent_coeffs", divergent_coeffs)
        _set_field(self, "error_estimate", error_estimate)


# Nodes of the trapezoid rule on the circle.  With the nearest other
# singularity twice as far out as the circle, its error falls as 2^-N:
# 2^-64 = 5e-20, below double round-off.
_CIRCLE_NODES = 64
# e^(2 pi i k/N): k <= N/2 from math.cos and math.sin, the rest their conjugates
_UPPER_NODES = tuple(complex(math.cos(a), math.sin(a)) for a in
                     (math.pi * k / (_CIRCLE_NODES // 2) for k in range(_CIRCLE_NODES // 2 + 1)))
_UNIT_NODES = _UPPER_NODES + tuple(u.conjugate() for u in reversed(_UPPER_NODES[1:-1]))


def _expm1(z: complex) -> complex:
    """e^z - 1 = expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y, z = x + iy, without cancellation.

    The mode-sum oracle forms every 1 - x of its sums through it.  A
    part past the double range raises OverflowError.
    """
    h = math.sin(0.5 * z.imag)
    return complex(math.expm1(z.real) * math.cos(z.imag) - 2.0 * h * h,
                   math.exp(z.real) * math.sin(z.imag))


def fit_finite_part(regulated, radius: float, divergent_powers: int) -> FinitePartResult:
    """The Laurent coefficients of ``regulated`` at its pole eps = 0, read off a circle.

    ``regulated`` maps one complex cutoff to the regulated sum S there.
    S must be analytic in 0 < |eps| < 2 ``radius``, with a pole of order
    P = ``divergent_powers`` at 0 and S(conj eps) = conj S(eps).  Its
    coefficient of eps^-p is the contour integral (1/2 pi i) of
    S(eps) eps^(p-1) d eps around the circle |eps| = ``radius``, and the
    trapezoid rule on the N = 64 nodes eps_k = radius e^(2 pi i k/N)
    takes it as the mean of S(eps_k) eps_k^p (Lyness and Moler, SIAM J.
    Numer. Anal. 4, 202 (1967); Trefethen and Weideman, SIAM Review 56,
    385 (2014)).  The finite part is p = 0.  S is called on the 33
    nodes k = 0 .. 32 of the upper half circle; the other 31 values are
    their conjugates.  Each eps_k^p is formed as radius^p (eps_k/radius)^p,
    a node of the unit circle times a real scale, so nothing underflows,
    and each mean is a ``math.fsum``.

    A function analytic out to twice the radius leaves the rule an
    error of about 2^-N of its scale M, the largest |S| on the circle.
    The rule on the N/2 even nodes misses by d, about 2^-(N/2) M, so the
    error estimate reported is d^2/M plus M times the machine epsilon,
    the round-off.  Everything runs in double precision: each caller's
    radius follows its sum's own length scale, so on the circle the
    divergent terms c_-p r^-p are within a few decades of the finite
    part and the mean loses only a few digits to cancellation.  A
    radius that is not a positive finite float, or a sum that is not
    finite on the circle (or raises ZeroDivisionError or OverflowError
    there), raises :class:`DomainError`.
    """
    if not 0.0 < radius < math.inf:
        raise DomainError("the cutoff circle needs a positive finite radius, "
                          f"got {_quoted(radius)}")
    try:
        upper = [regulated(radius * u) for u in _UPPER_NODES]
        values = upper + [v.conjugate() for v in reversed(upper[1:-1])]
        finite_part = math.fsum(v.real for v in values) / _CIRCLE_NODES
        miss = abs(finite_part - math.fsum(v.real for v in values[::2]) / (_CIRCLE_NODES // 2))
        scale = max(map(abs, upper))
        error_estimate = (miss * (miss / scale) if miss else 0.0) + sys.float_info.epsilon * scale
        divergent = tuple(radius ** p * math.fsum((v * _UNIT_NODES[p * k % _CIRCLE_NODES]).real
                                                  for k, v in enumerate(values)) / _CIRCLE_NODES
                          for p in range(divergent_powers, 0, -1))
        if all(map(math.isfinite, (finite_part, error_estimate, *divergent))):
            return FinitePartResult(finite_part, divergent, error_estimate)
    except (ZeroDivisionError, OverflowError, ValueError):  # ValueError: fsum of inf - inf
        pass
    raise DomainError("finite-part fit needs finite data")
