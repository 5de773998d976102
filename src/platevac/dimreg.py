"""The transverse momentum integral between the plates, continued in N.

The master integral over the two transverse dimensions,

    I(N, m^2) = integral d^2 k / (2 pi)^2  (k^2 + m^2)^-N
              = Gamma(N - 1) / (4 pi Gamma(N)) (m^2)^(1 - N),

converges only for N > 1; everywhere else its value is defined by
analytic continuation in N, which the gamma-function form realizes
literally: negative gamma arguments are continued by the gamma function
itself rather than through subtractions of divergent integrands.  The
Casimir energy takes it at N = -1/2.

For convergent N, a direct radial quadrature by the double-exponential
rule is an independent cross-check.  Both take plain numbers and share
one check of N and m^2.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .errors import DomainError, PoleError, QuadratureError, _is_finite, _quoted

__all__ = ["master_integral", "quadrature_reference"]


def _check_integral(N: float, m_sq: float) -> None:
    """DomainError unless N is finite and m_sq lies in (0, inf); 10**400 is not finite."""
    if not _is_finite(N):
        raise DomainError(f"N must be finite, got {_quoted(N)}")
    if not (_is_finite(m_sq) and m_sq > 0.0):
        raise DomainError(f"m_sq must be positive and finite, got {_quoted(m_sq)}")


def master_integral(N: float, m_sq: float) -> float:
    """The continued momentum integral I(N, m^2) in closed form.

    N must be finite and m_sq must lie in (0, inf), or
    :class:`DomainError`.  Raises :class:`PoleError` when N - 1 is a
    non-positive integer, which covers every pole of Gamma(N) too; that
    signals a case needing a different regularization, not a numerical
    failure.  A value that is not a finite double raises
    :class:`DomainError`, and so does one whose Gamma(N - 1) or Gamma(N)
    is not a normal double, or whose 4 pi Gamma(N) overflows: there the
    ratio would lose digits, or all of them.
    """
    _check_integral(N, m_sq)
    # float(): a numpy N or m_sq would overflow to inf with a warning instead of raising
    N = float(N)
    a = N - 1.0
    if a <= 0.0 and a == round(a):
        raise PoleError(f"master integral pole: N - 1 = {a} is a non-positive integer")
    try:
        gamma_a, gamma_N = math.gamma(a), math.gamma(N)
        denominator = 4.0 * math.pi * gamma_N
        normal = min(abs(gamma_a), abs(gamma_N)) >= sys.float_info.min
        prefactor = gamma_a / denominator if normal and abs(denominator) < math.inf else math.inf
        value = prefactor * float(m_sq) ** (1.0 - N)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"the master integral at (N, m_sq) = {N, m_sq} is not a finite "
                          "double, or Gamma(N - 1) or Gamma(N) is not a normal double")
    return value


@lru_cache(maxsize=None)
def _exp_sinh_nodes() -> tuple[tuple[float, float], ...]:
    """The nodes (x, cosh t) of :func:`_half_line_integral`, x = exp(pi/2 sinh t), t = k/64.

    Built once, on first use: every integral runs on the same 769 nodes.
    """
    half_pi = 0.5 * math.pi
    return tuple((math.exp(half_pi * math.sinh(t)), math.cosh(t))
                 for t in (k / 64 for k in range(-6 * 64, 6 * 64 + 1)))


def _half_line_integral(f) -> float:
    """Integral of ``f``, a function of one float, over [0, inf) by the exp-sinh rule.

    x = exp(pi/2 sinh t) (Takahasi and Mori, Publ. RIMS 9, 721, 1974), then
    the trapezoid rule on t in [-6, 6] at steps 1/32 and 1/64.  The nodes
    (x, cosh t) are :func:`_exp_sinh_nodes`, shared by every integral;
    each term is f(x) x (pi/2) cosh t.  ``f`` is evaluated once, on the
    1/64 nodes; the 1/32 nodes are every other one (k/32 = 2k/64
    exactly).  Each sum is a ``math.fsum``, which is correctly rounded
    in any order; taking the largest terms first keeps its partials
    few, as the terms span some 300 decades.  The two sums' difference
    plus the integrand at t = +-6, which estimates what lies beyond the
    nodes, must be below 1e-11 of the value, or it raises
    :class:`QuadratureError`; so does an integrand that raises
    ZeroDivisionError or OverflowError at a node.
    """
    half_pi = 0.5 * math.pi
    try:
        integrand = [f(x) * x * half_pi * c for x, c in _exp_sinh_nodes()]
        coarse = math.fsum(sorted(integrand[::2], key=abs, reverse=True)) / 32
        value = math.fsum(sorted(integrand, key=abs, reverse=True)) / 64
    except (ZeroDivisionError, OverflowError, ValueError):  # ValueError: fsum of inf - inf
        raise QuadratureError("half-line quadrature: the integrand is not a finite double "
                              "at every node") from None
    err = abs(value - coarse) + abs(integrand[0]) + abs(integrand[-1])
    if not err < 1e-11 * abs(value):  # a zero or NaN sum never passes
        raise QuadratureError(f"half-line quadrature did not converge: {value} +- {err}")
    return value


def quadrature_reference(N: float, m_sq: float) -> float:
    """Direct radial quadrature of the convergent master integral.

    I(N, m^2) is the radial integral of k (k^2 + m^2)^-N times
    2 pi / (2 pi)^2.  Requires N > 1, where the integral converges; for
    N >= 1.25, N <= 10 and m_sq in [1e-6, 1e6] it agrees with the
    gamma-function form to 2e-15.
    """
    _check_integral(N, m_sq)
    if not N > 1.0:
        raise DomainError(f"the integral in d = 2 diverges for N <= 1, got N = {_quoted(N)}")

    def integrand(k):  # k (k^2 + m_sq)^-N, no power overflowing for k^2 > m_sq
        k_sq = k * k
        if k_sq > m_sq:
            return k ** (1 - 2.0 * N) / (1.0 + m_sq / k_sq) ** N
        return k / (k_sq + m_sq) ** N

    return 2.0 * math.pi / (2.0 * math.pi) ** 2 * _half_line_integral(integrand)
