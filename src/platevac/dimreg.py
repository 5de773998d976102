"""Dimensionally continued transverse-momentum integrals.

The master integral

    I(d, N, m^2) = integral d^d k / (2 pi)^d  (k^2 + m^2)^-N
                 = Gamma(N - d/2) / ((4 pi)^(d/2) Gamma(N)) (m^2)^(d/2 - N)

converges only for 2N > d; everywhere else its value is defined by
analytic continuation in d, which the gamma-function form realizes
literally: negative gamma arguments are continued by the gamma function
itself rather than through subtractions of divergent integrands.

For convergent cases in d = 2, the transverse dimensions between the
plates, a direct radial quadrature by the double-exponential rule is an
independent cross-check.
Both take d, N and m^2 as plain numbers and share one argument check.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError, PoleError, QuadratureError, _is_finite, _quoted

__all__ = ["gamma_real", "master_integral", "quadrature_reference"]


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == round(x)


def gamma_real(x: float) -> float:
    """Gamma function on the real axis, poles excluded.

    ``math.gamma`` continues to negative arguments itself; the poles at
    the non-positive integers raise :class:`PoleError`, and arguments
    whose Gamma overflows a double (x above about 171.6) or that are not
    finite raise :class:`DomainError`.
    """
    if not _is_finite(x):
        raise DomainError(f"gamma_real needs a finite argument, got {_quoted(x)}")
    if _is_nonpositive_integer(x):
        raise PoleError(f"Gamma has a pole at {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"Gamma({x}) overflows a double") from None


def _check_integral(d: float, N: float, m_sq: float) -> None:
    """DomainError unless d and N are finite and m_sq lies in (0, inf); 10**400 is not finite."""
    if not (_is_finite(d) and _is_finite(N)):
        raise DomainError(f"d and N must be finite, got d = {_quoted(d)}, N = {_quoted(N)}")
    if not (_is_finite(m_sq) and m_sq > 0.0):
        raise DomainError(f"m_sq must be positive and finite, got {_quoted(m_sq)}")


def master_integral(d: float, N: float, m_sq: float) -> float:
    """The continued momentum integral I(d, N, m^2) in closed form.

    d and N must be finite and m_sq must lie in (0, inf), or
    :class:`DomainError`.  Raises :class:`PoleError` when N - d/2 hits a
    non-positive integer; that signals a case needing a different
    regularization, not a numerical failure.  When N itself is a
    non-positive integer the reciprocal gamma vanishes and the continued
    value is zero.  A value that is not a finite double raises
    :class:`DomainError`.
    """
    _check_integral(d, N, m_sq)
    a = N - d / 2.0
    if _is_nonpositive_integer(a):
        raise PoleError(
            f"master integral pole: N - d/2 = {a} is a non-positive integer"
        )
    if _is_nonpositive_integer(N):
        return 0.0
    try:
        prefactor = gamma_real(a) / ((4.0 * math.pi) ** (d / 2.0) * gamma_real(N))
        # float(): a numpy m_sq would overflow to inf instead of raising
        value = prefactor * float(m_sq) ** (d / 2.0 - N)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"the master integral at (d, N, m_sq) = {d, N, m_sq} "
                          "is not a finite double")
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


def quadrature_reference(d: int, N: float, m_sq: float) -> float:
    """Direct radial quadrature of the convergent master integral in d = 2.

    The transverse momenta between the plates span two dimensions, the
    one case any check asks for: I(2, N, m^2) is the radial integral of
    k (k^2 + m^2)^-N times 2 pi / (2 pi)^2.  Any other d raises
    :class:`DomainError`; tests/test_dimreg.py checks the continued,
    non-integer-d values through scaling and recursion identities instead.
    Requires N > 1; for N >= 1.25, N <= 10 and m_sq in [1e-6, 1e6] it
    agrees with the gamma-function form to 2e-15.
    """
    if d != 2:
        raise DomainError(f"direct quadrature supports d = 2 alone, got {_quoted(d)}")
    _check_integral(d, N, m_sq)
    if not 2.0 * N > d:
        raise DomainError(f"integral diverges for 2N <= d (N={N}, d={d})")

    def integrand(k):  # k (k^2 + m_sq)^-N, no power overflowing for k^2 > m_sq
        k_sq = k * k
        if k_sq > m_sq:
            return k ** (1 - 2.0 * N) / (1.0 + m_sq / k_sq) ** N
        return k / (k_sq + m_sq) ** N

    return 2.0 * math.pi / (2.0 * math.pi) ** 2 * _half_line_integral(integrand)
