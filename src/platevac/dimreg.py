"""Dimensionally continued transverse-momentum integrals.

The master integral

    I(d, N, m^2) = integral d^d k / (2 pi)^d  (k^2 + m^2)^-N
                 = Gamma(N - d/2) / ((4 pi)^(d/2) Gamma(N)) (m^2)^(d/2 - N)

converges only for 2N > d; everywhere else its value is defined by
analytic continuation in d, which the gamma-function form realizes
literally: negative gamma arguments are continued by the gamma function
itself rather than through subtractions of divergent integrands.

For genuinely convergent integer-dimensional cases a direct radial
quadrature is provided as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, PoleError, QuadratureError

__all__ = ["MasterIntegralSpec", "gamma_real", "master_integral", "quadrature_reference"]


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == round(x)


def gamma_real(x: float) -> float:
    """Gamma function on the real axis, poles excluded.

    ``math.gamma`` continues to negative arguments itself; the poles at
    the non-positive integers raise :class:`PoleError`, and arguments
    whose Gamma overflows a double (x above about 171.6) or that are not
    finite raise :class:`DomainError`.
    """
    if not math.isfinite(x):
        raise DomainError(f"gamma_real needs a finite argument, got {x}")
    if _is_nonpositive_integer(x):
        raise PoleError(f"Gamma has a pole at {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"Gamma({x}) overflows a double") from None


@dataclass(frozen=True)
class MasterIntegralSpec:
    """Continued dimension d, propagator power N, and mass parameter m^2."""

    d: float
    N: float
    m_sq: float

    def __post_init__(self) -> None:
        if not self.m_sq > 0.0:
            raise ValueError(f"m_sq must be positive, got {self.m_sq}")

    @property
    def gamma_argument(self) -> float:
        return self.N - self.d / 2.0


def master_integral(spec: MasterIntegralSpec) -> float:
    """Evaluate the continued momentum integral for the given spec.

    Raises :class:`PoleError` when N - d/2 hits a non-positive integer;
    that signals a case needing a different regularization, not a
    numerical failure.  When N itself is a non-positive integer the
    reciprocal gamma vanishes and the continued value is zero.
    """
    a = spec.gamma_argument
    if _is_nonpositive_integer(a):
        raise PoleError(
            f"master integral pole: N - d/2 = {a} is a non-positive integer"
        )
    if _is_nonpositive_integer(spec.N):
        return 0.0
    prefactor = gamma_real(a) / ((4.0 * math.pi) ** (spec.d / 2.0) * gamma_real(spec.N))
    return prefactor * spec.m_sq ** (spec.d / 2.0 - spec.N)


_SPHERE_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def quadrature_reference(d: int, N: float, m_sq: float, rtol: float = 1e-11) -> float:
    """Direct radial quadrature of the convergent master integral.

    Only integer d in {1, 2, 3} has a direct numerical realization (the
    angular factor is the unit-sphere surface S_{d-1}); the continued,
    non-integer-d values are validated through scaling and recursion
    identities instead.  Requires 2N > d for convergence.
    """
    if d not in _SPHERE_SURFACE:
        raise ValueError(f"direct quadrature supports d in {{1, 2, 3}}, got {d}")
    if not 2.0 * N > d:
        raise ValueError(f"integral diverges for 2N <= d (N={N}, d={d})")
    if not m_sq > 0.0:
        raise ValueError(f"m_sq must be positive, got {m_sq}")

    from scipy.integrate import quad

    def integrand(k: float) -> float:
        return k ** (d - 1) / (k * k + m_sq) ** N

    value, abserr = quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=rtol, limit=200)
    if not abserr <= 10.0 * rtol * abs(value):
        raise QuadratureError(
            f"radial quadrature did not converge: estimate {value} +- {abserr}"
        )
    return _SPHERE_SURFACE[d] / (2.0 * math.pi) ** d * value
