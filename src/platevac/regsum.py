"""Regularized lattice sums and their independent numerical oracles.

The divergent sums sum_n n^k and sum_n n^k cos(2 n theta) over the
longitudinal mode number n are assigned finite values by analytic
continuation: the pure power sums through the Riemann zeta function at
negative integers, the oscillatory sums through the closed forms

    sum_n n   cos(2 n theta) = -1 / (4 sin^2 theta)
    sum_n n^3 cos(2 n theta) = (1/8) (3/sin^4 theta - 2/sin^2 theta)

Two independent numerical routes to the same finite parts are provided
for cross-validation:

* ``cutoff_sum_oracle`` evaluates S(eps) = sum_n n^k e^(-eps n) exactly
  (closed form through Eulerian polynomials) at twelve fixed cutoffs,
  then strips the divergent powers eps^-(k+1) ... eps^-1 by a
  least-squares fit and returns the constant term.  The small-eps
  expansion of S has a single divergent power k!/eps^(k+1) followed by
  the constant zeta(-k), so the fitted intermediate coefficients are
  expected to come out near zero.

* ``abel_sum_oracle`` evaluates sum_n n^k r^n cos(2 n theta) in closed
  form at twelve fixed radii below the circle of convergence and
  extrapolates r -> 1- by polynomial (Richardson) extrapolation in
  h = 1 - r.  The Abel limits of the oscillatory sums exist for theta
  away from 0 and pi and have expansions in integer powers of h, which
  is what makes polynomial extrapolation the right accelerator.

All closed-form evaluations are exact rational or elementary-function
expressions; only the oracles involve fits or extrapolation.  Each
oracle fixes its own cutoffs or radii, and the fit (shared with the
mode-sum oracle in ``oracle``) and the extrapolation trust them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import (
    DomainError,
    ExtrapolationDivergenceError,
    IllConditionedFitError,
    PrecisionError,
    _is_count,
    _is_finite,
    _quoted,
    _require,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FinitePartResult",
    "bernoulli",
    "zeta_neg_int",
    "f_theta",
    "trig_sum_n_cos",
    "trig_sum_n3_cos",
    "abel_sum_oracle",
    "cutoff_sum_oracle",
]


# ---------------------------------------------------------------------------
# Exact rational machinery
# ---------------------------------------------------------------------------

# The largest k zeta_neg_int takes, so bernoulli stops at index 172.  The
# exact recurrence costs about n^2.6 and the package asks for k = 1 and 3
# alone; 171 keeps a cold call under 0.1 s (2-vCPU Xeon).  It is also the
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
# Closed forms of the regularized oscillatory sums
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


def _scalar_of_sin2(theta: float, of_sin2) -> float:
    """``of_sin2(sin^2 theta)`` at one angle inside (0, pi), if it is a finite double.

    DomainError where sin^2 theta underflows to 0 or the value
    overflows: the angle is too close to a plate.
    """
    _check_theta(theta)
    s = math.sin(theta)
    s2 = s * s
    value = of_sin2(s2) if s2 > 0.0 else math.inf
    if not abs(value) < math.inf:
        raise DomainError(f"the sum overflows at theta = {theta!r}: the angle is too close "
                          "to a plate")
    return value


def f_theta(theta: float) -> float:
    """Profile function 3/sin^4(theta) - 2/sin^2(theta), minimum 1 at pi/2."""
    return _scalar_of_sin2(theta, _f_of_sin2)


def trig_sum_n_cos(theta: float) -> float:
    """Regularized value of sum_{n>=1} n cos(2 n theta) = -1/(4 sin^2 theta)."""
    return _scalar_of_sin2(theta, lambda s2: -0.25 / s2)


def trig_sum_n3_cos(theta: float) -> float:
    """Regularized value of sum_{n>=1} n^3 cos(2 n theta) = f(theta)/8."""
    return 0.125 * f_theta(theta)


# ---------------------------------------------------------------------------
# Convergent power-geometric sums (shared by the oracles)
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

    The one place this closed form is written.  ``x`` may be a float, a
    complex number or a numpy array of any float or complex dtype, and
    the arithmetic is the same element by element; ``1 - x`` is passed
    in so that callers near x = 1 can form it without cancellation.
    It checks nothing; its callers pass only |x| < 1, at nodes where
    the value is finite.
    """
    poly = 0
    for a in reversed(_eulerian_row(k)):
        poly = poly * x + a
    return x * poly / one_minus_x ** (k + 1)


# ---------------------------------------------------------------------------
# Richardson / Neville extrapolation to h = 0
# ---------------------------------------------------------------------------

def _neville(hs: list[float], ys: list[float]) -> tuple[float, list[float]]:
    """Neville polynomial extrapolation of (h_i, y_i) to h = 0.

    Returns the highest-order extrapolant together with the diagonal of
    the tableau (the sequence of estimates of increasing order), which
    the caller uses to judge convergence.  Unchecked: its one caller
    passes the fixed, strictly decreasing steps of :data:`_ABEL_RADII`.
    """
    n = len(hs)
    p = list(ys)
    diagonal = [p[0]]
    for m in range(1, n):
        for i in range(n - m):
            denom = hs[i + m] - hs[i]
            p[i] = (hs[i + m] * p[i] - hs[i] * p[i + 1]) / denom
        diagonal.append(p[0])
    return p[0], diagonal


# r = 1 - 2^-j, j = 3 .. 14: the Abel limits have expansions in integer
# powers of 1 - r, and twelve halving steps push the extrapolation error
# below 1e-11 on the whole working range of theta.
_ABEL_RADII: tuple[float, ...] = tuple(1.0 - 0.5 ** j for j in range(3, 15))
# Sensitivity of the divergence detector on the extrapolation diagonal.
_DIVERGENCE_RTOL = 1e-9


def abel_sum_oracle(k: int, theta: float) -> float:
    """Abel-summation oracle for sum_{n>=1} n^k r^n cos(2 n theta), r -> 1-.

    Parameters
    ----------
    k : int
        Power of n; one of 0, 1, 3 (the powers the closed forms cover).
    theta : float
        Half the phase step of the cosine.

    Returns
    -------
    float
        The r -> 1- limit, extrapolated from twelve radii r = 1 - 2^-j,
        j = 3 .. 14.

    Raises
    ------
    DomainError
        If k is not a supported power or theta is not finite.
    ExtrapolationDivergenceError
        If successive extrapolants grow instead of settling, which is
        how a sum with no Abel limit (for example theta = 0 with k >= 1)
        manifests here.
    """
    if not (_is_count(k) and k in (0, 1, 3)):
        raise DomainError(f"supported powers are 0, 1 and 3, got {_quoted(k)}")
    if not _is_finite(theta):
        raise DomainError(f"theta must be finite, got {_quoted(theta)}")
    k = int(k)  # a numpy integer would take the powers through numpy's pow
    hs = [1.0 - r for r in _ABEL_RADII]  # decreasing toward 0
    phase = complex(math.cos(2.0 * theta), math.sin(2.0 * theta))
    zs = [r * phase for r in _ABEL_RADII]
    ys = [_power_series(k, z, 1.0 - z).real for z in zs]

    value, diagonal = _neville(hs, ys)

    deltas = [abs(b - a) for a, b in zip(diagonal, diagonal[1:])]
    scale = 1.0 + abs(diagonal[-1])
    if deltas[-1] > _DIVERGENCE_RTOL * scale and deltas[-1] >= deltas[0]:
        raise ExtrapolationDivergenceError(
            f"extrapolants for k={k}, theta={theta!r} keep growing "
            f"(last step {deltas[-1]:.3e}); the sum has no Abel limit"
        )
    return value


# ---------------------------------------------------------------------------
# Finite-part extraction from an exponentially regulated sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitePartResult:
    """Finite part of a cutoff-regulated sum plus the fitted divergences.

    ``divergent_coeffs`` are ordered from the most divergent power down,
    eps^-(p) ... eps^-1 for p = number of negative-power basis elements;
    ``fit_residual`` is the root mean square of the scaled fit's residuals.
    """

    finite_part: float
    divergent_coeffs: tuple[float, ...]
    fit_residual: float


def _log_spaced(smallest: float, largest: float, count: int) -> tuple[float, ...]:
    """``count`` cutoffs spaced logarithmically, from ``largest`` down to ``smallest``."""
    import numpy as np

    return tuple(float(v) for v in np.geomspace(largest, smallest, count))


# At the small end of the phidot2 mode-sum schedule the regulated sums
# exceed the finite part by ~1e11 (the eps^-4 divergence): 80-bit long
# double (eps 1.1e-19) leaves the fit the digits it needs, a long double
# that is only a double (eps 2.2e-16) does not.
_LONGDOUBLE_EPS_MAX = 1e-18


def _require_long_double() -> None:
    """Raise PrecisionError unless long double is 80-bit or wider."""
    import numpy as np

    ld_eps = float(np.finfo(np.longdouble).eps)
    if not ld_eps <= _LONGDOUBLE_EPS_MAX:
        raise PrecisionError(
            f"long double eps {ld_eps:.3g} exceeds {_LONGDOUBLE_EPS_MAX:g}; "
            "finite-part fits need 80-bit or wider extended precision"
        )


def _householder_factor(design: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Householder QR of ``design``, dtype-preserving: (reflectors, R).

    LAPACK only solves in single or double precision, so extended-
    precision fits (the x86 80-bit long double the oracles accumulate
    in) need their own triangularization.  Straight textbook QR; raises
    when a diagonal of R collapses, which is the rank-deficiency signal.
    ``reflectors`` holds (j, v_j, 2/|v_j|^2) for each column j whose
    reflector is applied, in order, for :func:`_householder_solve`.
    """
    import numpy as np

    a = design.copy()
    m, n = a.shape
    reflectors = []
    for j in range(n):
        x = a[j:, j]
        norm = np.sqrt(np.sum(x * x))
        if norm == 0.0:
            raise IllConditionedFitError("zero column encountered in QR sweep")
        alpha = -norm if x[0] >= 0 else norm
        v = x.copy()
        v[0] -= alpha
        vnorm2 = np.sum(v * v)
        if vnorm2 > 0.0:
            scale = 2.0 / vnorm2
            a[j:, j:] -= np.outer(v, scale * (v @ a[j:, j:]))
            reflectors.append((j, v, scale))
        a[j, j] = alpha
    diag = np.abs(np.diagonal(a)[:n])
    eps_machine = float(np.finfo(a.dtype).eps)
    if np.min(diag) <= m * eps_machine * np.max(diag):
        raise IllConditionedFitError(
            "finite-part design matrix is numerically rank deficient"
        )
    return tuple(reflectors), np.triu(a[:n])


def _householder_solve(factor: tuple[tuple, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Least-squares coefficients for ``rhs`` from a :func:`_householder_factor`.

    Applies the reflectors to ``rhs`` as the factorization applied them
    to the design, then back-substitutes through R.
    """
    import numpy as np

    reflectors, r = factor
    b = rhs.copy()
    for j, v, scale in reflectors:
        b[j:] -= v * (scale * (v @ b[j:]))
    n = r.shape[0]
    coeffs = np.zeros(n, dtype=r.dtype)
    for i in reversed(range(n)):
        coeffs[i] = (b[i] - r[i, i + 1:] @ coeffs[i + 1:]) / r[i, i]
    return coeffs


# Cutoff tuples whose fit is kept factored; verify fits on four.
_FIT_CACHE_SIZE = 16


@lru_cache(maxsize=_FIT_CACHE_SIZE)
def _schedule_fit(eps_values: tuple, degree: int) -> tuple:
    """What a finite-part fit computes from the cutoffs alone, read-only.

    (design, column norms, Householder factor of the column-normalised
    design, eps_max^j for j = 0 .. degree) for the polynomial basis of
    ``degree`` in tau = eps/eps_max.  Every column holds tau = 1 at the
    largest cutoff, so none is zero.  Filled on first use; cutoffs that
    cannot be factored raise on every call, as nothing is cached.
    """
    import numpy as np

    eps = np.asarray(eps_values, dtype=np.longdouble)
    tau = eps / eps.max()
    design = np.vander(tau, degree + 1, increasing=True)
    col_norms = np.sqrt(np.sum(design * design, axis=0))
    reflectors, r = _householder_factor(design / col_norms)
    eps_max_powers = eps.max() ** np.arange(degree + 1)
    for array in (design, col_norms, r, eps_max_powers, *(v for _, v, _ in reflectors)):
        array.flags.writeable = False
    return design, col_norms, (reflectors, r), eps_max_powers


def fit_finite_part(
    cutoffs: tuple[float, ...], data, max_divergent_power: int, tail_degree: int
) -> FinitePartResult:
    """Strip divergent powers from data(eps) and return the constant term.

    ``data`` holds one value per cutoff.  The model is data(eps) =
    sum_{p=1}^{P} c_{-p} eps^-p + c_0 + c_1 eps + ... + c_D eps^D with
    P = ``max_divergent_power`` and D = ``tail_degree``.  Internally
    every row is multiplied by eps^P, turning the problem into an
    ordinary polynomial fit whose dynamic range floating point can
    actually represent; the basis and the minimizing coefficients are
    unchanged in exact arithmetic.  Columns are normalized and the solve
    runs in extended precision, which the constant term needs: its
    column is eps^P-suppressed against the leading divergence, so
    double-precision round-off in the triangularization would feed
    straight into the finite part; a platform without an extended long
    double raises :class:`PrecisionError` instead of returning a
    degraded value.

    Its two callers, :func:`cutoff_sum_oracle` and
    ``oracle.mode_sum_finite_part``, fit on fixed cutoffs, and it trusts
    them: a tuple of positive, strictly decreasing floats, at least
    P + D + 1 of them, with one datum each.  It checks only what is
    computed: non-finite data raise :class:`DomainError`, cutoffs that
    cannot resolve the basis :class:`IllConditionedFitError`.

    The factorization depends on the cutoffs and P + D alone, so it is
    done once per cutoff tuple (:func:`_schedule_fit`); each call replays
    its reflectors on the data, the same operations a one-pass solve does.
    """
    import numpy as np

    _require_long_double()
    y = np.asarray(data, dtype=np.longdouble)
    if not np.isfinite(y).all():
        raise DomainError("finite-part fit needs finite data")

    # Scaled problem: eps^P * data = polynomial of degree P + D in eps,
    # factored once per cutoff tuple; only the data is new on each call.
    design, col_norms, factor, eps_max_powers = _schedule_fit(
        cutoffs, max_divergent_power + tail_degree)
    scaled_y = y * np.asarray(cutoffs, dtype=np.longdouble) ** max_divergent_power
    coeffs_tau = _householder_solve(factor, scaled_y) / col_norms

    residuals = design @ coeffs_tau - scaled_y
    rms = float(np.sqrt(np.mean(residuals**2)))

    # Back to coefficients of eps^j, then split into the contract layout.
    coeffs_eps = coeffs_tau / eps_max_powers
    divergent = tuple(float(c) for c in coeffs_eps[:max_divergent_power])
    finite = float(coeffs_eps[max_divergent_power])
    return FinitePartResult(finite_part=finite, divergent_coeffs=divergent, fit_residual=rms)


def cutoff_sum_oracle(k: int) -> FinitePartResult:
    """Exponential-cutoff oracle for the zeta-regularized power sum.

    Evaluates S(eps) = sum_{n>=1} n^k e^(-eps n) exactly at twelve
    cutoffs from 0.1 down to 0.001, with 1 - e^(-eps) taken through
    expm1, and fits away the divergent basis {eps^-(k+1) ... eps^-1}
    plus a quadratic tail; the constant term of the fit is the finite
    part, which must agree with zeta(-k).  k must be 1 or 3, or
    DomainError before any sum.

    Accuracy degrades steeply with k: the constant hides under a
    k!/eps^(k+1) divergence, costing roughly three digits per extra
    power.  These cutoffs resolve zeta(-1) and zeta(-3) to better than
    1e-7 and no higher power: k = 5 misses zeta(-5) by 0.12 on them and
    reaches ~2e-5 only on twenty cutoffs from 0.5 down to 0.03 with a
    quartic tail.
    """
    if not (_is_count(k) and k in (1, 3)):
        raise DomainError(f"the cutoff oracle resolves the powers 1 and 3 alone on its 12 "
                          f"cutoffs, got {_quoted(k)}")
    k = int(k)  # a numpy integer would take the powers through numpy's pow
    cutoffs = _log_spaced(1e-3, 1e-1, 12)
    values = [_power_series(k, math.exp(-e), -math.expm1(-e)) for e in cutoffs]
    return fit_finite_part(cutoffs, values, k + 1, 2)
