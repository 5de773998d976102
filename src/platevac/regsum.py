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
  (closed form through Eulerian polynomials), then strips the divergent
  powers eps^-(k+1) ... eps^-1 by a least-squares fit and returns the
  constant term.  The small-eps expansion of S has a single divergent
  power k!/eps^(k+1) followed by the constant zeta(-k), so the fitted
  intermediate coefficients are expected to come out near zero.

* ``abel_sum_oracle`` evaluates sum_n n^k r^n cos(2 n theta) in closed
  form below the circle of convergence and extrapolates r -> 1- by
  polynomial (Richardson) extrapolation in h = 1 - r.  The Abel limits
  of the oscillatory sums exist for theta away from 0 and pi and have
  expansions in integer powers of h, which is what makes polynomial
  extrapolation the right accelerator.

All closed-form evaluations are exact rational or elementary-function
expressions; only the oracles involve fits or extrapolation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    ExtrapolationDivergenceError,
    IllConditionedFitError,
    InvalidConfigError,
    PrecisionError,
)

__all__ = [
    "FinitePartResult",
    "EpsilonSchedule",
    "bernoulli",
    "zeta_neg_int",
    "f_theta",
    "trig_sum_n_cos",
    "trig_sum_n3_cos",
    "geometric_power_sum",
    "exp_cutoff_power_sum",
    "abel_sum_oracle",
    "cutoff_sum_oracle",
    "fit_finite_part",
    "extrapolate_to_zero",
    "DEFAULT_ABEL_RADII",
]


# ---------------------------------------------------------------------------
# Exact rational machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n as an exact rational (convention B_1 = -1/2).

    Uses the defining recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0, which
    is exact in rational arithmetic for any n.
    """
    if n < 0:
        raise DomainError(f"Bernoulli index must be non-negative, got {n}")
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
    """
    if k < 0:
        raise DomainError(f"zeta_neg_int expects k >= 0, got {k}")
    value = bernoulli(k + 1) / (k + 1)
    return -value if k % 2 else value


# ---------------------------------------------------------------------------
# Closed forms of the regularized oscillatory sums
# ---------------------------------------------------------------------------

def _require(ok, values, message: str) -> None:
    """DomainError quoting ``values`` unless ``ok``; on arrays, at the first failure."""
    if isinstance(ok, np.ndarray):
        if ok.all():
            return
        values = values[np.argmin(ok)]
    elif ok:
        return
    raise DomainError(message.format(float(values)))


def _check_theta(theta):
    """``theta``, a float or a float64 array, if it lies strictly inside (0, pi).

    The one place an angle is validated: every scalar and array path
    calls it.  DomainError quotes the first angle outside.
    """
    if not isinstance(theta, np.ndarray) and 0.0 < theta < math.pi:
        return theta  # the scalar path, kept to one comparison
    _require((theta > 0.0) & (theta < math.pi), theta,
             "theta must lie strictly between 0 and pi, got {!r}; "
             "the sums diverge on the plate surfaces")
    return theta


def _f_of_sin2(s2):
    """The profile function f as a function of s2 = sin^2(theta).

    Shared by the scalar and the array paths: s2 may be a float or a
    float64 array, and the arithmetic is the same element by element.
    """
    return (3.0 / s2 - 2.0) / s2


def f_theta(theta: float) -> float:
    """Profile function 3/sin^4(theta) - 2/sin^2(theta), minimum 1 at pi/2."""
    _check_theta(theta)
    s = math.sin(theta)
    return _f_of_sin2(s * s)


def trig_sum_n_cos(theta: float) -> float:
    """Regularized value of sum_{n>=1} n cos(2 n theta) = -1/(4 sin^2 theta)."""
    _check_theta(theta)
    s = math.sin(theta)
    return -0.25 / (s * s)


def trig_sum_n3_cos(theta: float) -> float:
    """Regularized value of sum_{n>=1} n^3 cos(2 n theta) = f(theta)/8."""
    return 0.125 * f_theta(theta)


# ---------------------------------------------------------------------------
# Convergent power-geometric sums (shared by both oracles)
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
    """
    poly = 0
    for a in reversed(_eulerian_row(k)):
        poly = poly * x + a
    return x * poly / one_minus_x ** (k + 1)


# The largest power the scalar sums evaluate: every Eulerian number of
# row 171 is a finite double, and row 172 holds one past the double range.
_MAX_SCALAR_POWER = 171


def _scalar_power_series(k: int, x, one_minus_x, what: str, arg):
    """:func:`_power_series` on one number; DomainError unless the value is finite.

    A power above :data:`_MAX_SCALAR_POWER` is refused before any
    Eulerian row is built.  A value past the double range either raises
    inside the arithmetic (a power of 1 - x that underflows to 0) or
    comes out infinite; a NaN argument comes out NaN.  The message is
    ``what.format(k=k, arg=arg)``, formed only on failure.
    """
    if not 0 <= k <= _MAX_SCALAR_POWER:
        raise DomainError(f"power must lie in [0, {_MAX_SCALAR_POWER}], got {k}: above it "
                          "an Eulerian coefficient is past the double range")
    try:
        value = _power_series(k, x, one_minus_x)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(what.format(k=k, arg=arg) + " is not a finite double")
    return value


def geometric_power_sum(k: int, z: complex) -> complex:
    """sum_{n>=1} n^k z^n for |z| < 1, via the Eulerian closed form.

    For k >= 1 the sum equals z P_k(z) / (1-z)^(k+1) with P_k the
    Eulerian polynomial; for k = 0 it is the plain geometric series.
    """
    if abs(z) >= 1.0:
        raise DomainError(f"geometric_power_sum needs |z| < 1, got |z| = {abs(z)}")
    return _scalar_power_series(k, z, 1.0 - z, "sum_n n^{k} z^n at z = {arg!r}", z)


def exp_cutoff_power_sum(k: int, eps: float) -> float:
    """sum_{n>=1} n^k e^(-eps n), exactly, for eps > 0.

    Same closed form as :func:`geometric_power_sum` at z = e^(-eps), but
    with 1 - z computed through expm1 so the result keeps full relative
    accuracy for small eps, where 1 - z underflows catastrophically if
    formed by direct subtraction.
    """
    if eps <= 0.0:
        raise DomainError(f"cutoff eps must be positive, got {eps}")
    return _scalar_power_series(k, math.exp(-eps), -math.expm1(-eps),
                                "sum_n n^{k} e^(-eps n) at eps = {arg!r}", eps)


# ---------------------------------------------------------------------------
# Richardson / Neville extrapolation to h = 0
# ---------------------------------------------------------------------------

def extrapolate_to_zero(hs: list[float], ys: list[float]) -> tuple[float, list[float]]:
    """Neville polynomial extrapolation of (h_i, y_i) to h = 0.

    Nodes must be ordered with h decreasing.  Returns the highest-order
    extrapolant together with the diagonal of the tableau (the sequence
    of estimates of increasing order), which callers use to judge
    convergence.
    """
    if len(hs) != len(ys):
        raise InvalidConfigError("node and value lists must have equal length")
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
DEFAULT_ABEL_RADII: tuple[float, ...] = tuple(1.0 - 0.5 ** j for j in range(3, 15))
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
        The r -> 1- limit, extrapolated from :data:`DEFAULT_ABEL_RADII`.

    Raises
    ------
    DomainError
        If k is not a supported power or theta is not finite.
    ExtrapolationDivergenceError
        If successive extrapolants grow instead of settling, which is
        how a sum with no Abel limit (for example theta = 0 with k >= 1)
        manifests here.
    """
    if k not in (0, 1, 3):
        raise DomainError(f"supported powers are 0, 1 and 3, got {k}")
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    hs = [1.0 - r for r in DEFAULT_ABEL_RADII]  # decreasing toward 0
    phase = complex(math.cos(2.0 * theta), math.sin(2.0 * theta))
    ys = [(geometric_power_sum(k, r * phase)).real for r in DEFAULT_ABEL_RADII]

    value, diagonal = extrapolate_to_zero(hs, ys)

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
    eps^-(p) ... eps^-1 for p = number of negative-power basis elements.
    """

    finite_part: float
    divergent_coeffs: tuple[float, ...]
    fit_residual: float

    def __post_init__(self) -> None:
        if not self.fit_residual >= 0.0:
            raise InvalidConfigError(f"fit residual must be non-negative, got {self.fit_residual!r}")


# The most float64 elements a numpy array can hold: its byte size must fit
# in a signed pointer-sized integer.  Past it numpy's constructors raise
# assorted errors or wrap the size around, so a larger size is refused
# before numpy sees it.
_MAX_FLOATS = np.iinfo(np.intp).max // 8


def _is_count(value) -> bool:
    """Whether ``value`` is a non-negative integer (a bool is not)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class EpsilonSchedule:
    """Cutoff schedule for finite-part fits.

    ``values`` must be positive, finite and strictly decreasing;
    ``fit_basis_degree`` is the highest positive power of eps kept in the
    fit basis.  :func:`fit_finite_part` trusts both.
    """

    values: tuple[float, ...]
    fit_basis_degree: int = 2

    def __post_init__(self) -> None:
        try:
            vals = tuple(float(v) for v in self.values)
        except (TypeError, ValueError) as exc:
            raise InvalidConfigError(f"cutoff values must be a sequence of numbers: {exc}") from None
        object.__setattr__(self, "values", vals)
        if not vals:
            raise InvalidConfigError("epsilon schedule cannot be empty")
        if not all(0.0 < v < math.inf for v in vals):
            raise InvalidConfigError("all cutoff values must be positive and finite")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise InvalidConfigError("cutoff values must decrease strictly")
        if not _is_count(self.fit_basis_degree):
            raise InvalidConfigError(
                f"fit basis degree must be a non-negative integer, got {self.fit_basis_degree!r}"
            )

    @classmethod
    def log_spaced(
        cls,
        smallest: float = 1e-3,
        largest: float = 1e-1,
        count: int = 12,
        fit_basis_degree: int = 2,
    ) -> "EpsilonSchedule":
        """Logarithmically spaced schedule, returned largest-to-smallest."""
        if not 0.0 < smallest < largest < math.inf:
            raise InvalidConfigError(
                f"need 0 < smallest < largest < inf, got {smallest!r} and {largest!r}"
            )
        if count < 1:
            raise InvalidConfigError(f"need at least one cutoff, got {count}")
        too_many = InvalidConfigError(f"{count} cutoffs do not fit in memory")
        if count > _MAX_FLOATS:
            raise too_many
        try:
            grid = np.geomspace(largest, smallest, count)
        except MemoryError as exc:
            raise too_many from exc
        return cls(values=tuple(float(v) for v in grid), fit_basis_degree=fit_basis_degree)


# At the small end of the phidot2 mode-sum schedule the regulated sums
# exceed the finite part by ~1e11 (the eps^-4 divergence): 80-bit long
# double (eps 1.1e-19) leaves the fit the digits it needs, a long double
# that is only a double (eps 2.2e-16) does not.
_LONGDOUBLE_EPS_MAX = 1e-18


def _require_long_double() -> None:
    """Raise PrecisionError unless long double is 80-bit or wider."""
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
    reflectors, r = factor
    b = rhs.copy()
    for j, v, scale in reflectors:
        b[j:] -= v * (scale * (v @ b[j:]))
    n = r.shape[0]
    coeffs = np.zeros(n, dtype=r.dtype)
    for i in reversed(range(n)):
        coeffs[i] = (b[i] - r[i, i + 1:] @ coeffs[i + 1:]) / r[i, i]
    return coeffs


# Schedules whose fit is kept factored; verify fits on four.
_FIT_CACHE_SIZE = 16


@lru_cache(maxsize=_FIT_CACHE_SIZE)
def _schedule_fit(eps_values: tuple, degree: int) -> tuple:
    """What a finite-part fit computes from the schedule alone, read-only.

    (design, column norms, Householder factor of the column-normalised
    design, eps_max^j for j = 0 .. degree) for the polynomial basis of
    ``degree`` in tau = eps/eps_max.  Filled on first use; a schedule
    that cannot be factored raises on every call, as nothing is cached.
    """
    eps = np.asarray(eps_values, dtype=np.longdouble)
    tau = eps / eps.max()
    design = np.vander(tau, degree + 1, increasing=True)
    col_norms = np.sqrt(np.sum(design * design, axis=0))
    if np.any(col_norms == 0.0):
        raise IllConditionedFitError("degenerate column in finite-part fit")
    reflectors, r = _householder_factor(design / col_norms)
    eps_max_powers = eps.max() ** np.arange(degree + 1)
    for array in (design, col_norms, r, eps_max_powers, *(v for _, v, _ in reflectors)):
        array.flags.writeable = False
    return design, col_norms, (reflectors, r), eps_max_powers


def fit_finite_part(
    schedule: EpsilonSchedule, data, max_divergent_power: int
) -> FinitePartResult:
    """Strip divergent powers from data(eps) and return the constant term.

    ``data`` holds one value per cutoff of ``schedule``.  The model is
    data(eps) = sum_{p=1}^{P} c_{-p} eps^-p + c_0 + c_1 eps + ... +
    c_D eps^D with P = ``max_divergent_power`` and D =
    ``schedule.fit_basis_degree``.  Internally every row is multiplied
    by eps^P, turning the problem into an ordinary polynomial fit whose
    dynamic range floating point can actually represent; the basis and the
    minimizing coefficients are unchanged in exact arithmetic.  Columns
    are normalized and the solve runs in extended precision, which the
    constant term needs: its column is eps^P-suppressed against the
    leading divergence, so double-precision round-off in the
    triangularization would feed straight into the finite part; a
    platform without an extended long double raises
    :class:`PrecisionError` instead of returning a degraded value.

    The factorization depends on the schedule and P + D alone, so it is
    done once per schedule (:func:`_schedule_fit`); each call replays its
    reflectors on the data, the same operations a one-pass solve does.
    """
    if not _is_count(max_divergent_power):
        raise InvalidConfigError(
            f"max divergent power must be a non-negative integer, got {max_divergent_power!r}"
        )
    _require_long_double()
    eps = np.asarray(schedule.values, dtype=np.longdouble)
    y = np.asarray(data, dtype=np.longdouble)
    if y.shape != eps.shape:
        raise InvalidConfigError("data must hold one value per cutoff of the schedule")
    if not np.isfinite(y).all():
        raise DomainError("finite-part fit needs finite data")
    degree = max_divergent_power + schedule.fit_basis_degree
    if eps.size <= degree:
        raise InvalidConfigError(
            f"schedule has {eps.size} points but the basis needs {degree + 1}"
        )

    # Scaled problem: eps^P * data = polynomial of degree P + D in eps,
    # factored once per schedule; only the data is new on each call.
    design, col_norms, factor, eps_max_powers = _schedule_fit(schedule.values, degree)
    scaled_y = y * eps ** max_divergent_power
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

    Evaluates S(eps) = sum_{n>=1} n^k e^(-eps n) exactly on the schedule
    and fits away the divergent basis {eps^-(k+1) ... eps^-1}; the
    constant term of the fit is the finite part, which must agree with
    zeta(-k).

    Accuracy degrades steeply with k: the constant hides under a
    k!/eps^(k+1) divergence, costing roughly three digits per extra
    power.  Its schedule resolves zeta(-1) and zeta(-3) to better than
    1e-7; k = 5 reaches ~2e-5 only with a higher, denser schedule such
    as log_spaced(0.03, 0.5, 20, fit_basis_degree=4), through
    :func:`fit_finite_part` directly; beyond that the finite part is
    qualitative only, although the leading divergent coefficient stays
    sharp.
    """
    if k < 1 or k % 2 == 0:
        raise DomainError(f"oracle supports positive odd powers, got {k}")
    schedule = EpsilonSchedule.log_spaced(1e-3, 1e-1, 12, 2)
    values = tuple(exp_cutoff_power_sum(k, e) for e in schedule.values)
    return fit_finite_part(schedule, values, k + 1)
