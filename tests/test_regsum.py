"""Tests for the regularized sums and their numerical oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platevac import regsum
from platevac.cli import RunConfig, run_verification
from platevac.errors import (
    DomainError,
    ExtrapolationDivergenceError,
    IllConditionedFitError,
    InvalidConfigError,
    PrecisionError,
)
from platevac.oracle import _FIELDS, default_schedule
from platevac.regsum import (
    DEFAULT_ABEL_RADII,
    EpsilonSchedule,
    FinitePartResult,
    abel_sum_oracle,
    bernoulli,
    cutoff_sum_oracle,
    f_theta,
    fit_finite_part,
    trig_sum_n3_cos,
    trig_sum_n_cos,
    zeta_neg_int,
)
from platevac.spectrum import BoundaryCondition, PlateConfig

# Classic table values, exact rationals.
BERNOULLI_TABLE = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


class TestBernoulli:
    def test_table(self):
        for n, value in BERNOULLI_TABLE.items():
            assert bernoulli(n) == value

    def test_returns_exact_rationals(self):
        assert isinstance(bernoulli(4), Fraction)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15, 31])
    def test_odd_numbers_vanish(self, n):
        assert bernoulli(n) == 0

    def test_defining_recurrence_holds(self):
        # sum_{j=0}^{n} C(n+1, j) B_j = 0, checked independently of the
        # implementation's own recursion order.
        for n in range(1, 33):
            total = sum(math.comb(n + 1, j) * bernoulli(j) for j in range(n + 1))
            assert total == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestZetaNegInt:
    def test_values(self):
        assert zeta_neg_int(3) == Fraction(1, 120)
        assert zeta_neg_int(1) == Fraction(-1, 12)
        assert zeta_neg_int(0) == Fraction(-1, 2)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_trivial_zeros(self, m):
        assert zeta_neg_int(2 * m) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            zeta_neg_int(-1)


class TestClosedTrigSums:
    def test_f_theta_values(self):
        assert f_theta(math.pi / 2) == pytest.approx(1.0, rel=1e-15)
        assert f_theta(math.pi / 4) == pytest.approx(8.0, rel=1e-14)

    def test_f_theta_reflection(self):
        assert f_theta(math.pi - 0.2) == pytest.approx(f_theta(0.2), rel=1e-12)

    @given(st.floats(min_value=0.05, max_value=math.pi - 0.05))
    @settings(max_examples=100, deadline=None)
    def test_f_theta_at_least_one(self, theta):
        assert f_theta(theta) >= 1.0 - 1e-12

    def test_n_cos_values(self):
        assert trig_sum_n_cos(math.pi / 2) == pytest.approx(-0.25, rel=1e-15)
        assert trig_sum_n_cos(math.pi / 4) == pytest.approx(-0.5, rel=1e-14)

    def test_n3_cos_values(self):
        assert trig_sum_n3_cos(math.pi / 2) == pytest.approx(0.125, rel=1e-15)
        assert trig_sum_n3_cos(math.pi / 4) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("theta", [0.1, 0.3, 0.7, 1.2, 2.0, 2.9])
    def test_mirror_symmetry(self, theta):
        assert trig_sum_n_cos(math.pi - theta) == pytest.approx(trig_sum_n_cos(theta), rel=1e-12)
        assert trig_sum_n3_cos(math.pi - theta) == pytest.approx(trig_sum_n3_cos(theta), rel=1e-12)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -0.5, 4.0])
    def test_domain_errors(self, theta):
        for fn in (f_theta, trig_sum_n_cos, trig_sum_n3_cos):
            with pytest.raises(DomainError):
                fn(theta)

    @pytest.mark.parametrize("theta", [0.3, 0.6, 1.0, 1.5, 2.2, 2.8])
    def test_n_cos_is_derivative_of_cot(self, theta):
        # sum n cos(2n theta) = (1/4) d/d theta cot(theta); central
        # differences of (1/4) cot must land on the closed form.
        h = 1e-5
        derivative = (0.25 / math.tan(theta + h) - 0.25 / math.tan(theta - h)) / (2.0 * h)
        assert derivative == pytest.approx(trig_sum_n_cos(theta), rel=1e-7)


def _brute_force_power_sum(k, z, terms=4000):
    return sum(n**k * z**n for n in range(1, terms + 1))


class TestGeometricPowerSum:
    """``regsum._power_series``, sum_n n^k x^n, as the oracles call it."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("z", [0.5, -0.8, 0.9, 0.3 + 0.6j, -0.2 + 0.85j])
    def test_against_brute_force(self, k, z):
        # the term-by-term sum loses ~6 digits to cancellation for
        # oscillating z at high k, so it bounds the check, not us
        closed = regsum._power_series(k, z, 1.0 - z)
        brute = _brute_force_power_sum(k, z)
        assert closed == pytest.approx(brute, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.7])
    def test_exp_cutoff_matches_geometric(self, k, eps):
        # the cutoff oracle's 1 - e^(-eps) through expm1 against direct subtraction
        x = math.exp(-eps)
        assert regsum._power_series(k, x, -math.expm1(-eps)) == pytest.approx(
            regsum._power_series(k, x, 1.0 - x), rel=1e-10
        )

    def test_power_bound_is_the_last_row_of_doubles(self):
        bound = regsum._MAX_SCALAR_POWER
        assert all(math.isfinite(float(a)) for a in regsum._eulerian_row(bound))
        with pytest.raises(OverflowError):
            [float(a) for a in regsum._eulerian_row(bound + 1)]


class TestAbelOracle:
    def test_alternating_sum(self):
        # k=1 at theta=pi/2 is sum n (-1)^n r^n = -r/(1+r)^2 -> -1/4.
        assert abel_sum_oracle(1, math.pi / 2) == pytest.approx(-0.25, abs=1e-10)

    def test_plain_cosine_sum(self):
        assert abel_sum_oracle(0, 0.7) == pytest.approx(-0.5, abs=1e-10)

    def test_cubic_sum_at_quarter(self):
        assert abel_sum_oracle(3, math.pi / 4) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("k,closed", [(1, trig_sum_n_cos), (3, trig_sum_n3_cos)])
    def test_matches_closed_forms_on_grid(self, k, closed):
        for i in range(1, 31):
            theta = 0.1 * i
            if not 0.0 < theta < math.pi:
                continue
            assert abel_sum_oracle(k, theta) == pytest.approx(closed(theta), abs=1e-8)

    @pytest.mark.parametrize("args,error", [
        ((1, 0.0), ExtrapolationDivergenceError),
        ((3, 0.0), ExtrapolationDivergenceError),
        ((1, math.nan), DomainError),  # rejected before it can extrapolate a NaN
        ((1, math.inf), DomainError),
    ])
    def test_divergence_detected(self, args, error):
        with pytest.raises(error):
            abel_sum_oracle(*args)

    def test_unsupported_power(self):
        with pytest.raises(ValueError):
            abel_sum_oracle(2, 1.0)

    def test_default_radii_shape(self):
        assert len(DEFAULT_ABEL_RADII) == 12
        assert all(0.0 < r < 1.0 for r in DEFAULT_ABEL_RADII)
        assert list(DEFAULT_ABEL_RADII) == sorted(DEFAULT_ABEL_RADII)


class TestEpsilonSchedule:
    def test_log_spaced_is_decreasing(self):
        sched = EpsilonSchedule.log_spaced()
        assert len(sched.values) == 12
        assert all(b < a for a, b in zip(sched.values, sched.values[1:]))
        assert sched.values[0] == pytest.approx(1e-1)
        assert sched.values[-1] == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            EpsilonSchedule(values=())
        with pytest.raises(InvalidConfigError):
            EpsilonSchedule(values=(0.1, 0.2))  # increasing
        with pytest.raises(InvalidConfigError):
            EpsilonSchedule(values=(0.1, -0.01))
        with pytest.raises(InvalidConfigError):
            EpsilonSchedule(values=(0.1, 0.01), fit_basis_degree=-1)
        for values in [(math.nan,), (math.inf, 1.0), (1.0, math.nan), (-math.inf,),
                       # a fit on these cutoffs once returned finite_part=1.0
                       (0.3, 0.2, 0.1, 0.0, -0.1, -0.2, -0.3, -0.4)]:
            with pytest.raises(InvalidConfigError):
                EpsilonSchedule(values=values)

    @pytest.mark.parametrize("eps", [np.full((2, 8), 0.1), 0.1, ("0.1", "x")])
    def test_values_must_be_one_dimensional(self, eps):
        with pytest.raises(InvalidConfigError):
            EpsilonSchedule(values=eps)

    @pytest.mark.parametrize("args", [(0.5, 0.1), (0.0, 0.1), (1e-3, math.inf),
                                      (math.nan, 0.1), (1e-3, 0.1, 0), (1e-3, 0.1, -3)])
    def test_log_spaced_validation(self, args):
        with pytest.raises(InvalidConfigError):
            EpsilonSchedule.log_spaced(*args)

    def test_finite_part_result_validation(self):
        with pytest.raises(ValueError):
            FinitePartResult(finite_part=0.0, divergent_coeffs=(), fit_residual=-1.0)


def _cutoff_sums(k, schedule):
    """S(eps) = sum_n n^k e^(-eps n) at every cutoff of ``schedule``, as the cutoff oracle sums it."""
    return [regsum._power_series(k, math.exp(-e), -math.expm1(-e)) for e in schedule.values]


class TestCutoffOracle:
    def test_k1_finite_part(self):
        result = cutoff_sum_oracle(1)
        assert result.finite_part == pytest.approx(-1.0 / 12.0, abs=1e-6)
        assert len(result.divergent_coeffs) == 2
        # leading divergence is 1/eps^2
        assert result.divergent_coeffs[0] == pytest.approx(1.0, abs=1e-6)

    def test_k3_finite_part(self):
        result = cutoff_sum_oracle(3)
        assert result.finite_part == pytest.approx(1.0 / 120.0, abs=1e-6)
        assert len(result.divergent_coeffs) == 4
        # leading divergence is 6/eps^4
        assert result.divergent_coeffs[0] == pytest.approx(6.0, abs=1e-5)
        # intermediate powers are absent from the true expansion
        assert abs(result.divergent_coeffs[1]) < 1e-6
        assert abs(result.divergent_coeffs[2]) < 1e-6

    def test_coarse_schedule_degrades_gracefully(self):
        coarse = EpsilonSchedule.log_spaced(0.5, 0.9, 12, fit_basis_degree=4)
        default = cutoff_sum_oracle(3)
        degraded = fit_finite_part(coarse, _cutoff_sums(3, coarse), 4)
        assert degraded.finite_part == pytest.approx(1.0 / 120.0, abs=1e-3)
        assert degraded.fit_residual > default.fit_residual

    def test_agrees_with_zeta(self):
        for k in (1, 3):
            assert cutoff_sum_oracle(k).finite_part == pytest.approx(
                float(zeta_neg_int(k)), abs=1e-6
            )

    def test_larger_odd_power(self):
        # k = 5 needs a higher, denser schedule; accuracy drops with each
        # added divergent power but zeta(-5) is still clearly resolved
        schedule = EpsilonSchedule.log_spaced(0.03, 0.5, 20, fit_basis_degree=4)
        result = fit_finite_part(schedule, _cutoff_sums(5, schedule), 6)
        assert result.finite_part == pytest.approx(float(zeta_neg_int(5)), abs=1e-4)
        assert result.divergent_coeffs[0] == pytest.approx(math.factorial(5), rel=1e-8)

    @pytest.mark.parametrize("k", [0, 2, 4, -1])
    def test_even_or_nonpositive_rejected(self, k):
        with pytest.raises(ValueError):
            cutoff_sum_oracle(k)

    def test_power_bound_is_the_last_the_schedule_fits(self):
        bound = regsum._MAX_CUTOFF_POWER
        assert math.isfinite(cutoff_sum_oracle(bound).finite_part)
        schedule = EpsilonSchedule.log_spaced(1e-3, 1e-1, 12, 2)
        with pytest.raises(InvalidConfigError, match="basis needs 13"):
            fit_finite_part(schedule, _cutoff_sums(bound + 2, schedule), bound + 3)

    def test_too_few_points(self):
        schedule = EpsilonSchedule(values=(0.1, 0.05, 0.01))
        with pytest.raises(InvalidConfigError):
            fit_finite_part(schedule, _cutoff_sums(3, schedule), 4)

    def test_short_long_double_raises(self, monkeypatch):
        # a platform whose long double is a plain double
        real_finfo = np.finfo
        monkeypatch.setattr(
            np, "finfo",
            lambda dtype: real_finfo(np.float64) if dtype is np.longdouble else real_finfo(dtype),
        )
        with pytest.raises(PrecisionError):
            cutoff_sum_oracle(3)

    def test_rank_deficient_fit_raises(self):
        # near-coincident cutoffs collapse the design matrix
        eps = (1e-2, 1e-2 * (1 - 1e-15), 1e-2 * (1 - 2e-15), 1e-2 * (1 - 3e-15),
               1e-2 * (1 - 4e-15), 1e-2 * (1 - 5e-15), 1e-2 * (1 - 6e-15),
               1e-2 * (1 - 7e-15))
        schedule = EpsilonSchedule(eps)
        data = _cutoff_sums(1, schedule)
        # on every call: a failed factorization leaves nothing in the cache
        regsum._schedule_fit.cache_clear()
        for _ in range(3):
            with pytest.raises(IllConditionedFitError):
                fit_finite_part(schedule, data, 2)
        assert regsum._schedule_fit.cache_info().currsize == 0


def _one_pass_lstsq(design, rhs):
    """Householder least squares in one sweep over design and data together:
    the reference that factor-then-solve must match bit for bit."""
    a = design.copy()
    b = rhs.copy()
    m, n = a.shape
    for j in range(n):
        x = a[j:, j]
        norm = np.sqrt(np.sum(x * x))
        alpha = -norm if x[0] >= 0 else norm
        v = x.copy()
        v[0] -= alpha
        vnorm2 = np.sum(v * v)
        if vnorm2 > 0.0:
            a[j:, j:] -= np.outer(v, (2.0 / vnorm2) * (v @ a[j:, j:]))
            b[j:] -= v * ((2.0 / vnorm2) * (v @ b[j:]))
        a[j, j] = alpha
    coeffs = np.zeros(n, dtype=a.dtype)
    for i in reversed(range(n)):
        coeffs[i] = (b[i] - a[i, i + 1:] @ coeffs[i + 1:]) / a[i, i]
    return coeffs


def _uncached_fit(eps_values, data, max_divergent_power, fit_basis_degree):
    """fit_finite_part with nothing cached: the design is built and swept
    together with the data on every call."""
    eps = np.asarray(eps_values, dtype=np.longdouble)
    y = np.asarray(data, dtype=np.longdouble)
    tau = eps / eps.max()
    degree = max_divergent_power + fit_basis_degree
    design = np.vander(tau, degree + 1, increasing=True)
    scaled_y = y * eps ** max_divergent_power
    col_norms = np.sqrt(np.sum(design * design, axis=0))
    coeffs_tau = _one_pass_lstsq(design / col_norms, scaled_y) / col_norms
    residuals = design @ coeffs_tau - scaled_y
    rms = float(np.sqrt(np.mean(residuals**2)))
    coeffs_eps = coeffs_tau / eps.max() ** np.arange(degree + 1)
    return FinitePartResult(finite_part=float(coeffs_eps[max_divergent_power]),
                            divergent_coeffs=tuple(float(c) for c in coeffs_eps[:max_divergent_power]),
                            fit_residual=rms)


def _bits(result: FinitePartResult) -> list[str]:
    return [float(v).hex() for v in (result.finite_part, *result.divergent_coeffs, result.fit_residual)]


def _fit_cases():
    for field, row in _FIELDS.items():
        for L in (1e-3, 1.0, 1e3):
            yield f"{field}-L{L:g}", default_schedule(field, PlateConfig(L)), row.divergent_powers
    for k in (1, 3):  # the cutoff oracle's degrees 4 and 6
        yield f"cutoff-k{k}", EpsilonSchedule.log_spaced(), k + 1


FIT_CASES = {name: (schedule, power) for name, schedule, power in _fit_cases()}


class TestFactoredFit:
    """fit_finite_part factors each schedule once; the data's arithmetic is unchanged."""

    @pytest.mark.parametrize("schedule, power", FIT_CASES.values(), ids=FIT_CASES)
    def test_bit_identical_to_uncached_fit(self, schedule, power):
        rng = np.random.default_rng(power + len(schedule.values))
        eps = np.asarray(schedule.values)
        regsum._schedule_fit.cache_clear()
        for draw in range(3):  # the first call fills the cache, the others hit it
            # a leading eps^-P divergence over an O(1) remainder, as in the oracles
            data = tuple(rng.standard_normal() / eps ** power + rng.standard_normal(eps.size))
            expected = _uncached_fit(schedule.values, data, power, schedule.fit_basis_degree)
            fitted = fit_finite_part(schedule, data, power)
            assert _bits(fitted) == _bits(expected)
        assert regsum._schedule_fit.cache_info().misses == 1

    def test_lstsq_is_factor_then_solve(self):
        rng = np.random.default_rng(7)
        design = rng.standard_normal((12, 6)).astype(np.longdouble)
        rhs = rng.standard_normal(12).astype(np.longdouble)
        factored = regsum._householder_solve(regsum._householder_factor(design), rhs)
        assert factored.tobytes() == _one_pass_lstsq(design, rhs).tobytes()

    def test_cached_arrays_are_read_only(self):
        schedule = EpsilonSchedule.log_spaced()
        design, col_norms, (reflectors, r), eps_max_powers = regsum._schedule_fit(schedule.values, 4)
        arrays = [design, col_norms, r, eps_max_powers, *(v for _, v, _ in reflectors)]
        assert len(reflectors) == 5
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_cache_is_bounded(self):
        regsum._schedule_fit.cache_clear()
        for count in range(8, 8 + 2 * regsum._FIT_CACHE_SIZE):
            schedule = EpsilonSchedule.log_spaced(count=count)
            fit_finite_part(schedule, (1.0,) * count, 1)
        info = regsum._schedule_fit.cache_info()
        assert info.maxsize == regsum._FIT_CACHE_SIZE
        assert info.currsize == info.maxsize

    def test_verify_factors_four_schedules(self):
        # 22 fits: two cutoff-oracle schedules, and the phi2 and phidot2 schedules
        regsum._schedule_fit.cache_clear()
        run_verification(RunConfig(bc=BoundaryCondition.DIRICHLET, L=0.77))
        info = regsum._schedule_fit.cache_info()
        assert (info.misses, info.hits) == (4, 18)

    def test_sequence_types_share_a_factor(self):
        # a schedule holds its cutoffs as a tuple of floats, whatever it was given
        schedule = EpsilonSchedule.log_spaced()
        data = _cutoff_sums(1, schedule)
        regsum._schedule_fit.cache_clear()
        as_tuple = fit_finite_part(schedule, data, 2)
        for eps in (list(schedule.values), np.asarray(schedule.values)):
            assert _bits(fit_finite_part(EpsilonSchedule(eps), data, 2)) == _bits(as_tuple)
        assert regsum._schedule_fit.cache_info().misses == 1
