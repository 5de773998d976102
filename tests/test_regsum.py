"""Tests for the regularized sums and their numerical oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platevac import regsum
from platevac.errors import (
    DomainError,
    ExtrapolationDivergenceError,
    IllConditionedFitError,
    InvalidConfigError,
    PrecisionError,
)
from platevac.regsum import (
    DEFAULT_ABEL_RADII,
    EpsilonSchedule,
    FinitePartResult,
    abel_sum_oracle,
    bernoulli,
    cutoff_sum_oracle,
    exp_cutoff_power_sum,
    f_theta,
    fit_finite_part,
    geometric_power_sum,
    trig_sum_n3_cos,
    trig_sum_n_cos,
    zeta_neg_int,
)

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
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("z", [0.5, -0.8, 0.9, 0.3 + 0.6j, -0.2 + 0.85j])
    def test_against_brute_force(self, k, z):
        # the term-by-term sum loses ~6 digits to cancellation for
        # oscillating z at high k, so it bounds the check, not us
        closed = geometric_power_sum(k, z)
        brute = _brute_force_power_sum(k, z)
        assert closed == pytest.approx(brute, rel=1e-9)

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            geometric_power_sum(1, 1.0)
        with pytest.raises(DomainError):
            geometric_power_sum(2, 1.2j)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            geometric_power_sum(-1, 0.5)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.7])
    def test_exp_cutoff_matches_geometric(self, k, eps):
        assert exp_cutoff_power_sum(k, eps) == pytest.approx(
            geometric_power_sum(k, math.exp(-eps)).real, rel=1e-10
        )

    def test_exp_cutoff_needs_positive_eps(self):
        with pytest.raises(DomainError):
            exp_cutoff_power_sum(3, 0.0)

    def test_power_bound_is_the_last_row_of_doubles(self):
        bound = regsum._MAX_SCALAR_POWER
        assert all(math.isfinite(float(a)) for a in regsum._eulerian_row(bound))
        with pytest.raises(OverflowError):
            [float(a) for a in regsum._eulerian_row(bound + 1)]
        assert exp_cutoff_power_sum(bound, 100.0) > 0.0
        with pytest.raises(DomainError, match=r"power must lie in \[0, 171\]"):
            exp_cutoff_power_sum(bound + 1, 100.0)


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

    @pytest.mark.parametrize("args", [(0.5, 0.1), (0.0, 0.1), (1e-3, math.inf),
                                      (math.nan, 0.1), (1e-3, 0.1, 0), (1e-3, 0.1, -3)])
    def test_log_spaced_validation(self, args):
        with pytest.raises(InvalidConfigError):
            EpsilonSchedule.log_spaced(*args)

    def test_finite_part_result_validation(self):
        with pytest.raises(ValueError):
            FinitePartResult(finite_part=0.0, divergent_coeffs=(), fit_residual=-1.0)


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
        degraded = cutoff_sum_oracle(3, coarse)
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
        result = cutoff_sum_oracle(5, schedule)
        assert result.finite_part == pytest.approx(float(zeta_neg_int(5)), abs=1e-4)
        assert result.divergent_coeffs[0] == pytest.approx(math.factorial(5), rel=1e-8)

    @pytest.mark.parametrize("k", [0, 2, 4, -1])
    def test_even_or_nonpositive_rejected(self, k):
        with pytest.raises(ValueError):
            cutoff_sum_oracle(k)

    def test_too_few_points(self):
        with pytest.raises(InvalidConfigError):
            cutoff_sum_oracle(3, EpsilonSchedule(values=(0.1, 0.05, 0.01)))

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
        data = tuple(exp_cutoff_power_sum(1, e) for e in eps)
        with pytest.raises(IllConditionedFitError):
            fit_finite_part(eps, data, 2, 2)
