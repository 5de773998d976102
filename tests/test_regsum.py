"""Tests for the regularized sums, the power series and the circle fit."""

import cmath
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platevac import regsum
from platevac.errors import DomainError
from platevac.regsum import bernoulli, fit_finite_part, zeta_neg_int

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


class TestEulerianRow:
    """``regsum._eulerian_row``, the coefficients of P_k in sum_n n^k x^n = x P_k(x)/(1-x)^(k+1)."""

    @pytest.mark.parametrize("k", range(9))
    def test_counts_the_permutations_by_descents(self, k):
        # A(k, m) permutations of k elements have m descents: the row sums
        # to k!, reads the same backwards, and has max(k, 1) entries
        row = regsum._eulerian_row(k)
        assert len(row) == max(k, 1)
        assert sum(row) == math.factorial(k)
        assert row == row[::-1]
        assert row[0] == 1 and all(type(a) is int and a > 0 for a in row)


def _brute_force_power_sum(k, z, terms=4000):
    return sum(n**k * z**n for n in range(1, terms + 1))


class TestGeometricPowerSum:
    """``regsum._power_series``, sum_n n^k x^n, as the mode-sum oracle calls it."""

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
        # 1 - e^(-eps) through expm1 against direct subtraction
        x = math.exp(-eps)
        assert regsum._power_series(k, x, -math.expm1(-eps)) == pytest.approx(
            regsum._power_series(k, x, 1.0 - x), rel=1e-10
        )

    def test_power_bound_is_the_last_row_of_doubles(self):
        bound = regsum._MAX_SCALAR_POWER
        assert all(math.isfinite(float(a)) for a in regsum._eulerian_row(bound))
        with pytest.raises(OverflowError):
            [float(a) for a in regsum._eulerian_row(bound + 1)]


def _abel_limit(k, theta):
    """sum_n n^k e^(2 i n theta), the Abel limit of ``regsum._power_series`` on |x| = 1.

    1 - e^(2 i theta) is taken through the complex expm1, as the mode-sum
    oracle takes it, so that it keeps its digits near either plate.
    """
    v = 2j * theta
    return regsum._power_series(k, cmath.exp(v), -regsum._expm1(v))


GRID = [0.1, 0.3, 0.7, 1.2, 1.5, 2.0, 2.5, 2.9]


class TestAbelLimitOnTheUnitCircle:
    """The real parts are the regularized sums sum_n n^k cos(2 n theta) of the profiles."""

    @pytest.mark.parametrize("k, theta, value", [
        (1, math.pi / 2, -0.25), (1, math.pi / 4, -0.5),
        (3, math.pi / 2, 0.125), (3, math.pi / 4, 1.0),
    ])
    def test_values(self, k, theta, value):
        assert _abel_limit(k, theta).real == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("theta", GRID)
    def test_n_cos_is_minus_a_quarter_cosecant_squared(self, theta):
        # the sum phi2 reads: sum n cos(2 n theta) = -1/(4 sin^2 theta)
        closed = -0.25 / math.sin(theta) ** 2
        assert _abel_limit(1, theta).real == pytest.approx(closed, rel=1e-14)

    @pytest.mark.parametrize("theta", GRID)
    def test_n3_cos_is_the_profile_function_over_eight(self, theta):
        # the sum B reads: sum n^3 cos(2 n theta) = f(theta)/8
        closed = regsum._f_of_sin2(math.sin(theta) ** 2) / 8.0
        assert _abel_limit(3, theta).real == pytest.approx(closed, rel=1e-14)

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("theta", [0.3, 1.2, 2.5])
    def test_even_powers(self, k, theta):
        # sum cos(2 n theta) = -1/2 = zeta(0), sum n^2 cos(2 n theta) = 0 = zeta(-2)
        assert _abel_limit(k, theta).real == pytest.approx(float(zeta_neg_int(k)), abs=1e-14)

    @pytest.mark.parametrize("theta", GRID)
    def test_mirror_symmetry(self, theta):
        for k in (1, 3):
            assert _abel_limit(k, math.pi - theta).real == pytest.approx(
                _abel_limit(k, theta).real, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 0.6, 1.0, 1.5, 2.2, 2.8])
    def test_n_cos_is_derivative_of_cot(self, theta):
        # sum n cos(2n theta) = (1/4) d/d theta cot(theta); central
        # differences of (1/4) cot must land on the Abel limit
        h = 1e-5
        derivative = (0.25 / math.tan(theta + h) - 0.25 / math.tan(theta - h)) / (2.0 * h)
        assert derivative == pytest.approx(_abel_limit(1, theta).real, rel=1e-7)

    @pytest.mark.parametrize("k", [1, 3])
    def test_keeps_its_digits_near_either_plate(self, k):
        # the grid, then down to either plate: the limit loses nothing to
        # the divergence, within 1e-14 relative wherever the closed form
        # and |1 - x|^(k+1) = (2 sin theta)^(k+1) are finite and nonzero doubles
        near = [10.0 ** -j for j in range(1, 151)]
        thetas = ([0.1 * i for i in range(1, 32)] + near
                  + [math.pi - t for t in near if math.pi - t != math.pi])
        checked = 0
        for theta in thetas:
            s2 = math.sin(theta) ** 2
            closed = -0.25 / s2 if k == 1 else regsum._f_of_sin2(s2) / 8.0
            if not math.isfinite(closed) or (2.0 * math.sin(theta)) ** (k + 1) == 0.0:
                continue
            assert abs(_abel_limit(k, theta).real - closed) <= 1e-14 * max(1.0, abs(closed))
            checked += 1
        assert checked >= 120


class TestProfileFunction:
    """``regsum._f_of_sin2``, f = 3/sin^4 theta - 2/sin^2 theta, and ``_check_theta``."""

    @pytest.mark.parametrize("theta, value", [(math.pi / 2, 1.0), (math.pi / 4, 8.0),
                                              (math.pi / 6, 40.0)])
    def test_values(self, theta, value):
        assert regsum._f_of_sin2(math.sin(theta) ** 2) == pytest.approx(value, rel=1e-14)

    def test_reflection(self):
        f = regsum._f_of_sin2
        assert f(math.sin(math.pi - 0.2) ** 2) == pytest.approx(f(math.sin(0.2) ** 2), rel=1e-12)

    @given(st.floats(min_value=0.05, max_value=math.pi - 0.05))
    @settings(max_examples=100, deadline=None)
    def test_at_least_one(self, theta):
        assert regsum._f_of_sin2(math.sin(theta) ** 2) >= 1.0 - 1e-12

    def test_array_is_the_scalar_element_by_element(self):
        s2 = np.sin(np.array(GRID)) ** 2
        values = regsum._f_of_sin2(s2)
        assert values.dtype == np.float64
        assert values.tolist() == [regsum._f_of_sin2(float(x)) for x in s2]

    @pytest.mark.parametrize("theta", [1e-300, 0.3, math.pi / 2, math.pi - 1e-12])
    def test_an_inside_angle_is_returned_as_it_is(self, theta):
        assert regsum._check_theta(theta) is theta
        array = np.array([theta, 1.0])
        assert regsum._check_theta(array) is array

    @pytest.mark.parametrize("theta", [0.0, -0.0, math.pi, -0.5, 4.0, math.nan, math.inf,
                                       -math.inf])
    def test_an_angle_outside_raises(self, theta):
        with pytest.raises(DomainError, match="strictly between 0 and pi"):
            regsum._check_theta(theta)

    @pytest.mark.parametrize("theta", [0.0, -0.0, math.pi, -0.5, 4.0, math.nan, math.inf,
                                       -math.inf])
    def test_an_array_quotes_its_first_angle_outside(self, theta):
        with pytest.raises(DomainError, match=re.escape(f"got {theta!r};")):
            regsum._check_theta(np.array([0.3, theta, 1.0, 0.0]))


def _cutoff_sums(k):
    """eps -> S(eps) = sum_n n^k e^(-eps n), with 1 - e^(-eps) through the complex expm1."""
    return lambda eps: regsum._power_series(k, cmath.exp(-eps), -regsum._expm1(-eps))


class TestComplexExpm1:
    @pytest.mark.parametrize("z", [0.3 - 0.2j, -2.5 + 3.0j, 1e-9 + 2e-9j, -1e-300j, 1e-12 + 0.5j,
                                   -3.0, 700.0 - 1.0j])
    def test_same_bits_as_numpy(self, z):
        # numpy's complex expm1 is the same formula on the same libm calls
        assert regsum._expm1(complex(z)) == complex(np.expm1(np.complex128(z)))

    @pytest.mark.parametrize("y", [1e-3, 1e-8, 1e-15])
    def test_keeps_its_digits_near_zero(self, y):
        # e^(iy) - 1 = -2 sin^2(y/2) + i sin y; cmath.exp(z) - 1 loses the real part
        value = regsum._expm1(complex(0.0, y))
        assert value.real == pytest.approx(-0.5 * y * y * (1.0 - y * y / 12.0), rel=1e-15)
        assert value.imag == math.sin(y)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            regsum._expm1(complex(710.0, 0.5))


def _cutoff_fit(k):
    """The fit of sum_n n^k e^(-eps n) on the circle |eps| = pi, half way to the next pole."""
    return fit_finite_part(_cutoff_sums(k), math.pi, k + 1)


class TestCutoffSums:
    """fit_finite_part on sum_n n^k e^(-eps n), whose finite part is zeta(-k)."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_finite_part_is_zeta(self, k):
        # to a few 1e-16 absolute; zeta(-1) is -1/12, zeta(-3) 1/120
        assert abs(_cutoff_fit(k).finite_part - float(zeta_neg_int(k))) <= 2e-15

    @pytest.mark.parametrize("k", [1, 3])
    def test_divergent_coefficients(self, k):
        # S(eps) = k!/eps^(k+1) + zeta(-k) + O(eps): the intermediate powers are absent
        result = _cutoff_fit(k)
        assert len(result.divergent_coeffs) == k + 1
        assert abs(result.divergent_coeffs[0] - math.factorial(k)) <= 1e-12
        assert all(abs(c) <= 1e-12 for c in result.divergent_coeffs[1:])

    @pytest.mark.parametrize("k", [1, 3])
    def test_error_estimate_bounds_the_error(self, k):
        # and by no more than the round-off of the sums on the circle, a few 1e-16
        result = _cutoff_fit(k)
        assert abs(result.finite_part - float(zeta_neg_int(k))) <= result.error_estimate <= 2e-15

    def test_larger_odd_power(self):
        # the circle |eps| = pi resolves zeta(-5) too
        result = fit_finite_part(_cutoff_sums(5), math.pi, 6)
        assert result.finite_part == pytest.approx(float(zeta_neg_int(5)), abs=1e-13)
        assert result.divergent_coeffs[0] == pytest.approx(math.factorial(5), rel=1e-11)

    @pytest.mark.parametrize("fraction, bound", [(0.5, 1e-14), (0.75, 1e-5), (0.9, 1.0)])
    def test_accuracy_falls_as_the_circle_nears_the_next_pole(self, fraction, bound):
        # the next poles are at eps = +-2 pi i: the rule's error grows as
        # (radius/2 pi)^N, and the error estimate grows with it
        result = fit_finite_part(_cutoff_sums(3), fraction * 2.0 * math.pi, 4)
        error = abs(result.finite_part - 1.0 / 120.0)
        assert error <= bound <= 1e3 * result.error_estimate
        if fraction <= 0.75:
            # d^2/M takes the rule to converge as fast from N/2 to N nodes as
            # up to N/2, which fails only this close to the pole
            assert error <= result.error_estimate


def _laurent_model(power, radius):
    """eps -> sum_p (P - p + 1) (eps/r)^-p + 0.3 + (eps/r)/(2 - eps/r), r = ``radius``.

    Its constant term is 0.3, its eps^-p coefficient (P - p + 1) r^p, and
    the tail's pole at eps = 2 r lies as far out as the callers' nearest
    other singularity.
    """
    def regulated(eps):
        x = eps / radius
        return sum((power - p + 1) * x ** -p for p in range(1, power + 1)) + 0.3 + x / (2.0 - x)

    return regulated


class TestFitContract:
    """fit_finite_part on a known Laurent series, and what it returns."""

    @pytest.mark.parametrize("radius", [1e-70, 1.0, 1e70])
    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_recovers_the_model(self, power, radius):
        result = fit_finite_part(_laurent_model(power, radius), radius, power)
        assert result.finite_part == pytest.approx(0.3, abs=1e-15)
        expected = [(power - p + 1) * radius ** p for p in range(power, 0, -1)]
        assert result.divergent_coeffs == pytest.approx(expected, rel=1e-15)
        # the rule on 32 nodes misses by (1/2)^32 of the tail, so the one on 64
        # by (1/2)^64: the estimate is the round-off on the circle alone, and
        # it bounds the error
        assert abs(result.finite_part - 0.3) <= result.error_estimate <= 1e-14

    def test_error_estimate_where_both_rules_agree_to_the_bit(self):
        # a constant: the 64-node and 32-node means agree exactly, so the
        # estimate is the round-off on the circle alone, epsilon times |S|
        result = fit_finite_part(lambda eps: 2.5 + 0j, 1.0, 0)
        assert (result.finite_part, result.divergent_coeffs) == (2.5, ())
        assert result.error_estimate == sys.float_info.epsilon * 2.5

    def test_returns_plain_floats(self):
        result = fit_finite_part(_laurent_model(2, 1.0), 1.0, 2)
        values = (result.finite_part, result.error_estimate, *result.divergent_coeffs)
        assert all(type(v) is float for v in values)

    def test_thirty_three_nodes_on_the_upper_half_circle(self):
        # of the 64 nodes, the ones with Im eps >= 0, each once, as Python complex numbers
        seen = []

        def regulated(eps):
            seen.append(eps)
            return 1.0 / eps

        fit_finite_part(regulated, 0.25, 1)
        assert len(seen) == 33 and all(type(eps) is complex for eps in seen)
        assert [abs(eps) for eps in seen] == pytest.approx([0.25] * 33, rel=1e-15)
        assert all(eps.imag >= 0.0 for eps in seen)
        assert [cmath.phase(eps) for eps in seen] == pytest.approx(
            [math.pi * k / 32 for k in range(33)], rel=1e-15)
        assert seen[0] == 0.25 and seen[16] == pytest.approx(0.25j, abs=1e-16)

    @pytest.mark.parametrize("k", [1, 3])
    def test_the_mirror_is_the_whole_circle(self, k):
        # the conjugates stand in for the lower half: the 64-node rule on
        # the whole circle, summed directly, gives the same coefficients
        values = [_cutoff_sums(k)(math.pi * cmath.exp(2j * math.pi * j / 64)) for j in range(64)]
        result = _cutoff_fit(k)
        assert result.finite_part == pytest.approx(math.fsum(v.real for v in values) / 64,
                                                   abs=1e-16)
        for p, c in zip(range(k + 1, 0, -1), result.divergent_coeffs):
            direct = math.pi ** p * math.fsum(
                (v * cmath.exp(2j * math.pi * j * p / 64)).real for j, v in enumerate(values)) / 64
            assert c == pytest.approx(direct, abs=1e-14)

    @pytest.mark.parametrize("radius", [1e-100, 1e-300])
    def test_sums_that_overflow_on_the_circle_raise(self, radius):
        # (1 - e^-eps)^4 underflows to 0 (ZeroDivisionError), or 6/eps^4 overflows
        with pytest.raises(DomainError, match="finite data"):
            fit_finite_part(_cutoff_sums(3), radius, 4)

    @pytest.mark.parametrize("fails", [ZeroDivisionError, OverflowError])
    def test_arithmetic_errors_become_domain_errors(self, fails):
        def regulated(eps):
            raise fails("on the circle")

        with pytest.raises(DomainError, match="finite data"):
            fit_finite_part(regulated, 1.0, 2)

    def test_divergent_coefficient_past_the_double_range_raises(self):
        # radius^p overflows though every sum on the circle is finite
        with pytest.raises(DomainError, match="finite data"):
            fit_finite_part(lambda eps: 1.0 + eps / 1e200, 1e200, 2)
