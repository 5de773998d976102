"""Tests for the regularized sums and their numerical oracles."""

import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platevac import regsum
from platevac.errors import DomainError
from platevac.regsum import (
    abel_sum_oracle,
    bernoulli,
    cutoff_sum_oracle,
    f_theta,
    fit_finite_part,
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

    def test_cubic_sum_at_quarter(self):
        assert abel_sum_oracle(3, math.pi / 4) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("k,closed", [(1, trig_sum_n_cos), (3, trig_sum_n3_cos)])
    def test_matches_closed_forms_on_grid(self, k, closed):
        # verify's grid, then down to either plate: the boundary value loses
        # nothing to the divergence, within 1e-14 relative wherever the
        # closed form is a finite double
        near = [10.0 ** -j for j in range(1, 151)]
        thetas = ([0.1 * i for i in range(1, 31)] + near
                  + [math.pi - t for t in near if math.pi - t != math.pi])
        checked = 0
        for theta in thetas:
            try:
                expected = closed(theta)
            except DomainError:
                continue
            assert abs(abel_sum_oracle(k, theta) - expected) <= 1e-14 * max(1.0, abs(expected))
            checked += 1
        assert checked >= 90

    @pytest.mark.parametrize("k,theta", [
        # sin^2 theta below the smallest normal double, the plate itself
        # included, where the sum has no Abel limit
        *((k, theta) for k in (1, 3) for theta in (0.0, -0.0, 1e-160, 1e-200, 5e-324)),
        (3, 1e-100),  # sin^2 theta is a normal double, but (1 - x)^4 underflows to 0
        (1, math.nan), (1, math.inf), (1, -math.inf),
    ])
    def test_divergence_detected(self, k, theta):
        with pytest.raises(DomainError):
            abel_sum_oracle(k, theta)

    @pytest.mark.parametrize("k", [0, 2, 4, -1, np.int64(0), np.int64(2)],
                             ids=["0", "2", "4", "-1", "int64-0", "int64-2"])
    def test_unsupported_power(self, k):
        # the closed forms cover k = 1 and 3, the powers verify checks; the
        # plain cosine sum k = 0 is refused like any other
        with pytest.raises(DomainError, match="supported powers are 1 and 3"):
            abel_sum_oracle(k, 1.0)

    def test_numpy_integer_power_accepted(self):
        assert abel_sum_oracle(np.int64(1), 1.0).hex() == abel_sum_oracle(1, 1.0).hex()


def _cutoff_sums(k):
    """eps -> S(eps) = sum_n n^k e^(-eps n), as the cutoff oracle sums it."""
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
    """The cutoff oracle's fit for the power k on its circle |eps| = pi."""
    return fit_finite_part(_cutoff_sums(k), math.pi, k + 1)


class TestCutoffOracle:
    def test_is_the_fit_for_the_cube(self):
        # cutoff_sum_oracle() is zeta(-3)'s fit, bit for bit
        assert cutoff_sum_oracle() == _cutoff_fit(3)

    def test_sums_the_cube_alone(self, monkeypatch):
        # one sum of n^3 on each of the 33 nodes of the upper half circle
        real, powers = regsum._power_series, []

        def recorded(k, x, one_minus_x):
            powers.append(k)
            return real(k, x, one_minus_x)

        monkeypatch.setattr(regsum, "_power_series", recorded)
        cutoff_sum_oracle()
        assert powers == [3] * 33

    @pytest.mark.parametrize("k", [1, 3])
    def test_finite_part_is_zeta(self, k):
        # verify checks k = 3 alone, to this bound; k = 1 reads 0
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
        # the circle |eps| = pi resolves zeta(-5) too; cutoff_sum_oracle sums k = 3 alone
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
