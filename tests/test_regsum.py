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
    PrecisionError,
)
from platevac.oracle import _FIELDS, _cutoffs
from platevac.regsum import (
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

    def test_numpy_integer_power_accepted(self):
        assert abel_sum_oracle(np.int64(1), 1.0).hex() == abel_sum_oracle(1, 1.0).hex()

    def test_default_radii_shape(self):
        radii = regsum._ABEL_RADII
        assert len(radii) == 12
        assert all(0.0 < r < 1.0 for r in radii)
        assert list(radii) == sorted(radii)


class TestNeville:
    """``regsum._neville``, the Abel oracle's extrapolation to h = 0, on its own steps."""

    HS = [1.0 - r for r in regsum._ABEL_RADII]

    @pytest.mark.parametrize("degree", range(6))
    def test_exact_on_polynomials(self, degree):
        # a polynomial of degree m is its own extrapolant: every estimate
        # of order m and above lands on its value at h = 0
        coeffs = [(-1) ** j * (j + 1) / 7.0 for j in range(degree + 1)]
        ys = [sum(c * h**j for j, c in enumerate(coeffs)) for h in self.HS]
        value, diagonal = regsum._neville(self.HS, ys)
        assert value == pytest.approx(coeffs[0], abs=1e-15)
        assert diagonal[degree:] == pytest.approx([coeffs[0]] * (12 - degree), abs=1e-15)

    def test_one_estimate_per_step(self):
        value, diagonal = regsum._neville(self.HS, [1.0 + h for h in self.HS])
        assert len(diagonal) == len(self.HS)
        assert diagonal[0] == 1.0 + self.HS[0]  # order zero is the first datum
        assert diagonal[-1] == value

    def test_analytic_limit(self):
        # 1/(1 + h) -> 1, with every power of h present
        value, _ = regsum._neville(self.HS, [1.0 / (1.0 + h) for h in self.HS])
        assert value == pytest.approx(1.0, abs=1e-15)


# (smallest, largest, count) of every cutoff tuple the package and its tests build
LOG_SPACED_CASES = [(1e-3, 1e-1, 12), (1e-3, 2e-2, 12), (2e-3, 2e-2, 16), (1e-120, 1e-100, 12)]


class TestLogSpaced:
    @pytest.mark.parametrize("smallest, largest, count", LOG_SPACED_CASES)
    def test_same_floats_as_geomspace(self, smallest, largest, count):
        cutoffs = regsum._log_spaced(smallest, largest, count)
        expected = np.geomspace(largest, smallest, count)
        assert [v.hex() for v in cutoffs] == [float(v).hex() for v in expected]

    @pytest.mark.parametrize("smallest, largest, count", LOG_SPACED_CASES)
    def test_plain_floats_largest_first(self, smallest, largest, count):
        cutoffs = regsum._log_spaced(smallest, largest, count)
        assert isinstance(cutoffs, tuple) and len(cutoffs) == count
        assert all(type(v) is float for v in cutoffs)
        assert all(b < a for a, b in zip(cutoffs, cutoffs[1:]))
        assert cutoffs[0] == pytest.approx(largest, rel=1e-14)
        assert cutoffs[-1] == pytest.approx(smallest, rel=1e-14)


# The cutoff oracle's own cutoffs, 0.1 down to 0.001.
ORACLE_CUTOFFS = regsum._log_spaced(1e-3, 1e-1, 12)


def _cutoff_sums(k, cutoffs):
    """S(eps) = sum_n n^k e^(-eps n) at every one of ``cutoffs``, as the cutoff oracle sums it."""
    return [regsum._power_series(k, math.exp(-e), -math.expm1(-e)) for e in cutoffs]


class TestCutoffOracle:
    def test_cutoffs_run_largest_first(self):
        assert len(ORACLE_CUTOFFS) == 12
        assert all(b < a for a, b in zip(ORACLE_CUTOFFS, ORACLE_CUTOFFS[1:]))
        assert ORACLE_CUTOFFS[0] == pytest.approx(1e-1)
        assert ORACLE_CUTOFFS[-1] == pytest.approx(1e-3)

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
        coarse = regsum._log_spaced(0.5, 0.9, 12)
        default = cutoff_sum_oracle(3)
        degraded = fit_finite_part(coarse, _cutoff_sums(3, coarse), 4, 4)
        assert degraded.finite_part == pytest.approx(1.0 / 120.0, abs=1e-3)
        assert degraded.fit_residual > default.fit_residual

    def test_agrees_with_zeta(self):
        for k in (1, 3):
            assert cutoff_sum_oracle(k).finite_part == pytest.approx(
                float(zeta_neg_int(k)), abs=1e-6
            )

    def test_larger_odd_power(self):
        # k = 5 needs higher, denser cutoffs than the oracle's; accuracy drops
        # with each added divergent power but zeta(-5) is still clearly resolved
        cutoffs = regsum._log_spaced(0.03, 0.5, 20)
        result = fit_finite_part(cutoffs, _cutoff_sums(5, cutoffs), 6, 4)
        assert result.finite_part == pytest.approx(float(zeta_neg_int(5)), abs=1e-4)
        assert result.divergent_coeffs[0] == pytest.approx(math.factorial(5), rel=1e-8)

    @pytest.mark.parametrize("k", [1, 3])
    def test_numpy_integer_power_accepted(self, k):
        assert cutoff_sum_oracle(np.int64(k)) == cutoff_sum_oracle(k)

    @pytest.mark.parametrize("k", [0, 2, 4, -1])
    def test_even_or_nonpositive_rejected(self, k):
        with pytest.raises(ValueError):
            cutoff_sum_oracle(k)

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
        data = _cutoff_sums(1, eps)
        # on every call: a failed factorization leaves nothing in the cache
        regsum._schedule_fit.cache_clear()
        for _ in range(3):
            with pytest.raises(IllConditionedFitError):
                fit_finite_part(eps, data, 2, 2)
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
            yield (f"{field}-L{L:g}", _cutoffs(field, PlateConfig(L)), row.divergent_powers,
                   row.tail_degree)
    for k in (1, 3):  # the cutoff oracle's degrees 4 and 6
        yield f"cutoff-k{k}", ORACLE_CUTOFFS, k + 1, 2


FIT_CASES = {name: case for name, *case in _fit_cases()}


class TestFactoredFit:
    """fit_finite_part factors each cutoff tuple once; the data's arithmetic is unchanged."""

    @pytest.mark.parametrize("cutoffs, power, tail_degree", FIT_CASES.values(), ids=FIT_CASES)
    def test_bit_identical_to_uncached_fit(self, cutoffs, power, tail_degree):
        rng = np.random.default_rng(power + len(cutoffs))
        eps = np.asarray(cutoffs)
        regsum._schedule_fit.cache_clear()
        for draw in range(3):  # the first call fills the cache, the others hit it
            # a leading eps^-P divergence over an O(1) remainder, as in the oracles
            data = tuple(rng.standard_normal() / eps ** power + rng.standard_normal(eps.size))
            expected = _uncached_fit(cutoffs, data, power, tail_degree)
            fitted = fit_finite_part(cutoffs, data, power, tail_degree)
            assert _bits(fitted) == _bits(expected)
        assert regsum._schedule_fit.cache_info().misses == 1

    def test_lstsq_is_factor_then_solve(self):
        rng = np.random.default_rng(7)
        design = rng.standard_normal((12, 6)).astype(np.longdouble)
        rhs = rng.standard_normal(12).astype(np.longdouble)
        factored = regsum._householder_solve(regsum._householder_factor(design), rhs)
        assert factored.tobytes() == _one_pass_lstsq(design, rhs).tobytes()

    def test_cached_arrays_are_read_only(self):
        design, col_norms, (reflectors, r), eps_max_powers = regsum._schedule_fit(ORACLE_CUTOFFS, 4)
        arrays = [design, col_norms, r, eps_max_powers, *(v for _, v, _ in reflectors)]
        assert len(reflectors) == 5
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_cache_is_bounded(self):
        regsum._schedule_fit.cache_clear()
        for count in range(8, 8 + 2 * regsum._FIT_CACHE_SIZE):
            cutoffs = regsum._log_spaced(1e-3, 1e-1, count)
            fit_finite_part(cutoffs, (1.0,) * count, 1, 2)
        info = regsum._schedule_fit.cache_info()
        assert info.maxsize == regsum._FIT_CACHE_SIZE
        assert info.currsize == info.maxsize

    def test_verify_factors_four_schedules(self):
        # 22 fits: two cutoff-oracle schedules, and the phi2 and phidot2 schedules
        regsum._schedule_fit.cache_clear()
        run_verification(RunConfig(bc=BoundaryCondition.DIRICHLET, L=0.77))
        info = regsum._schedule_fit.cache_info()
        assert (info.misses, info.hits) == (4, 18)


# The fit's model on cutoffs 0.1 down to 0.01: eps^-P ... eps^-1 with
# coefficients P ... 1, the constant 0.3 and a tail 0.5^j eps^j, j = 1 .. D.
MODEL_CUTOFFS = regsum._log_spaced(1e-2, 1e-1, 12)
MODEL_FINITE_PART = 0.3


def _model_data(power, tail_degree):
    eps = np.asarray(MODEL_CUTOFFS, dtype=np.longdouble)
    divergent = [float(power - i) for i in range(power)]
    data = sum(c * eps ** -(power - i) for i, c in enumerate(divergent)) + MODEL_FINITE_PART
    return data + sum(0.5**j * eps**j for j in range(1, tail_degree + 1)), divergent


class TestFitContract:
    """What fit_finite_part trusts of its callers, and what it returns on its model."""

    @pytest.mark.parametrize("cutoffs, power, tail_degree", FIT_CASES.values(), ids=FIT_CASES)
    def test_callers_pass_decreasing_positive_cutoffs(self, cutoffs, power, tail_degree):
        # the fit checks none of this: each caller's fixed cutoffs must hold it
        assert isinstance(cutoffs, tuple)
        assert all(type(e) is float and e > 0.0 for e in cutoffs)
        assert all(b < a for a, b in zip(cutoffs, cutoffs[1:]))
        assert len(cutoffs) >= power + tail_degree + 1

    @pytest.mark.parametrize("tail_degree", [1, 2, 3])
    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_recovers_the_model(self, power, tail_degree):
        data, divergent = _model_data(power, tail_degree)
        result = fit_finite_part(MODEL_CUTOFFS, data, power, tail_degree)
        assert result.finite_part == pytest.approx(MODEL_FINITE_PART, abs=1e-9)
        assert result.divergent_coeffs == pytest.approx(divergent, abs=1e-10)
        assert 0.0 <= result.fit_residual < 1e-16

    def test_residual_measures_the_misfit(self):
        # data off the model leave a residual; exact model data leave none
        data, _ = _model_data(2, 2)
        exact = fit_finite_part(MODEL_CUTOFFS, data, 2, 2)
        noisy = fit_finite_part(MODEL_CUTOFFS, data + np.resize([1e-3, -1e-3], 12), 2, 2)
        assert noisy.fit_residual > 1e6 * exact.fit_residual

    @pytest.mark.parametrize("as_data", [tuple, list, np.asarray, lambda v: np.asarray(v, np.longdouble)],
                             ids=["tuple", "list", "float64", "longdouble"])
    def test_data_types_give_the_same_bits(self, as_data):
        values = _cutoff_sums(3, ORACLE_CUTOFFS)
        expected = fit_finite_part(ORACLE_CUTOFFS, values, 4, 2)
        assert _bits(fit_finite_part(ORACLE_CUTOFFS, as_data(values), 4, 2)) == _bits(expected)
