"""Tests for the master integral, continued in N, and its radial quadrature."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from platevac import dimreg
from platevac.dimreg import master_integral, quadrature_reference
from platevac.errors import DomainError, PlateVacError, PoleError, QuadratureError
from platevac.verify import VERIFY_CHECKS, Sample


PI = Decimal("3.14159265358979323846264338327950288419716939937510")


def _relative_error(N: float, m_sq: float) -> float:
    """master_integral(N, m_sq) against (m^2)^(1 - N) / (4 pi (N - 1)) in 50 digits."""
    with localcontext() as context:
        context.prec = 50
        exact = Decimal(m_sq) ** (1 - Decimal(N)) / (4 * PI * (Decimal(N) - 1))
        return float(abs(Decimal(master_integral(N, m_sq)) - exact) / abs(exact))


class TestMasterIntegral:
    def test_vacuum_energy_case(self):
        # N = -1/2: (m^2)^(3/2) / (4 pi (-3/2)) = -m^3/(6 pi)
        m = 1.7
        value = master_integral(-0.5, m * m)
        assert value == pytest.approx(-(m**3) / (6.0 * math.pi), rel=1e-13)

    def test_half_power_case(self):
        m = 0.6
        value = master_integral(0.5, m * m)
        assert value == pytest.approx(-m / (2.0 * math.pi), rel=1e-13)

    def test_convergent_case_against_quadrature(self):
        analytic = master_integral(2.0, 1.0)
        assert analytic == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-13)
        numeric = quadrature_reference(2.0, 1.0)
        assert analytic == pytest.approx(numeric, rel=1e-8)

    @pytest.mark.parametrize("N", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("m_sq", [0.5, 1.0, 4.0])
    def test_quadrature_grid(self, N, m_sq):
        analytic = master_integral(N, m_sq)
        numeric = quadrature_reference(N, m_sq)
        assert analytic == pytest.approx(numeric, rel=1e-8)

    @pytest.mark.parametrize("N", [3.0, -0.5])
    @pytest.mark.parametrize("m_sq", [0.5, 1.3, 2.0])
    def test_recursion_identity(self, N, m_sq):
        # I(N) / I(N-1) = (N - 2) / ((N - 1) m^2), relative; every case reads
        # at most 4.8e-16
        ratio = master_integral(N, m_sq) / master_integral(N - 1.0, m_sq)
        expected = (N - 2.0) / ((N - 1.0) * m_sq)
        assert abs(ratio - expected) <= 5e-14 * abs(expected)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    @example(lam=3.7, m_sq=1.3)
    def test_dimensional_scaling(self, lam, m_sq):
        # I(N, lam m^2) = lam^(1 - N) I(N, m^2) at N = 2, relative to the left side
        scaled = master_integral(2.0, lam * m_sq)
        expected = lam ** -1.0 * master_integral(2.0, m_sq)
        assert abs(scaled - expected) <= 1e-12 * abs(scaled)

    @pytest.mark.parametrize("N", [*map(float, range(2, 16)), 170.0, 171.0,
                                   2.5, 1.5, 0.5, -0.5, -1.5, -2.5])
    def test_exact_at_integer_and_half_integer_powers(self, N):
        # every case reads at most 1.9e-16
        assert _relative_error(N, 1.0) <= 1e-15

    @pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -5.0, -9.0])
    @pytest.mark.parametrize("offset", [1e-3, -1e-3])
    def test_near_pole_accuracy(self, pole, offset):
        # N - 1 = pole + offset: Gamma(N - 1) and Gamma(N) are both large
        # there, their ratio 1 / (N - 1) is not; every case reads at most 2.2e-16
        assert _relative_error(1.0 + pole + offset, 1.0) <= 1e-15

    def test_continuation_on_grid(self):
        # N on [-10, 30] in steps of 0.0137, more than 1.2e-3 from the
        # integers; every point reads at most 2.5e-16
        N = -10.0 + 0.0137
        while N < 30.0:
            if abs(N - round(N)) > 1.2e-3:
                assert _relative_error(N, 1.0) <= 1e-15, N
            N += 0.0137

    @pytest.mark.parametrize("N", [1.0, 0.0, -1.0, -2.0, -16.0])
    def test_gamma_pole_raises(self, N):
        # the integral's own pole at N = 1; at N = 0, -1, ... Gamma(N - 1) /
        # Gamma(N) is inf / inf, and its limits in N and in the dimension differ
        with pytest.raises(PoleError):
            master_integral(N, 1.0)

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            master_integral(1.0, 0.0)
        with pytest.raises(ValueError):
            master_integral(1.0, -1.0)

    @pytest.mark.parametrize("N", [-math.inf, math.inf, math.nan])
    def test_non_finite_power_rejected(self, N):
        # -inf used to reach round() in the pole test and raise OverflowError
        with pytest.raises(DomainError):
            master_integral(N, 1.0)

    @pytest.mark.parametrize("spec", [(10.0, 1e-300), (-0.5, 1e300), (172.7, 1e-3)])
    @pytest.mark.parametrize("number", [float, np.float64])
    def test_overflowing_power_raises_domain_error(self, spec, number):
        # m_sq ** (1 - N) overflows, and so does the value: a float raised
        # OverflowError, a numpy float returned inf
        N, m_sq = spec
        with pytest.raises(DomainError, match="not a normal double"):
            master_integral(N, number(m_sq))

    @pytest.mark.parametrize("N, m_sq", [(-0.5, 1e206), (-1.5, 3e123), (150.5, 0.0085)])
    @pytest.mark.parametrize("number", [float, np.float64])
    def test_normal_value_past_an_overflowing_power(self, N, m_sq, number):
        # m_sq ** (1 - N) alone passes the double range, and 4 pi (N - 1)
        # brings the value back, near -5.3e307, -1.6e307 and 1.9e306; each
        # reads at most 2.3e-16
        assert _relative_error(N, number(m_sq)) <= 1e-15

    @pytest.mark.parametrize("N", [171.5, 172.0, 200.0, 1e300,
                                   -170.5, -175.5, -177.9, -180.5, -200.5])
    def test_exact_where_the_gamma_values_leave_the_double_range(self, N):
        # Gamma(N) overflows above N = 171.62 (4 pi Gamma(N) at 171.5), and
        # Gamma(N - 1) or Gamma(N) is subnormal or zero below N = -170.5;
        # their ratio 1 / (N - 1) is not.  Every case reads at most 1.1e-16
        assert _relative_error(N, 1.0) <= 1e-15

    @pytest.mark.parametrize("N, m_sq", [(60.5, 1e10), (-100.5, 1e-10), (4.0, 1e300),
                                         (4.0, 1e103)])
    def test_underflowing_value_raises_domain_error(self, N, m_sq):
        # the values near 1.3e-598, -7.8e-1019 and 2.7e-902 round to 0.0 or
        # -0.0, and the one near 2.7e-311 to a subnormal that lost digits
        with pytest.raises(DomainError, match="not a normal double"):
            master_integral(N, m_sq)

    def test_numpy_power_raises_without_a_warning(self):
        # m_sq ** (1 - N) overflows; a numpy N took the power through numpy's
        # pow, which warned (an error in this suite) before raising
        with pytest.raises(DomainError, match="not a normal double"):
            master_integral(np.float64(-150.5), 1e300)

    @given(st.floats(-1e3, 1e3),
           st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_any_spec_is_normal_or_library_error(self, N, m_sq):
        try:
            value = master_integral(N, m_sq)
        except PlateVacError:
            return
        assert sys.float_info.min <= abs(value) < math.inf


class TestQuadratureReference:
    def test_divergent_case_rejected(self):
        with pytest.raises(ValueError):
            quadrature_reference(1.0, 1.0)

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            quadrature_reference(2.0, 0.0)

    @pytest.mark.parametrize("call", [
        lambda: quadrature_reference(1.0, 1.0),  # N <= 1 diverges in d = 2
        lambda: quadrature_reference(0.5, 1.0),
        lambda: quadrature_reference(-3.0, 1.0),
        lambda: quadrature_reference(math.nan, 1.0),
        lambda: quadrature_reference(math.inf, 1.0),
        lambda: quadrature_reference(-math.inf, 1.0),
        lambda: quadrature_reference(2.0, 0.0),
        lambda: quadrature_reference(2.0, -1.0),
        lambda: quadrature_reference(2.0, -0.0),
        lambda: quadrature_reference(2.0, -math.inf),
        lambda: quadrature_reference(2.0, math.nan),
        lambda: quadrature_reference(2.0, math.inf),
        lambda: master_integral(1.0, 0.0),
        lambda: master_integral(1.0, math.nan),
        lambda: master_integral(1.0, math.inf),
    ])
    def test_bad_input_raises_library_error(self, call):
        with pytest.raises(PlateVacError):
            call()

    @given(
        st.floats(min_value=1.25, max_value=10.0),
        st.floats(min_value=-6.0, max_value=6.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_closed_form(self, N, log_m_sq):
        # the documented range: N >= 1.25 (2N - d >= 1/2), N <= 10, m_sq in [1e-6, 1e6]
        m_sq = 10.0 ** log_m_sq
        exact = master_integral(N, m_sq)
        assert quadrature_reference(N, m_sq) == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m_sq", [1e-300, 1e300])
    @pytest.mark.parametrize("N", [1.5, 2.0, 3.0])
    def test_unresolvable_mass_raises(self, N, m_sq):
        # the mass scale lies beyond the nodes: no value rather than a wrong one
        with pytest.raises(QuadratureError):
            quadrature_reference(N, m_sq)

    @pytest.mark.parametrize("excess", [0.02, 0.08])
    def test_slow_tail_raises(self, excess):
        # k^(1-2N) with 2N - 2 = excess leaves more than 1e-11 of the
        # integral beyond the last node, and both step sizes miss it alike
        with pytest.raises(QuadratureError):
            quadrature_reference((2.0 + excess) / 2.0, 1.0)

    @pytest.mark.parametrize("N,m_sq", [(1.13, 1e-6), (1.14, 1.0), (1.14, 1e6)])
    def test_slow_tail_does_not_overflow(self, N, m_sq):
        # at the outer nodes k^2 ~ 1.6e275, so (k^2 + m_sq)^N overflows a
        # double for N >= 1.13; evaluated that way, the quadrature would
        # fail there, though the tail it misses is far below 1e-12
        exact = master_integral(N, m_sq)
        assert quadrature_reference(N, m_sq) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_nan_quadrature_raises(self, monkeypatch):
        real = dimreg._half_line_integral
        monkeypatch.setattr(dimreg, "_half_line_integral", lambda f: real(lambda k: f(k) * math.nan))
        with pytest.raises(QuadratureError):
            quadrature_reference(2.0, 1.0)


KNOWN_INTEGRALS = [
    (lambda x: math.exp(-x), 1.0),
    (lambda x: 1.0 / (1.0 + x * x), math.pi / 2.0),
    (lambda x: math.exp(-x) / math.sqrt(x), math.sqrt(math.pi)),  # end-point singularity
    (lambda x: (1.0 + x) ** -1.2, 5.0),  # algebraic tail
]
UNCONVERGED = [
    lambda x: 0.0 * x,  # a zero sum has no relative accuracy
    lambda x: x * math.nan,
    lambda x: x * math.inf,
    lambda x: 1.0 / (1.0 + x),  # divergent
    lambda x: (1.0 + x) ** -1.01,  # convergent, but beyond the last node
    lambda x: math.sin(x) * math.exp(-x / 100.0),  # oscillatory
]


def _two_grid_rule(f) -> float:
    """The exp-sinh rule as first written: f on each grid, fsum of each in t order."""
    sums = []
    for steps_per_unit in (32, 64):
        integrand = []
        for k in range(-6 * steps_per_unit, 6 * steps_per_unit + 1):
            t = k / steps_per_unit
            x = math.exp(0.5 * math.pi * math.sinh(t))
            integrand.append(f(x) * x * (0.5 * math.pi) * math.cosh(t))
        sums.append(math.fsum(integrand) / steps_per_unit)
    coarse, value = sums
    err = abs(value - coarse) + abs(integrand[0]) + abs(integrand[-1])
    if not err < 1e-11 * abs(value):
        raise QuadratureError(f"half-line quadrature did not converge: {value} +- {err}")
    return value


def _outcome(rule, f) -> str:
    """The value's exact bits, or the message of the QuadratureError."""
    try:
        return rule(f).hex()
    except QuadratureError as exc:
        return str(exc)


class TestHalfLineIntegral:
    @pytest.mark.parametrize("f,exact", KNOWN_INTEGRALS)
    def test_known_integrals(self, f, exact):
        assert dimreg._half_line_integral(f) == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("f", UNCONVERGED)
    def test_unconverged_raises(self, f):
        with pytest.raises(QuadratureError):
            dimreg._half_line_integral(f)

    @pytest.mark.parametrize("f", [f for f, _ in KNOWN_INTEGRALS] + UNCONVERGED)
    def test_same_bits_as_two_grid_rule(self, f):
        # one node set, the coarse sum every other node: the same value and error estimate
        assert _outcome(dimreg._half_line_integral, f) == _outcome(_two_grid_rule, f)

    @pytest.mark.parametrize("fails", [lambda x: 1.0 / (x - x), lambda x: x ** 400.0,
                                       lambda x: math.inf if x < 1.0 else -math.inf])
    def test_arithmetic_errors_become_quadrature_errors(self, fails):
        # a division by zero, a power past the double range, or +inf and -inf
        # in one sum, which math.fsum refuses to add
        with pytest.raises(QuadratureError, match="not a finite double"):
            dimreg._half_line_integral(fails)

    def test_shared_nodes_equal_nodes_formed_inline(self):
        # the table every integral reads, against the nodes as the two-grid rule forms them
        inline = []
        for k in range(-6 * 64, 6 * 64 + 1):
            t = k / 64
            inline.append((math.exp(0.5 * math.pi * math.sinh(t)).hex(), math.cosh(t).hex()))
        assert [(x.hex(), c.hex()) for x, c in dimreg._exp_sinh_nodes()] == inline

    def test_verify_integrands_same_bits(self, monkeypatch):
        # the integrands are compared as they are passed: the oracle's close
        # over loop variables, so they cannot be replayed afterwards
        real, seen = dimreg._half_line_integral, []

        def compared(f):
            seen.append(_outcome(_two_grid_rule, f))
            assert _outcome(real, f) == seen[-1]
            return real(f)

        monkeypatch.setattr(dimreg, "_half_line_integral", compared)
        for check in VERIFY_CHECKS:
            if check.name in ("dimreg_quadrature", "oracle_transverse_kernel"):
                assert check.passes(check.measure(Sample(1.0)))
        assert len(seen) == 25
