"""Tests for the mode-sum oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platevac import dimreg, oracle
from platevac.errors import (ConsistencyError, DomainError, InvalidConfigError, PlateVacError,
                             QuadratureError)
from platevac.fluctuations import InteriorPoint, expectation_set
from platevac.oracle import mode_sum_finite_part
from platevac.regsum import fit_finite_part
from platevac.spectrum import L_MAX, L_MIN, BoundaryCondition, PlateConfig
from platevac.verify import _MODE_SUM_THETAS, VERIFY_CHECKS, Sample

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
BOTH = (D, N)


def _closed_form(bc, L, theta, field):
    config = PlateConfig(L)
    return getattr(expectation_set(bc, config, InteriorPoint.from_theta(config, theta)), field)


def _oracle(field, bc, L, theta):
    """The oracle's finite part, called as expectation_set is called."""
    config = PlateConfig(L)
    return mode_sum_finite_part(field, bc, config, InteriorPoint.from_theta(config, theta))


def _fit_on(radius, field, bc, L, theta):
    """The oracle's finite part on a circle of another radius than its own."""
    return fit_finite_part(lambda eps: oracle._regulated_sums(field, bc, L, theta, eps),
                           radius, oracle._FIELDS[field])


def _relative_error(field, bc, L, theta):
    closed = _closed_form(bc, L, theta, field)
    return abs(_oracle(field, bc, L, theta).finite_part - closed) / abs(closed)


def _analytic_divergences(field, bc, L):
    """The coefficients of eps^-P ... eps^-1; the (1 - s) terms are the Neumann n = 0 mode."""
    s = 1 if bc is D else -1
    if field == "phi2":
        return [1.0 / (4.0 * math.pi ** 2), -(1 - s) / (8.0 * math.pi * L)]
    return [3.0 / (2.0 * math.pi ** 2), -(1 - s) / (4.0 * math.pi * L), 0.0, 0.0]


class TestTransverseKernel:
    def test_phi2_closed_form_value(self):
        closed = oracle._transverse_closed("phi2", math.pi, 0.1)
        assert closed == pytest.approx(math.exp(-0.1 * math.pi) / (0.2 * math.pi), rel=1e-14)
        assert type(closed) is float

    def test_nan_quadrature_raises(self, monkeypatch):
        # the verify entry that checks the kernels must not pass on a
        # quadrature that does not converge
        real = dimreg._half_line_integral
        monkeypatch.setattr(dimreg, "_half_line_integral", lambda f: real(lambda k: f(k) * math.nan))
        check = next(c for c in VERIFY_CHECKS if c.name == "oracle_transverse_kernel")
        with pytest.raises(QuadratureError):
            check.measure(Sample(1.0))


class TestModeSumFinitePart:
    def test_phi2_dirichlet_midpoint(self):
        result = _oracle("phi2", D, 1.0, math.pi / 2.0)
        assert result.finite_part == pytest.approx(-1.0 / 24.0, rel=1e-14)

    def test_phi2_neumann_midpoint(self):
        result = _oracle("phi2", N, 1.0, math.pi / 2.0)
        assert result.finite_part == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_phidot2_dirichlet_midpoint(self):
        result = _oracle("phidot2", D, 1.0, math.pi / 2.0)
        a = math.pi**2 / 1440.0
        b = math.pi**2 / 96.0
        assert result.finite_part == pytest.approx(b - a, rel=1e-13)

    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("field,rtol", [("phi2", 1e-13), ("phidot2", 1e-12)])
    def test_verify_angles(self, bc, field, rtol):
        # verify's own tolerances, at its five angles
        for theta in _MODE_SUM_THETAS:
            assert _relative_error(field, bc, 1.0, theta) <= rtol

    @pytest.mark.parametrize("L", [L_MIN, 1e-3, 0.1, 0.5, 2.0, 10.0, 1e3, L_MAX])
    @pytest.mark.parametrize("field", ["phi2", "phidot2"])
    def test_other_separations(self, field, L):
        # the circle scales with L, so the relative accuracy does not depend on it
        for bc in BOTH:
            assert _relative_error(field, bc, L, 1.0) <= 1e-13

    @pytest.mark.parametrize("L", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("field", ["phi2", "phidot2"])
    @pytest.mark.parametrize("distance", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_near_a_plate(self, distance, field, bc, L):
        # the circle shrinks with the distance to the nearer plate, on both sides
        for theta in (distance, math.pi - distance):
            assert _relative_error(field, bc, L, theta) <= 1e-8

    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("distance", [1e-6, 1e-8])
    def test_far_plate_keeps_its_digits(self, distance, bc):
        # pi - theta taken from math.pi alone would be short by 1.2e-16,
        # which is 1.2e-8 of the distance at 1e-8; the plate at 0 keeps
        # its digits as well
        for field in ("phi2", "phidot2"):
            for theta in (distance, math.pi - distance):
                assert _relative_error(field, bc, 1.0, theta) <= 1e-13

    @pytest.mark.parametrize("field", ["phi2", "phidot2"])
    def test_radius_independence(self, field):
        # a sum that is analytic inside the circle has one constant term on
        # every circle; Re Li_j(z) in place of the mean of the two phases is
        # not analytic, and its constant term moves with the radius
        own = _oracle(field, D, 1.0, 1.0).finite_part
        smaller = _fit_on(0.5 * 1.0 / math.pi, field, D, 1.0, 1.0).finite_part
        assert smaller == pytest.approx(own, rel=1e-13)

    @pytest.mark.parametrize("bc", BOTH)
    def test_mirror_symmetry(self, bc):
        theta = 0.7
        a = _oracle("phi2", bc, 1.0, theta).finite_part
        b = _oracle("phi2", bc, 1.0, math.pi - theta).finite_part
        assert a == pytest.approx(b, rel=1e-14)

    def test_boundary_condition_duality_average(self):
        # (oracle_D + oracle_N)/2 isolates the profile-free part 1/(48 L^2)
        for theta in (0.5, 1.0, 2.0):
            total = sum(_oracle("phi2", bc, 1.0, theta).finite_part for bc in BOTH)
            assert 0.5 * total == pytest.approx(1.0 / 48.0, rel=1e-14)

    @pytest.mark.parametrize("L", [L_MIN, 0.77, L_MAX])
    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("field", ["phi2", "phidot2"])
    def test_divergent_coefficients_are_analytic(self, field, bc, L):
        expected = _analytic_divergences(field, bc, L)
        for theta in _MODE_SUM_THETAS:
            got = _oracle(field, bc, L, theta).divergent_coeffs
            assert len(got) == oracle._FIELDS[field] == len(expected)
            # a zero coefficient of eps^-(P - i) is measured against the leading
            # one, c eps^-P, at the circle's scale |eps| ~ L / pi
            scale = [abs(e) or expected[0] * (L / math.pi) ** -i for i, e in enumerate(expected)]
            assert all(abs(g - e) <= 1e-10 * sc for g, e, sc in zip(got, expected, scale))

    @pytest.mark.parametrize("L", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("field", ["phi2", "phidot2"])
    def test_error_estimate_bounds_the_error(self, field, L):
        # an honest estimate: above the error against the closed form, and
        # within a few round-offs of it
        for bc in BOTH:
            for theta in (1e-6, 1e-3, 0.3, 1.0, 1.57, 2.5, math.pi - 1e-4):
                result = _oracle(field, bc, L, theta)
                error = abs(result.finite_part - _closed_form(bc, L, theta, field))
                assert error <= result.error_estimate <= 2e-14 * abs(result.finite_part)


def _truncated_mode_sums(field, bc, L, theta, eps_values):
    """The regulated mode sums by brute force: n <= n_max, one term per mode.

    Test-only reference for the oracle's closed-form sums, at real cutoffs
    and in long double: each mode's transverse kernel e^(-eps k_n)
    sum_j c_j k_n^j with the oracle's coefficients, weighted by
    1 - s cos 2 n theta.  n_max puts the cutoff weight e^(-eps k_n) of the
    last mode below 1e-32 at the smallest cutoff, far below round-off on
    the sum.
    """
    n_max = math.ceil(-math.log(1e-32) * L / (min(eps_values) * math.pi))
    n = np.arange(1, n_max + 1, dtype=np.longdouble)
    kn = n * (np.longdouble(math.pi) / np.longdouble(L))
    weights = 1.0 - bc.sign_upper * np.cos(np.longdouble(2.0 * theta) * n)
    sums = []
    for eps in map(np.longdouble, eps_values):
        coeffs = oracle._kernel_coefficients(field, eps)
        kernel = np.exp(-eps * kn) * sum(c * kn**j for j, c in enumerate(coeffs))
        sums.append(float(np.sum(weights * kernel) / (2.0 * np.longdouble(L))))
    return sums


class TestClosedFormSums:
    @pytest.mark.parametrize("bc,L,theta,field", [
        (D, 1.0, 1.0, "phi2"),
        (N, 0.3, 0.45, "phi2"),
        (D, 2.0, 2.6, "phidot2"),
        (N, 1.0, math.pi / 2.0, "phidot2"),
    ])
    def test_match_truncated_brute_force(self, bc, L, theta, field):
        # real cutoffs from the circle's radius down to a twentieth of it
        radius = min(theta, math.pi - theta) * L / math.pi
        eps_values = (radius * np.geomspace(1.0, 0.05, 6)).tolist()
        exact = [oracle._regulated_sums(field, bc, L, theta, complex(eps)) for eps in eps_values]
        brute = _truncated_mode_sums(field, bc, L, theta, eps_values)
        assert all(type(e) is complex and e.imag == 0.0 for e in exact)
        assert max(abs(e.real - b) / abs(b) for e, b in zip(exact, brute)) <= 2e-15

    @given(
        st.sampled_from(BOTH),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=1e-4, max_value=math.pi - 1e-4),
    )
    @settings(max_examples=40, deadline=None)
    def test_finite_parts_within_tolerance(self, bc, L, theta):
        for field in ("phi2", "phidot2"):
            assert _relative_error(field, bc, L, theta) <= 1e-12


class TestSpecValidation:
    @pytest.mark.parametrize("name,value", [
        *(("L", L) for L in (0.0, -1.0, 1e-200, 1e200, math.nan, math.inf)),
        *(("theta", theta) for theta in (0.0, math.pi, -1.0, math.nan)),
    ])
    def test_bad_spec_raises_library_error(self, name, value):
        # PlateConfig and InteriorPoint are the oracle's only validation
        args = {"L": 1.0, "theta": 1.0, name: value}
        with pytest.raises(PlateVacError):
            _oracle("phi2", D, args["L"], args["theta"])

    @pytest.mark.parametrize("field", ["dzphi2", "PHI2", "", None, ["phi2"]])
    def test_unknown_field_raises_invalid_config(self, field):
        config = PlateConfig(1.0)
        point = InteriorPoint.from_theta(config, 1.0)
        with pytest.raises(InvalidConfigError):
            mode_sum_finite_part(field, D, config, point)

    @pytest.mark.parametrize("theta", [5e-324, 1e-200])
    def test_radius_that_underflows_raises_domain_error(self, theta):
        # 5e-324 L / pi underflows to 0; at 1e-200 the sums, ~ radius^-4,
        # overflow on the circle instead
        config = PlateConfig(1.0)
        with pytest.raises(DomainError):
            mode_sum_finite_part("phidot2", D, config, InteriorPoint.from_theta(config, theta))

    @pytest.mark.parametrize("summed", [1, 2])
    def test_a_kernel_longer_than_its_power_sums_raises(self, summed, monkeypatch):
        # phidot2's k_n and k_n^2 terms must not be dropped: with fewer
        # sums than kernel terms the oracle names the field, rather than
        # returning a finite part, or a fit error about non-finite data;
        # phi2, whose kernel is one term, reads the first sum alone
        phi2 = _bits(_oracle("phi2", D, 1.0, 1.0))
        real = oracle._power_sums.__wrapped__
        monkeypatch.setattr(oracle, "_power_sums", lambda *args: real(*args)[:summed])
        with pytest.raises(ConsistencyError, match="the phidot2 kernel has 3 powers"):
            _oracle("phidot2", D, 1.0, 1.0)
        assert _bits(_oracle("phi2", D, 1.0, 1.0)) == phi2

    @pytest.mark.parametrize("theta", [0.3, 1.0, math.pi / 2.0, 2.0, math.pi - 1e-3])
    def test_radius_is_half_way_to_the_nearest_singularity(self, theta, monkeypatch):
        # q e^(+-2i theta) = 1 at |eps| = 2 min(theta, pi - theta) L / pi
        radii = []
        real = oracle.fit_finite_part

        def recording(sums, radius, powers):
            radii.append(radius)
            return real(sums, radius, powers)

        monkeypatch.setattr(oracle, "fit_finite_part", recording)
        _oracle("phi2", D, 2.0, theta)
        assert radii == [pytest.approx(min(theta, math.pi - theta) * 2.0 / math.pi, rel=1e-14)]


def _bits(result) -> tuple[str, ...]:
    """Every field of a FinitePartResult, as exact bits."""
    return (result.finite_part.hex(), *(c.hex() for c in result.divergent_coeffs),
            result.error_estimate.hex())


class TestSharedPowerSums:
    """The power sums both fields and both conditions read, computed once per cutoff."""

    @pytest.mark.parametrize("L", [1e-3, 0.77, 1e3])
    def test_warm_results_equal_cold_ones_bit_for_bit(self, L):
        # verify's calls, in verify's order: each read of the cache against
        # the same call with the cache cleared before it
        calls = [(field, theta, bc) for field in ("phi2", "phidot2")
                 for theta in _MODE_SUM_THETAS for bc in BOTH]
        cold = []
        for field, theta, bc in calls:
            oracle._power_sums.cache_clear()
            cold.append(_bits(_oracle(field, bc, L, theta)))
        oracle._power_sums.cache_clear()
        warm = [_bits(_oracle(field, bc, L, theta)) for field, theta, bc in calls]
        info = oracle._power_sums.cache_info()
        # 5 angles x 33 cutoffs summed once, read by the other 19 x 33 calls
        assert (info.misses, info.hits) == (5 * 33, 15 * 33)
        assert warm == cold

    def test_another_L_reads_its_own_sums(self):
        # one angle at two separations: the second call must not read the first's sums
        theta = _MODE_SUM_THETAS[1]
        oracle._power_sums.cache_clear()
        cold = _bits(_oracle("phidot2", N, 2.0, theta))
        oracle._power_sums.cache_clear()
        _oracle("phidot2", N, 1.0, theta)
        assert _bits(_oracle("phidot2", N, 2.0, theta)) == cold
        assert oracle._power_sums.cache_info().hits == 0

    def test_bounded(self):
        # a long run over many points holds at most _SUMS_CACHED entries
        oracle._power_sums.cache_clear()
        for theta in np.linspace(0.2, 1.5, 9).tolist():
            _oracle("phi2", D, 1.0, theta)
        info = oracle._power_sums.cache_info()
        assert info.maxsize == oracle._SUMS_CACHED and info.currsize == info.maxsize
