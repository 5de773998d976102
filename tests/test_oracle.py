"""Tests for the mode-sum oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platevac import dimreg, oracle, regsum
from platevac.cli import VERIFY_CHECKS, RunConfig, run_verification
from platevac.errors import InvalidConfigError, PlateVacError, PrecisionError, QuadratureError
from platevac.fluctuations import InteriorPoint, expectation_set
from platevac.oracle import _cutoffs, mode_sum_finite_part
from platevac.regsum import _log_spaced, fit_finite_part
from platevac.spectrum import L_MAX, L_MIN, BoundaryCondition, PlateConfig

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


def _fit_on(cutoffs, tail_degree, field, bc, L, theta):
    """The oracle's finite part on other cutoffs and tail than the field's own."""
    sums = oracle._regulated_sums(field, bc, L, theta, cutoffs)
    return fit_finite_part(cutoffs, sums, oracle._FIELDS[field].divergent_powers, tail_degree)


class TestTransverseKernel:
    def test_phi2_closed_form_value(self):
        closed = oracle._transverse_closed("phi2", math.pi, 0.1)
        assert closed == pytest.approx(math.exp(-0.1 * math.pi) / (0.2 * math.pi), rel=1e-14)

    def test_nan_quadrature_raises(self, monkeypatch):
        # the verify entry that checks the kernels must not pass on a
        # quadrature that does not converge
        real = dimreg._half_line_integral
        monkeypatch.setattr(dimreg, "_half_line_integral", lambda f: real(lambda k: f(k) * math.nan))
        check = next(c for c in VERIFY_CHECKS if c.name == "oracle_transverse_kernel")
        with pytest.raises(QuadratureError):
            check.run(RunConfig(bc=D))


class TestModeSumFinitePart:
    def test_phi2_dirichlet_midpoint(self):
        result = _oracle("phi2", D, 1.0, math.pi / 2.0)
        assert result.finite_part == pytest.approx(-1.0 / 24.0, rel=1e-4)

    def test_phi2_neumann_midpoint(self):
        result = _oracle("phi2", N, 1.0, math.pi / 2.0)
        assert result.finite_part == pytest.approx(1.0 / 12.0, rel=1e-4)

    def test_phidot2_dirichlet_midpoint(self):
        result = _oracle("phidot2", D, 1.0, math.pi / 2.0)
        a = math.pi**2 / 1440.0
        b = math.pi**2 / 96.0
        assert result.finite_part == pytest.approx(b - a, rel=1e-3)

    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("field,rtol", [("phi2", 1e-4), ("phidot2", 1e-3)])
    def test_profile_window(self, bc, field, rtol):
        # the documented tolerance window theta in [0.3, pi - 0.3]
        for i in range(5):
            theta = 0.3 + i * (math.pi - 0.6) / 4.0
            result = _oracle(field, bc, 1.0, theta)
            closed = _closed_form(bc, 1.0, theta, field)
            assert result.finite_part == pytest.approx(closed, rel=rtol)

    @pytest.mark.parametrize("L", [L_MIN, 0.1, 0.5, 2.0, 10.0, L_MAX])
    def test_other_separations(self, L):
        # the default schedule scales with L, so the oracle's relative
        # accuracy is separation independent
        result = _oracle("phi2", D, L, 1.0)
        assert result.finite_part == pytest.approx(_closed_form(D, L, 1.0, "phi2"), rel=1e-4)

    def test_schedule_independence(self):
        # disjoint cutoff windows must agree on the finite part
        first = _log_spaced(1e-3, 1e-2, 12)
        second = _log_spaced(5e-3, 5e-2, 12)
        results = [_fit_on(cutoffs, 4, "phi2", D, 1.0, 1.0).finite_part for cutoffs in (first, second)]
        assert results[0] == pytest.approx(results[1], rel=2e-4)

    @pytest.mark.parametrize("bc", BOTH)
    def test_mirror_symmetry(self, bc):
        theta = 0.7
        a = _oracle("phi2", bc, 1.0, theta).finite_part
        b = _oracle("phi2", bc, 1.0, math.pi - theta).finite_part
        assert a == pytest.approx(b, rel=1e-6)

    def test_boundary_condition_duality_average(self):
        # (oracle_D + oracle_N)/2 isolates the profile-free part 1/(48 L^2)
        for theta in (0.5, 1.0, 2.0):
            total = sum(_oracle("phi2", bc, 1.0, theta).finite_part for bc in BOTH)
            assert 0.5 * total == pytest.approx(1.0 / 48.0, rel=1e-6)

    @pytest.mark.parametrize("field", list(oracle._FIELDS))
    def test_tiny_smallest_cutoff_finishes(self, field):
        # a truncated mode sum would need 2.3e10 modes at this cutoff; the
        # closed form needs none, and the fit returns finite values or
        # reports what it cannot resolve
        try:
            result = _fit_on(_log_spaced(1e-9, 2e-2, 16), 5, field, D, 1.0, 0.3)
        except PlateVacError:
            return
        assert all(map(math.isfinite, (result.finite_part, *result.divergent_coeffs)))

    def test_divergent_coefficients_by_observable(self):
        phi2 = _oracle("phi2", D, 1.0, 1.0)
        assert len(phi2.divergent_coeffs) == 2
        phidot2 = _oracle("phidot2", D, 1.0, 1.0)
        assert len(phidot2.divergent_coeffs) == 4
        assert phidot2.divergent_coeffs[0] > 0.0  # leading eps^-4 weight


def _truncated_mode_sums(field, bc, L, theta, eps_values):
    """The regulated mode sums by brute force: n <= n_max, one term per mode.

    Test-only reference for the oracle's closed-form sums.  n_max puts the
    cutoff weight e^(-eps k_n) of the last mode below 1e-32 at the
    smallest cutoff, far below long double round-off on the sum.
    """
    n_max = math.ceil(-math.log(1e-32) * L / (min(eps_values) * math.pi))
    n = np.arange(1, n_max + 1, dtype=np.longdouble)
    kn = n * (np.longdouble(math.pi) / np.longdouble(L))
    weights = 1.0 - bc.sign_upper * np.cos(np.longdouble(2.0 * theta) * n)
    return np.array([
        np.sum(weights * oracle._transverse_closed(field, kn, np.longdouble(eps)))
        / (2.0 * np.longdouble(L))
        for eps in eps_values
    ])


class TestClosedFormSums:
    @pytest.mark.parametrize("bc,L,theta,field", [
        (D, 1.0, 1.0, "phi2"),
        (N, 0.3, 0.45, "phi2"),
        (D, 2.0, 2.6, "phidot2"),
        (N, 1.0, math.pi / 2.0, "phidot2"),
    ])
    def test_match_truncated_brute_force(self, bc, L, theta, field):
        eps_values = _cutoffs(field, PlateConfig(L))
        exact = oracle._regulated_sums(field, bc, L, theta, eps_values)
        brute = _truncated_mode_sums(field, bc, L, theta, eps_values)
        assert exact.dtype == np.longdouble
        assert float(np.max(np.abs(exact - brute) / np.abs(brute))) <= 1e-15

    @given(
        st.sampled_from(BOTH),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.3, max_value=math.pi - 0.3),
    )
    @settings(max_examples=40, deadline=None)
    def test_finite_parts_within_documented_tolerance(self, bc, L, theta):
        for field, rtol in (("phi2", 1e-4), ("phidot2", 1e-3)):
            finite = _oracle(field, bc, L, theta).finite_part
            assert finite == pytest.approx(_closed_form(bc, L, theta, field), rel=rtol)

    def test_short_long_double_raises(self, monkeypatch):
        # a platform whose long double is a plain double
        real_finfo = np.finfo
        monkeypatch.setattr(
            np, "finfo",
            lambda dtype: real_finfo(np.float64) if dtype is np.longdouble else real_finfo(dtype),
        )
        with pytest.raises(PrecisionError):
            _oracle("phi2", D, 1.0, 1.0)


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

    def test_cutoffs_differ_by_observable(self):
        phi2 = _cutoffs("phi2", PlateConfig(1.0))
        phidot2 = _cutoffs("phidot2", PlateConfig(1.0))
        assert min(phi2) < min(phidot2)
        assert oracle._FIELDS["phidot2"].tail_degree >= oracle._FIELDS["phi2"].tail_degree

    def test_cutoffs_scale_with_separation(self):
        # eps carries length units: the cutoffs follow the separation
        unit = _cutoffs("phi2", PlateConfig(1.0))
        scaled = _cutoffs("phi2", PlateConfig(3.0))
        for a, b in zip(unit, scaled):
            assert b == pytest.approx(3.0 * a, rel=1e-14)

    def test_verify_builds_each_schedule_once(self):
        # 20 mode-sum points over two fields at one separation
        _cutoffs.cache_clear()
        run_verification(RunConfig(bc=D, L=0.77))
        info = _cutoffs.cache_info()
        assert info.maxsize == regsum._FIT_CACHE_SIZE
        assert (info.misses, info.hits) == (2, 18)
