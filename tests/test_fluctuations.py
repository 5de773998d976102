"""Tests for the local expectation values between the plates."""

import cmath
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platevac import regsum
from platevac.errors import DomainError
from platevac.fluctuations import (
    FIELD_PAIRS,
    ABPair,
    FluctuationSet,
    InteriorPoint,
    _fluctuations,
    _theta_of_z,
    ab_values,
    expectation_columns,
    expectation_set,
    phi_squared,
    phi_squared_single_plate,
)
from platevac.regsum import zeta_neg_int
from platevac.spectrum import BoundaryCondition, PlateConfig
from test_render import TEN_L

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
BOTH = (D, N)

interior_theta = st.floats(min_value=0.05, max_value=math.pi - 0.05)
lengths = st.floats(min_value=0.1, max_value=10.0)


class TestInteriorPoint:
    def test_roundtrip(self):
        config = PlateConfig(2.0)
        point = InteriorPoint.from_z(config, 0.5)
        assert point.theta == pytest.approx(math.pi / 4.0)
        assert InteriorPoint.from_theta(config, point.theta) == point

    @pytest.mark.parametrize("z", [0.0, 1.0, -0.2, 1.5])
    def test_surface_and_outside_rejected(self, z):
        with pytest.raises(DomainError):
            InteriorPoint.from_z(PlateConfig(1.0), z)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -1.0])
    def test_theta_range(self, theta):
        with pytest.raises(DomainError):
            InteriorPoint.from_theta(PlateConfig(1.0), theta)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -1.0, math.nan])
    def test_every_angle_path_shares_one_check(self, theta):
        config = PlateConfig(1.0)
        paths = [
            lambda: InteriorPoint.from_theta(config, theta),
            lambda: expectation_columns(D, config, np.array([1.0, theta])),
        ]
        messages = set()
        for path in paths:
            with pytest.raises(DomainError) as info:
                path()
            messages.add(str(info.value))
        assert messages == {f"theta must lie strictly between 0 and pi, got {theta!r}; "
                            "the sums diverge on the plate surfaces"}


class TestABValues:
    def test_midpoint(self):
        config = PlateConfig(1.0)
        ab = ab_values(config, InteriorPoint.from_theta(config, math.pi / 2.0))
        assert ab.A == pytest.approx(math.pi**2 / 1440.0, rel=1e-15)
        assert ab.B == pytest.approx(math.pi**2 / 96.0, rel=1e-15)

    def test_length_scaling(self):
        one = ab_values(PlateConfig(1.0), InteriorPoint.from_theta(PlateConfig(1.0), math.pi / 2))
        two = ab_values(PlateConfig(2.0), InteriorPoint.from_theta(PlateConfig(2.0), math.pi / 2))
        assert two.A == pytest.approx(one.A / 16.0, rel=1e-14)
        assert two.B == pytest.approx(one.B / 16.0, rel=1e-14)

    @pytest.mark.parametrize("theta", [0.05, 1e-6, math.pi - 1e-6])
    def test_close_to_plate_matches_abel_limit(self, theta):
        # B = (pi^2/12 L^4) * sum n^3 cos(2 n theta), the Abel limit of
        # sum n^3 x^n at x = e^(2 i theta), with 1 - x through the complex expm1
        config = PlateConfig(1.0)
        ab = ab_values(config, InteriorPoint.from_theta(config, theta))
        v = 2j * theta
        n3_cos = regsum._power_series(3, cmath.exp(v), -regsum._expm1(v)).real
        assert ab.B == pytest.approx((math.pi**2 / 12.0) * n3_cos, rel=1e-13)

    def test_b_minimum_at_midpoint(self):
        config = PlateConfig(1.0)
        mid = ab_values(config, InteriorPoint.from_theta(config, math.pi / 2.0)).B
        for theta in (0.3, 1.0, 2.0, 2.8):
            assert ab_values(config, InteriorPoint.from_theta(config, theta)).B >= mid


class TestPhiSquared:
    def test_midpoint_values(self):
        config = PlateConfig(1.0)
        mid = InteriorPoint.from_theta(config, math.pi / 2.0)
        assert phi_squared(D, config, mid) == pytest.approx(-1.0 / 24.0, rel=1e-14)
        assert phi_squared(N, config, mid) == pytest.approx(1.0 / 12.0, rel=1e-14)

    @pytest.mark.parametrize("bc", BOTH)
    def test_near_plate_overflow_raises(self, bc):
        # the formula gives -inf at (L, theta) = (1, 1e-155), +inf at (1e-72, 1e-120)
        config, theta = (PlateConfig(1.0), 1e-155) if bc is D else (PlateConfig(1e-72), 1e-120)
        with pytest.raises(DomainError, match="overflows"):
            phi_squared(bc, config, InteriorPoint.from_theta(config, theta))

    @pytest.mark.parametrize("bc", BOTH)
    def test_near_plate_divergence(self, bc):
        config = PlateConfig(1.0)
        near = phi_squared(bc, config, InteriorPoint.from_theta(config, 0.01))
        mid = phi_squared(bc, config, InteriorPoint.from_theta(config, math.pi / 2.0))
        assert abs(near) > 1e3 * abs(mid)
        assert math.copysign(1.0, near) == -bc.sign_upper

    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("theta", [0.1, 0.4, 1.0, 1.8, 2.7])
    def test_consistency_with_sum_form(self, bc, theta):
        # the mode-sum expression -(1/4L^2)(zeta(-1) - s sum n cos 2n theta),
        # with sum n cos 2n theta = -1/(4 sin^2 theta), and the closed profile
        # are the same function
        config = PlateConfig(1.0)
        closed = phi_squared(bc, config, InteriorPoint.from_theta(config, theta))
        n_cos = -1.0 / (4.0 * math.sin(theta) ** 2)
        sum_form = (-1.0 / (4.0 * config.L**2)) * (float(zeta_neg_int(1)) - bc.sign_upper * n_cos)
        assert closed == pytest.approx(sum_form, rel=1e-14)


class TestSinglePlate:
    def test_reference_values(self):
        assert phi_squared_single_plate(D, 1.0) == pytest.approx(-1.0 / (16.0 * math.pi**2), rel=1e-15)
        assert phi_squared_single_plate(N, 1.0) == pytest.approx(1.0 / (16.0 * math.pi**2), rel=1e-15)

    @pytest.mark.parametrize("bc", BOTH)
    def test_large_separation_limit(self, bc):
        config = PlateConfig(100.0)
        z = 0.01
        two_plate = phi_squared(bc, config, InteriorPoint.from_z(config, z))
        single = phi_squared_single_plate(bc, z)
        assert two_plate == pytest.approx(single, rel=1e-4)

    def test_surface_rejected(self):
        with pytest.raises(DomainError):
            phi_squared_single_plate(D, 0.0)

    @pytest.mark.parametrize("z, match", [(math.inf, "positive and finite"),
                                          (1e-160, "overflows"), (1e-200, "overflows")])
    def test_infinite_distance_and_overflow_rejected(self, z, match):
        # the formula gives -0.0, -inf and a division by 0 at these distances
        with pytest.raises(DomainError, match=match):
            phi_squared_single_plate(D, z)

    @given(st.sampled_from(BOTH),
           st.floats(min_value=-330.0, max_value=300.0).map(lambda e: 10.0 ** e)
           | st.sampled_from([math.inf, math.nan]))
    @settings(max_examples=300, deadline=None)
    def test_exact_value_or_a_library_error(self, bc, z):
        try:
            value = phi_squared_single_plate(bc, z)
        except DomainError:
            assert not 1e-150 < z < 1e150
            return
        assert z < math.inf
        assert math.isfinite(value)
        assert value == -bc.sign_upper / (16.0 * math.pi**2 * z * z)


class TestExpectationSet:
    def test_dirichlet_midpoint(self):
        config = PlateConfig(1.0)
        point = InteriorPoint.from_theta(config, math.pi / 2.0)
        fs = expectation_set(D, config, point)
        a = math.pi**2 / 1440.0
        b = math.pi**2 / 96.0
        assert fs.phidot2 == pytest.approx(b - a, rel=1e-13)
        assert fs.phidot2 == pytest.approx(0.0959545, rel=1e-5)
        assert fs.dzphi2 == pytest.approx(-3.0 * (a + b), rel=1e-13)
        assert fs.gradTphi2 == pytest.approx(2.0 * (a - b), rel=1e-13)
        assert fs.dlambda_phi2 == pytest.approx(6.0 * b, rel=1e-13)
        assert fs.phi_d2z_phi == pytest.approx(3.0 * (a - b), rel=1e-13)

    def test_neumann_midpoint(self):
        config = PlateConfig(1.0)
        fs = expectation_set(N, config, InteriorPoint.from_theta(config, math.pi / 2.0))
        a = math.pi**2 / 1440.0
        b = math.pi**2 / 96.0
        assert fs.dzphi2 == pytest.approx(3.0 * (b - a), rel=1e-13)
        assert fs.dlambda_phi2 == pytest.approx(-6.0 * b, rel=1e-13)

    @given(interior_theta, lengths, st.sampled_from(BOTH))
    @settings(max_examples=150, deadline=None)
    def test_contraction_identity(self, theta, L, bc):
        config = PlateConfig(L)
        fs = expectation_set(bc, config, InteriorPoint.from_theta(config, theta))
        scale = abs(fs.phidot2) + abs(fs.dzphi2) + abs(fs.gradTphi2) + abs(fs.dlambda_phi2)
        residual = abs(fs.phidot2 - fs.dzphi2 - fs.gradTphi2 - fs.dlambda_phi2)
        assert residual <= 5e-15 * scale

    @given(st.floats(min_value=1e-300, max_value=1e300),
           st.floats(min_value=-1e300, max_value=1e300), st.sampled_from((1, -1)))
    @settings(max_examples=300, deadline=None)
    def test_pair_table_matches_the_written_forms_bit_for_bit(self, A, B, s):
        assert tuple(FIELD_PAIRS) == tuple(inspect.signature(FluctuationSet).parameters)[1:]
        fs = _fluctuations(s, 1.0, 0.5, A, B)
        t = s * B
        written = {
            "phidot2": -(A - t),
            "dzphi2": -3.0 * (A + t),
            "gradTphi2": 2.0 * (A - t),
            "dlambda_phi2": 6.0 * t,
            "phi_d2z_phi": 3.0 * (A - t),
        }
        for name, value in written.items():
            got = getattr(fs, name)
            assert got == value and math.copysign(1.0, got) == math.copysign(1.0, value), name

    @given(interior_theta, st.sampled_from(BOTH))
    @settings(max_examples=80, deadline=None)
    def test_mirror_symmetry(self, theta, bc):
        config = PlateConfig(1.0)
        fs = expectation_set(bc, config, InteriorPoint.from_theta(config, theta))
        mirrored = expectation_set(bc, config, InteriorPoint.from_theta(config, math.pi - theta))
        for name in ("phi2", "phidot2", "dzphi2", "gradTphi2", "dlambda_phi2", "phi_d2z_phi"):
            a, b = getattr(fs, name), getattr(mirrored, name)
            assert b == pytest.approx(a, rel=1e-11, abs=1e-18 * (1.0 + abs(a)))

    @pytest.mark.parametrize("L", TEN_L)
    @pytest.mark.parametrize("bc", BOTH)
    def test_mirror_symmetry_on_the_stress_grid(self, L, bc):
        # verify's 100 grid angles: each 1/L^4 field to 1e-12 of |phidot2| +
        # |dzphi2| (worst 4.2e-15, dlambda_phi2), phi2 to 1e-12 of itself
        config = PlateConfig(L)
        for theta in np.linspace(0.4, math.pi - 0.4, 100).tolist():
            fs = expectation_set(bc, config, InteriorPoint.from_theta(config, theta))
            mirrored = expectation_set(bc, config, InteriorPoint.from_theta(config, math.pi - theta))
            scale = abs(fs.phidot2) + abs(fs.dzphi2)
            assert abs(mirrored.phi2 - fs.phi2) <= 1e-12 * abs(fs.phi2)
            for name in ("phidot2", "dzphi2", "gradTphi2", "dlambda_phi2", "phi_d2z_phi"):
                assert abs(getattr(mirrored, name) - getattr(fs, name)) <= 1e-12 * scale, name

    @given(interior_theta, lengths, st.floats(min_value=0.2, max_value=5.0),
           st.sampled_from(BOTH))
    @settings(max_examples=100, deadline=None)
    def test_length_scaling(self, theta, L, lam, bc):
        base = PlateConfig(L)
        scaled = PlateConfig(lam * L)
        fs = expectation_set(bc, base, InteriorPoint.from_theta(base, theta))
        gs = expectation_set(bc, scaled, InteriorPoint.from_theta(scaled, theta))
        assert gs.phi2 == pytest.approx(fs.phi2 / lam**2, rel=1e-12)
        for name in ("phidot2", "dzphi2", "gradTphi2", "dlambda_phi2", "phi_d2z_phi"):
            assert getattr(gs, name) == pytest.approx(getattr(fs, name) / lam**4, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.2, 0.9, 1.5, 2.4])
    def test_boundary_condition_duality(self, theta):
        # swapping the boundary condition flips the sign of every
        # B-proportional part: the bc average isolates the A-part and the
        # half-difference isolates the B-part
        config = PlateConfig(1.0)
        point = InteriorPoint.from_theta(config, theta)
        ab = ab_values(config, point)
        fd = expectation_set(D, config, point)
        fn = expectation_set(N, config, point)
        pairs = {
            "phidot2": (-ab.A, ab.B),
            "dzphi2": (-3.0 * ab.A, -3.0 * ab.B),
            "gradTphi2": (2.0 * ab.A, -2.0 * ab.B),
            "dlambda_phi2": (0.0, 6.0 * ab.B),
            "phi_d2z_phi": (3.0 * ab.A, -3.0 * ab.B),
        }
        for name, (a_part, b_part) in pairs.items():
            avg = 0.5 * (getattr(fd, name) + getattr(fn, name))
            half_diff = 0.5 * (getattr(fd, name) - getattr(fn, name))
            tol = 1e-13 * (abs(a_part) + abs(b_part))
            assert abs(avg - a_part) <= tol
            assert abs(half_diff - b_part) <= tol


class TestExpectationColumns:
    @pytest.mark.parametrize("bc", BOTH)
    def test_equals_scalar_path_point_by_point(self, bc):
        config = PlateConfig(0.37)
        z = np.linspace(1e-7, 0.37 - 1e-7, 257)
        theta = _theta_of_z(config, z)
        fs, ab = expectation_columns(bc, config, theta)
        for i, zi in enumerate(z.tolist()):
            point = InteriorPoint.from_z(config, zi)
            assert theta[i] == point.theta
            assert ab.B[i] == ab_values(config, point).B
            for name, value in vars(expectation_set(bc, config, point)).items():
                assert getattr(fs, name)[i] == value, name

    @pytest.mark.parametrize("bad", [0.0, math.pi, -0.2, 4.0, math.nan])
    def test_every_point_checked(self, bad):
        theta = np.array([0.3, 1.5, bad, 2.8])
        with pytest.raises(DomainError):
            expectation_columns(D, PlateConfig(1.0), theta)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_every_position_checked(self, bad):
        z = np.array([0.1, 0.5, bad, 0.9])
        with pytest.raises(DomainError):
            _theta_of_z(PlateConfig(1.0), z)

    def test_plate_position_rejected_even_when_theta_rounds_below_pi(self):
        L = 0.7000000000000001
        assert math.pi * L / L < math.pi
        with pytest.raises(DomainError, match="not strictly inside"):
            _theta_of_z(PlateConfig(L), np.array([0.5 * L, L]))
        with pytest.raises(DomainError, match="not strictly inside"):
            InteriorPoint.from_z(PlateConfig(L), L)

    def test_overflowing_profile_part_rejected_in_both_paths(self):
        # sin^2 theta is positive but B = pi^2 f / (96 L^4) overflows
        config = PlateConfig(1e-40)
        theta = 1e-80
        with pytest.raises(DomainError, match="B overflows"):
            ab_values(config, InteriorPoint.from_theta(config, theta))
        with pytest.raises(DomainError, match="B overflows"):
            expectation_set(N, config, InteriorPoint.from_theta(config, theta))
        with pytest.raises(DomainError, match="B overflows"):
            expectation_columns(D, config, np.array([0.5 * math.pi, theta]))

    def test_underflowing_sine_rejected_in_both_paths(self):
        config = PlateConfig(1.0)
        with pytest.raises(DomainError):
            expectation_set(D, config, InteriorPoint.from_theta(config, 1e-200))
        with pytest.raises(DomainError):
            expectation_columns(D, config, np.array([0.5 * math.pi, 1e-200]))
