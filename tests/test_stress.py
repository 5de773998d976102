"""Tests for the energy-momentum tensor assembly."""

import math
from dataclasses import replace

import numpy as np
import pytest

from platevac.errors import ConsistencyError, PlateVacError
from platevac.fluctuations import (
    ABPair,
    FluctuationSet,
    InteriorPoint,
    ab_values,
    expectation_columns,
    expectation_set,
)
from platevac.spectrum import BoundaryCondition, PlateConfig
from platevac.stress import (
    FieldType,
    TensorForm,
    brown_maclay_form,
    canonical_T00,
    huggins_delta_T00,
    improved_energy_density,
    stress_report,
    t_zz,
    traces,
)

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
BOTH = (D, N)

A_REF = math.pi**2 / 1440.0
B_REF = math.pi**2 / 96.0


def _setup(bc, theta=math.pi / 2.0, L=1.0):
    config = PlateConfig(L)
    point = InteriorPoint.from_theta(config, theta)
    return expectation_set(bc, config, point), ab_values(config, point)


class TestCanonicalDensity:
    def test_dirichlet_midpoint(self):
        fs, _ = _setup(D)
        assert canonical_T00(fs) == pytest.approx(-(A_REF + 2.0 * B_REF), rel=1e-13)
        assert canonical_T00(fs) == pytest.approx(-0.212471, rel=1e-5)

    def test_neumann_midpoint(self):
        fs, _ = _setup(N)
        assert canonical_T00(fs) == pytest.approx(2.0 * B_REF - A_REF, rel=1e-13)
        assert canonical_T00(fs) == pytest.approx(0.198763, rel=1e-5)

    def test_profile_free_set_gives_minus_A(self):
        # with the B-parts removed by hand, both conditions reduce to -A
        flat = FluctuationSet(
            phi2=0.0, phidot2=-A_REF, dzphi2=-3.0 * A_REF,
            gradTphi2=2.0 * A_REF, dlambda_phi2=0.0, phi_d2z_phi=3.0 * A_REF,
        )
        assert canonical_T00(flat) == pytest.approx(-A_REF, rel=1e-14)

    def test_bc_average_is_minus_two_A(self):
        for theta in (0.3, 0.8, 1.6, 2.6):
            fd, ab = _setup(D, theta)
            fn, _ = _setup(N, theta)
            total = canonical_T00(fd) + canonical_T00(fn)
            assert total == pytest.approx(-2.0 * ab.A, abs=1e-13 * ab.B)


class TestHugginsTerm:
    def test_midpoint_values(self):
        fs, _ = _setup(D)
        assert huggins_delta_T00(fs) == pytest.approx(2.0 * B_REF, rel=1e-12)
        assert huggins_delta_T00(fs) == pytest.approx(0.205617, rel=1e-5)
        fs, _ = _setup(N)
        assert huggins_delta_T00(fs) == pytest.approx(-2.0 * B_REF, rel=1e-12)

    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("theta", [0.1, 0.7, 1.5, 2.5])
    def test_subtractive_equals_constructive(self, bc, theta):
        fs, _ = _setup(bc, theta)
        value = huggins_delta_T00(fs)
        constructive = fs.dlambda_phi2 / 3.0
        assert value == pytest.approx(constructive, rel=1e-12)

    def test_inconsistent_set_rejected(self):
        fs, _ = _setup(D)
        corrupted = replace(fs, dlambda_phi2=-fs.dlambda_phi2)
        with pytest.raises(ConsistencyError):
            huggins_delta_T00(corrupted)


class TestImprovedDensity:
    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("theta", [0.05, 0.4, 1.0, math.pi / 2.0, 2.8])
    def test_constant_minus_A(self, bc, theta):
        fs, ab = _setup(bc, theta)
        value = improved_energy_density(fs, ab)
        # tolerance scaled by the cancelling magnitude: near the plates B
        # dwarfs A and round-off on B is the accuracy floor
        assert abs(value + ab.A) <= 1e-12 * (ab.A + 2.0 * ab.B)

    def test_reference_value(self):
        fs, ab = _setup(D)
        assert improved_energy_density(fs, ab) == pytest.approx(-A_REF, rel=1e-12)
        assert improved_energy_density(fs, ab) == pytest.approx(-6.85389e-3, rel=1e-5)

    def test_length_scaling(self):
        fs, ab = _setup(N, 1.0, L=2.0)
        assert improved_energy_density(fs, ab) == pytest.approx(-math.pi**2 / 23040.0, rel=1e-12)

    def test_theta_independence(self):
        near, ab_near = _setup(D, 0.05)
        mid, _ = _setup(D, math.pi / 2.0)
        a = improved_energy_density(near, ab_near)
        b = improved_energy_density(mid, ab_values(PlateConfig(1.0),
                                                   InteriorPoint.from_theta(PlateConfig(1.0), math.pi / 2.0)))
        assert abs(a - b) <= 1e-12 * (ab_near.A + 2.0 * ab_near.B)

    def test_corrupted_cancellation_rejected(self):
        fs, ab = _setup(D, 0.9)
        broken = replace(fs, dzphi2=fs.dzphi2 * (1.0 + 1e-6))
        with pytest.raises(ConsistencyError):
            improved_energy_density(broken, ab)


class TestPressureComponent:
    def test_reference_value(self):
        fs, ab = _setup(D)
        assert t_zz(fs, ab) == pytest.approx(-math.pi**2 / 480.0, rel=1e-12)
        assert t_zz(fs, ab) == pytest.approx(-3.0 * A_REF, rel=1e-12)

    def test_bc_independent(self):
        fd, ab = _setup(D, 0.3)
        fn, _ = _setup(N, 0.3)
        assert abs(t_zz(fd, ab) - t_zz(fn, ab)) <= 1e-12 * (3.0 * ab.A + 4.0 * ab.B)

    def test_length_scaling(self):
        fs, ab = _setup(D, 1.2, L=2.0)
        assert t_zz(fs, ab) == pytest.approx(-math.pi**2 / 7680.0, rel=1e-12)

    def test_is_three_times_energy_density(self):
        fs, ab = _setup(N, 0.8)
        assert t_zz(fs, ab) == pytest.approx(3.0 * improved_energy_density(fs, ab), rel=1e-11)


class TestTraces:
    def test_midpoint_values(self):
        fs, _ = _setup(D)
        canonical, improved = traces(fs)
        assert canonical == pytest.approx(-math.pi**2 / 16.0, rel=1e-13)
        assert improved == 0.0
        fs, _ = _setup(N)
        canonical, improved = traces(fs)
        assert canonical == pytest.approx(math.pi**2 / 16.0, rel=1e-13)
        assert improved == 0.0

    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("theta", [0.1, 0.6, 1.1, 2.0, 3.0])
    def test_improved_trace_vanishes_everywhere(self, bc, theta):
        fs, ab = _setup(bc, theta)
        canonical, improved = traces(fs)
        assert canonical == pytest.approx(-6.0 * bc.sign_upper * ab.B, rel=1e-12)
        assert improved == 0.0


class TestBrownMaclayForm:
    def test_electromagnetic_components(self):
        form = brown_maclay_form(1.0, FieldType.ELECTROMAGNETIC)
        assert form.components[0, 0] == pytest.approx(-math.pi**2 / 720.0, rel=1e-15)
        assert form.components[3, 3] == pytest.approx(-math.pi**2 / 240.0, rel=1e-15)

    def test_scalar_components_match_stress(self):
        form = brown_maclay_form(1.0, FieldType.SCALAR)
        fs, ab = _setup(D, 1.3)
        assert form.components[0, 0] == pytest.approx(improved_energy_density(fs, ab), rel=1e-12)
        assert form.components[3, 3] == pytest.approx(t_zz(fs, ab), rel=1e-12)

    def test_transverse_entries(self):
        # eta_xx = -1 with n_x = 0 flips the coefficient's sign
        form = brown_maclay_form(1.0, FieldType.SCALAR)
        c = form.coefficient()
        assert form.components[1, 1] == -c
        assert form.components[2, 2] == -c

    def test_structure_recovered_from_00_entry(self):
        for source in FieldType:
            form = brown_maclay_form(2.0, source)
            expected = -math.pi**2 / (1440.0 * 16.0)
            if source is FieldType.ELECTROMAGNETIC:
                expected *= 2.0
            assert form.coefficient() == pytest.approx(expected, rel=1e-15)

    def test_em_is_exactly_twice_scalar(self):
        scalar = brown_maclay_form(1.5, FieldType.SCALAR)
        em = brown_maclay_form(1.5, FieldType.ELECTROMAGNETIC)
        assert np.array_equal(em.components, 2.0 * scalar.components)

    def test_off_diagonal_zero_and_symmetric(self):
        form = brown_maclay_form(1.0, FieldType.SCALAR)
        comp = form.components
        assert np.array_equal(comp, comp.T)
        assert np.all(comp[~np.eye(4, dtype=bool)] == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            brown_maclay_form(0.0, FieldType.SCALAR)
        with pytest.raises(ValueError):
            TensorForm(components=np.ones((3, 3)))
        bad = np.diag([1.0, 1.0, 1.0, 1.0])
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            TensorForm(components=bad)
        lopsided = np.diag([1.0, -1.0, -1.0, 2.9])
        with pytest.raises(ConsistencyError):
            TensorForm(components=lopsided).coefficient()


class TestStressReport:
    @pytest.mark.parametrize("bc", BOTH)
    def test_assembly(self, bc):
        fs, ab = _setup(bc, 0.9)
        report = stress_report(fs, ab)
        assert report.energy_density_improved == pytest.approx(
            report.energy_density_canonical + report.huggins_00, rel=1e-12
        )
        assert report.trace_improved == 0.0
        assert report.t_zz == pytest.approx(-math.pi**2 / 480.0, rel=1e-12)


class TestGuards:
    def test_overflowing_point_raises_instead_of_nan(self):
        # B overflows at theta = 1e-80; the cancellation residual is NaN,
        # which must fail its check rather than slip through it
        fs, ab = _setup(D, 1e-80)
        with pytest.raises(PlateVacError):
            stress_report(fs, ab)

    @pytest.mark.parametrize("check", [huggins_delta_T00, improved_energy_density, t_zz])
    def test_nan_fails_every_guard(self, check):
        fs, ab = _setup(D, 0.9)
        broken = replace(fs, dlambda_phi2=math.nan, dzphi2=math.nan)
        with pytest.raises(ConsistencyError):
            check(broken) if check is huggins_delta_T00 else check(broken, ab)

    @pytest.mark.parametrize("bc", BOTH)
    def test_columns_checked_element_by_element(self, bc):
        config = PlateConfig(1.3)
        z = np.linspace(0.05, 1.25, 11)
        _, fs, ab = expectation_columns(bc, config, z)
        report = stress_report(fs, ab)
        assert np.all(np.abs(report.t_zz + 3.0 * ab.A) <= 1e-12 * (3.0 * ab.A + 4.0 * ab.B))
        corrupted = fs.dzphi2.copy()
        corrupted[7] *= 1.0 + 1e-6
        broken = replace(fs, dzphi2=corrupted)
        # the array check fails with the scalar check's message at the bad point
        point = FluctuationSet(**{k: float(v[7]) for k, v in vars(broken).items()})
        point_ab = ABPair(A=ab.A, B=float(ab.B[7]))
        for check in (improved_energy_density, t_zz):
            with pytest.raises(ConsistencyError) as scalar_error:
                check(point, point_ab)
            with pytest.raises(ConsistencyError) as array_error:
                check(broken, ab)
            assert str(array_error.value) == str(scalar_error.value)
