"""Tests for the energy-momentum tensor assembly."""

import hashlib
import inspect
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platevac import fluctuations, stress
from platevac.errors import ConsistencyError, DomainError, PlateVacError
from platevac.fluctuations import (
    FIELD_PAIRS,
    FluctuationSet,
    InteriorPoint,
    Pair,
    _kernel,
    ab_values,
    expectation_columns,
    expectation_set,
    phi_squared,
)
from platevac.spectrum import L_MAX, L_MIN, BoundaryCondition, PlateConfig
from platevac.stress import StressReport, stress_report

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
BOTH = (D, N)

A_REF = math.pi**2 / 1440.0
B_REF = math.pi**2 / 96.0


def _fields(record_class) -> list[str]:
    """A record's field names, in order: its constructor's parameters."""
    return list(inspect.signature(record_class).parameters)


def _setup(bc, theta=math.pi / 2.0, L=1.0):
    config = PlateConfig(L)
    point = InteriorPoint.from_theta(config, theta)
    return expectation_set(bc, config, point), ab_values(config, point)


def _report(bc, theta=math.pi / 2.0, L=1.0):
    return stress_report(*_setup(bc, theta, L))


# SHA-256 of every FluctuationSet, ABPair and StressReport value, packed
# as '<d' in field order, over the points of _scalar_records(); taken
# while the records were frozen and expectation_set built its own ABPair,
# so the leaner scalar path is held to the same bits.
SCALAR_PATH_DIGEST = "e06ce74eea1ce4929f22dc7f77640994170abee6cf255cca6318a334bfd92513"


def _scalar_records(count=2000):
    """(FluctuationSet, ABPair, StressReport) at seeded points: both BCs,
    L log-uniform in [1e-3, 1e3], distance to either plate log-uniform
    in [1e-6, pi/2]."""
    rng = random.Random("scalar-path")
    top = math.log10(math.pi / 2.0)
    for _ in range(count):
        bc = rng.choice(BOTH)
        L = 10.0 ** rng.uniform(-3.0, 3.0)
        distance = 10.0 ** rng.uniform(-6.0, top)
        config = PlateConfig(L)
        point = InteriorPoint.from_theta(
            config, distance if rng.random() < 0.5 else math.pi - distance)
        fluct, ab = expectation_set(bc, config, point), ab_values(config, point)
        yield fluct, ab, stress_report(fluct, ab)


# exact rationals, 0 among them, and the doubles at the edges of the range
COEFFICIENTS = st.one_of(st.just(Fraction(0)),
                         st.fractions(min_value=-64, max_value=64, max_denominator=64))
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                               -1e-300, 1e300, -1e300, 1.7976931348623157e308, math.inf,
                               -math.inf, math.nan])


def _written(pair, A, t):
    """alpha A + beta t in the form the kernel documents, from the rationals."""
    if not pair.beta:
        return float(pair.alpha) * A
    if not pair.alpha:
        return float(pair.beta) * t
    return float(pair.alpha) * (A + float(pair.beta / pair.alpha) * t)


def _bits(value):
    """The double's bit pattern, sign of zero included; every NaN reads alike."""
    value = float(value)
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def _values(*values):
    """The record that keeps a kernel's values as they come."""
    return values


class _Untouchable:
    """A t that fails any arithmetic."""

    def _fail(self, *args):
        raise AssertionError("t was read")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __neg__ = _fail


class TestPairAlgebra:
    def test_proved_components(self):
        pairs = stress._COMPONENTS
        assert list(pairs) == _fields(StressReport)
        assert pairs["energy_density_canonical"] == Pair(-1, -2)
        assert pairs["huggins_00"] == Pair(0, 2)
        assert pairs["energy_density_improved"] == Pair(-1, 0)
        assert pairs["t_zz"] == Pair(-3, 0)
        assert pairs["trace_canonical"] == Pair(0, -6)
        assert pairs["trace_improved"] == Pair(0, 0)

    @pytest.mark.parametrize("name, corrupted", [
        ("dzphi2", Pair(-3, -2)),
        ("phi_d2z_phi", Pair(3, -2)),
        ("gradTphi2", Pair(Fraction(5, 2), -2)),
        ("dlambda_phi2", Pair(0, 5)),
    ])
    def test_corrupted_table_fails_the_proof(self, name, corrupted):
        with pytest.raises(ConsistencyError):
            stress._derive({**FIELD_PAIRS, name: corrupted})

    def test_beta_zero_never_touches_t(self):
        # the improved density and T_zz read A alone, whatever t holds
        pairs = (stress._COMPONENTS["energy_density_improved"], stress._COMPONENTS["t_zz"])
        assert _kernel(pairs, _values)(0.25, math.nan) == (-0.25, -0.75)
        assert _kernel(pairs, _values)(0.25, math.inf) == (-0.25, -0.75)

    @given(st.lists(st.builds(Pair, COEFFICIENTS, COEFFICIENTS), max_size=8),
           st.one_of(st.floats(allow_nan=False), EDGE_FLOATS),
           st.one_of(st.floats(), EDGE_FLOATS))
    @settings(max_examples=150, deadline=None)
    def test_kernel_of_any_table_is_its_written_form(self, table, A, t):
        kernel = _kernel(tuple(table), _values)
        values = kernel(A, t)
        assert len(values) == len(table)
        for pair, value in zip(table, values):
            assert _bits(value) == _bits(_written(pair, A, t)), pair
        # beta = 0 terms never read t, whatever it is
        untouched = [p for p in table if not p.beta]
        assert [_bits(v) for v in _kernel(tuple(untouched), _values)(A, _Untouchable())] == [
            _bits(float(p.alpha) * A) for p in untouched]
        # on arrays, as stress_report hands them over, each value at every element
        with np.errstate(over="ignore", invalid="ignore"):
            columns = kernel(np.broadcast_to(A, (2,)), np.array([t, t]))
        for column, value in zip(columns, values):
            assert column.dtype == np.float64 and column.shape == (2,)
            assert _bits(column[0]) == _bits(column[1]) == _bits(value)

    @given(st.one_of(st.floats(allow_nan=False), EDGE_FLOATS), st.one_of(st.floats(), EDGE_FLOATS),
           st.one_of(st.floats(), EDGE_FLOATS))
    @settings(max_examples=150, deadline=None)
    def test_import_kernels_give_the_written_forms(self, A, t, phi2):
        # both kernels built at import hold in each field the written form
        # of its pair, bit for bit, and hand phi2 through untouched
        fluct = fluctuations._FIELD_KERNEL(phi2, A, t)
        report = stress._COMPONENT_KERNEL(A, t)
        assert type(fluct) is FluctuationSet and type(report) is StressReport
        assert _bits(fluct.phi2) == _bits(phi2)
        for record, pairs in ((fluct, FIELD_PAIRS), (report, stress._COMPONENTS)):
            assert [_bits(getattr(record, name)) for name in pairs] == [
                _bits(_written(pair, A, t)) for pair in pairs.values()]
        assert _fields(FluctuationSet) == ["phi2", *FIELD_PAIRS]
        assert _fields(StressReport) == [*stress._COMPONENTS]

    def test_zero_pair_is_positive_zero(self):
        [value] = _kernel((Pair(0, 0),), _values)(0.25, -3.0)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_array_results_take_the_shape_of_t(self):
        theta = np.linspace(0.1, 3.0, 7)
        for bc in BOTH:
            fluct, ab = expectation_columns(bc, PlateConfig(0.77), theta)
            for record in (fluct, stress_report(fluct, ab)):
                for name, value in vars(record).items():
                    assert isinstance(value, np.ndarray) and value.shape == theta.shape, name
                    assert value.dtype == np.float64, name

    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("L, margin", [(2.37, 0.05), (0.1239, 0.02), (1.825, 0.02),
                                           (0.6891, 0.2488), (3.3, 0.001)])
    def test_canonical_and_improvement_correctly_rounded(self, bc, L, margin):
        config = PlateConfig(L)
        z = L * np.linspace(margin, 1.0 - margin, 2001)
        fluct, ab = expectation_columns(bc, config, math.pi * z / L)
        report = stress_report(fluct, ab)
        A = Fraction(ab.A)
        for B, canonical, huggins in zip(ab.B.tolist(), report.energy_density_canonical.tolist(),
                                         report.huggins_00.tolist()):
            t = bc.sign_upper * Fraction(B)
            assert canonical == float(-(A + 2 * t))
            assert huggins == float(2 * t)


class TestCanonicalDensity:
    def test_dirichlet_midpoint(self):
        value = _report(D).energy_density_canonical
        assert value == pytest.approx(-(A_REF + 2.0 * B_REF), rel=1e-13)
        assert value == pytest.approx(-0.212471, rel=1e-5)

    def test_neumann_midpoint(self):
        value = _report(N).energy_density_canonical
        assert value == pytest.approx(2.0 * B_REF - A_REF, rel=1e-13)
        assert value == pytest.approx(0.198763, rel=1e-5)

    def test_equals_half_the_field_sum(self):
        for bc in BOTH:
            for theta in (0.3, 0.8, 1.6, 2.6):
                fs, ab = _setup(bc, theta)
                field_sum = 0.5 * (fs.phidot2 + fs.dzphi2 + fs.gradTphi2)
                assert stress_report(fs, ab).energy_density_canonical == pytest.approx(
                    field_sum, rel=1e-14)

    def test_bc_average_is_minus_two_A(self):
        for theta in (0.3, 0.8, 1.6, 2.6):
            _, ab = _setup(D, theta)
            total = _report(D, theta).energy_density_canonical + _report(N, theta).energy_density_canonical
            assert total == pytest.approx(-2.0 * ab.A, abs=1e-13 * ab.B)


class TestHugginsTerm:
    def test_midpoint_values(self):
        assert _report(D).huggins_00 == pytest.approx(2.0 * B_REF, rel=1e-12)
        assert _report(D).huggins_00 == pytest.approx(0.205617, rel=1e-5)
        assert _report(N).huggins_00 == pytest.approx(-2.0 * B_REF, rel=1e-12)

    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("theta", [0.1, 0.7, 1.5, 2.5])
    def test_third_of_dlambda(self, bc, theta):
        fs, ab = _setup(bc, theta)
        assert stress_report(fs, ab).huggins_00 == pytest.approx(fs.dlambda_phi2 / 3.0, rel=1e-15)


class TestImprovedDensity:
    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("theta", [1e-5, 0.05, 0.4, 1.0, math.pi / 2.0, 2.8])
    def test_constant_minus_A(self, bc, theta):
        # at theta = 1e-5, B/A ~ 1e20: cancelling B in floats would leave
        # nothing of A
        fs, ab = _setup(bc, theta)
        report = stress_report(fs, ab)
        assert report.energy_density_improved == -ab.A
        assert report.t_zz == -3.0 * ab.A

    def test_reference_value(self):
        value = _report(D).energy_density_improved
        assert value == pytest.approx(-A_REF, rel=1e-15)
        assert value == pytest.approx(-6.85389e-3, rel=1e-5)

    def test_length_scaling(self):
        assert _report(N, 1.0, L=2.0).energy_density_improved == pytest.approx(
            -math.pi**2 / 23040.0, rel=1e-15)

    def test_theta_independence(self):
        assert _report(D, 0.05).energy_density_improved == _report(D).energy_density_improved


class TestPressureComponent:
    def test_reference_value(self):
        value = _report(D).t_zz
        assert value == pytest.approx(-math.pi**2 / 480.0, rel=1e-15)
        assert value == -3.0 * _setup(D)[1].A

    def test_bc_independent(self):
        assert _report(D, 0.3).t_zz == _report(N, 0.3).t_zz

    def test_length_scaling(self):
        assert _report(D, 1.2, L=2.0).t_zz == pytest.approx(-math.pi**2 / 7680.0, rel=1e-15)

    def test_is_three_times_energy_density(self):
        report = _report(N, 0.8)
        assert report.t_zz == 3.0 * report.energy_density_improved


class TestTraces:
    def test_midpoint_values(self):
        report = _report(D)
        assert report.trace_canonical == pytest.approx(-math.pi**2 / 16.0, rel=1e-13)
        assert report.trace_improved == 0.0
        report = _report(N)
        assert report.trace_canonical == pytest.approx(math.pi**2 / 16.0, rel=1e-13)
        assert report.trace_improved == 0.0

    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("theta", [0.1, 0.6, 1.1, 2.0, 3.0])
    def test_improved_trace_vanishes_everywhere(self, bc, theta):
        fs, ab = _setup(bc, theta)
        report = stress_report(fs, ab)
        assert report.trace_canonical == -fs.dlambda_phi2
        assert report.trace_canonical == pytest.approx(-6.0 * bc.sign_upper * ab.B, rel=1e-15)
        assert report.trace_improved == 0.0


class TestStressReport:
    @pytest.mark.parametrize("bc", BOTH)
    def test_assembly(self, bc):
        report = _report(bc, 0.9)
        assert report.energy_density_improved == pytest.approx(
            report.energy_density_canonical + report.huggins_00, rel=1e-12
        )
        assert report.trace_improved == 0.0
        assert report.t_zz == pytest.approx(-math.pi**2 / 480.0, rel=1e-15)

    @pytest.mark.parametrize("bc", BOTH)
    def test_columns_equal_points(self, bc):
        config = PlateConfig(1.3)
        z = np.linspace(1e-6, 1.3 - 1e-6, 11)
        fs, ab = expectation_columns(bc, config, math.pi * z / 1.3)
        columns = stress_report(fs, ab)
        for i, zi in enumerate(z.tolist()):
            point = InteriorPoint.from_z(config, zi)
            report = stress_report(expectation_set(bc, config, point), ab_values(config, point))
            for name, value in vars(report).items():
                assert getattr(columns, name)[i] == value, name
        assert np.all(columns.energy_density_improved == -ab.A)
        assert np.all(columns.t_zz == -3.0 * ab.A)


class TestDomain:
    def test_overflowing_point_raises(self):
        # B overflows at theta = 1e-80
        with pytest.raises(DomainError, match="B overflows"):
            _setup(D, 1e-80)

    @given(st.sampled_from(BOTH),
           st.floats(min_value=math.log10(L_MIN), max_value=math.log10(L_MAX)),
           st.floats(min_value=-330.0, max_value=math.log10(math.pi / 2.0)),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_exact_values_or_a_library_error(self, bc, log_L, log_distance, upper):
        # over the whole separation range and down to subnormal distances
        # from either plate: finite values with the exact constants, or a
        # PlateVacError, never a NaN, an infinity or another exception
        L = min(max(10.0 ** log_L, L_MIN), L_MAX)
        distance = 10.0 ** log_distance
        theta = math.pi - distance if upper else distance
        try:
            config = PlateConfig(L)
            point = InteriorPoint.from_theta(config, theta)
        except PlateVacError:
            return
        try:
            phi2 = phi_squared(bc, config, point)
        except PlateVacError:
            phi2 = None
        else:
            assert math.isfinite(phi2)
        try:
            fluct, ab = expectation_set(bc, config, point), ab_values(config, point)
            report = stress_report(fluct, ab)
        except PlateVacError:
            return
        values = [*vars(fluct).values(), *vars(report).values()]
        assert all(math.isfinite(v) for v in values)
        assert phi2 == fluct.phi2
        assert report.energy_density_improved == -ab.A
        assert report.t_zz == -3.0 * ab.A


class TestScalarPath:
    def test_records_pinned_bit_for_bit(self):
        digest = hashlib.sha256()
        for records in _scalar_records():
            for record in records:
                for name, value in vars(record).items():
                    assert type(value) is float, name
                    digest.update(struct.pack("<d", value))
        assert digest.hexdigest() == SCALAR_PATH_DIGEST

    def test_vars_lists_the_fields_in_order(self):
        # cli and the benchmark's point checks read the records through vars()
        for record in next(_scalar_records(1)):
            assert list(vars(record)) == _fields(type(record))
