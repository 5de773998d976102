"""The contract of every function in ``platevac.__all__``: any numeric
argument gives finite values or a PlateVacError.

Every call is timed and held to a bound far above its microseconds, so
an argument that sends a call into a long loop fails too.  The suite
turns warnings into errors, so a numpy RuntimeWarning fails a call as
well.  Wrong types (str, None, complex) are outside the contract.
``stress_report`` trusts its records, so it gets only records the
library itself returned.  A finite value can still be wrong, so each
``master_integral`` value must also meet its identity.
"""

import math
import sys
import time

import numpy as np
from hypothesis import example, given, settings, strategies as st

from platevac import (
    BoundaryCondition,
    InteriorPoint,
    PlateConfig,
    ab_values,
    bernoulli,
    em_reference,
    expectation_columns,
    expectation_set,
    integrated_density_check,
    k_n,
    master_integral,
    mode_sum_finite_part,
    phi_squared,
    phi_squared_single_plate,
    pressure,
    quadrature_reference,
    stress_report,
    total_energy,
    zeta_neg_int,
)
from platevac.errors import PlateVacError, _Record
from platevac.spectrum import L_MAX, L_MIN

CALL_BOUND_S = 0.5

numbers = st.one_of(
    st.floats(),  # NaN, infinities, signed zeros and subnormals among them
    st.floats(min_value=0.0, max_value=4.0),  # angles and distances inside a unit gap
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-320,
                     1e-300, -1e-300, 1e300, -1e300, 1e-6, math.pi - 1e-6]),
    st.integers(min_value=-10, max_value=10),
    st.sampled_from([True, False, 10**400, -10**400]),
)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the double range
        return False


def _assert_finite(value, where: str) -> None:
    if isinstance(value, _Record):
        for name, field in vars(value).items():
            _assert_finite(field, f"{where}.{name}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            _assert_finite(item, f"{where}[{i}]")
    elif not isinstance(value, BoundaryCondition):
        assert _finite(value), f"{where} = {value!r}"


def _call(fn, *args):
    """fn(*args), checked finite, or None where it raises a PlateVacError."""
    start = time.perf_counter()
    try:
        value = fn(*args)
    except PlateVacError:
        value = None
    elapsed = time.perf_counter() - start
    assert elapsed < CALL_BOUND_S, f"{fn.__qualname__}{args!r} took {elapsed:.3f} s"
    if value is not None:
        _assert_finite(value, f"{fn.__qualname__}{args!r}")
    return value


@given(L=numbers, z=numbers, theta=numbers, bc=st.sampled_from(list(BoundaryCondition)))
@settings(max_examples=400, deadline=None)
def test_point_api_gives_finite_values_or_a_library_error(L, z, theta, bc):
    _call(phi_squared_single_plate, bc, z)
    configs = [PlateConfig(1.0)]
    config = _call(PlateConfig, L)
    if config is not None:
        configs.append(config)
    points = [_call(InteriorPoint, theta)]
    for config in configs:
        points += [_call(InteriorPoint.from_z, config, z),
                   _call(InteriorPoint.from_theta, config, theta)]
    for config in configs:
        for point in points:
            if point is None:
                continue
            _call(phi_squared, bc, config, point)
            fluct, ab = _call(expectation_set, bc, config, point), _call(ab_values, config, point)
            if fluct is not None and ab is not None:
                _call(stress_report, fluct, ab)


@given(L=numbers, theta=st.one_of(numbers, st.sampled_from([5e-324, 1e-200])),
       field=st.sampled_from(["phi2", "phidot2", "energy_density_canonical"]),
       bc=st.sampled_from(list(BoundaryCondition)))
@settings(max_examples=300, deadline=None)
def test_oracles_give_finite_values_or_a_library_error(L, theta, field, bc):
    configs = [PlateConfig(1.0)]
    config = _call(PlateConfig, L)
    if config is not None:
        configs.append(config)
    for config in configs:
        point = _call(InteriorPoint.from_theta, config, theta)
        if point is not None:
            _call(mode_sum_finite_part, field, bc, config, point)


inside = st.floats(min_value=0.0, max_value=math.pi, exclude_min=True, exclude_max=True)
angles = st.one_of(inside, st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                                            1e-160, math.pi, math.pi - 1e-15]))


def _assert_finite_columns(record, shape, where: str) -> None:
    for name, value in vars(record).items():
        assert isinstance(value, np.ndarray) and value.dtype == np.float64, f"{where}.{name}"
        assert value.shape == shape, f"{where}.{name} has shape {value.shape}"
        assert np.isfinite(value).all(), f"{where}.{name} = {value!r}"


# half the grids hold only angles inside (0, pi), so that most of those pass
@given(theta=st.one_of(st.lists(inside, max_size=12), st.lists(angles, max_size=12)),
       L=st.one_of(st.floats(min_value=L_MIN, max_value=L_MAX), st.sampled_from([L_MIN, L_MAX])),
       bc=st.sampled_from(list(BoundaryCondition)))
@settings(max_examples=300, deadline=None)
def test_array_path_gives_finite_columns_or_a_library_error(theta, L, bc):
    theta = np.array(theta, dtype=np.float64)
    config = PlateConfig(L)
    start = time.perf_counter()
    try:
        fluct, ab = expectation_columns(bc, config, theta)
    except PlateVacError:
        return
    middle = time.perf_counter()
    report = stress_report(fluct, ab)
    end = time.perf_counter()
    where = f"expectation_columns({bc}, {L!r}, {theta!r})"
    assert middle - start < CALL_BOUND_S and end - middle < CALL_BOUND_S, where
    _assert_finite_columns(fluct, theta.shape, where)
    _assert_finite_columns(report, theta.shape, f"stress_report of {where}")
    assert math.isfinite(ab.A)
    assert ab.B.shape == theta.shape and np.isfinite(ab.B).all()


def _assert_master_identity(value: float, N, m_sq) -> None:
    """value 4 pi (N - 1) (m^2)^(N - 1) = 1, in logs where a factor leaves the normal range.

    Of 300 000 seeded draws, N uniform in [-400, 400] and m^2
    log-uniform in [1e-300, 1e300], the 5 276 values returned read at
    most 4.4e-16; 25 of them lie where the power (m^2)^(1 - N) alone
    overflows.
    """
    where = f"master_integral{(N, m_sq)!r} = {value!r}"
    scaled = value * 4.0 * math.pi * (N - 1.0)
    assert scaled > 0.0, where
    try:
        power = m_sq ** (N - 1.0)
    except OverflowError:
        power = math.inf
    if scaled < math.inf and sys.float_info.min <= power < math.inf:
        error = scaled * power - 1.0
    else:
        log_power = (N - 1.0) * math.log(m_sq)
        error = ((math.log(abs(value)) + math.log(4.0 * math.pi * abs(N - 1.0)) + log_power)
                 / abs(log_power))
    assert abs(error) <= 4e-15, where


@given(x=numbers, N=numbers, L=numbers,
       bc=st.sampled_from(list(BoundaryCondition)))
@settings(max_examples=200, deadline=None)
# the value near 2.7e-902 underflows, and must raise rather than read 0.0
@example(x=1e300, N=4.0, L=1.0, bc=BoundaryCondition.DIRICHLET)
# the power (m^2)^(1 - N) overflows, but the value near -5.3e307 does not
@example(x=1e206, N=-0.5, L=1.0, bc=BoundaryCondition.DIRICHLET)
def test_rest_of_the_api_gives_finite_values_or_a_library_error(x, N, L, bc):
    for fn in (bernoulli, zeta_neg_int):
        _call(fn, x)
    value = _call(master_integral, N, x)
    if value is not None:
        _assert_master_identity(value, N, x)
    _call(quadrature_reference, N, x)
    configs = [PlateConfig(1.0)]
    config = _call(PlateConfig, L)
    if config is not None:
        configs.append(config)
    for config in configs:
        for fn in (total_energy, pressure, em_reference):
            _call(fn, config)
        _call(integrated_density_check, config, bc)
        _call(k_n, config, x)
