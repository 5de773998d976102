"""The profile's columns against the scalar API, point by point, bit for bit.

A test helper that imports numpy and platevac alone, so that a child
process of ``tests/test_mutations.py`` can run it without pytest.
"""

import numpy as np

from platevac.cli import _COLUMN_FIELDS, PROFILE_COLUMNS, RunConfig, _profile_rows
from platevac.errors import PlateVacError
from platevac.fluctuations import InteriorPoint, ab_values, expectation_set
from platevac.spectrum import PlateConfig
from platevac.stress import stress_report


def scalar_rows(config: RunConfig) -> list[dict[str, float]]:
    """The profile evaluated one point at a time through the scalar API.

    Each column reads the field that ``cli._COLUMN_FIELDS`` maps it to,
    of the point's FluctuationSet or StressReport.
    """
    plate = PlateConfig(config.L)
    rows = []
    for z in config.grid().tolist():
        point = InteriorPoint.from_z(plate, z)
        fluct = expectation_set(config.bc, plate, point)
        report = stress_report(fluct, ab_values(plate, point))
        fields = {**vars(fluct), **vars(report)}
        rows.append({"z": z, "theta": point.theta,
                     **{column: fields[field] for column, field in _COLUMN_FIELDS.items()}})
    return rows


def assert_columns_equal_scalar_path(config: RunConfig) -> None:
    """The profile columns equal the scalar path point by point, bit for bit.

    Where the scalar path raises a PlateVacError, so must the columns.
    """
    try:
        scalar = scalar_rows(config)
    except PlateVacError:
        try:
            _profile_rows(config)
        except PlateVacError:
            return
        raise AssertionError("the scalar path raises, the columns do not") from None
    columns = _profile_rows(config)
    assert tuple(columns) == PROFILE_COLUMNS
    for key in PROFILE_COLUMNS:
        expected = np.array([row[key] for row in scalar])
        assert columns[key].dtype == np.float64
        assert np.array_equal(columns[key].view(np.uint64), expected.view(np.uint64)), key
