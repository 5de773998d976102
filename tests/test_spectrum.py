"""Tests for the plate geometry and mode spectrum."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from platevac.errors import InvalidConfigError
from platevac.spectrum import L_MAX, L_MIN, BoundaryCondition, PlateConfig, k_n

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


class TestTypes:
    def test_sign_convention(self):
        assert D.sign_upper == 1
        assert N.sign_upper == -1

    def test_sign_is_a_member_attribute(self):
        # set once per member, not recomputed on every read
        assert vars(D)["sign_upper"] == 1 and vars(N)["sign_upper"] == -1
        assert BoundaryCondition("neumann") is N and N.value == "neumann"
        assert list(BoundaryCondition) == [D, N]

    def test_plate_config_validation(self):
        with pytest.raises(ValueError):
            PlateConfig(0.0)
        with pytest.raises(ValueError):
            PlateConfig(-1.0)

    @pytest.mark.parametrize("L", [math.inf, -math.inf, math.nan, 1e100, 1e-100,
                                   L_MAX * 1.0000001, L_MIN * 0.9999999])
    def test_plate_config_rejects_out_of_range(self, L):
        with pytest.raises(InvalidConfigError):
            PlateConfig(L)

    def test_range_keeps_fourth_powers_finite(self):
        for L in (L_MIN, L_MAX):
            assert PlateConfig(L).L == L
            assert math.isfinite(L**4) and math.isfinite(L**-4)


class TestWavenumbers:
    @pytest.mark.parametrize("L,n,expected", [(1.0, 1, math.pi), (2.0, 4, 2.0 * math.pi),
                                              (0.5, 3, 6.0 * math.pi)])
    def test_k_n(self, L, n, expected):
        assert k_n(PlateConfig(L), n) == pytest.approx(expected, rel=1e-15)

    def test_k_n_rejects_zero_mode(self):
        with pytest.raises(ValueError):
            k_n(PlateConfig(1.0), 0)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_inverse_length_scaling(self, lam):
        base = PlateConfig(1.0)
        scaled = PlateConfig(lam)
        assert k_n(scaled, 5) == pytest.approx(k_n(base, 5) / lam, rel=1e-14)
