"""Tests for the plate geometry and mode basis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platevac.errors import DomainError, InvalidConfigError
from platevac.spectrum import (
    L_MAX,
    L_MIN,
    BoundaryCondition,
    PlateConfig,
    k_n,
    mode_profile,
    orthonormality_check,
)

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


class TestModeProfile:
    def test_dirichlet_vanishes_on_plates(self):
        config = PlateConfig(1.0)
        assert mode_profile(D, config, 1, 0.0) == 0.0
        assert abs(mode_profile(D, config, 1, 1.0)) < 1e-15
        assert abs(mode_profile(D, config, 7, 1.0)) < 1e-14

    def test_neumann_plate_value(self):
        assert mode_profile(N, PlateConfig(1.0), 2, 0.0) == pytest.approx(math.sqrt(2.0))

    def test_dirichlet_midpoint(self):
        assert mode_profile(D, PlateConfig(1.0), 1, 0.5) == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_neumann_derivative_vanishes_on_plates(self, n, L):
        config = PlateConfig(L)
        # the stencil cannot leave the slab, so the difference is one-sided
        # with O(k^2 h) truncation; h must sit below 2e-6/k^2 per mode
        h = 1e-8 * L
        kn = k_n(config, n)
        left = (mode_profile(N, config, n, h) - mode_profile(N, config, n, 0.0)) / h
        right = (mode_profile(N, config, n, L) - mode_profile(N, config, n, L - h)) / h
        assert abs(left) < 1e-6 * kn
        assert abs(right) < 1e-6 * kn

    @pytest.mark.parametrize("bc", [D, N])
    def test_broadcasts_like_scalar_calls(self, bc):
        config = PlateConfig(2.5)
        ns, zs = [1, 2, 7], [0.0, 0.3, 1.9, 2.5]
        table = mode_profile(bc, config, np.array(ns)[:, None], np.array(zs))
        assert table.shape == (3, 4)
        assert table.tolist() == [[mode_profile(bc, config, n, z) for z in zs] for n in ns]

    def test_out_of_slab_rejected(self):
        with pytest.raises(DomainError):
            mode_profile(D, PlateConfig(1.0), 1, -0.1)
        with pytest.raises(DomainError):
            mode_profile(D, PlateConfig(1.0), 1, 1.1)
        with pytest.raises(DomainError):
            mode_profile(D, PlateConfig(1.0), 1, np.array([0.5, 1.1]))

    def test_mode_number_validated(self):
        with pytest.raises(ValueError):
            mode_profile(D, PlateConfig(1.0), np.array([[1], [0]]), 0.5)


class TestOrthonormality:
    @pytest.mark.parametrize("bc", [D, N])
    @pytest.mark.parametrize("L,n_max", [(1.0, 2), (3.0, 3), (1.0, 20), (0.25, 20)])
    def test_gram_is_identity(self, bc, L, n_max):
        gram = orthonormality_check(bc, PlateConfig(L), n_max, 2048)
        assert np.max(np.abs(gram - np.eye(n_max))) < 1e-10

    def test_mixed_entry_is_zero(self):
        gram = orthonormality_check(D, PlateConfig(1.0), 2, 2048)
        assert abs(gram[0, 1]) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            orthonormality_check(D, PlateConfig(1.0), 0, 2048)
        with pytest.raises(ValueError):
            orthonormality_check(D, PlateConfig(1.0), 3, 32)

    def test_unallocatable_gram_matrix_raises(self, monkeypatch):
        # stands in for a profile matrix too large to allocate
        def out_of_memory(*args):
            raise MemoryError
        monkeypatch.setattr("platevac.spectrum.mode_profile", out_of_memory)
        with pytest.raises(InvalidConfigError, match="do not fit in memory"):
            orthonormality_check(D, PlateConfig(1.0), 3, 2048)
