"""Tests for the global Casimir quantities."""

import math
import random
from decimal import Decimal, localcontext

import pytest

from platevac.casimir import (
    em_reference,
    integrated_density_check,
    pressure,
    total_energy,
)
from platevac.fluctuations import InteriorPoint, ab_values, expectation_set
from platevac.regsum import zeta_neg_int
from platevac.spectrum import BoundaryCondition, PlateConfig
from platevac.stress import stress_report
from test_dimreg import PI
from test_render import TEN_L

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
BOTH = (D, N)


def _energy_error(L: float) -> float:
    """total_energy at L against -pi^2 / (1440 L^3) in 50 digits, relative."""
    with localcontext() as context:
        context.prec = 50
        exact = -PI * PI / (1440 * Decimal(L) ** 3)
        return float(abs(Decimal(total_energy(PlateConfig(L))) - exact) / -exact)


class TestTotalEnergy:
    def test_reference_value(self):
        assert total_energy(PlateConfig(1.0)) == pytest.approx(
            -math.pi**2 / 1440.0, rel=1e-14
        )

    def test_matches_zeta_pipeline_constant(self):
        # -pi^2/12 times the exact zeta value, the same composition the
        # implementation routes through the master integral
        expected = (-math.pi**2 / 12.0) * float(zeta_neg_int(3))
        assert total_energy(PlateConfig(1.0)) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("L,denominator", [(2.0, 11520.0), (0.5, 180.0)])
    def test_length_scaling(self, L, denominator):
        assert total_energy(PlateConfig(L)) == pytest.approx(-math.pi**2 / denominator, rel=1e-13)

    @pytest.mark.parametrize("L", [*TEN_L, 0.1, 3.1])
    def test_closed_form_at_every_length(self, L):
        # verify's energy_pipeline makes this comparison at one L per run, in
        # doubles; every case reads at most 4.0e-16
        assert _energy_error(L) <= 1e-15

    def test_exact_at_seeded_lengths(self):
        # 1000 lengths log-uniform over [1e-72, 1e72]; the worst reads 5.9e-16
        rng = random.Random(1440)
        worst = max((10.0 ** rng.uniform(-72.0, 72.0) for _ in range(1000)), key=_energy_error)
        assert _energy_error(worst) <= 1e-15, worst


class TestPressure:
    def test_reference_value(self):
        assert pressure(PlateConfig(1.0)) == pytest.approx(-math.pi**2 / 480.0, rel=1e-13)

    def test_length_scaling(self):
        assert pressure(PlateConfig(3.0)) == pytest.approx(-math.pi**2 / 38880.0, rel=1e-13)

    def test_is_three_energy_over_length(self):
        config = PlateConfig(2.3)
        assert pressure(config) == pytest.approx(3.0 * total_energy(config) / 2.3, rel=1e-14)

    @pytest.mark.parametrize("h_rel,rtol", [(1e-4, 5e-8), (1e-5, 1e-8)])
    def test_matches_energy_derivative(self, h_rel, rtol):
        # central differences carry (10/3) h^2 truncation for E ~ L^-3
        L = 1.0
        h = h_rel * L
        derivative = (total_energy(PlateConfig(L + h)) - total_energy(PlateConfig(L - h))) / (2.0 * h)
        assert -derivative == pytest.approx(pressure(PlateConfig(L)), rel=rtol)


class TestEmReference:
    def test_values(self):
        energy, density, p = em_reference(PlateConfig(1.0))
        assert energy == pytest.approx(-math.pi**2 / 720.0, rel=1e-14)
        assert density == pytest.approx(-math.pi**2 / 720.0, rel=1e-14)
        assert p == pytest.approx(-math.pi**2 / 240.0, rel=1e-14)

    @pytest.mark.parametrize("L", TEN_L)
    def test_exactly_twice_scalar(self, L):
        # bit for bit, at every separation of the set
        config = PlateConfig(L)
        energy = total_energy(config)
        expected = (2.0 * energy, 2.0 * (energy / L), 2.0 * pressure(config))
        assert [x.hex() for x in em_reference(config)] == [x.hex() for x in expected]

    def test_length_scaling(self):
        energy, _, _ = em_reference(PlateConfig(2.0))
        assert energy == pytest.approx(-math.pi**2 / 5760.0, rel=1e-13)


class TestIntegratedDensity:
    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0, 10.0])
    def test_integral_reproduces_total_energy(self, bc, L):
        config = PlateConfig(L)
        integral, mismatch = integrated_density_check(config, bc)
        assert mismatch < 1e-12 * abs(total_energy(config))
        assert integral == pytest.approx(total_energy(config), rel=1e-12)

    def test_value_at_L5(self):
        # constant density -A integrates to -A L = -pi^2/(1440 * 5^3)
        integral, _ = integrated_density_check(PlateConfig(5.0), D)
        assert integral == pytest.approx(-math.pi**2 / 180000.0, rel=1e-12)


class TestDensityIntegrals:
    """The density integral against per-point evaluation."""

    @pytest.mark.parametrize("bc", BOTH)
    def test_improved_integral_matches_point_loop(self, bc):
        config = PlateConfig(2.3)
        h = config.L / 4
        loop = 0.0
        for i in range(4):
            point = InteriorPoint.from_z(config, (i + 0.5) * h)
            loop += stress_report(expectation_set(bc, config, point),
                                  ab_values(config, point)).energy_density_improved
        # four terms, added in order, as the loop does
        assert integrated_density_check(config, bc)[0] == loop * h
