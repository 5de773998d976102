"""Tests for the global Casimir quantities."""

import math
from functools import partial

import pytest

from platevac import casimir
from platevac.casimir import (
    canonical_density_integral,
    canonical_density_quadrature,
    em_reference,
    integrated_density_check,
    pressure,
    total_energy,
)
from platevac.fluctuations import InteriorPoint, ab_values, expectation_set
from platevac.regsum import zeta_neg_int
from platevac.spectrum import BoundaryCondition, PlateConfig
from platevac.stress import stress_report
from test_render import TEN_L

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
BOTH = (D, N)


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

    @pytest.mark.parametrize("L", TEN_L)
    def test_closed_form_at_every_length(self, L):
        # verify's energy_pipeline makes this comparison at one L per run
        closed = -math.pi**2 / (1440.0 * L**3)
        assert total_energy(PlateConfig(L)) == pytest.approx(closed, rel=1e-14, abs=0.0)


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


# (margin, A L (1 - 2m), pi/(24 L^3) (cot pi m + cot^3 pi m)) at L = 1.7 and
# the double nearest each margin, from mpmath at 50 digits
CANONICAL_TERMS = [
    (1e-8, 0.0013950522711425005, 8.592949287802579e+20),
    (1e-6, 0.0013950495089389485, 859294928780258.1),
    (1e-4, 0.0013947732885837378, 859294928.7802573),
    (1e-3, 0.0013922621944454593, 859294.9287746777),
    (1e-2, 0.0013671512530626757, 859.2948729606784),
    (0.1, 0.0011160418392348371, 0.8587190552415754),
    (0.25, 0.0006975261495217733, 0.05328707262347841),
    (0.4, 0.00027901045980870923, 0.00957095455918797),
    (0.49, 2.7901045980870955e-05, 0.0008381337932621785),
]


class TestDensityIntegrals:
    """The density integrals against their exact values and per-point evaluation."""

    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("margin, constant, profile", CANONICAL_TERMS)
    def test_canonical_integral_matches_mpmath(self, margin, constant, profile, bc):
        # -A L (1 - 2m) - s pi/(24 L^3) (cot pi m + cot^3 pi m), to 1e-14 of the larger term
        value = canonical_density_integral(PlateConfig(1.7), bc, margin)
        expected = -constant - bc.sign_upper * profile
        assert abs(value - expected) <= 1e-14 * max(constant, profile)

    @pytest.mark.parametrize("bc", BOTH)
    @pytest.mark.parametrize("margin", [0.3, 1e-2, 1e-3, 1e-4])
    def test_canonical_integral_matches_point_quadrature(self, margin, bc):
        # the closed form against the tanh-sinh rule over the density
        # evaluated one point at a time
        config = PlateConfig(1.7)
        dirichlet, neumann = canonical_density_quadrature(config, margin)
        quadrature = dirichlet if bc is D else neumann
        assert canonical_density_integral(config, bc, margin) == pytest.approx(quadrature, rel=1e-12)

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


class TestCanonicalDivergence:
    @pytest.mark.parametrize("bc", BOTH)
    def test_grows_without_bound_as_margin_shrinks(self, bc):
        config = PlateConfig(1.0)
        values = [abs(canonical_density_integral(config, bc, m))
                  for m in (0.01, 0.001, 0.0001)]
        assert values[0] < values[1] < values[2]
        assert values[2] >= 10.0 * values[0]

    def test_signs(self):
        # near the plates the canonical density is -(A + 2sB): B-dominated,
        # negative for Dirichlet, positive for Neumann
        config = PlateConfig(1.0)
        assert canonical_density_integral(config, D, 0.001) < 0.0
        assert canonical_density_integral(config, N, 0.001) > 0.0

    @pytest.mark.parametrize("bc", BOTH)
    def test_grows_as_the_inverse_cube_of_the_margin(self, bc):
        # -s/(24 pi^2 L^3 m^3) leads: a thousandfold per tenfold smaller margin
        config = PlateConfig(1.0)
        for m in (1e-3, 1e-5, 1e-7):
            ratio = (canonical_density_integral(config, bc, 0.1 * m)
                     / canonical_density_integral(config, bc, m))
            assert ratio == pytest.approx(1000.0, rel=1e-5)

    @pytest.mark.parametrize("integral", [partial(canonical_density_integral, bc=D),
                                          canonical_density_quadrature],
                             ids=["canonical_density_integral", "canonical_density_quadrature"])
    def test_margin_validation(self, integral):
        with pytest.raises(ValueError):
            integral(PlateConfig(1.0), margin=0.0)
        with pytest.raises(ValueError):
            integral(PlateConfig(1.0), margin=0.5)

    @pytest.mark.parametrize("margin", [math.nan, -0.1, 0.6, math.inf])
    def test_quadrature_refuses_a_margin_before_any_node(self, margin, monkeypatch):
        # one guard serves both conditions, before a point or (A, B) is built
        class NoPoints:
            @staticmethod
            def from_theta(*args):
                raise AssertionError("built a node for a refused margin")

        monkeypatch.setattr(casimir, "InteriorPoint", NoPoints)
        with pytest.raises(ValueError, match=r"margin must lie in \(0, 0.5\)"):
            canonical_density_quadrature(PlateConfig(1.0), margin)
