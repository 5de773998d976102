"""Concurrency contract: pure functions, safe from any number of threads."""

import math
from concurrent.futures import ThreadPoolExecutor

from platevac.casimir import total_energy
from platevac.fluctuations import InteriorPoint, ab_values, expectation_set
from platevac.oracle import _power_sums, mode_sum_finite_part
from platevac.regsum import _eulerian_row, bernoulli
from platevac.spectrum import BoundaryCondition, PlateConfig
from platevac.stress import stress_report


def _profile_point(i: int) -> float:
    config = PlateConfig(1.0 + 0.001 * (i % 7))
    theta = 0.3 + (i % 50) * (math.pi - 0.6) / 49.0
    bc = BoundaryCondition.DIRICHLET if i % 2 else BoundaryCondition.NEUMANN
    point = InteriorPoint.from_theta(config, theta)
    fluct = expectation_set(bc, config, point)
    return stress_report(fluct, ab_values(config, point)).energy_density_improved


def test_parallel_profile_evaluation_is_deterministic():
    serial = [_profile_point(i) for i in range(200)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(_profile_point, range(200)))
    assert parallel == serial


def test_parallel_oracles_and_caches():
    # bernoulli and the Eulerian rows memoize recursively, and the mode-sum
    # oracle caches its power sums; hammering them from many threads must
    # neither deadlock nor corrupt results
    bernoulli.cache_clear()
    _eulerian_row.cache_clear()
    _power_sums.cache_clear()
    config, bc = PlateConfig(1.0), BoundaryCondition.DIRICHLET
    point = InteriorPoint.from_theta(config, 1.1)

    def finite_part(_):
        return mode_sum_finite_part("phidot2", bc, config, point).finite_part

    with ThreadPoolExecutor(max_workers=8) as pool:
        parts = list(pool.map(finite_part, range(16)))
        bernoullis = list(pool.map(bernoulli, list(range(24)) * 4))
    assert all(p == parts[0] for p in parts)
    closed = expectation_set(bc, config, point).phidot2
    assert abs(parts[0] - closed) <= 1e-12 * abs(closed)
    assert bernoullis[:24] == [bernoulli(n) for n in range(24)]


def test_parallel_energy_pipeline():
    with ThreadPoolExecutor(max_workers=6) as pool:
        energies = list(pool.map(lambda _: total_energy(PlateConfig(1.0)), range(24)))
    assert all(e == energies[0] for e in energies)
