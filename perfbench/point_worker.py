"""point-api workload: scalar closed-form calls, one point at a time.

Usage: python point_worker.py --seed N --seconds S --trace 0|1

Imports platevac once, then evaluates seeded points in chunks of
``CHUNK`` for S seconds.  Each point is the call sequence a library
user makes: ``PlateConfig``, ``InteriorPoint.from_theta``,
``expectation_set``, ``ab_values`` and ``stress_report``.  Only the
calls are timed, each chunk next to ``calibrate.reference`` on the same
points; every result is checked after its chunk.  With
``--trace 1`` each chunk runs twice on the same points, untraced and
then traced.  Prints one JSON line.
"""

import argparse
import dataclasses
import json
import math
import random
import sys
import time

import calibrate
import checks
from spans import Tracer

CHUNK = 2000


def make_points(rng: random.Random, count: int) -> list[tuple[int, float, float]]:
    """(sign, L, theta): L log-uniform in [1e-3, 1e3], distance to the
    nearest plate log-uniform in [1e-6, pi/2]."""
    top = math.log10(math.pi / 2.0)
    points = []
    for _ in range(count):
        sign = rng.choice((1, -1))
        L = 10.0 ** rng.uniform(-3.0, 3.0)
        d = 10.0 ** rng.uniform(-6.0, top)
        points.append((sign, L, d if rng.random() < 0.5 else math.pi - d))
    return points


def evaluate(platevac, bcs: dict, points: list) -> list:
    results = []
    for sign, L, theta in points:
        try:
            config = platevac.PlateConfig(L)
            point = platevac.InteriorPoint.from_theta(config, theta)
            fluct = platevac.expectation_set(bcs[sign], config, point)
            report = platevac.stress_report(fluct, platevac.ab_values(config, point))
            results.append((fluct, report))
        except Exception as exc:  # any exception is a failed point, never a crash
            results.append(exc)
    return results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    import platevac

    bcs = {1: platevac.BoundaryCondition.DIRICHLET, -1: platevac.BoundaryCondition.NEUMANN}
    rng = random.Random(f"point-api/{args.seed}")
    tracer = Tracer() if args.trace else None
    acc = checks.Accuracy()
    attempted = failed = 0
    reasons: dict[str, int] = {}
    walls: list[float] = []
    traced_walls: list[float] = []
    refs: list[float] = []

    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        points = make_points(rng, CHUNK)
        ref = calibrate.reference(points)
        refs.append(ref)
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install()
            start = time.perf_counter()
            results = evaluate(platevac, bcs, points)
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
                traced_walls.append(elapsed / CHUNK)
            else:
                walls.append(elapsed / CHUNK)
            for (sign, L, theta), result in zip(points, results):
                attempted += 1
                if isinstance(result, Exception):
                    reason = type(result).__name__
                else:
                    fluct, report = result
                    values = {**vars(fluct), **vars(report),
                              "E_improved": report.energy_density_improved,
                              "T_zz": report.t_zz}
                    reason = checks.check_point(sign, L, theta, values, acc)
                if reason is not None:
                    failed += 1
                    reasons[reason] = reasons.get(reason, 0) + 1

    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "chunk": CHUNK,
        "walls": walls,
        "traced_walls": traced_walls,
        "refs": refs,
        "accuracy": dataclasses.asdict(acc),
        "spans": tracer.export() if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
