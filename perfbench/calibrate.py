"""Contention calibration for wall times measured on a shared host.

Neighbours on the host slow this machine's processes by up to 2x for
stretches of seconds to minutes, CPU time included, so a raw wall time
moves with them.  :func:`reference` times a fixed kernel, the
benchmark's own closed forms, which never changes with platevac; its
time against ``REFERENCE_POINT_S`` is the host's slowdown at that
moment.  :func:`adjust` divides an operation's wall time by that
slowdown raised to an exponent fitted on calibration runs (log wall
against log slowdown, the covariate adjustment of CUPED):

- a point is the same kind of interpreter loop as the kernel and slows
  with it one for one;
- a CLI call spends much of its time in process start-up, imports,
  numpy and pipes, and slows about as the square root.

Uncontended, the slowdown is 1 and the adjusted time is the wall time.
A change to platevac moves the wall time and not the slowdown, so it
moves the adjusted time by the same factor.
"""

import time

import closed_forms

# Uncontended kernel time per point on the 2-vCPU Xeon (2.1 GHz,
# Python 3.11.7) this benchmark was calibrated on.
REFERENCE_POINT_S = 0.56e-6
POINT_EXPONENT = 1.0
CLI_EXPONENT = 0.5

# Fixed (sign, L, theta) points: L spread over [1e-3, 1e3], theta over (0, pi).
FIXED_POINTS = [(1 - 2 * (i % 2), 10.0 ** (6.0 * (i * 0.6180339887 % 1.0) - 3.0),
                 0.01 + 3.12 * (i * 0.4142135624 % 1.0)) for i in range(200)]


def reference(points: list = FIXED_POINTS) -> float:
    """Kernel seconds per point over (sign, L, theta) points."""
    start = time.perf_counter()
    for sign, L, theta in points:
        closed_forms.phi2(sign, L, theta)
        closed_forms.phidot2(sign, L, theta)
    return (time.perf_counter() - start) / len(points)


def adjust(wall: float, ref: float, exponent: float) -> float:
    """``wall`` taken at kernel time ``ref`` per point, on an uncontended host."""
    return wall * (REFERENCE_POINT_S / ref) ** exponent
