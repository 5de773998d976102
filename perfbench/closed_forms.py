"""The paper's closed forms, recomputed without platevac.

    A          = pi^2 / (1440 L^4)
    B          = pi^2 / (96 L^4) (3/sin^4 theta - 2/sin^2 theta)
    phi2       = (1 - 3 s / sin^2 theta) / (48 L^2)
    phidot2    = -(A - s B)
    E_improved = -A
    T_zz       = -3 A = -pi^2 / (480 L^4)

with s = +1 (Dirichlet) or -1 (Neumann).
"""

import math


def a_coefficient(L: float) -> float:
    return math.pi ** 2 / (1440.0 * L ** 4)


def phi2(s: int, L: float, theta: float) -> float:
    return (1.0 - 3.0 * s / math.sin(theta) ** 2) / (48.0 * L * L)


def phidot2(s: int, L: float, theta: float) -> float:
    inv_s2 = 1.0 / math.sin(theta) ** 2
    scale = math.pi ** 2 / L ** 4
    return -(scale / 1440.0 - s * scale / 96.0 * (3.0 * inv_s2 * inv_s2 - 2.0 * inv_s2))
