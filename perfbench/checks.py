"""Output checks that never call platevac.

Every expected value comes from ``closed_forms``, so a wrong library
result cannot vouch for itself.  A check either returns a failure
reason (the operation counts as failed) or feeds an :class:`Accuracy`
tally.  ``phi2`` and ``phidot2`` are direct formulas without
cancellation, so missing them by more than round-off is a wrong answer.
``E_improved`` and ``T_zz`` are computed by the library through
B-cancellations that lose digits near the plates; their misses are
accuracy, not failures.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import closed_forms

# The relative tolerance the README and the acceptance suite pin for the
# improved density and T_zz; a value missing it counts as inexact.
EXACT_RTOL = 1e-12
# phi2 and phidot2 carry no cancellation: a few ulp is all they may miss.
CLOSED_FORM_RTOL = 1e-12

SIGN = {"dirichlet": 1, "neumann": -1}

PROFILE_COLUMNS = (
    "z", "theta", "phi2", "phidot2", "dzphi2", "gradTphi2", "dlambda_phi2",
    "E_canonical", "huggins00", "E_improved", "T_zz",
    "trace_canonical", "trace_improved",
)


@dataclass
class Accuracy:
    """Worst-case and share statistics over every checked output."""

    values: int = 0            # rows or points compared with the exact constants
    inexact: int = 0           # of those, missing E_improved or T_zz by > EXACT_RTOL
    max_rel_err: float = 0.0   # worst relative miss of E_improved or T_zz
    checks: int = 0            # verify checks parsed
    headroom_max: float = 0.0  # worst verify measured/tolerance

    @property
    def inexact_share(self) -> float:
        return self.inexact / self.values if self.values else 0.0

    def add_exact(self, L: float, e_improved: float, t_zz: float) -> None:
        a = closed_forms.a_coefficient(L)
        err = max(rel_err(e_improved, -a), rel_err(t_zz, -3.0 * a))
        self.values += 1
        self.inexact += err > EXACT_RTOL
        self.max_rel_err = max(self.max_rel_err, err)

    def merge(self, other: "Accuracy") -> None:
        self.values += other.values
        self.inexact += other.inexact
        self.max_rel_err = max(self.max_rel_err, other.max_rel_err)
        self.checks += other.checks
        self.headroom_max = max(self.headroom_max, other.headroom_max)


def _is_number(value) -> bool:
    # The renderer prints 0.0 as "0", which JSON reads back as an int.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def check_point(s: int, L: float, theta: float, values: dict, acc: Accuracy) -> str | None:
    """Check one interior point's outputs; a returned string is a failure.

    ``values`` maps output names to numbers and must hold ``phi2``,
    ``phidot2``, ``E_improved`` and ``T_zz``; every value must be finite.
    """
    if not all(math.isfinite(v) for v in values.values()):
        return "non-finite value"
    if rel_err(values["phi2"], closed_forms.phi2(s, L, theta)) > CLOSED_FORM_RTOL:
        return "phi2 misses its closed form"
    if rel_err(values["phidot2"], closed_forms.phidot2(s, L, theta)) > CLOSED_FORM_RTOL:
        return "phidot2 misses its closed form"
    acc.add_exact(L, values["E_improved"], values["T_zz"])
    return None


def check_process(returncode: int, stderr: str) -> str | None:
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    if returncode != 0:
        return f"exit {returncode}"
    return None


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def check_profile(stdout: str, bc: str, L: float, points: int, margin: float,
                  acc: Accuracy) -> str | None:
    """Check a ``profile --format json`` document row by row."""
    try:
        doc = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError:
        return "output does not parse"
    if not isinstance(doc, dict) or set(doc) != {"config", "rows", "globals"}:
        return "unexpected document keys"
    config, rows, glob = doc["config"], doc["rows"], doc["globals"]
    if (config.get("bc"), config.get("length"), config.get("grid_points")) != (bc, L, points):
        return "config echo differs from the request"
    if not isinstance(rows, list) or len(rows) != points:
        return "wrong row count"
    s = SIGN[bc]
    row_acc = Accuracy()
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or tuple(row) != PROFILE_COLUMNS:
            return "unexpected row columns"
        if not all(_is_number(v) for v in row.values()):
            return "non-numeric value"
        z, theta = row["z"], row["theta"]
        if rel_err(z, L * (margin + (1.0 - 2.0 * margin) * i / (points - 1))) > CLOSED_FORM_RTOL:
            return "grid point off its formula"
        if rel_err(theta, math.pi * z / L) > CLOSED_FORM_RTOL:
            return "theta is not pi z / L"
        reason = check_point(s, L, theta, row, row_acc)
        if reason is not None:
            return reason
    energy = -closed_forms.a_coefficient(L) * L
    pressure = -3.0 * closed_forms.a_coefficient(L)
    expected = {"total_energy": energy, "pressure": pressure,
                "em_energy_per_area": 2.0 * energy, "em_energy_density": 2.0 * energy / L,
                "em_pressure": 2.0 * pressure}
    for key, exact in expected.items():
        value = glob.get(key)
        if not _is_number(value) or rel_err(value, exact) > CLOSED_FORM_RTOL:
            return f"{key} misses its closed form"
    for key in ("density_integral", "integral_mismatch"):
        if not _is_number(glob.get(key)):
            return f"{key} missing or not a number"
    acc.merge(row_acc)
    return None


_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+) +measured=(\S+) (tol|floor)=(\S+)$")
_SUMMARY_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")


def headroom(measured: float, tolerance: float, direction: str) -> float:
    """measured/tolerance, inverted for floor ("ge") checks; 0 when both are 0."""
    num, den = (tolerance, measured) if direction == "ge" else (measured, tolerance)
    if num == 0.0:
        return 0.0
    return num / den if den > 0.0 else math.inf


def check_verify(stdout: str, acc: Accuracy) -> str | None:
    """Parse ``verify`` text output: every check line plus the summary line."""
    lines = stdout.splitlines()
    if not lines:
        return "empty output"
    summary = _SUMMARY_LINE.match(lines[-1])
    if summary is None:
        return "no summary line"
    worst = 0.0
    for line in lines[:-1]:
        match = _CHECK_LINE.match(line)
        if match is None:
            return "output does not parse"
        status, name, measured, bound, tolerance = match.groups()
        try:
            measured, tolerance = float(measured), float(tolerance)
        except ValueError:
            return f"{name}: value does not parse"
        if not (math.isfinite(measured) and math.isfinite(tolerance)):
            return f"{name}: non-finite value"
        if status == "FAIL":
            return f"FAIL {name}"
        worst = max(worst, headroom(measured, tolerance, "ge" if bound == "floor" else "le"))
    passed, total = int(summary.group(1)), int(summary.group(2))
    if total == 0 or passed != total or total != len(lines) - 1:
        return f"summary {passed}/{total} disagrees with {len(lines) - 1} check lines"
    acc.checks += total
    acc.headroom_max = max(acc.headroom_max, worst)
    return None
