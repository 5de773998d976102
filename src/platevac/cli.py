"""Command-line interface: profile tables, global energies, verification.

Commands
--------
profile   emit the fluctuation and stress-tensor profile on an interior
          grid as CSV or JSON
energy    emit the global quantities (total energy, pressure,
          electromagnetic reference triple, density-integral check)
verify    run every check of ``verify.VERIFY_CHECKS`` and print one
          line each; exit 0 only if all of them pass

CSV output uses 12 significant digits, JSON 17 (full round-trip); both
are byte-deterministic for a fixed configuration.  An invalid
configuration or a failed write exits with status 2 and one line on
stderr; a failed verification exits with status 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import casimir, stress
from .errors import InvalidConfigError, PlateVacError, _FrozenRecord, _set_field
from .fluctuations import _theta_of_z, expectation_columns
from .spectrum import BoundaryCondition, PlateConfig

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing; type checkers read it
if TYPE_CHECKING:
    import numpy as np

    from .verify import Check

# Each profile column after z and theta, and the FluctuationSet or
# StressReport field it shows.
_COLUMN_FIELDS = {
    "phi2": "phi2", "phidot2": "phidot2", "dzphi2": "dzphi2", "gradTphi2": "gradTphi2",
    "dlambda_phi2": "dlambda_phi2", "E_canonical": "energy_density_canonical",
    "huggins00": "huggins_00", "E_improved": "energy_density_improved", "T_zz": "t_zz",
    "trace_canonical": "trace_canonical", "trace_improved": "trace_improved",
}
PROFILE_COLUMNS = ("z", "theta", *_COLUMN_FIELDS)

_CSV_SIG_DIGITS = 12
_JSON_SIG_DIGITS = 17


class RunConfig(_FrozenRecord):
    """Validated CLI configuration."""

    def __init__(self, bc: BoundaryCondition, L: float = 1.0, grid_points: int = 64,
                 z_margin: float = 0.02, output_format: str = "csv",
                 inject_sign_flip: bool = False) -> None:
        PlateConfig(L)  # the one place the separation is validated
        if grid_points < 3:
            raise InvalidConfigError(f"need at least 3 grid points, got {grid_points}")
        if not 0.0 < z_margin < 0.5:
            raise InvalidConfigError(f"margin must lie strictly inside (0, 0.5), got {z_margin}")
        if output_format not in ("csv", "json"):
            raise InvalidConfigError(f"unknown output format {output_format!r}")
        for name, value in (("bc", bc), ("L", L), ("grid_points", grid_points),
                            ("z_margin", z_margin), ("output_format", output_format),
                            ("inject_sign_flip", inject_sign_flip)):
            _set_field(self, name, value)

    def grid(self) -> np.ndarray:
        import numpy as np

        n = self.grid_points
        return self.L * (self.z_margin + (1.0 - 2.0 * self.z_margin) * np.arange(n) / (n - 1))


def _fmt(value: float, sig: int) -> str:
    if not math.isfinite(value):
        raise InvalidConfigError(f"non-finite value {value!r} in output")
    return format(value, f".{sig}g")


def _json_render(obj) -> str:
    """Deterministic JSON with floats at fixed significant digits."""
    import json  # here, so that verify and CSV output start without it

    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(k)}:{_json_render(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_render(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt(obj, _JSON_SIG_DIGITS)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _profile_rows(config: RunConfig) -> dict[str, np.ndarray]:
    """Every profile column over the whole grid, keyed by PROFILE_COLUMNS."""
    plate = PlateConfig(config.L)
    z = config.grid()
    theta = _theta_of_z(plate, z)
    fluct, ab = expectation_columns(config.bc, plate, theta)
    fields = {**vars(fluct), **vars(stress.stress_report(fluct, ab))}
    return {"z": z, "theta": theta, **{c: fields[f] for c, f in _COLUMN_FIELDS.items()}}


def _globals_payload(config: RunConfig) -> dict[str, float]:
    plate = PlateConfig(config.L)
    em_energy, em_density, em_pressure = casimir.em_reference(plate)
    integral, mismatch = casimir.integrated_density_check(plate, config.bc)
    return {
        "total_energy": casimir.total_energy(plate),
        "pressure": casimir.pressure(plate),
        "em_energy_per_area": em_energy,
        "em_energy_density": em_density,
        "em_pressure": em_pressure,
        "density_integral": integral,
        "integral_mismatch": mismatch,
    }


def _config_payload(config: RunConfig) -> dict:
    return {
        "bc": config.bc.value,
        "length": config.L,
        "grid_points": config.grid_points,
        "margin": config.z_margin,
        "format": config.output_format,
    }


def cmd_profile(config: RunConfig, out) -> int:
    if "numpy" not in sys.modules:
        # profile calls no BLAS routine, and OpenBLAS reads this once, when
        # numpy loads it: without it, the import starts a thread per CPU
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np

    try:
        # z and theta alone would pass the address space, where numpy raises ValueError
        if 16 * config.grid_points > sys.maxsize:
            raise MemoryError
        columns = _profile_rows(config)
    except MemoryError as exc:
        raise InvalidConfigError(f"{config.grid_points} grid points do not fit in memory") from exc
    for values in columns.values():
        finite = np.isfinite(values)
        if not finite.all():
            raise InvalidConfigError(f"non-finite value {float(values[np.argmin(finite)])!r} in output")
    # imported here, so that energy and verify, which print no rows, start
    # without loading the formatter
    from .render import _render_plan, _write_rows

    csv = config.output_format == "csv"
    sig = _CSV_SIG_DIGITS if csv else _JSON_SIG_DIGITS
    cells, sources, slots = _render_plan(columns, sig)
    del columns  # the rows read only the sources: free the constants and the negated originals
    if csv:
        head, tail, sep = ",".join(PROFILE_COLUMNS) + "\n", "", ""
        row = ",".join(cells) + "\n"
    else:
        import json

        # The same document _json_render gives for {"config", "rows", "globals"}.
        head = '{"config":' + _json_render(_config_payload(config)) + ',"rows":['
        tail = '],"globals":' + _json_render(_globals_payload(config)) + "}\n"
        sep = ","
        row = "{" + ",".join(f"{json.dumps(c)}:{cell}" for c, cell in zip(PROFILE_COLUMNS, cells)) + "}"
    out.write(head)
    _write_rows(out, row, sep, sources, slots, sig)
    out.write(tail)
    return 0


def cmd_energy(config: RunConfig, out) -> int:
    payload = _globals_payload(config)
    if config.output_format == "csv":
        out.write("quantity,value\n")
        for key, value in payload.items():
            out.write(f"{key},{_fmt(value, _CSV_SIG_DIGITS)}\n")
    else:
        doc = {"config": _config_payload(config), "rows": [], "globals": payload}
        out.write(_json_render(doc) + "\n")
    return 0


def run_verification(config: RunConfig) -> list[tuple[Check, float]]:
    """Each check of ``verify.VERIFY_CHECKS`` with its measured value, in report order."""
    from . import verify  # here, so that profile and energy start without the checks
    sample = verify.Sample(config.L, config.inject_sign_flip)
    return [(check, check.measure(sample)) for check in verify.VERIFY_CHECKS]


def cmd_verify(config: RunConfig, out) -> int:
    results = run_verification(config)
    width = max(len(check.name) for check, _ in results)
    passed = [check.passes(measured) for check, measured in results]
    for (check, measured), ok in zip(results, passed):
        out.write(f"{'PASS' if ok else 'FAIL'} {check.name:<{width}} "
                  f"measured={measured:.3e} tol={check.bound:.3e}\n")
    out.write(f"{sum(passed)}/{len(results)} checks passed\n")
    return 0 if all(passed) else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platevac",
        description="Vacuum fluctuations and Casimir energy between parallel plates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_grid: bool) -> None:
        p.add_argument("--bc", choices=["dirichlet", "neumann"], default="dirichlet",
                       help="boundary condition on the plates")
        p.add_argument("--length", type=float, default=1.0, help="plate separation L")
        if needs_grid:
            p.add_argument("--points", type=int, default=64, help="grid points across the gap")
            p.add_argument("--margin", type=float, default=0.02,
                           help="fractional exclusion zone at each plate")
        p.add_argument("--format", choices=["csv", "json"], default="csv",
                       help="output format")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p_profile = sub.add_parser("profile", help="fluctuation and stress profile across the gap")
    common(p_profile, needs_grid=True)

    p_energy = sub.add_parser("energy", help="total energy, pressure, and reference values")
    common(p_energy, needs_grid=False)

    # verify checks both boundary conditions and writes a text report
    p_verify = sub.add_parser("verify", help="run all oracle cross-checks and invariants")
    p_verify.add_argument("--length", type=float, default=1.0, help="plate separation L")
    p_verify.add_argument("--output", default=None, help="output path (default stdout)")
    p_verify.add_argument("--quick", action="store_true",
                          help="accepted and ignored: verify has one configuration")
    p_verify.add_argument("--inject-sign-flip", action="store_true",
                          help="testing aid: corrupt the Neumann sign convention to "
                               "demonstrate the checks catch it")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        bc=BoundaryCondition(getattr(args, "bc", "dirichlet")),
        L=args.length,
        grid_points=getattr(args, "points", 64),
        z_margin=getattr(args, "margin", 0.02),
        output_format=getattr(args, "format", "csv"),
        inject_sign_flip=getattr(args, "inject_sign_flip", False),
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"profile": cmd_profile, "energy": cmd_energy, "verify": cmd_verify}[args.command]
    try:
        config = _config_from_args(args)
        if args.output is None:
            code = command(config, sys.stdout)
            sys.stdout.flush()  # so that a failed write raises here, not at exit
            return code
        try:
            handle = open(args.output, "w")
        except OSError as exc:
            raise InvalidConfigError(f"cannot open the output file: {exc}") from exc
        with handle:
            return command(config, handle)
    except (PlateVacError, OSError) as exc:  # OSError: a write to a full disk or a closed pipe
        if isinstance(exc, OSError) and args.output is None:
            # the interpreter's last flush of stdout would fail again, with a traceback
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
