"""Command-line interface: profile tables, global energies, verification.

Commands
--------
profile   emit the fluctuation and stress-tensor profile on an interior
          grid as CSV or JSON
energy    emit the global quantities (total energy, pressure,
          electromagnetic reference triple, density-integral check)
verify    run every oracle cross-check and invariant; exit 0 only if
          all of them pass

CSV output uses 12 significant digits, JSON 17 (full round-trip); both
are byte-deterministic for a fixed configuration.  Invalid
configurations exit with status 2 and a diagnostic on stderr; a failed
verification exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import casimir, dimreg, oracle, regsum, spectrum, stress
from .errors import InvalidConfigError, PlateVacError
from .fluctuations import (InteriorPoint, ab_values, expectation_columns, expectation_set,
                           phi_squared, phi_squared_single_plate)
from .regsum import EpsilonSchedule
from .spectrum import BoundaryCondition, PlateConfig

PROFILE_COLUMNS = (
    "z", "theta", "phi2", "phidot2", "dzphi2", "gradTphi2", "dlambda_phi2",
    "E_canonical", "huggins00", "E_improved", "T_zz",
    "trace_canonical", "trace_improved",
)

_CSV_SIG_DIGITS = 12
_JSON_SIG_DIGITS = 17
# Profile rows rendered per write; bounds the size of each output string.
_ROW_CHUNK = 4096


@dataclass(frozen=True)
class RunConfig:
    """Validated CLI configuration."""

    bc: BoundaryCondition
    L: float = 1.0
    grid_points: int = 64
    z_margin: float = 0.02
    output_format: str = "csv"
    quick: bool = False
    inject_sign_flip: bool = False
    epsilon_schedule: EpsilonSchedule | None = None

    def __post_init__(self) -> None:
        PlateConfig(self.L)  # the one place the separation is validated
        if self.grid_points < 3:
            raise InvalidConfigError(f"need at least 3 grid points, got {self.grid_points}")
        if not 0.0 < self.z_margin < 0.5:
            raise InvalidConfigError(
                f"margin must lie strictly inside (0, 0.5), got {self.z_margin}"
            )
        if self.output_format not in ("csv", "json"):
            raise InvalidConfigError(f"unknown output format {self.output_format!r}")

    def grid(self) -> np.ndarray:
        n = self.grid_points
        return self.L * (self.z_margin + (1.0 - 2.0 * self.z_margin) * np.arange(n) / (n - 1))


def _fmt(value: float, sig: int) -> str:
    if not math.isfinite(value):
        raise InvalidConfigError(f"non-finite value {value!r} in output")
    return format(value, f".{sig}g")


def _json_render(obj) -> str:
    """Deterministic JSON with floats at fixed significant digits."""
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
    z = config.grid()
    theta, fluct, ab = expectation_columns(config.bc, PlateConfig(config.L), z)
    report = stress.stress_report(fluct, ab)
    return {
        "z": z,
        "theta": theta,
        "phi2": fluct.phi2,
        "phidot2": fluct.phidot2,
        "dzphi2": fluct.dzphi2,
        "gradTphi2": fluct.gradTphi2,
        "dlambda_phi2": fluct.dlambda_phi2,
        "E_canonical": report.energy_density_canonical,
        "huggins00": report.huggins_00,
        "E_improved": report.energy_density_improved,
        "T_zz": report.t_zz,
        "trace_canonical": report.trace_canonical,
        "trace_improved": report.trace_improved,
    }


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


def _write_rows(out, table: np.ndarray, row: str, sep: str) -> None:
    """Write each row of ``table`` through the %-template ``row``, joined by ``sep``.

    ``'%.17g' % v`` prints exactly what ``format(v, '.17g')`` prints, so
    the rows match :func:`_fmt` digit for digit.
    """
    for start in range(0, len(table), _ROW_CHUNK):
        chunk = table[start:start + _ROW_CHUNK]
        if start:
            out.write(sep)
        out.write(sep.join([row] * len(chunk)) % tuple(chunk.ravel().tolist()))


def cmd_profile(config: RunConfig, out) -> int:
    columns = _profile_rows(config)
    table = np.column_stack([columns[c] for c in PROFILE_COLUMNS])
    finite = np.isfinite(table)
    if not finite.all():
        value = float(table.flat[np.argmin(finite)])
        raise InvalidConfigError(f"non-finite value {value!r} in output")
    if config.output_format == "csv":
        head, tail, sep = ",".join(PROFILE_COLUMNS) + "\n", "", ""
        row = ",".join([f"%.{_CSV_SIG_DIGITS}g"] * len(PROFILE_COLUMNS)) + "\n"
    else:
        # The same document _json_render gives for {"config", "rows", "globals"}.
        head = '{"config":' + _json_render(_config_payload(config)) + ',"rows":['
        tail = '],"globals":' + _json_render(_globals_payload(config)) + "}\n"
        sep = ","
        row = "{" + ",".join(f"{json.dumps(c)}:%.{_JSON_SIG_DIGITS}g" for c in PROFILE_COLUMNS) + "}"
    out.write(head)
    _write_rows(out, table, row, sep)
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


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    measured: float
    tolerance: float
    # "le": pass when measured <= tolerance; "ge": when measured >= tolerance
    direction: str = "le"

    @property
    def ok(self) -> bool:
        if self.direction == "ge":
            return self.measured >= self.tolerance
        return self.measured <= self.tolerance


def _theta_grid(quick: bool) -> list[float]:
    if quick:
        return [0.5, 1.5, 2.5]
    return [0.1 * k for k in range(1, 31) if 0.0 < 0.1 * k < math.pi]


def _oracle_thetas(quick: bool) -> list[float]:
    count = 3 if quick else 5
    return [float(t) for t in np.linspace(0.3, math.pi - 0.3, count)]


def _eval_bc(bc: BoundaryCondition, inject: bool) -> BoundaryCondition:
    # Test-harness corruption: evaluate Neumann points with the Dirichlet
    # sign so the sign-sensitive checks demonstrably catch a flip.
    if inject and bc is BoundaryCondition.NEUMANN:
        return BoundaryCondition.DIRICHLET
    return bc


def run_verification(config: RunConfig) -> list[Check]:
    checks: list[Check] = []
    plate = PlateConfig(config.L)
    inject = config.inject_sign_flip
    both_bc = (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN)

    # Regularized power sums against the exponential-cutoff oracle.
    for k, name in ((1, "zeta_cutoff_k1"), (3, "zeta_cutoff_k3")):
        result = regsum.cutoff_sum_oracle(k)
        checks.append(Check(name, abs(result.finite_part - float(regsum.zeta_neg_int(k))), 1e-6))

    # Oscillatory sums against the Abel oracle.
    thetas = _theta_grid(config.quick)
    err1 = max(abs(regsum.abel_sum_oracle(1, t) - regsum.trig_sum_n_cos(t)) for t in thetas)
    err3 = max(abs(regsum.abel_sum_oracle(3, t) - regsum.trig_sum_n3_cos(t)) for t in thetas)
    err0 = max(abs(regsum.abel_sum_oracle(0, t) + 0.5) for t in thetas)
    checks.append(Check("abel_n_cos", err1, 1e-8))
    checks.append(Check("abel_n3_cos", err3, 1e-8))
    checks.append(Check("abel_constant", err0, 1e-8))

    # Continued master integral against direct quadrature plus identities.
    worst = 0.0
    for N in (1.5, 2.0, 3.0):
        for m_sq in (0.5, 1.0, 4.0):
            analytic = dimreg.master_integral(dimreg.MasterIntegralSpec(d=2.0, N=N, m_sq=m_sq))
            numeric = dimreg.quadrature_reference(2, N, m_sq)
            worst = max(worst, abs(analytic - numeric) / abs(analytic))
    checks.append(Check("dimreg_quadrature", worst, 1e-8))

    lam = 3.7
    a = dimreg.master_integral(dimreg.MasterIntegralSpec(d=2.0, N=2.0, m_sq=lam * 1.3))
    b = lam ** (1.0 - 2.0) * dimreg.master_integral(dimreg.MasterIntegralSpec(d=2.0, N=2.0, m_sq=1.3))
    checks.append(Check("dimreg_scaling", abs(a - b) / abs(a), 1e-12))
    worst = 0.0
    for d, N in ((2.0, 3.0), (2.0, -0.5), (3.0, 3.0), (2.5, 0.3)):
        ratio = (
            dimreg.master_integral(dimreg.MasterIntegralSpec(d=d, N=N, m_sq=1.3))
            / dimreg.master_integral(dimreg.MasterIntegralSpec(d=d, N=N - 1.0, m_sq=1.3))
        )
        expected = (N - 1.0 - d / 2.0) / ((N - 1.0) * 1.3)
        worst = max(worst, abs(ratio - expected) / abs(expected))
    checks.append(Check("dimreg_recursion", worst, 1e-10))

    # Mode-sum oracle against the closed-form profiles.
    for observable, tol, name in (
        (oracle.Observable.PHI2, 1e-4, "mode_sum_phi2"),
        (oracle.Observable.PHIDOT2, 1e-3, "mode_sum_phidot2"),
    ):
        worst = 0.0
        for bc in both_bc:
            for theta in _oracle_thetas(config.quick):
                spec = oracle.ModeSumSpec(
                    bc=bc, L=config.L, theta=theta, observable=observable,
                    epsilon_schedule=config.epsilon_schedule,
                )
                finite = oracle.mode_sum_finite_part(spec).finite_part
                point = InteriorPoint.from_theta(plate, theta)
                fluct = expectation_set(_eval_bc(bc, inject), plate, point)
                closed = fluct.phi2 if observable is oracle.Observable.PHI2 else fluct.phidot2
                worst = max(worst, abs(finite - closed) / abs(closed))
        checks.append(Check(name, worst, tol))

    # Stress-tensor invariants on the interior grid.
    grid = [float(t) for t in np.linspace(0.4, math.pi - 0.4, 7 if config.quick else 40)]
    p_ref = casimir.pressure(plate)
    a_const = math.pi ** 2 / (1440.0 * config.L ** 4)
    worst_trace_sign = worst_trace_zero = worst_density = worst_tzz = worst_mirror = 0.0
    improved_values = []
    for bc in both_bc:
        sign = bc.sign_upper
        for theta in grid:
            point = InteriorPoint.from_theta(plate, theta)
            ab = ab_values(plate, point)
            fluct = expectation_set(_eval_bc(bc, inject), plate, point)
            report = stress.stress_report(fluct, ab)
            trace_canonical = report.trace_canonical
            expected_trace = -6.0 * sign * ab.B
            worst_trace_sign = max(
                worst_trace_sign, abs(trace_canonical - expected_trace) / abs(expected_trace)
            )
            if trace_canonical != 0.0:
                worst_trace_zero = max(worst_trace_zero,
                                       abs(report.trace_improved) / abs(trace_canonical))
            improved = report.energy_density_improved
            improved_values.append(improved)
            worst_density = max(worst_density, abs(improved + a_const) / a_const)
            worst_tzz = max(worst_tzz, abs(report.t_zz - p_ref) / abs(p_ref))

            mirror = expectation_set(_eval_bc(bc, inject), plate,
                                     InteriorPoint.from_theta(plate, math.pi - theta))
            scale = abs(fluct.phidot2) + abs(fluct.dzphi2)
            worst_mirror = max(worst_mirror, abs(fluct.phidot2 - mirror.phidot2) / scale)
    spread = (max(improved_values) - min(improved_values)) / a_const
    checks.append(Check("trace_canonical_sign", worst_trace_sign, 1e-10))
    checks.append(Check("trace_improved_zero", worst_trace_zero, 1e-12))
    checks.append(Check("improved_density_value", worst_density, 1e-12))
    checks.append(Check("improved_density_spread", spread, 1e-12))
    checks.append(Check("tzz_equals_pressure", worst_tzz, 1e-12))
    checks.append(Check("mirror_symmetry", worst_mirror, 1e-12))

    # Scaling of the closed forms under L -> 2L.
    doubled = PlateConfig(2.0 * config.L)
    point = InteriorPoint.from_theta(plate, 1.1)
    point2 = InteriorPoint.from_theta(doubled, 1.1)
    f1 = expectation_set(BoundaryCondition.DIRICHLET, plate, point)
    f2 = expectation_set(BoundaryCondition.DIRICHLET, doubled, point2)
    worst = max(
        abs(f2.phidot2 * 16.0 - f1.phidot2) / abs(f1.phidot2),
        abs(f2.phi2 * 4.0 - f1.phi2) / abs(f1.phi2),
    )
    checks.append(Check("length_scaling", worst, 1e-12))

    # Global quantities.
    energy = casimir.total_energy(plate)
    closed = -math.pi ** 2 / (1440.0 * config.L ** 3)
    checks.append(Check("energy_pipeline", abs(energy - closed) / abs(closed), 1e-14))

    h = 1e-5 * config.L
    fd = -(casimir.total_energy(PlateConfig(config.L + h))
           - casimir.total_energy(PlateConfig(config.L - h))) / (2.0 * h)
    checks.append(Check("pressure_finite_difference", abs(fd - p_ref) / abs(p_ref), 1e-8))

    em = casimir.em_reference(plate)
    scalar = (energy, energy / config.L, p_ref)
    worst = max(abs(e - 2.0 * s) for e, s in zip(em, scalar))
    checks.append(Check("em_factor_two", worst, 0.0))

    z_near = 0.01 * config.L
    wide_plate = PlateConfig(100.0 * config.L)
    worst = 0.0
    for bc in both_bc:
        wide = phi_squared(bc, wide_plate, InteriorPoint.from_z(wide_plate, z_near))
        single = phi_squared_single_plate(bc, z_near)
        worst = max(worst, abs(wide - single) / abs(single))
    checks.append(Check("single_plate_limit", worst, 1e-4))

    worst = 0.0
    for bc in both_bc:
        _, mismatch = casimir.integrated_density_check(plate, bc)
        worst = max(worst, mismatch / abs(energy))
    checks.append(Check("integrated_density", worst, 1e-12))

    # Canonical density has no finite margin -> 0 limit: quadrature must
    # grow monotonically, by at least 10x from margin 0.01 to 0.0001.
    margins = (0.01, 0.001, 0.0001)
    growth = math.inf
    for bc in both_bc:
        values = [abs(casimir.canonical_density_integral(plate, bc, m)) for m in margins]
        ratios = [b / a for a, b in zip(values, values[1:])]
        growth = min(growth, min(ratios))
    checks.append(Check("canonical_density_divergence", growth, 10.0, direction="ge"))

    # Mode orthonormality.
    worst = 0.0
    n_modes, panels = (8, 1024) if config.quick else (20, 2048)
    for bc in both_bc:
        gram = spectrum.orthonormality_check(bc, plate, n_modes, panels)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(n_modes)))))
    checks.append(Check("mode_orthonormality", worst, 1e-10))

    return checks


def cmd_verify(config: RunConfig, out) -> int:
    checks = run_verification(config)
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        bound = "floor" if c.direction == "ge" else "tol"
        out.write(f"{status} {c.name:<{width}} measured={c.measured:.3e} {bound}={c.tolerance:.3e}\n")
    failed = [c for c in checks if not c.ok]
    out.write(f"{len(checks) - len(failed)}/{len(checks)} checks passed\n")
    return 1 if failed else 0


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
                          help="reduce oracle grids to 3 points for a fast pass")
    p_verify.add_argument("--inject-sign-flip", action="store_true",
                          help="testing aid: corrupt the Neumann sign convention to "
                               "demonstrate the checks catch it")
    p_verify.add_argument("--eps-smallest", type=float, default=None,
                          help="override the smallest mode-sum cutoff")
    p_verify.add_argument("--eps-largest", type=float, default=None,
                          help="override the largest mode-sum cutoff")
    p_verify.add_argument("--eps-count", type=int, default=16,
                          help="cutoff count when overriding the schedule")
    p_verify.add_argument("--eps-degree", type=int, default=5,
                          help="positive fit degree when overriding the schedule")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    schedule = None
    if getattr(args, "eps_smallest", None) is not None or getattr(args, "eps_largest", None) is not None:
        smallest = args.eps_smallest if args.eps_smallest is not None else 2e-3
        largest = args.eps_largest if args.eps_largest is not None else 2e-2
        schedule = EpsilonSchedule.log_spaced(smallest, largest, args.eps_count,
                                              fit_basis_degree=args.eps_degree)
    return RunConfig(
        bc=BoundaryCondition(getattr(args, "bc", "dirichlet")),
        L=args.length,
        grid_points=getattr(args, "points", 64),
        z_margin=getattr(args, "margin", 0.02),
        output_format=getattr(args, "format", "csv"),
        quick=getattr(args, "quick", False),
        inject_sign_flip=getattr(args, "inject_sign_flip", False),
        epsilon_schedule=schedule,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except PlateVacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    command = {"profile": cmd_profile, "energy": cmd_energy, "verify": cmd_verify}[args.command]
    try:
        if args.output is not None:
            with open(args.output, "w") as handle:
                return command(config, handle)
        return command(config, sys.stdout)
    except PlateVacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
