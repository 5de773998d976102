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
import os
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import casimir, dimreg, oracle, regsum, stress
from .errors import ConsistencyError, InvalidConfigError, PlateVacError
from .fluctuations import (FIELD_PAIRS, InteriorPoint, _theta_of_z, ab_values, expectation_columns,
                           expectation_set, phi_squared, phi_squared_single_plate)
from .spectrum import L_MAX, L_MIN, BoundaryCondition, PlateConfig

if TYPE_CHECKING:
    import numpy as np

# Each profile column after z and theta, and the FluctuationSet or
# StressReport field it shows.
_COLUMN_FIELDS = {
    "phi2": "phi2", "phidot2": "phidot2", "dzphi2": "dzphi2", "gradTphi2": "gradTphi2",
    "dlambda_phi2": "dlambda_phi2", "E_canonical": "energy_density_canonical",
    "huggins00": "huggins_00", "E_improved": "energy_density_improved", "T_zz": "t_zz",
    "trace_canonical": "trace_canonical", "trace_improved": "trace_improved",
}
PROFILE_COLUMNS = ("z", "theta", *_COLUMN_FIELDS)
# The proved pair alpha A + beta t of each column that is one (phi2, which
# scales as 1/length^2, is not).
_PAIRS = {**FIELD_PAIRS, **stress._COMPONENTS}
_COLUMN_PAIRS = {column: _PAIRS[field] for column, field in _COLUMN_FIELDS.items()
                 if field in _PAIRS}


def _shared_leads(pairs: dict) -> dict[str, str]:
    """Each column that prints another's magnitude, mapped to that column.

    A pair beta t (alpha = 0) is beta s B with B > 0, so it has the sign
    of beta s at every point.  Columns whose betas differ only in sign
    therefore print one magnitude |beta t|, behind a fixed sign each; the
    first of them in column order leads.
    """
    groups: dict = {}
    for column, pair in pairs.items():
        if pair.alpha == 0 and pair.beta != 0:
            groups.setdefault(abs(pair.beta), []).append(column)
    return {column: group[0] for group in groups.values() if len(group) > 1 for column in group}


_SHARED_LEADS = _shared_leads(_COLUMN_PAIRS)

_CSV_SIG_DIGITS = 12
_JSON_SIG_DIGITS = 17
# Profile rows rendered per write, and per turn of each rendering process;
# bounds the size of each output string.
_ROW_CHUNK = 4096


@dataclass(frozen=True)
class RunConfig:
    """Validated CLI configuration."""

    bc: BoundaryCondition
    L: float = 1.0
    grid_points: int = 64
    z_margin: float = 0.02
    output_format: str = "csv"
    inject_sign_flip: bool = False

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
        import numpy as np

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


def _require_bitwise(column: str, values: np.ndarray, expected: np.ndarray, claim: str) -> None:
    """ConsistencyError unless ``values`` equals ``expected`` (which broadcasts) bit for bit."""
    import numpy as np

    expected = np.broadcast_to(expected, values.shape)
    same = values.view(np.uint64) == expected.view(np.uint64)
    if not same.all():
        row = int(np.argmin(same))
        raise ConsistencyError(f"{column} is proved {claim}, but row {row} reads "
                               f"{float(values[row])!r}, not {float(expected[row])!r}")


def _render_plan(columns: dict[str, np.ndarray], sig: int) -> tuple[list[str], list, list[int]]:
    """Each column's cell in the row template, and what fills the cells.

    Derived from the proved pairs: a constant column (beta = 0) is
    converted once and written as literal text; a column in
    :data:`_SHARED_LEADS` writes its lead's magnitude, converted once
    per row, behind a literal sign; every other column is converted per
    row.  Each converted cell is a %s.  The facts this relies on are
    checked on the values first, bit for bit, and a breach raises
    :class:`ConsistencyError`.  Returns the cells, the arrays to convert
    and each %s cell's index into them.
    """
    import numpy as np

    cells, sources, slots, shared = [], [], [], {}
    for column, values in columns.items():
        pair, lead = _COLUMN_PAIRS.get(column), _SHARED_LEADS.get(column)
        if pair is not None and pair.beta == 0:
            _require_bitwise(column, values, values[:1], "constant")
            cells.append(_fmt(float(values[0]), sig))
            continue
        if lead is None:
            cells.append("%s")
            slots.append(len(sources))
            sources.append(values)
            continue
        if lead not in shared:
            sign = np.copysign(1.0, columns[lead])
            _require_bitwise(lead, sign, sign[:1], "of one sign")
            shared[lead] = len(sources), bool(sign[0] < 0.0)
            sources.append(np.abs(columns[lead]))
        index, negative = shared[lead]
        flip = (pair.beta < 0) != (_COLUMN_PAIRS[lead].beta < 0)
        if flip:
            _require_bitwise(column, values, -columns[lead], f"minus {lead}")
        cells.append(("-" if negative != flip else "") + "%s")
        slots.append(index)
    return cells, sources, slots


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_worker(render: Callable[[int], np.ndarray], starts: range, earlier: list) -> tuple:
    """Fork a process that sends ``render(start)`` for each of ``starts`` down a pipe.

    Each chunk goes as its bytes, a uint8 array, behind an 8-byte
    length.  The worker closes the pipes of the ``earlier`` workers'
    (pid, reader) pairs and leaves through ``os._exit``: status 0 once
    every chunk is sent, 1 on any error, with nothing on stderr.
    Returns its pid and the reading end of its pipe.
    """
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns that fork in a threaded process (numpy's BLAS
        # threads) may deadlock the child.  The worker takes no lock those
        # threads hold: it only formats floats, writes to its pipe and
        # calls os._exit.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            for _, reader in earlier:
                reader.close()
            with open(write_fd, "wb") as pipe:
                for start in starts:
                    data = render(start)
                    pipe.write(len(data).to_bytes(8, "little"))
                    pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _copy_chunk(reader, out) -> bool:
    """Copy one length-prefixed chunk from ``reader`` to ``out`` in 64 KiB pieces.

    False if the pipe ends first.
    """
    header = reader.read(8)
    if len(header) < 8:
        return False
    left = int.from_bytes(header, "little")
    while left:
        piece = reader.read(min(left, 1 << 16))
        if not piece:
            return False
        out.write(piece.decode("ascii"))
        left -= len(piece)
    return True


def _reap(pid: int, reader) -> None:
    """Close a worker's pipe and wait for it; PlateVacError unless it exited 0."""
    reader.close()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code > 0:
        raise PlateVacError(f"profile worker {pid} exited with status {code}")
    if code < 0:
        raise PlateVacError(f"profile worker {pid} was killed by signal {-code}")


def _write_rows(out, row: str, sep: str, sources: list, slots: list[int], sig: int) -> None:
    """Write every row of the template ``row``, joined by ``sep``.

    Each source is converted once per row by :func:`render.format_g`,
    which gives the bytes of ``'%.{sig}g' % v``, so the rows match
    :func:`_fmt` digit for digit; ``slots`` names the source of each %s
    in ``row``.  A chunk's rows are laid out as one byte matrix, the
    template's text in every row and each cell at its full width, and
    written without the cells' NUL padding.

    The rows go in chunks of :data:`_ROW_CHUNK`, dealt round-robin to W
    processes, W = min(usable CPUs, chunks): this one renders chunks 0,
    W, 2W, ... straight to ``out``, and forked worker k renders chunks
    k, W + k, ... into its own pipe, which this process copies to
    ``out`` in chunk order.  Each process holds one chunk at a time, and
    a worker renders its next chunk while this process renders its own.
    With W = 1 nothing is forked.  A worker that fails raises
    :class:`PlateVacError`; any error here kills and reaps every worker
    before it propagates.
    """
    # imported here, so that energy and verify, which print no rows, start
    # without loading the formatter
    import numpy as np

    from .render import format_g

    pieces = [np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
              for piece in (sep + row).split("%s")]
    skip = len(sep)  # the first row has no separator before it
    starts = range(0, len(sources[0]), _ROW_CHUNK)

    def lay_out(start: int) -> np.ndarray:
        """The chunk's rows as one byte matrix, each cell NUL-padded to its full width."""
        chunk = np.stack([values[start:start + _ROW_CHUNK] for values in sources], axis=1)
        cells = format_g(chunk.ravel(), sig)
        width = cells.itemsize
        cells = cells.view(np.uint8).reshape(*chunk.shape, width)
        text = np.empty((len(chunk), sum(map(len, pieces)) + width * len(slots)), dtype=np.uint8)
        at = 0
        for slot, piece in enumerate(pieces):
            text[:, at:at + len(piece)] = piece
            at += len(piece)
            if slot < len(slots):
                text[:, at:at + width] = cells[:, slots[slot]]
                at += width
        return text

    def render(start: int) -> np.ndarray:
        """The chunk's ASCII bytes: its byte matrix without the NULs."""
        text = lay_out(start).ravel()[0 if start else skip:]
        return text[text != 0]

    procs = min(_usable_cpus(), len(starts))
    workers: list = []  # (pid, reader) of every worker not yet reaped
    try:
        for k in range(1, procs):
            workers.append(_fork_worker(render, starts[k::procs], workers))
        for i, start in enumerate(starts):
            if i % procs == 0:
                out.write(str(render(start), "ascii"))
            elif not _copy_chunk(workers[i % procs - 1][1], out):
                _reap(*workers.pop(i % procs - 1))
                raise PlateVacError("a profile worker stopped before sending all its rows")
        while workers:
            _reap(*workers.pop())
    finally:
        if workers:
            from signal import SIGKILL

            for pid, reader in workers:
                reader.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def cmd_profile(config: RunConfig, out) -> int:
    import numpy as np

    try:
        columns = _profile_rows(config)
    except MemoryError as exc:
        raise InvalidConfigError(f"{config.grid_points} grid points do not fit in memory") from exc
    for values in columns.values():
        finite = np.isfinite(values)
        if not finite.all():
            raise InvalidConfigError(f"non-finite value {float(values[np.argmin(finite)])!r} in output")
    csv = config.output_format == "csv"
    sig = _CSV_SIG_DIGITS if csv else _JSON_SIG_DIGITS
    cells, sources, slots = _render_plan(columns, sig)
    if csv:
        head, tail, sep = ",".join(PROFILE_COLUMNS) + "\n", "", ""
        row = ",".join(cells) + "\n"
    else:
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


@dataclass(frozen=True)
class VerifyCheck:
    """One entry of :data:`VERIFY_CHECKS`: a claim and the bound it must meet."""

    name: str
    tolerance: float
    measure: Callable[[RunConfig], float]
    direction: str = "le"

    def run(self, config: RunConfig) -> Check:
        return Check(self.name, self.measure(config), self.tolerance, self.direction)


def _worst(num, den) -> float:
    """max |n| / |d| over lists (or floats; a float den pairs with every n).

    A zero or NaN d reads inf, a NaN n makes it NaN.  Either way the
    check fails: no comparison with a tolerance holds for NaN.
    """
    nums = num if isinstance(num, list) else [num]
    dens = den if isinstance(den, list) else [den] * len(nums)
    ratios = [abs(n) / abs(d) if abs(d) > 0.0 else math.inf for n, d in zip(nums, dens)]
    return math.nan if any(map(math.isnan, ratios)) else max(ratios)


# The angles of the Abel checks, down to 1e-6 from either plate.
_NEAR_PLATE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
_ABEL_THETAS = ([0.1 * k for k in range(1, 31)] + list(_NEAR_PLATE)
                + [math.pi - t for t in _NEAR_PLATE])


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num), bit for bit."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


# The angles of the mode-sum checks and of the stress-tensor grid, the k_n
# of the kernel check (np.geomspace(pi 1e-3, 40, 8), bit for bit) and the
# plate margins of the canonical density checks.
_MODE_SUM_THETAS = _linspace(0.3, math.pi - 0.3, 5)
_STRESS_THETAS = _linspace(0.4, math.pi - 0.4, 100)
_KERNEL_KN = [math.pi * 1e-3, *(10.0 ** x for x in _linspace(math.log10(math.pi * 1e-3),
                                                             math.log10(40.0), 8)[1:-1]), 40.0]
_CANONICAL_MARGINS = (1e-2, 1e-3, 1e-4)


def _eval_bc(bc: BoundaryCondition, config: RunConfig) -> BoundaryCondition:
    # Test-harness corruption: evaluate Neumann points with the Dirichlet
    # sign so the sign-sensitive checks demonstrably catch a flip.
    if config.inject_sign_flip and bc is BoundaryCondition.NEUMANN:
        return BoundaryCondition.DIRICHLET
    return bc


def _cutoff_error(k: int) -> float:
    return abs(regsum.cutoff_sum_oracle(k).finite_part - float(regsum.zeta_neg_int(k)))


def _abel_error(k: int, closed) -> float:
    """The Abel oracle against ``closed``, relative to max(1, |closed|)."""
    pairs = [(regsum.abel_sum_oracle(k, t), closed(t)) for t in _ABEL_THETAS]
    return _worst([a - c for a, c in pairs], [max(1.0, abs(c)) for _, c in pairs])


def _dimreg_quadrature(config: RunConfig) -> float:
    analytic, numeric = [], []
    for N in (1.5, 2.0, 3.0):
        for m_sq in (0.5, 1.0, 4.0):
            analytic.append(dimreg.master_integral(2.0, N, m_sq))
            numeric.append(dimreg.quadrature_reference(2, N, m_sq))
    return _worst([a - n for a, n in zip(analytic, numeric)], analytic)


def _dimreg_scaling(config: RunConfig) -> float:
    lam = 3.7
    a = dimreg.master_integral(2.0, 2.0, lam * 1.3)
    b = lam ** (1.0 - 2.0) * dimreg.master_integral(2.0, 2.0, 1.3)
    return _worst(a - b, a)


def _dimreg_recursion(config: RunConfig) -> float:
    ratio, expected = [], []
    for d, N in ((2.0, 3.0), (2.0, -0.5), (3.0, 3.0), (2.5, 0.3)):
        ratio.append(dimreg.master_integral(d, N, 1.3) / dimreg.master_integral(d, N - 1.0, 1.3))
        expected.append((N - 1.0 - d / 2.0) / ((N - 1.0) * 1.3))
    return _worst([r - e for r, e in zip(ratio, expected)], expected)


def _oracle_transverse_kernel(config: RunConfig) -> float:
    """The oracle's radial kernels against quadrature of k omega^(-+1) e^(-eps omega) / 2 pi.

    k_n from pi 1e-3 to 40 at eps = 1 and 1/2 in turn, so that a wrong
    power of eps shows: any L."""
    closed, numeric = [], []
    for field, power in (("phi2", -1), ("phidot2", 1)):
        for i, q in enumerate(_KERNEL_KN):
            e = 0.5 if i % 2 else 1.0
            closed.append(oracle._transverse_closed(field, q, e))
            numeric.append(dimreg._half_line_integral(
                lambda k: k * math.hypot(k, q) ** power * math.exp(-e * math.hypot(k, q))
                / (2.0 * math.pi)))
    return _worst([c - n for c, n in zip(closed, numeric)], closed)


def _mode_sum_error(field: str, config: RunConfig) -> float:
    """Mode-sum oracle against the closed-form profile of ``field``, both conditions."""
    plate = PlateConfig(config.L)
    finite, closed = [], []
    for bc in BoundaryCondition:
        for theta in _MODE_SUM_THETAS:
            point = InteriorPoint.from_theta(plate, theta)
            finite.append(oracle.mode_sum_finite_part(field, bc, plate, point).finite_part)
            closed.append(getattr(expectation_set(_eval_bc(bc, config), plate, point), field))
    return _worst([f - c for f, c in zip(finite, closed)], closed)


def _point_report(plate: PlateConfig, bc: BoundaryCondition, theta: float) -> tuple:
    """The fields, their A and B, and the stress report at the angle ``theta``."""
    point = InteriorPoint.from_theta(plate, theta)
    fluct, ab = expectation_set(bc, plate, point), ab_values(plate, point)
    return fluct, ab, stress.stress_report(fluct, ab)


def _stress_grid(config: RunConfig, mirror: bool = False) -> dict[str, list[float]]:
    """Every field and stress component on verify's interior grid, by name.

    The grid is 100 angles in [0.4, pi - 0.4], or their mirror images
    pi - theta, for Dirichlet then Neumann plates, one point at a time.
    ``trace_expected`` is -6 s B, s the sign of the plates' true condition.
    """
    plate = PlateConfig(config.L)
    grid: dict[str, list[float]] = {}
    for bc in BoundaryCondition:
        for theta in _STRESS_THETAS:
            fluct, ab, report = _point_report(plate, _eval_bc(bc, config),
                                              math.pi - theta if mirror else theta)
            for name, value in {**vars(fluct), **vars(report),
                                "trace_expected": -6.0 * bc.sign_upper * ab.B}.items():
                grid.setdefault(name, []).append(value)
    return grid


def _trace_canonical_sign(config: RunConfig) -> float:
    grid = _stress_grid(config)
    return _worst([t - e for t, e in zip(grid["trace_canonical"], grid["trace_expected"])],
                  grid["trace_expected"])


def _improved_density_value(config: RunConfig) -> float:
    """The improved energy density on the grid against -A, A = pi^2/(1440 L^4)."""
    a_const = math.pi ** 2 / (1440.0 * config.L ** 4)
    return _worst([e + a_const for e in _stress_grid(config)["energy_density_improved"]], a_const)


def _tzz_equals_pressure(config: RunConfig) -> float:
    """T_zz on the grid against the pressure, and the pressure against its closed form."""
    p_ref = casimir.pressure(PlateConfig(config.L))
    closed = -math.pi ** 2 / (480.0 * config.L ** 4)
    return max(_worst([t - p_ref for t in _stress_grid(config)["t_zz"]], p_ref),
               _worst(p_ref - closed, closed))


def _mirror_symmetry(config: RunConfig) -> float:
    grid, mirror = _stress_grid(config), _stress_grid(config, mirror=True)
    return _worst([g - m for g, m in zip(grid["phidot2"], mirror["phidot2"])],
                  [abs(p) + abs(d) for p, d in zip(grid["phidot2"], grid["dzphi2"])])


def _length_scaling(config: RunConfig) -> float:
    """phi2 ~ L^-2, phidot2 and the pressure ~ L^-4 under L -> 2L (L -> L/2 where 2L > L_MAX)."""
    ratio = 2.0 if 2.0 * config.L <= L_MAX else 0.5
    plate, scaled = PlateConfig(config.L), PlateConfig(ratio * config.L)
    f1 = expectation_set(BoundaryCondition.DIRICHLET, plate, InteriorPoint.from_theta(plate, 1.1))
    f2 = expectation_set(BoundaryCondition.DIRICHLET, scaled,
                         InteriorPoint.from_theta(scaled, 1.1))
    p1, p2 = casimir.pressure(plate), casimir.pressure(scaled)
    return _worst([f2.phidot2 * ratio ** 4 - f1.phidot2, f2.phi2 * ratio ** 2 - f1.phi2,
                   p2 * ratio ** 4 - p1], [f1.phidot2, f1.phi2, p1])


def _energy_pipeline(config: RunConfig) -> float:
    closed = -math.pi ** 2 / (1440.0 * config.L ** 3)
    return _worst(casimir.total_energy(PlateConfig(config.L)) - closed, closed)


def _pressure_finite_difference(config: RunConfig) -> float:
    # centred at least 1e-4 inside [L_MIN, L_MAX], so that L +- h are valid plates
    L = min(max(config.L, L_MIN * (1.0 + 1e-4)), L_MAX * (1.0 - 1e-4))
    h = 1e-5 * L
    fd = -(casimir.total_energy(PlateConfig(L + h)) - casimir.total_energy(PlateConfig(L - h))) / (2.0 * h)
    p_ref = casimir.pressure(PlateConfig(L))
    return _worst(fd - p_ref, p_ref)


def _single_plate_limit(config: RunConfig) -> float:
    """phi2 at 1e-4 L from one plate of the gap against the single-plate form."""
    plate, z_near = PlateConfig(config.L), 1e-4 * config.L
    gap = [phi_squared(bc, plate, InteriorPoint.from_z(plate, z_near)) for bc in BoundaryCondition]
    single = [phi_squared_single_plate(bc, z_near) for bc in BoundaryCondition]
    return _worst([g - s for g, s in zip(gap, single)], single)


def _integrated_density(config: RunConfig) -> float:
    plate = PlateConfig(config.L)
    mismatch = [casimir.integrated_density_check(plate, bc)[1] for bc in BoundaryCondition]
    return _worst(mismatch, casimir.total_energy(plate))


def _canonical_quadrature(plate: PlateConfig, bc: BoundaryCondition, margin: float) -> float:
    """The library's canonical density, point by point, integrated over [m L, (1 - m) L].

    By the tanh-sinh rule (Takahasi and Mori, Publ. RIMS 9, 721, 1974):
    theta = a + w (1 + tanh u)/2, u = (pi/2) sinh t, a = pi m, w = pi (1 - 2m),
    at t = k/24, |k| <= 80, which clusters the nodes where the density
    grows as theta^-4.  Each node's distance to the nearer end,
    w e/(1 + e) with e = exp(-2u), is formed directly, so none loses
    digits to 1 - tanh u; dz = (L/pi) d theta.
    """
    start, width, terms = math.pi * margin, math.pi * (1.0 - 2.0 * margin), []
    for k in range(81):
        t = k / 24
        e = math.exp(-math.pi * math.sinh(t))
        near = start + width * e / (1.0 + e)
        weight = width * math.pi * math.cosh(t) * e / (1.0 + e) ** 2
        terms += [weight * _point_report(plate, bc, theta)[2].energy_density_canonical
                  for theta in ((near, math.pi - near) if k else (near,))]
    return math.fsum(terms) / 24 * plate.L / math.pi


def _canonical_density_integral(config: RunConfig) -> float:
    """The canonical density integral by quadrature against its closed form, both conditions."""
    plate = PlateConfig(config.L)
    pairs = [(_canonical_quadrature(plate, bc, m), casimir.canonical_density_integral(plate, bc, m))
             for bc in BoundaryCondition for m in _CANONICAL_MARGINS]
    return _worst([q - c for q, c in pairs], [c for _, c in pairs])


def _canonical_density_divergence(config: RunConfig) -> float:
    """Smallest growth of the canonical density integral per tenfold smaller margin.

    The canonical density has no finite margin -> 0 limit: it grows as
    m^-3, so each step from margin 0.01 to 0.001 to 0.0001 must grow the
    quadrature about a thousandfold.
    """
    plate = PlateConfig(config.L)
    values = [[abs(_canonical_quadrature(plate, bc, m)) for m in _CANONICAL_MARGINS]
              for bc in BoundaryCondition]
    return min(outer / inner for row in values for inner, outer in zip(row, row[1:]))


# Every claim `verify` checks, in report order; the acceptance suite runs
# the same table.  Relative errors unless noted.  A check belongs here
# only if it compares two independently computed routes and some
# transcription error in tests/test_mutations.py makes it FAIL; raising a
# PlateVacError there does not count.
VERIFY_CHECKS = (
    # Regularized power sums against the exponential-cutoff oracle (absolute).
    VerifyCheck("zeta_cutoff_k1", 2e-15, lambda config: _cutoff_error(1)),
    VerifyCheck("zeta_cutoff_k3", 2e-15, lambda config: _cutoff_error(3)),
    # Oscillatory sums against the Abel oracle (relative to max(1, |closed form|)).
    VerifyCheck("abel_n_cos", 1e-13, lambda config: _abel_error(1, regsum.trig_sum_n_cos)),
    VerifyCheck("abel_n3_cos", 1e-13, lambda config: _abel_error(3, regsum.trig_sum_n3_cos)),
    VerifyCheck("abel_constant", 1e-13, lambda config: _abel_error(0, lambda t: -0.5)),
    # Continued master integral against direct quadrature plus identities.
    VerifyCheck("dimreg_quadrature", 2e-14, _dimreg_quadrature),
    VerifyCheck("dimreg_scaling", 1e-12, _dimreg_scaling),
    VerifyCheck("dimreg_recursion", 5e-14, _dimreg_recursion),
    # Mode-sum oracle: radial kernels against quadrature, finite parts against closed forms.
    VerifyCheck("oracle_transverse_kernel", 2e-14, _oracle_transverse_kernel),
    VerifyCheck("mode_sum_phi2", 1e-13, lambda config: _mode_sum_error("phi2", config)),
    VerifyCheck("mode_sum_phidot2", 1e-12, lambda config: _mode_sum_error("phidot2", config)),
    # Stress-tensor invariants on the interior grid.
    VerifyCheck("trace_canonical_sign", 1e-10, _trace_canonical_sign),
    VerifyCheck("improved_density_value", 1e-12, _improved_density_value),
    VerifyCheck("tzz_equals_pressure", 1e-12, _tzz_equals_pressure),
    VerifyCheck("mirror_symmetry", 1e-12, _mirror_symmetry),
    VerifyCheck("length_scaling", 1e-12, _length_scaling),
    # Global quantities.
    VerifyCheck("energy_pipeline", 1e-14, _energy_pipeline),
    VerifyCheck("pressure_finite_difference", 1e-8, _pressure_finite_difference),
    VerifyCheck("single_plate_limit", 1e-5, _single_plate_limit),
    VerifyCheck("integrated_density", 1e-12, _integrated_density),
    VerifyCheck("canonical_density_integral", 4e-11, _canonical_density_integral),
    VerifyCheck("canonical_density_divergence", 900.0, _canonical_density_divergence, "ge"),
)


def run_verification(config: RunConfig) -> list[Check]:
    return [check.run(config) for check in VERIFY_CHECKS]


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
            return command(config, sys.stdout)
        try:
            handle = open(args.output, "w")
        except OSError as exc:
            raise InvalidConfigError(f"cannot open the output file: {exc}") from exc
        with handle:
            return command(config, handle)
    except PlateVacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
