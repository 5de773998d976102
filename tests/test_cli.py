"""Tests for the command-line interface."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platevac import casimir, cli, render
from platevac.cli import (
    PROFILE_COLUMNS,
    RunConfig,
    _fmt,
    _json_render,
    _profile_rows,
    cmd_energy,
    cmd_profile,
    cmd_verify,
    main,
)
from platevac.errors import InvalidConfigError
from platevac.spectrum import BoundaryCondition
from platevac.verify import VERIFY_CHECKS
from scalar_path import assert_columns_equal_scalar_path, scalar_rows

GOLDEN = Path(__file__).parent / "golden"
# SHA-256 of `profile --points 20001` (five write chunks), taken while
# every cell was still converted per row: the plan that writes constant
# columns once and shares magnitudes must reproduce these bytes.  The
# JSON entries were retaken when the master integral dropped its gamma
# ratio, which changed the `globals` tail alone.
PROFILE_DIGESTS = {
    ("dirichlet", "0.1808", "json"): "3535284fc413e0b0f8e6c6e905e53e204bf68ee08d0b88641c7714f5197d65ca",
    ("neumann", "0.9967", "json"): "615202a9657d092d98bfcbadbfff6efde37add4879624cce5e28ad7424859844",
    ("dirichlet", "6.229", "csv"): "6f4d7c715f8db479bfbf2be6d87265721a1dc227e7a1378530f35ce149d50b1c",
    ("neumann", "0.2821", "csv"): "2258506e1cb2ba28390b3cdebe6c5b9c2c971f0d75c385e601a04196d502d840",
}


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def forks(monkeypatch):
    """The pid of every process the CLI forks in this test."""
    pids, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunConfig:
    def test_grid_formula(self):
        config = RunConfig(bc=BoundaryCondition.DIRICHLET, L=2.0, grid_points=5, z_margin=0.1)
        grid = config.grid()
        assert grid[0] == pytest.approx(0.2)
        assert grid[-1] == pytest.approx(1.8)
        assert grid[2] == pytest.approx(1.0)

    @pytest.mark.parametrize("kwargs", [
        {"L": 0.0},
        {"grid_points": 2},
        {"z_margin": 0.0},
        {"z_margin": 0.5},
        {"output_format": "xml"},
    ])
    def test_validation(self, kwargs):
        base = {"bc": BoundaryCondition.DIRICHLET}
        base.update(kwargs)
        with pytest.raises(InvalidConfigError):
            RunConfig(**base)


class TestProfileCommand:
    def test_csv_shape_and_midpoint(self, capsys):
        code, out, _ = _run(
            ["profile", "--bc", "dirichlet", "--length", "1", "--points", "5",
             "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(PROFILE_COLUMNS)
        assert len(lines) == 6
        middle = dict(zip(PROFILE_COLUMNS, (float(v) for v in lines[3].split(","))))
        assert middle["phi2"] == pytest.approx(-1.0 / 24.0, rel=1e-11)
        assert middle["z"] == pytest.approx(0.5)

    def test_json_schema_and_constancy(self, capsys):
        code, out, _ = _run(
            ["profile", "--bc", "neumann", "--length", "1", "--points", "3",
             "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"config", "rows", "globals"}
        assert doc["config"]["bc"] == "neumann"
        assert len(doc["rows"]) == 3
        improved = [row["E_improved"] for row in doc["rows"]]
        assert max(improved) - min(improved) <= 1e-9 * abs(improved[0])
        for row in doc["rows"]:
            for value in row.values():
                assert math.isfinite(value)

    def test_margin_zero_exits_2(self, capsys):
        code, _, err = _run(["profile", "--margin", "0"], capsys)
        assert code == 2
        assert "margin" in err

    def test_csv_deterministic(self, capsys):
        argv = ["profile", "--bc", "dirichlet", "--points", "17", "--format", "csv"]
        _, first, _ = _run(argv, capsys)
        _, second, _ = _run(argv, capsys)
        assert first == second

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "profile.csv"
        code, out, _ = _run(["profile", "--points", "4", "--output", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("z,theta,")

    def test_json_floats_round_trip_exactly(self, capsys):
        # 17 significant digits reproduce the doubles bit for bit
        _, out, _ = _run(
            ["profile", "--bc", "dirichlet", "--points", "9", "--format", "json"], capsys)
        doc = json.loads(out)
        columns = _profile_rows(RunConfig(bc=BoundaryCondition.DIRICHLET, grid_points=9))
        assert tuple(columns) == PROFILE_COLUMNS
        assert len(doc["rows"]) == 9
        for i, parsed in enumerate(doc["rows"]):
            assert tuple(parsed) == PROFILE_COLUMNS
            for key in PROFILE_COLUMNS:
                assert float(parsed[key]) == columns[key][i]


def _assert_same_text(actual: str, expected: str) -> None:
    # A plain == on megabyte strings makes pytest build a very slow diff.
    mismatch = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
                    min(len(actual), len(expected)))
    window = slice(max(mismatch - 40, 0), mismatch + 40)
    assert len(actual) == len(expected) and mismatch == len(actual), (
        f"outputs differ from character {mismatch}: {actual[window]!r} vs {expected[window]!r}"
    )


def _render_rows(config: RunConfig, rows: list[dict[str, float]]) -> str:
    """cmd_profile's output for ``rows``, each value rendered alone by _fmt/_json_render."""
    if config.output_format == "csv":
        lines = [",".join(PROFILE_COLUMNS)]
        lines += [",".join(_fmt(row[c], 12) for c in PROFILE_COLUMNS) for row in rows]
        return "\n".join(lines) + "\n"
    doc = {"config": cli._config_payload(config), "rows": rows,
           "globals": cli._globals_payload(config)}
    return _json_render(doc) + "\n"


def _scalar_render(config: RunConfig) -> str:
    """cmd_profile's output rebuilt from the scalar rows."""
    return _render_rows(config, scalar_rows(config))


class TestColumnarProfile:
    @given(st.sampled_from(list(BoundaryCondition)),
           st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
           st.integers(min_value=3, max_value=300))
    @settings(max_examples=150, deadline=None)
    def test_columns_equal_scalar_path_bit_for_bit(self, bc, L, margin, n):
        assert_columns_equal_scalar_path(RunConfig(bc=bc, L=L, grid_points=n, z_margin=margin))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bc, L, n, margin", [
        (BoundaryCondition.DIRICHLET, 1.0, 64, 0.02),
        (BoundaryCondition.NEUMANN, 2.37, 5000, 0.02),
        (BoundaryCondition.DIRICHLET, 0.1239, 9000, 0.02),
        (BoundaryCondition.NEUMANN, 7.5, 4097, 0.31),
        (BoundaryCondition.DIRICHLET, 1.3, 4096, 0.02),
    ])
    def test_output_equals_scalar_rendering(self, bc, L, n, margin, fmt):
        # n = 4096 fills exactly one write chunk; n > 4096 spans more than one
        config = RunConfig(bc=bc, L=L, grid_points=n, z_margin=margin, output_format=fmt)
        buffer = io.StringIO()
        assert cmd_profile(config, buffer) == 0
        _assert_same_text(buffer.getvalue(), _scalar_render(config))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_golden_output(self, fmt, capsys):
        code, out, _ = _run(["profile", "--bc", "neumann", "--length", "2.37", "--points", "7",
                             "--margin", "0.05", "--format", fmt], capsys)
        assert code == 0
        assert out == (GOLDEN / f"profile_neumann_L2.37_n7.{fmt}").read_text()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_column_exits_2_before_writing(self, fmt, monkeypatch, capsys):
        computed = cli._profile_rows

        def poisoned(config):
            columns = computed(config)
            columns["T_zz"][3] = math.nan
            return columns

        monkeypatch.setattr(cli, "_profile_rows", poisoned)
        code, out, err = _run(["profile", "--points", "8", "--format", fmt], capsys)
        assert code == 2
        assert out == ""
        assert "non-finite value nan" in err

    @pytest.mark.parametrize("bc, length, fmt", list(PROFILE_DIGESTS))
    def test_multi_chunk_bytes_pinned(self, bc, length, fmt, forks, capsys):
        code, out, _ = _run(["profile", "--bc", bc, "--length", length, "--points", "20001",
                             "--format", fmt], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PROFILE_DIGESTS[bc, length, fmt]
        assert forks == []  # five chunks, all rendered in this process
        _assert_no_child_left()

    @pytest.mark.parametrize("bc, length, fmt", list(PROFILE_DIGESTS))
    def test_python_path_bytes_pinned(self, bc, length, fmt, monkeypatch, capsys):
        # every value converted by Python's own '%.{sig}g', none by the fast path
        scaled = render._scaled_digits

        def all_to_python(a, sig):
            digits, exponent, fallback = scaled(a, sig)
            fallback[:] = True
            return digits, exponent, fallback

        monkeypatch.setattr(render, "_scaled_digits", all_to_python)
        code, out, _ = _run(["profile", "--bc", bc, "--length", length, "--points", "20001",
                             "--format", fmt], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PROFILE_DIGESTS[bc, length, fmt]

    @pytest.mark.parametrize("bc, negative", [
        (BoundaryCondition.DIRICHLET, {"phi2", "dzphi2", "gradTphi2", "E_canonical",
                                       "trace_canonical"}),
        (BoundaryCondition.NEUMANN, {"phidot2", "dlambda_phi2", "huggins00"}),
    ])
    @pytest.mark.parametrize("sig", [12, 17])
    def test_render_plan_of_the_default_profile(self, bc, negative, sig):
        # the constants E_improved = -A, T_zz = -3A and trace_improved = 0
        # are literal text; trace_canonical = -dlambda_phi2 shares its
        # magnitude, so nine conversions fill ten cells
        columns = _profile_rows(RunConfig(bc=bc))
        cells, sources, slots = render._render_plan(columns, sig)
        shown = dict(zip(PROFILE_COLUMNS, cells))
        literal = {c for c, cell in shown.items() if "%" not in cell}
        assert literal == {"E_improved", "T_zz", "trace_improved"}
        for column in literal:
            assert shown[column] == _fmt(float(columns[column][0]), sig)
        assert {c for c, cell in shown.items() if cell == "-%s"} == negative
        assert {c for c, cell in shown.items() if cell == "%s"} == (
            set(PROFILE_COLUMNS) - literal - negative)
        assert len(slots) == 10 and len(sources) == 9  # nine conversions per row
        converted = [c for c in PROFILE_COLUMNS if c not in literal]
        index = dict(zip(converted, slots))
        assert index["trace_canonical"] == index["dlambda_phi2"]
        assert len(set(index.values())) == 9

    @given(st.data(), st.sampled_from([12, 17]))
    @settings(max_examples=60, deadline=None)
    def test_any_columns_render_as_each_value(self, data, sig):
        # the plan and the rows on synthetic columns: constants, copies,
        # negations of one-signed and of mixed-sign columns, subnormals,
        # values near the ends of the double range, and signed zeros, which
        # compare equal as floats but print apart
        n = data.draw(st.integers(min_value=2, max_value=24))
        value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320,
                                           1e300, -1e300, 1.0, -1.0]))
        fresh = st.lists(value, min_size=n, max_size=n).map(np.array)
        # first a column that varies, as z does, so that some cell is converted
        columns = {"c0": np.arange(1.0, n + 1.0)}
        for kind in data.draw(st.lists(st.sampled_from(
                ["constant", "fresh", "one-signed", "zeros", "copy", "negation"]), max_size=8)):
            earlier = columns[data.draw(st.sampled_from(sorted(columns)))]
            columns[f"c{len(columns)}"] = {
                "constant": lambda: np.full(n, data.draw(value)),
                "fresh": lambda: data.draw(fresh),
                "one-signed": lambda: np.abs(data.draw(fresh)) * data.draw(st.sampled_from([1.0, -1.0])),
                "zeros": lambda: np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0]),
                                                             min_size=n, max_size=n))),
                "copy": lambda: earlier.copy(),
                "negation": lambda: -earlier,
            }[kind]()
        cells, sources, slots = render._render_plan(columns, sig)
        out = io.StringIO()
        render._write_rows(out, ",".join(cells) + "\n", "", sources, slots, sig)
        expected = "".join(",".join(f"%.{sig}g" % v for v in row) + "\n"
                           for row in zip(*(values.tolist() for values in columns.values())))
        assert out.getvalue() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("poison", [
        # a finite value off the constant
        lambda c: c["E_improved"].__setitem__(3, np.nextafter(c["E_improved"][3], 0.0)),
        # trace_canonical one ulp away from -dlambda_phi2
        lambda c: c["trace_canonical"].__setitem__(5, np.nextafter(c["trace_canonical"][5], 0.0)),
        # both signs flipped in one row: trace_canonical is still minus
        # dlambda_phi2, but neither column is of one sign any more
        lambda c: [c[k].__setitem__(2, -c[k][2]) for k in ("dlambda_phi2", "trace_canonical")],
    ])
    def test_poisoned_columns_print_each_value(self, poison, fmt, monkeypatch, capsys):
        # the template is read off the values, so whatever they are, each
        # cell reads '%.{sig}g' of its own value
        computed, printed = cli._profile_rows, []

        def poisoned(config):
            columns = computed(config)
            poison(columns)
            printed.append({c: values.copy() for c, values in columns.items()})
            return columns

        monkeypatch.setattr(cli, "_profile_rows", poisoned)
        code, out, err = _run(["profile", "--points", "8", "--format", fmt], capsys)
        assert (code, err) == (0, "")
        config = RunConfig(bc=BoundaryCondition.DIRICHLET, grid_points=8, output_format=fmt)
        (columns,) = printed
        rows = [dict(zip(columns, values)) for values in zip(*(v.tolist() for v in columns.values()))]
        assert out == _render_rows(config, rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_profile_exits_2(self, fmt, capsys):
        # At L = 1e-70 the profile part B overflows at the first grid
        # point; a smaller margin would put the last point on the plate.
        code, out, err = _run(["profile", "--length", "1e-70", "--margin", "2e-16",
                               "--format", fmt], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the profile part B overflows")
        assert "Traceback" not in err

    @pytest.mark.parametrize("points", [10**12, 2**60 - 1, 10**20, 2**64])
    def test_unallocatable_grid_exits_2(self, points, capsys):
        # 10^12 points (8 TB per column) fail to allocate; numpy refuses the
        # larger counts with a ValueError, so they are refused before it runs
        code, out, err = _run(["profile", "--points", str(points)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {points} grid points do not fit in memory\n"

    @given(st.floats(), st.floats(), st.sampled_from(["csv", "json"]))
    @settings(max_examples=150, deadline=None)
    def test_any_length_and_margin_exit_0_or_2(self, length, margin, fmt):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["profile", f"--length={length!r}", f"--margin={margin!r}",
                         "--points", "16", "--format", fmt])
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")


class _RecordingOut(io.StringIO):
    """A stream that keeps each write's text and raises a broken pipe on the ``fail_at``-th."""

    def __init__(self, fail_at: int = 0) -> None:
        super().__init__()
        self.writes, self.fail_at = [], fail_at

    def write(self, text: str) -> int:
        self.writes.append(text)
        if len(self.writes) == self.fail_at:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


class TestChunkedWrites:
    """Rows written by this process, one write per chunk of ``_ROW_CHUNK`` rows."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("points", [3, 4095, 4096, 4097, 8192, 8193])
    def test_one_write_per_chunk(self, points, fmt, forks):
        config = RunConfig(bc=BoundaryCondition.DIRICHLET, grid_points=points, output_format=fmt)
        out = _RecordingOut()
        assert cmd_profile(config, out) == 0
        head, *chunks, tail = out.writes
        # every CSV row ends in a newline, and every JSON row opens a brace
        rows = [text.count("\n" if fmt == "csv" else "{") for text in chunks]
        full, rest = divmod(points, render._ROW_CHUNK)
        assert rows == [render._ROW_CHUNK] * full + ([rest] if rest else [])
        assert forks == []
        _assert_no_child_left()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("fail_at", [1, 2, 4, 7])  # the head; the first, third chunk; the tail
    def test_failed_write_stops_the_rows(self, fail_at, fmt, forks):
        config = RunConfig(bc=BoundaryCondition.NEUMANN, grid_points=20001, output_format=fmt)
        whole = io.StringIO()
        assert cmd_profile(config, whole) == 0
        out = _RecordingOut(fail_at)
        with pytest.raises(BrokenPipeError):
            cmd_profile(config, out)
        assert len(out.writes) == fail_at  # nothing written after the failed write
        assert whole.getvalue().startswith("".join(out.writes))
        assert forks == []
        _assert_no_child_left()


class TestEnergyCommand:
    def test_csv_values(self, capsys):
        code, out, _ = _run(["energy", "--length", "1", "--format", "csv"], capsys)
        assert code == 0
        values = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert float(values["total_energy"]) == pytest.approx(-6.85389e-3, rel=1e-5)
        assert float(values["pressure"]) == pytest.approx(-2.05617e-2, rel=1e-5)
        assert float(values["em_energy_per_area"]) == pytest.approx(-1.37078e-2, rel=1e-5)
        assert float(values["integral_mismatch"]) < 1e-12 * abs(float(values["total_energy"]))

    def test_json_schema(self, capsys):
        code, out, _ = _run(["energy", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"config", "rows", "globals"}
        assert doc["rows"] == []
        assert doc["globals"]["em_pressure"] == pytest.approx(-math.pi**2 / 240.0, rel=1e-12)

    def test_json_deterministic(self, capsys):
        argv = ["energy", "--format", "json"]
        _, first, _ = _run(argv, capsys)
        _, second, _ = _run(argv, capsys)
        assert first == second

    def test_runs_the_energy_pipeline_once_per_value(self, monkeypatch, capsys):
        # total_energy, pressure, em_reference and the density integral's
        # comparison each evaluate the master integral once
        calls = []
        real = casimir.master_integral
        monkeypatch.setattr(casimir, "master_integral",
                            lambda *args: calls.append(args) or real(*args))
        code, _, _ = _run(["energy"], capsys)
        assert (code, len(calls)) == (0, 4)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bc, length", [("dirichlet", "0.77"), ("neumann", "3.1")])
    def test_golden_output(self, bc, length, fmt, capsys):
        # pinned while the density integral still summed a numpy array, and
        # retaken for the energies when the master integral dropped its gamma ratio
        code, out, _ = _run(["energy", "--bc", bc, "--length", length, "--format", fmt], capsys)
        assert code == 0
        assert out == (GOLDEN / f"energy_{bc}_L{length}.{fmt}").read_text()


@pytest.mark.parametrize("command", [["profile"], ["energy"], ["verify"]])
@pytest.mark.parametrize("target", ["missing/report.txt", "."])
def test_unopenable_output_exits_2(command, target, tmp_path, capsys):
    code, out, err = _run([*command, "--output", str(tmp_path / target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot open the output file")
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", [["profile", "--points", "20001"], ["energy"], ["verify"]],
                         ids=["profile", "energy", "verify"])
def test_failed_write_exits_2(command, forks, capsys):
    # every write to /dev/full fails with ENOSPC: profile's in the middle of
    # its rows, energy's and verify's when the file is closed
    code, out, err = _run([*command, "--output", "/dev/full"], capsys)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: \[Errno \d+\] [^\n]+\n", err)
    assert forks == []
    _assert_no_child_left()


def test_closed_pipe_exits_2_without_a_traceback():
    # as in `platevac profile --points 100000 | head -c 10`; the interpreter's
    # last flush of stdout must find nothing to complain about either
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.Popen([sys.executable, "-m", "platevac.cli", "profile", "--points", "100000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=root,
                            env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, b"error: [Errno 32] Broken pipe\n")


class TestSeparationDomain:
    @pytest.mark.parametrize("command", ["energy", "verify", "profile"])
    @pytest.mark.parametrize("length", ["inf", "nan", "1e100", "1e-100"])
    def test_out_of_range_length_exits_2(self, command, length, capsys):
        code, out, err = _run([command, "--length", length], capsys)
        assert code == 2
        assert out == ""
        assert "plate separation" in err

    @pytest.mark.parametrize("length", ["1e-72", "1e72"])
    def test_range_ends_accepted(self, length, capsys):
        code, out, _ = _run(["energy", "--length", length], capsys)
        assert code == 0
        assert "total_energy" in out


def _probe(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports platevac and perfbench from this tree."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(str(root / d) for d in ("src", "perfbench"))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=root, env={**os.environ, "PYTHONPATH": path}, timeout=60)


def test_import_leaves_scipy_unloaded():
    # platevac needs numpy alone: a full verify runs where importing scipy fails
    probe = ("import sys; sys.modules['scipy'] = None; import platevac.cli; "
             "code = platevac.cli.main(['verify']); "
             "print(sorted(m for m, mod in sys.modules.items() if m.startswith('scipy') and mod)); "
             "sys.exit(code)")
    proc = _probe(probe)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *report, summary, modules = proc.stdout.splitlines()
    assert all(line.startswith("PASS ") for line in report)
    assert summary == f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed"
    assert modules == "[]"


# Where importing numpy fails: the scalar API, in point_worker's call
# sequence and through every other scalar entry point, the oracles and the
# quadrature, energy in both formats, and verify, which passes every check,
# and fails with the sign flip.  Prints the numpy modules loaded at the end.
NUMPY_FREE_PROBE = """
import contextlib, io, random, sys
sys.modules["numpy"] = None
import platevac, platevac.cli, point_worker
by_sign = {1: platevac.BoundaryCondition.DIRICHLET, -1: platevac.BoundaryCondition.NEUMANN}
points = point_worker.make_points(random.Random(16), 200)
failed = [r for r in point_worker.evaluate(platevac, by_sign, points) if isinstance(r, Exception)]
assert failed == [], failed
plate = platevac.PlateConfig(0.77)
point = platevac.InteriorPoint.from_theta(plate, 1.1)
for bc in platevac.BoundaryCondition:
    platevac.phi_squared(bc, plate, point)
    platevac.phi_squared_single_plate(bc, 0.1)
    platevac.integrated_density_check(plate, bc)
platevac.total_energy(plate), platevac.pressure(plate), platevac.em_reference(plate)
platevac.zeta_neg_int(3), platevac.master_integral(-0.5, 1.0)
platevac.quadrature_reference(2.0, 1.0), platevac.mode_sum_finite_part("phidot2", bc, plate, point)
platevac.mode_sum_finite_part("energy_density_canonical", bc, plate, point)
for fmt in ("csv", "json"):
    assert platevac.cli.main(["energy", "--length", "0.77", "--format", fmt]) == 0
report = io.StringIO()
with contextlib.redirect_stdout(report):
    assert platevac.cli.main(["verify", "--length", "0.77"]) == 0
    assert platevac.cli.main(["verify", "--inject-sign-flip"]) == 1
assert report.getvalue().count("FAIL") == 3, report.getvalue()
checks = len(platevac.verify.VERIFY_CHECKS)
assert f"{checks}/{checks} checks passed" in report.getvalue()
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "numpy" and mod))
"""


def test_scalar_api_energy_and_verify_run_without_numpy():
    proc = _probe(NUMPY_FREE_PROBE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *energy, modules = proc.stdout.splitlines()
    golden = [(GOLDEN / f"energy_dirichlet_L0.77.{fmt}").read_text() for fmt in ("csv", "json")]
    assert "\n".join(energy) + "\n" == "".join(golden)
    assert modules == "[]"


# Where importing dataclasses fails: point_worker's call sequence on seeded
# points, then verify and energy in both formats at L = 0.77.  Prints each
# command's output, then whether json was loaded at the start, after verify
# and CSV energy, and after JSON energy.
DATACLASS_FREE_PROBE = """
import contextlib, io, math, random, sys
sys.modules["dataclasses"] = None
loaded = ["json" in sys.modules]
import platevac, platevac.cli, platevac.verify
rng = random.Random(33)
for _ in range(200):
    config = platevac.PlateConfig(10.0 ** rng.uniform(-3.0, 3.0))
    point = platevac.InteriorPoint.from_theta(config, rng.uniform(1e-6, math.pi - 1e-6))
    bc = rng.choice(list(platevac.BoundaryCondition))
    fluct = platevac.expectation_set(bc, config, point)
    report = platevac.stress_report(fluct, platevac.ab_values(config, point))
    assert all(map(math.isfinite, [*vars(fluct).values(), *vars(report).values()]))
for argv in (["verify"], ["energy", "--format", "csv"], ["energy", "--format", "json"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert platevac.cli.main([*argv, "--length", "0.77"]) == 0
    print(out.getvalue(), end="")
    loaded.append("json" in sys.modules)
print(loaded[0], loaded[2], loaded[3])
"""


def test_cli_runs_without_dataclasses_and_json_only_for_json():
    # the records are plain classes, and json is imported by JSON output alone
    proc = _probe(DATACLASS_FREE_PROBE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *text, loaded = proc.stdout.splitlines(keepends=True)
    golden = [(GOLDEN / name).read_text() for name in
              ("verify_L0.77.txt", "energy_dirichlet_L0.77.csv", "energy_dirichlet_L0.77.json")]
    assert "".join(text) == "".join(golden)
    before, after, json_output = loaded.split()
    assert (before, json_output) == (after, "True")


@pytest.mark.parametrize("argv, loads_numpy", [
    (["profile", "--points", "3"], True),
    (["energy"], False),
    (["verify"], False),
    (["verify", "--length", "1e72"], False),
    (["verify", "--inject-sign-flip"], False),
], ids=["profile", "energy", "verify", "verify-1e72", "verify-sign-flip"])
def test_only_profile_imports_numpy(argv, loads_numpy):
    # import platevac.cli alone leaves numpy unloaded and the environment as it
    # was; profile loads numpy with one OpenBLAS thread, energy and verify never
    # load it
    proc = _probe("import os, sys; os.environ.pop('OPENBLAS_NUM_THREADS', None); "
                  "import platevac.cli; before = 'numpy' in sys.modules; "
                  "unset = 'OPENBLAS_NUM_THREADS' not in os.environ; "
                  f"code = platevac.cli.main({argv!r}); "
                  "print(before, unset, 'numpy' in sys.modules, "
                  "os.environ.get('OPENBLAS_NUM_THREADS')); sys.exit(code)")
    assert proc.returncode == (1 if "--inject-sign-flip" in argv else 0), proc.stdout + proc.stderr
    threads = "1" if loads_numpy else None
    assert proc.stdout.splitlines()[-1] == f"False True {loads_numpy} {threads}"


# Runs profile in a process whose environment has OPENBLAS_NUM_THREADS as
# given (None: unset), then prints the variable and the process's thread
# count, None where /proc/self/task is missing.
BLAS_THREADS_PROBE = """
import os, sys
preset = {preset!r}
os.environ.pop("OPENBLAS_NUM_THREADS", None)
if preset is not None:
    os.environ["OPENBLAS_NUM_THREADS"] = preset
import platevac.cli
code = platevac.cli.main(["profile", "--points", "3", "--output", os.devnull])
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
sys.exit(code)
"""


def test_profile_loads_numpy_without_a_blas_thread_pool():
    # profile calls no BLAS routine: OpenBLAS starts no worker thread
    proc = _probe(BLAS_THREADS_PROBE.format(preset=None))
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout + proc.stderr
    value, threads = proc.stdout.split()
    assert value == "1"
    if threads == "None":
        pytest.skip("no /proc/self/task to count the threads in")
    assert threads == "1"


def test_profile_keeps_a_preset_blas_thread_count():
    proc = _probe(BLAS_THREADS_PROBE.format(preset="2"))
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout + proc.stderr
    assert proc.stdout.split()[0] == "2"


def test_cli_and_verify_import_without_typing():
    # in an interpreter without site, whose .pth files may load typing first:
    # cli reads TYPE_CHECKING as a plain False, and no module of the run needs typing
    root = Path(__file__).resolve().parents[1]
    probe = ("import sys; import platevac.cli, platevac.verify; "
             "print(sorted(m for m in ('typing', 'numpy') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_shared_tables_are_built_on_first_use():
    # the exp-sinh nodes and the oracle's power sums cost nothing at import
    proc = _probe("import platevac.cli; from platevac import dimreg, oracle; "
                  "print(dimreg._exp_sinh_nodes.cache_info().currsize, "
                  "oracle._power_sums.cache_info().currsize)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0\n", "")


class TestDirectInvocation:
    def test_cmd_profile_stream(self):
        config = RunConfig(bc=BoundaryCondition.DIRICHLET, grid_points=3)
        buffer = io.StringIO()
        assert cmd_profile(config, buffer) == 0
        assert buffer.getvalue().count("\n") == 4

    def test_cmd_energy_stream(self):
        config = RunConfig(bc=BoundaryCondition.NEUMANN, output_format="json")
        buffer = io.StringIO()
        assert cmd_energy(config, buffer) == 0
        json.loads(buffer.getvalue())

    def test_cmd_verify_stream(self):
        config = RunConfig(bc=BoundaryCondition.DIRICHLET)
        buffer = io.StringIO()
        assert cmd_verify(config, buffer) == 0
