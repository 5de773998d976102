"""Tests for the command-line interface."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platevac import cli, render, stress
from platevac.cli import (
    PROFILE_COLUMNS,
    VERIFY_CHECKS,
    RunConfig,
    _fmt,
    _json_render,
    _profile_rows,
    cmd_energy,
    cmd_profile,
    cmd_verify,
    main,
)
from platevac.errors import InvalidConfigError, PlateVacError
from platevac.fluctuations import InteriorPoint, ab_values, expectation_set
from platevac.spectrum import BoundaryCondition, PlateConfig
from platevac.stress import stress_report

GOLDEN = Path(__file__).parent / "golden"
# SHA-256 of `profile --points 20001` (five write chunks), taken while
# every cell was still converted per row: the plan that writes constant
# columns once and shares magnitudes must reproduce these bytes.
PROFILE_DIGESTS = {
    ("dirichlet", "0.1808", "json"): "6cf34cc929543d2da3e0a114bd037646524af7b14693bdd1e385f35e39df6192",
    ("neumann", "0.9967", "json"): "d82c67b78dfdb2ccf9be795590cecb18a1bf0f4f0b9ee583eac1c88c41c34495",
    ("dirichlet", "6.229", "csv"): "6f4d7c715f8db479bfbf2be6d87265721a1dc227e7a1378530f35ce149d50b1c",
    ("neumann", "0.2821", "csv"): "2258506e1cb2ba28390b3cdebe6c5b9c2c971f0d75c385e601a04196d502d840",
}
# One verify report line, as the benchmark in perfbench/checks.py parses it.
CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+) +measured=(\S+) (tol|floor)=(\S+)$")


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def forks(monkeypatch):
    """The pid of every worker the CLI forks in this test."""
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


class _FailingOut(io.StringIO):
    """A stream whose ``fail_at``-th write raises a broken pipe."""

    def __init__(self, fail_at: int) -> None:
        super().__init__()
        self.writes, self.fail_at = 0, fail_at

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes == self.fail_at:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


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


def _scalar_rows(config: RunConfig) -> list[dict[str, float]]:
    """The profile evaluated one point at a time through the scalar API."""
    plate = PlateConfig(config.L)
    rows = []
    for z in config.grid().tolist():
        point = InteriorPoint.from_z(plate, z)
        fluct = expectation_set(config.bc, plate, point)
        report = stress_report(fluct, ab_values(plate, point))
        rows.append({
            "z": z, "theta": point.theta, "phi2": fluct.phi2, "phidot2": fluct.phidot2,
            "dzphi2": fluct.dzphi2, "gradTphi2": fluct.gradTphi2,
            "dlambda_phi2": fluct.dlambda_phi2,
            "E_canonical": report.energy_density_canonical, "huggins00": report.huggins_00,
            "E_improved": report.energy_density_improved, "T_zz": report.t_zz,
            "trace_canonical": report.trace_canonical, "trace_improved": report.trace_improved,
        })
    return rows


def _scalar_render(config: RunConfig) -> str:
    """cmd_profile's output rebuilt from the scalar rows with _fmt/_json_render."""
    rows = _scalar_rows(config)
    if config.output_format == "csv":
        lines = [",".join(PROFILE_COLUMNS)]
        lines += [",".join(_fmt(row[c], 12) for c in PROFILE_COLUMNS) for row in rows]
        return "\n".join(lines) + "\n"
    doc = {"config": cli._config_payload(config), "rows": rows,
           "globals": cli._globals_payload(config)}
    return _json_render(doc) + "\n"


class TestColumnarProfile:
    @given(st.sampled_from(list(BoundaryCondition)),
           st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
           st.integers(min_value=3, max_value=300))
    @settings(max_examples=150, deadline=None)
    def test_columns_equal_scalar_path_bit_for_bit(self, bc, L, margin, n):
        config = RunConfig(bc=bc, L=L, grid_points=n, z_margin=margin)
        try:
            scalar = _scalar_rows(config)
        except PlateVacError:
            with pytest.raises(PlateVacError):
                _profile_rows(config)
            return
        columns = _profile_rows(config)
        assert tuple(columns) == PROFILE_COLUMNS
        for key in PROFILE_COLUMNS:
            expected = np.array([row[key] for row in scalar])
            assert columns[key].dtype == np.float64
            assert np.array_equal(columns[key].view(np.uint64), expected.view(np.uint64)), key

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bc, L, n, margin", [
        (BoundaryCondition.DIRICHLET, 1.0, 64, 0.02),
        (BoundaryCondition.NEUMANN, 2.37, 5000, 0.02),
        (BoundaryCondition.DIRICHLET, 0.1239, 9000, 0.02),
        (BoundaryCondition.NEUMANN, 7.5, 4097, 0.31),
    ])
    def test_output_equals_scalar_rendering(self, bc, L, n, margin, fmt):
        # n > 4096 spans more than one write chunk
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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("bc, length, fmt", list(PROFILE_DIGESTS))
    def test_multi_chunk_bytes_pinned(self, bc, length, fmt, workers, forks, monkeypatch, capsys):
        # the bytes do not depend on how many processes render the rows
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        code, out, _ = _run(["profile", "--bc", bc, "--length", length, "--points", "20001",
                             "--format", fmt], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PROFILE_DIGESTS[bc, length, fmt]
        assert len(forks) == workers - 1  # five chunks: every process renders one
        _assert_no_child_left()

    @pytest.mark.parametrize("bc, length, fmt", list(PROFILE_DIGESTS))
    def test_python_path_bytes_pinned(self, bc, length, fmt, monkeypatch, capsys):
        # every value converted by Python's own '%.{sig-1}e', none by the fast path
        scaled = render._scaled_digits

        def all_to_python(a, sig):
            digits, exponent, fallback = scaled(a, sig)
            fallback[:] = True
            return digits, exponent, fallback

        monkeypatch.setattr(render, "_scaled_digits", all_to_python)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        code, out, _ = _run(["profile", "--bc", bc, "--length", length, "--points", "20001",
                             "--format", fmt], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PROFILE_DIGESTS[bc, length, fmt]

    def test_render_plan_follows_the_pair_table(self):
        # constants: E_improved (-1, 0), T_zz (-3, 0), trace_improved (0, 0);
        # trace_canonical (0, -6) prints the magnitude of dlambda_phi2 (0, 6)
        assert cli._SHARED_LEADS == {"dlambda_phi2": "dlambda_phi2",
                                     "trace_canonical": "dlambda_phi2"}
        config = RunConfig(bc=BoundaryCondition.NEUMANN, grid_points=5)
        cells, sources, slots = cli._render_plan(_profile_rows(config), 17)
        literal = {c for c, cell in zip(PROFILE_COLUMNS, cells) if "%" not in cell}
        assert literal == {"E_improved", "T_zz", "trace_improved"}
        assert len(slots) == 10 and len(sources) == 9  # nine conversions per row
        shown = dict(zip(PROFILE_COLUMNS, cells))
        assert (shown["dlambda_phi2"], shown["trace_canonical"]) == ("-%s", "%s")  # s = -1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("poison, claim", [
        # a finite value off the proved constant
        (lambda c: c["E_improved"].__setitem__(3, np.nextafter(c["E_improved"][3], 0.0)),
         "E_improved is proved constant"),
        # trace_canonical one ulp away from -dlambda_phi2
        (lambda c: c["trace_canonical"].__setitem__(5, np.nextafter(c["trace_canonical"][5], 0.0)),
         "trace_canonical is proved minus dlambda_phi2"),
        # both signs flipped in one row: still negatives, but s is not uniform
        (lambda c: [c[k].__setitem__(2, -c[k][2]) for k in ("dlambda_phi2", "trace_canonical")],
         "dlambda_phi2 is proved of one sign"),
    ])
    def test_broken_plan_fact_exits_2_before_writing(self, poison, claim, fmt, monkeypatch, capsys):
        computed = cli._profile_rows

        def poisoned(config):
            columns = computed(config)
            poison(columns)
            return columns

        monkeypatch.setattr(cli, "_profile_rows", poisoned)
        code, out, err = _run(["profile", "--points", "8", "--format", fmt], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {claim}, but row ")
        assert "Traceback" not in err

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

    def test_unallocatable_grid_exits_2(self, capsys):
        # numpy refuses 10^12 points (8 TB per column) at once
        code, out, err = _run(["profile", "--points", "1000000000000"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: 1000000000000 grid points do not fit in memory\n"

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


class TestParallelRendering:
    """Rows rendered by forked workers, W = min(usable CPUs, 4096-row chunks)."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("points", [64, 4096])
    def test_one_chunk_never_forks(self, points, fmt, monkeypatch, capsys):
        def fork():
            raise AssertionError("forked for a single chunk")

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", fork)
        code, out, _ = _run(["profile", "--points", str(points), "--format", fmt], capsys)
        assert code == 0
        assert (out.count("\n") - 1 if fmt == "csv" else len(json.loads(out)["rows"])) == points

    def test_no_fork_means_one_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert cli._usable_cpus() == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("die, reason", [
        # an exception inside the worker's rendering
        (lambda: setattr(cli, "_ROW_CHUNK", None), "exited with status 1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {signal.SIGKILL}"),
    ])
    def test_failed_worker_exits_2(self, die, reason, fmt, monkeypatch, capfd):
        fork = os.fork

        def dying():
            pid = fork()
            if pid == 0:
                try:
                    die()
                except BaseException:
                    os._exit(99)
            return pid

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", dying)
        code = main(["profile", "--points", "20001", "--format", fmt])
        _, err = capfd.readouterr()
        assert code == 2
        assert re.fullmatch(rf"error: profile worker \d+ {reason}\n", err)  # and no traceback
        _assert_no_child_left()

    @pytest.mark.parametrize("fail_at", [2, 3])  # this process's first chunk; a worker's
    def test_failed_write_reaps_every_worker(self, fail_at, forks, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        config = RunConfig(bc=BoundaryCondition.NEUMANN, grid_points=20001, output_format="json")
        with pytest.raises(BrokenPipeError):
            cmd_profile(config, _FailingOut(fail_at))
        assert len(forks) == 2
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


class TestVerifyCommand:
    def test_output_contract(self, capsys):
        # the line format the benchmark parses, one line per table entry
        code, out, _ = _run(["verify"], capsys)
        assert code == 0
        *lines, summary = out.splitlines()
        matches = [CHECK_LINE.match(line) for line in lines]
        assert all(matches)
        assert [m.group(1, 2, 4, 5) for m in matches] == [
            ("PASS", c.name, "floor" if c.direction == "ge" else "tol", f"{c.tolerance:.3e}")
            for c in VERIFY_CHECKS
        ]
        assert summary == f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed"

    def test_golden_report(self, capsys):
        # every measured value to the printed digit, at an L where a wrong
        # power of L shows
        code, out, _ = _run(["verify", "--length", "0.77"], capsys)
        assert code == 0
        assert out == (GOLDEN / "verify_L0.77.txt").read_text()

    def test_injected_sign_flip_fails(self, capsys):
        code, out, _ = _run(["verify", "--inject-sign-flip"], capsys)
        assert code == 1
        failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == ["mode_sum_phi2", "mode_sum_phidot2", "trace_canonical_sign"]

    @pytest.mark.parametrize("corrupt, value, shown", [
        ("B", 0.0, "inf"),  # a zero denominator: used to be skipped, so the check passed
        ("trace_canonical", math.nan, "nan"),
    ])
    def test_trace_check_cannot_pass_vacuously(self, corrupt, value, shown, monkeypatch):
        if corrupt == "B":
            real = cli.expectation_columns

            def corrupted(bc, config, theta):
                fluct, ab = real(bc, config, theta)
                return fluct, dataclasses.replace(ab, B=np.full_like(ab.B, value))

            monkeypatch.setattr(cli, "expectation_columns", corrupted)
        else:
            real = stress.stress_report

            def corrupted(fluct, ab):
                report = real(fluct, ab)
                return dataclasses.replace(report, **{corrupt: np.full_like(report.trace_canonical, value)})

            monkeypatch.setattr(stress, "stress_report", corrupted)
        check = next(c for c in VERIFY_CHECKS if c.name == "trace_canonical_sign")
        result = check.run(RunConfig(bc=BoundaryCondition.DIRICHLET))
        assert f"{result.measured:.3e}" == shown
        assert not result.ok

    @pytest.mark.parametrize("mirror", [False, True])
    def test_stress_grid_evaluates_at_the_linspace_angles(self, mirror, monkeypatch):
        # the angles go to expectation_columns as they are, with no trip through z
        seen = []
        real = cli.expectation_columns

        def recording(bc, config, theta):
            seen.append(np.array(theta))
            return real(bc, config, theta)

        monkeypatch.setattr(cli, "expectation_columns", recording)
        cli._stress_grid(RunConfig(bc=BoundaryCondition.DIRICHLET, L=0.77), mirror)
        expected = np.linspace(0.4, math.pi - 0.4, 100)
        if mirror:
            expected = math.pi - expected
        assert len(seen) == len(BoundaryCondition)
        for theta in seen:
            assert np.array_equal(theta.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("flags", [[], ["--inject-sign-flip"]])
    def test_quick_is_ignored(self, flags, capsys):
        # verify has one configuration; --quick is still accepted
        assert _run(["verify", "--quick", *flags], capsys) == _run(["verify", *flags], capsys)

    @pytest.mark.parametrize("option", [
        ["--bc", "neumann"], ["--format", "json"],
        ["--eps-smallest", "2e-3"], ["--eps-largest", "2e-2"],
        ["--eps-count", "16"], ["--eps-degree", "5"],
    ])
    def test_ignored_options_rejected(self, option, capsys):
        # verify checks both boundary conditions with the default cutoff
        # schedules, and writes text
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", *option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code, _, _ = _run(["verify", "--output", str(target)], capsys)
        assert code == 0
        assert "checks passed" in target.read_text()


@pytest.mark.parametrize("command", [["profile"], ["energy"], ["verify"]])
@pytest.mark.parametrize("target", ["missing/report.txt", "."])
def test_unopenable_output_exits_2(command, target, tmp_path, capsys):
    code, out, err = _run([*command, "--output", str(tmp_path / target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot open the output file")
    assert "Traceback" not in err


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

    @pytest.mark.parametrize("length", ["1e-72", "1e70", "1e71", "1e72"])
    def test_verify_passes_at_range_ends(self, length, capsys):
        # every auxiliary plate verify builds stays inside the range
        code, out, err = _run(["verify", "--length", length], capsys)
        assert (code, err) == (0, "")
        *lines, summary = out.splitlines()
        assert all(line.startswith("PASS ") for line in lines)
        assert summary == f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed"


def test_import_leaves_scipy_unloaded():
    # platevac needs numpy alone: a full verify runs where importing scipy fails
    root = Path(__file__).resolve().parents[1]
    probe = ("import sys; sys.modules['scipy'] = None; import platevac.cli; "
             "code = platevac.cli.main(['verify']); "
             "print(sorted(m for m, mod in sys.modules.items() if m.startswith('scipy') and mod)); "
             "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
                          timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *report, summary, modules = proc.stdout.splitlines()
    assert all(line.startswith("PASS ") for line in report)
    assert summary == f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed"
    assert modules == "[]"


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
