"""Tests for the verify checks and the report `platevac verify` prints."""

import math
import re

import numpy as np
import pytest

from platevac import casimir, stress, verify
from platevac.cli import RunConfig, main, run_verification
from platevac.fluctuations import ABPair, InteriorPoint, ab_values, expectation_set
from platevac.spectrum import BoundaryCondition, PlateConfig
from platevac.stress import StressReport
from platevac.verify import VERIFY_CHECKS
from test_cli import GOLDEN, _probe, _run

# One verify report line, as the benchmark in perfbench/checks.py parses it.
CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+) +measured=(\S+) tol=(\S+)$")


def _check(name: str) -> verify.Check:
    return next(c for c in VERIFY_CHECKS if c.name == name)


class TestVerifyCommand:
    def test_output_contract(self, capsys):
        # the line format the benchmark parses, one line per table entry
        code, out, _ = _run(["verify"], capsys)
        assert code == 0
        *lines, summary = out.splitlines()
        matches = [CHECK_LINE.match(line) for line in lines]
        assert all(matches)
        assert [m.group(1, 2, 4) for m in matches] == [
            ("PASS", c.name, f"{c.bound:.3e}") for c in VERIFY_CHECKS
        ]
        assert summary == f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed"

    @pytest.mark.parametrize("grid, expected", [
        (verify._MODE_SUM_THETAS, np.linspace(0.3, math.pi - 0.3, 5)),
        (verify._STRESS_THETAS, np.linspace(0.4, math.pi - 0.4, 100)),
        (verify._KERNEL_KN, np.geomspace(math.pi * 1e-3, 40.0, 8)),
    ])
    def test_grids_match_numpy(self, grid, expected):
        # written without numpy, bit for bit what np.linspace and np.geomspace give
        assert np.array(grid).view(np.uint64).tolist() == expected.view(np.uint64).tolist()

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
            real = verify.ab_values

            def corrupted(config, point):
                return ABPair(**{**vars(real(config, point)), "B": value})

            monkeypatch.setattr(verify, "ab_values", corrupted)
        else:
            real = stress.stress_report

            def corrupted(fluct, ab):
                return StressReport(**{**vars(real(fluct, ab)), corrupt: value})

            monkeypatch.setattr(stress, "stress_report", corrupted)
        check = _check("trace_canonical_sign")
        measured = check.measure(verify.Sample(1.0))
        assert f"{measured:.3e}" == shown
        assert not check.passes(measured)

    def test_nan_growth_fails_the_divergence_check(self, monkeypatch):
        # a NaN in the second growth; min([1000.0, nan]) is 1000.0, so a
        # measure that took the smallest growth passed it
        real = casimir.canonical_density_quadrature

        def nan_at_the_smallest_margin(config, bc, margin):
            if bc is BoundaryCondition.DIRICHLET and margin == 1e-4:
                return math.nan
            return real(config, bc, margin)

        monkeypatch.setattr(casimir, "canonical_density_quadrature", nan_at_the_smallest_margin)
        check = _check("canonical_density_divergence")
        measured = check.measure(verify.Sample(1.0))
        assert math.isnan(measured)
        assert not check.passes(measured)

    @pytest.mark.parametrize("grid", ["grid", "mirror"])
    def test_stress_grid_evaluates_at_the_linspace_angles(self, grid, monkeypatch):
        # the angles go to expectation_set as they are, with no trip through z
        seen = []
        real = verify.expectation_set

        def recording(bc, config, point):
            seen.append(point.theta)
            return real(bc, config, point)

        monkeypatch.setattr(verify, "expectation_set", recording)
        getattr(verify.Sample(0.77), grid)
        expected = np.linspace(0.4, math.pi - 0.4, 100)
        if grid == "mirror":
            expected = math.pi - expected
        expected = np.tile(expected, len(BoundaryCondition))
        assert np.array(seen).view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_each_shared_sample_is_built_once(self, monkeypatch):
        # six canonical quadratures, and the stress grid's 100 points and (A, B),
        # each serving both conditions, for the checks of one run that share
        # them; the mirror evaluates phidot2 alone, with no stress report
        calls = {"canonical_density_quadrature": 0, "stress_report": 0, "ab_values": 0}

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        counting(casimir, "canonical_density_quadrature")
        counting(stress, "stress_report")
        counting(verify, "ab_values")
        run_verification(RunConfig(bc=BoundaryCondition.DIRICHLET, L=0.77))
        assert calls == {"canonical_density_quadrature": 6, "stress_report": 200,
                         "ab_values": 100}

    @pytest.mark.parametrize("sign_flip", [False, True])
    def test_grid_and_mirror_equal_a_loop_over_the_public_api(self, sign_flip):
        # bit for bit what one point at a time gives, each condition on its own
        sample = verify.Sample(0.77, sign_flip)
        plate = PlateConfig(0.77)
        grid: dict[str, list[float]] = {}
        mirror = []
        for bc in BoundaryCondition:
            for theta in verify._STRESS_THETAS:
                point = InteriorPoint.from_theta(plate, theta)
                fluct = expectation_set(sample.evaluated(bc), plate, point)
                ab = ab_values(plate, point)
                for name, value in {**vars(fluct), **vars(stress.stress_report(fluct, ab)),
                                    "trace_expected": -6.0 * bc.sign_upper * ab.B}.items():
                    grid.setdefault(name, []).append(value.hex())
                mirrored = InteriorPoint.from_theta(plate, math.pi - theta)
                mirror.append(expectation_set(sample.evaluated(bc), plate, mirrored).phidot2.hex())
        assert {name: [v.hex() for v in column] for name, column in sample.grid.items()} == grid
        assert [v.hex() for v in sample.mirror] == mirror

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
        # verify checks both boundary conditions with the oracles' own
        # cutoffs, and writes text
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", *option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code, _, _ = _run(["verify", "--output", str(target)], capsys)
        assert code == 0
        assert "checks passed" in target.read_text()

    @pytest.mark.parametrize("length", ["1e-72", "1e70", "1e71", "1e72"])
    def test_verify_passes_at_range_ends(self, length, capsys):
        # every auxiliary plate verify builds stays inside the range
        code, out, err = _run(["verify", "--length", length], capsys)
        assert (code, err) == (0, "")
        *lines, summary = out.splitlines()
        assert all(line.startswith("PASS ") for line in lines)
        assert summary == f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed"


def test_verify_runs_where_long_double_is_a_double():
    # as on a platform without an extended long double; -W error, so that a
    # numpy RuntimeWarning fails the run too
    probe = ("import sys, warnings, numpy; warnings.simplefilter('error'); "
             "numpy.longdouble, numpy.clongdouble = numpy.float64, numpy.complex128; "
             "import platevac.cli; sys.exit(platevac.cli.main(['verify']))")
    proc = _probe(probe)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout + proc.stderr
    *report, summary = proc.stdout.splitlines()
    assert all(line.startswith("PASS ") for line in report)
    assert summary == f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed"
