"""Tests for the verify checks and the report `platevac verify` prints."""

import inspect
import math
import re
import sys

import numpy as np
import pytest

from platevac import casimir, dimreg, stress, verify
from platevac.cli import RunConfig, main, run_verification
from platevac.fluctuations import InteriorPoint, ab_values, expectation_set
from platevac.spectrum import BoundaryCondition, PlateConfig
from platevac.verify import VERIFY_CHECKS
from test_cli import GOLDEN, _probe, _run

# One verify report line, as the benchmark in perfbench/checks.py parses it.
CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+) +measured=(\S+) tol=(\S+)$")


def _check(name: str) -> verify.Check:
    return next(c for c in VERIFY_CHECKS if c.name == name)


def _counting(monkeypatch, *targets) -> dict[str, int]:
    """Count the calls of each (module, name) in ``targets``, by name."""
    calls = {}
    for module, name in targets:
        real = getattr(module, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        calls[name] = 0
        monkeypatch.setattr(module, name, counted)
    return calls


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
        assert failed == ["mode_sum_phi2", "mode_sum_phidot2"]

    @pytest.mark.parametrize("num, den, shown", [
        ([1.0, 0.0], [1.0, 0.0], "inf"),  # a zero denominator, even under a zero numerator
        ([1.0, 2.0], [1.0, math.nan], "inf"),
        ([math.nan, 1.0], 1.0, "nan"),  # max([nan, 1.0]) is nan, max([1.0, nan]) is 1.0
        ([1.0, math.nan], 1.0, "nan"),
        (math.nan, 1.0, "nan"),
    ], ids=["zero-den", "nan-den", "nan-first", "nan-last", "nan-float"])
    def test_worst_reads_a_zero_or_nan_as_a_failure(self, num, den, shown):
        measured = verify._worst(num, den)
        assert f"{measured:.3e}" == shown
        assert not verify.Check("any", sys.float_info.max, abs).passes(measured)

    @pytest.mark.parametrize("corrupt, value, shown", [
        ("canonical_density_integral", 0.0, "inf"),  # a zero closed form: a zero denominator
        ("canonical_density_quadrature", math.nan, "nan"),
    ])
    def test_canonical_check_cannot_pass_vacuously(self, corrupt, value, shown, monkeypatch):
        # the value at the smallest margin, 1e-4, alone, under the Dirichlet
        # condition, the first; the other five pass
        real = getattr(casimir, corrupt)

        def corrupted(config, *args):
            result = real(config, *args)
            if args[-1] != 1e-4:
                return result
            if corrupt == "canonical_density_quadrature":
                return value, result[1]
            return value if args[0] is BoundaryCondition.DIRICHLET else result

        monkeypatch.setattr(casimir, corrupt, corrupted)
        check = _check("canonical_density_integral")
        measured = check.measure(verify.Sample(1.0))
        assert f"{measured:.3e}" == shown
        assert not check.passes(measured)

    def test_stress_grid_evaluates_at_the_linspace_angles(self, monkeypatch):
        # the angles go to expectation_set as they are, with no trip through z
        seen = []
        real = verify.expectation_set

        def recording(bc, config, point):
            seen.append(point.theta)
            return real(bc, config, point)

        monkeypatch.setattr(verify, "expectation_set", recording)
        _check("tzz_equals_pressure").measure(verify.Sample(0.77))
        expected = np.tile(np.linspace(0.4, math.pi - 0.4, 100), len(BoundaryCondition))
        assert np.array(seen).view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_one_run_evaluates_each_grid_point_and_margin_once(self, monkeypatch):
        # the canonical quadratures at three margins, and the stress grid's
        # 100 points and (A, B), each serving both conditions
        calls = _counting(monkeypatch, (casimir, "canonical_density_quadrature"),
                          (stress, "stress_report"), (verify, "ab_values"))
        run_verification(RunConfig(bc=BoundaryCondition.DIRICHLET, L=0.77))
        assert calls == {"canonical_density_quadrature": 3, "stress_report": 200,
                         "ab_values": 100}

    def test_canonical_nodes_serve_both_conditions(self, monkeypatch):
        # 161 tanh-sinh nodes at each of three margins: each node's (A, B)
        # once, its fluctuations and stress report once per condition
        calls = _counting(monkeypatch, (casimir, "ab_values"), (casimir, "expectation_set"),
                          (casimir, "stress_report"))
        _check("canonical_density_integral").measure(verify.Sample(0.77))
        assert calls == {"ab_values": 483, "expectation_set": 966, "stress_report": 966}

    @pytest.mark.parametrize("length", [1e-72, 0.77, 1.3, 1e72])
    def test_canonical_equals_a_loop_over_the_public_api(self, length):
        # bit for bit what each condition and margin gives on its own nodes
        plate = PlateConfig(length)
        expected = []
        by_margin = {m: casimir.canonical_density_quadrature(plate, m)
                     for m in verify._CANONICAL_MARGINS}
        for i, bc in enumerate(BoundaryCondition):
            for margin in verify._CANONICAL_MARGINS:
                start, width, terms = math.pi * margin, math.pi * (1.0 - 2.0 * margin), []
                for k in range(81):
                    e = math.exp(-math.pi * math.sinh(k / 24))
                    near = start + width * e / (1.0 + e)
                    weight = width * math.pi * math.cosh(k / 24) * e / (1.0 + e) ** 2
                    for theta in (near, math.pi - near) if k else (near,):
                        point = InteriorPoint.from_theta(plate, theta)
                        report = stress.stress_report(expectation_set(bc, plate, point),
                                                      ab_values(plate, point))
                        terms.append(weight * report.energy_density_canonical)
                expected.append(math.fsum(terms) / 24 * length / math.pi)
                assert by_margin[margin][i].hex() == expected[-1].hex()
        closed = [casimir.canonical_density_integral(plate, bc, m)
                  for bc in BoundaryCondition for m in verify._CANONICAL_MARGINS]
        worst = verify._worst([q - c for q, c in zip(expected, closed)], closed)
        measured = _check("canonical_density_integral").measure(verify.Sample(length))
        assert measured.hex() == worst.hex()

    @pytest.mark.parametrize("sign_flip", [False, True])
    def test_tzz_check_equals_a_loop_over_the_public_api(self, sign_flip):
        # bit for bit what one point at a time gives, each condition on its own
        sample = verify.Sample(0.77, sign_flip)
        plate = PlateConfig(0.77)
        t_zz = []
        for bc in BoundaryCondition:
            for theta in verify._STRESS_THETAS:
                point = InteriorPoint.from_theta(plate, theta)
                fluct = expectation_set(sample.evaluated(bc), plate, point)
                t_zz.append(stress.stress_report(fluct, ab_values(plate, point)).t_zz)
        p_ref = casimir.pressure(plate)
        closed = -math.pi ** 2 / (480.0 * 0.77 ** 4)
        worst = max(verify._worst([t - p_ref for t in t_zz], p_ref),
                    verify._worst(p_ref - closed, closed))
        assert _check("tzz_equals_pressure").measure(sample).hex() == worst.hex()

    def test_sample_is_equal_and_hashed_by_its_fields_alone(self):
        # a run of every check stores nothing on the sample: (L, sign_flip) decide
        read, fresh = verify.Sample(0.77), verify.Sample(0.77)
        for check in VERIFY_CHECKS:
            check.measure(read)
        assert repr(read) == "Sample(L=0.77, sign_flip=False)"
        assert read == fresh and fresh == read
        assert hash(read) == hash(fresh) == hash((0.77, False))
        assert read != verify.Sample(0.77, True) and read != verify.Sample(1.3)
        assert len({read, fresh, verify.Sample(0.77, True)}) == 2

    def test_sample_is_not_equal_to_its_fields(self):
        # a tuple of the same fields is no sample, whichever side compares
        sample = verify.Sample(0.77)
        assert sample.__eq__((0.77, False)) is NotImplemented
        assert sample != (0.77, False) and (0.77, False) != sample

    @pytest.mark.parametrize("module,name,params,expected", [
        (dimreg, "quadrature_reference", ["N", "m_sq"],
         {(N, m_sq) for N in (1.5, 2.0, 3.0) for m_sq in (0.5, 1.0, 4.0)}),
        (casimir, "canonical_density_quadrature", ["config", "margin"],
         {(1.0, margin) for margin in verify._CANONICAL_MARGINS}),
    ], ids=["quadrature_reference", "canonical_density_quadrature"])
    def test_second_routes_take_the_inputs_verify_passes(self, module, name, params, expected,
                                                         monkeypatch):
        # each oracle's parameters are the ones the checks vary, and the
        # checks pass it these values alone (a plate stands for its L)
        real, passed = getattr(module, name), set()

        def recorded(*args):
            passed.add(tuple(a.L if isinstance(a, PlateConfig) else a for a in args))
            return real(*args)

        monkeypatch.setattr(module, name, recorded)
        sample = verify.Sample(1.0)
        for check in VERIFY_CHECKS:
            check.measure(sample)
        assert list(inspect.signature(real).parameters) == params
        assert passed == expected

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
