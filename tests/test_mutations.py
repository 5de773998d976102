"""Transcription errors that ``verify`` must catch, applied one at a time.

Each row's :class:`Edit` replaces one text in one platevac function of a
copy of the package, and ``sweep_mutants.run`` imports the copy in a
fresh child process, as it does the sweep's mutants, and evaluates every
``verify`` check there at L = 1.  Each row pins the exact set of checks
that FAIL, and, as an optional third element, the checks that raise,
each with its error's class; any other raise, or an exception at
import, fails it.

This table and the generated sweep of ``tests/sweep_mutants.py`` are
the evidence for the keep rule written above ``verify.VERIFY_CHECKS``.
Every name a row pins must be a check's name, so that a row that names
a deleted check fails.  A row with an empty set is an error no check
sees at L = 1; its comment says what pins it instead, or which
ROADMAP.md item must make it FAIL.
"""

from __future__ import annotations

import ast
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple

import pytest

from platevac import cli, verify
from platevac.cli import RunConfig
from platevac.errors import DomainError
from platevac.spectrum import BoundaryCondition
from platevac.verify import VERIFY_CHECKS, Check
from sweep_mutants import JOBS, PACKAGE, child, run
from scalar_path import assert_columns_equal_scalar_path

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Edit(NamedTuple):
    """Replace ``old`` by ``new`` in the source of ``platevac.<module>.<function>``.

    ``function`` is a qualified name, as in the sweep's keys; ``<module>``
    is the module's top-level code outside every def and class.
    """

    module: str
    function: str
    old: str
    new: str

    def apply(self, package: dict[str, bytes]) -> dict[str, bytes]:
        """A copy of ``package``, {file name: source}, with this edit made."""
        name = f"{self.module}.py"
        source = package[name].decode()
        nodes = [ast.parse(source)]
        if self.function == "<module>":
            nodes = [node for node in nodes[0].body if not isinstance(node, _DEFS)]
        else:
            for part in self.function.split("."):
                nodes = [n for parent in nodes for n in parent.body
                         if isinstance(n, _DEFS) and n.name == part]
        # the nodes' whole lines; every other character masked
        lines = {i for n in nodes for i in range(n.lineno, n.end_lineno + 1)}
        masked = "\n".join(text if i in lines else "\0" * len(text)
                           for i, text in enumerate(source.split("\n"), 1))
        assert masked.count(self.old) == 1, f"old is not once in its function: {self}"
        at = masked.index(self.old)
        return {**package, name: (source[:at] + self.new + source[at + len(self.old):]).encode()}


# The checks that compare total_energy's value with another route.
ENERGY = {"energy_pipeline", "integrated_density", "tzz_equals_pressure"}
# The checks that call total_energy: the other two read ratios of its values
# at two separations, in which a constant factor cancels.
READS_ENERGY = ENERGY | {"length_scaling", "pressure_finite_difference"}
# The canonical density's mode sum against its closed form.
CANONICAL = "mode_sum_canonical_density"
# The checks that read the mode-sum oracle's finite parts.
MODE_SUMS = {"mode_sum_phi2", "mode_sum_phidot2", CANONICAL}

# name: (mutation, FAIL set[, {raising check: error class}])
MUTATIONS = {
    # Literals of the closed forms.
    "A-1440": (Edit("fluctuations", "_ab", "1440.0", "1400.0"),
               {"mode_sum_phidot2", "tzz_equals_pressure", "integrated_density", CANONICAL}),
    "B-96": (Edit("fluctuations", "_ab", "96.0", "69.0"), {"mode_sum_phidot2", CANONICAL}),
    "phi2-48": (Edit("fluctuations", "_phi2", "48.0", "24.0"),
                {"mode_sum_phi2", "single_plate_limit"}),
    "phi2-3": (Edit("fluctuations", "_phi2", "s * 3.0", "s * 2.0"),
               {"mode_sum_phi2", "single_plate_limit"}),
    "f-3": (Edit("regsum", "_f_of_sin2", "3.0 / s2", "2.0 / s2"),
            {"mode_sum_phidot2", CANONICAL}),
    "f-2": (Edit("regsum", "_f_of_sin2", "- 2.0", "- 3.0"),
            {"mode_sum_phidot2", CANONICAL}),
    # f bounded: the canonical density integral no longer grows at the plates
    "f-outer-division": (Edit("regsum", "_f_of_sin2", ") / s2", ") * s2"),
                         {"mode_sum_phidot2", CANONICAL}),
    "pressure-3": (Edit("casimir", "pressure", "3.0 *", "4.0 *"),
                   {"tzz_equals_pressure", "pressure_finite_difference"}),
    "single-plate-16": (Edit("fluctuations", "phi_squared_single_plate", "16.0", "8.0"),
                        {"single_plate_limit"}),
    # verify reads no EM value: test_casimir.py's test_exactly_twice_scalar pins it
    "em-2": (Edit("casimir", "em_reference", "2.0 * scalar_pressure", "4.0 * scalar_pressure"),
             set()),
    # Signs.
    "phi2-sign": (Edit("fluctuations", "_phi2", "1.0 - s", "1.0 + s"),
                  {"mode_sum_phi2", "single_plate_limit"}),
    "f-sign": (Edit("regsum", "_f_of_sin2", "- 2.0", "+ 2.0"),
               {"mode_sum_phidot2", CANONICAL}),
    "single-plate-sign": (Edit("fluctuations", "phi_squared_single_plate", "-bc.sign_upper",
                               "bc.sign_upper"), {"single_plate_limit"}),
    "pressure-sign": (Edit("casimir", "pressure", "3.0 *", "-3.0 *"),
                      {"tzz_equals_pressure", "pressure_finite_difference"}),
    "t-unsigned": (Edit("fluctuations", "_fluctuations", "s * B", "B"),
                   {"mode_sum_phidot2", CANONICAL}),
    # the array branch, which verify does not run: it fails the comparison of
    # test_cli.py's test_columns_equal_scalar_path_bit_for_bit
    # (test_array_rows_fail_the_columns_comparison)
    "stress-t-unsigned": (Edit("stress", "stress_report", "np.copysign(ab.B, d)", "ab.B"),
                          set()),
    # the array branch's A, pinned by the same comparison
    "stress-A-doubled": (Edit("stress", "stress_report", "np.broadcast_to(ab.A, d.shape)",
                              "np.broadcast_to(2.0 * ab.A, d.shape)"), set()),
    # The kernels _kernel builds at import, for both the scalar and the array path.
    "pair-sign": (Edit("fluctuations", "_kernel", "(A + {ratio!r} * t)", "(A - {ratio!r} * t)"),
                  {"mode_sum_phidot2", CANONICAL}),
    "pair-beta-zero-sign": (Edit("fluctuations", "_kernel", 'f"{scale!r} * A"',
                                 'f"-{scale!r} * A"'),
                            {"tzz_equals_pressure", "integrated_density"}),
    # negates dlambda_phi2, huggins_00 and trace_canonical, which verify reads
    # through each other, and the sign stress_report reads off dlambda_phi2, so
    # that the canonical density takes the other condition's t
    "pair-alpha-zero-sign": (Edit("fluctuations", "_kernel", 'f"{ratio!r} * t"',
                                  'f"-{ratio!r} * t"'), {CANONICAL}),
    # A wrong but self-consistent field table: stress's import-time proof
    # passes, and so does every check.  ROADMAP item 14 must make it FAIL
    # single_plate_limit, and item 1 must make its import raise ConsistencyError.
    "self-consistent-table": (
        Edit("fluctuations", "<module>",
             '"dzphi2": Pair(-3, -3),\n    "gradTphi2": Pair(2, -2),\n'
             '    "dlambda_phi2": Pair(0, 6),\n    "phi_d2z_phi": Pair(3, -3)',
             '"dzphi2": Pair(-3, -2),\n    "gradTphi2": Pair(2, -3),\n'
             '    "dlambda_phi2": Pair(0, 6),\n    "phi_d2z_phi": Pair(3, -1)'), set()),
    # The boundary-condition sign: each plate takes the other condition's.
    "bc-label-swap": (Edit("spectrum", "BoundaryCondition.__init__",
                           '1 if value == "dirichlet" else -1',
                           '-1 if value == "dirichlet" else 1'), MODE_SUMS),
    "oracle-bc-swap": (Edit("oracle", "_regulated_sums", "s = 1 if", "s = -1 if"), MODE_SUMS),
    "oracle-weight-sign": (Edit("oracle", "_regulated_sums", "- w * s *", "+ w * s *"), MODE_SUMS),
    # L exponents: verify evaluates the closed forms at one L, so only the
    # checks that step off L = 1 FAIL: length_scaling, and for the energy's
    # L the pressure's finite difference.
    "A-L4": (Edit("fluctuations", "_ab", "L ** 4", "L ** 3"), {"length_scaling"}),
    "phi2-L2": (Edit("fluctuations", "_phi2", "L ** 2", "L ** 3"), {"length_scaling"}),
    "k_n-L": (Edit("spectrum", "k_n", "/ config.L", "* config.L"),
              {"length_scaling", "pressure_finite_difference"}),
    "pressure-L": (Edit("casimir", "pressure", "/ config.L", "/ config.L ** 2"),
                   {"length_scaling"}),
    # unseen at L = 1; test_oracle_L_fails_the_mode_sums_off_L_1 runs it at L = 0.77
    "oracle-L": (Edit("oracle", "_regulated_sums", "/ (2.0 * L)", "/ (2.0 * L ** 2)"),
                 set()),
    # The oracle's kernel coefficients, and its other literals.
    "kernel-2pi": (Edit("oracle", "_kernel_coefficients", "(1.0 / (2.0 * math.pi * eps),)",
                        "(1.0 / (math.pi * eps),)"),
                   {"oracle_transverse_kernel", "mode_sum_phi2"}),
    "kernel-c0": (Edit("oracle", "_kernel_coefficients", "2.0 / eps**3", "1.0 / eps**3"),
                  {"oracle_transverse_kernel", "mode_sum_phidot2", CANONICAL}),
    # k^1/eps^2 becomes k^1/eps: the kernel is unchanged at eps = 1, not at 1/2
    "kernel-c1": (Edit("oracle", "_kernel_coefficients", "2.0 / eps**2", "2.0 / eps"),
                  {"oracle_transverse_kernel", "mode_sum_phidot2", CANONICAL}),
    "kernel-c2": (Edit("oracle", "_kernel_coefficients", "1.0 / eps)", "2.0 / eps)"),
                  {"oracle_transverse_kernel", "mode_sum_phidot2", CANONICAL}),
    "oracle-half-angle": (Edit("oracle", "_power_sums", "2.0 * theta", "theta"), MODE_SUMS),
    # phidot2's power sums of k_n^0 alone, which the canonical density reads
    # too: its k_n and k_n^2 kernel terms add
    # +1 and -1 times sum k_n^3 to the finite part, so dropping them would move
    # only the divergent coefficients; the oracle refuses a kernel with more
    # terms than power sums instead
    "oracle-power-sums-j0": (Edit("oracle", "_power_sums", "range(3)", "range(1)"), set(),
                             {"mode_sum_phidot2": "ConsistencyError",
                              CANONICAL: "ConsistencyError"}),
    "oracle-2L": (Edit("oracle", "_regulated_sums", "/ (2.0 * L)", "/ L"), MODE_SUMS),
    # Re Li_j(z) is not analytic in eps: the circle's mean is not its constant term
    "oracle-cos-real": (Edit("oracle", "_power_sums", "up + down", "2.0 * up.real"),
                        MODE_SUMS),
    # Re Li_j(z) counted twice: the cosine weight loses its 1/2
    "oracle-cos-half": (Edit("oracle", "_regulated_sums", "s * 0.5 *", "s *"), MODE_SUMS),
    # the real part of e^z - 1 off by 4 sin^2(y/2): every 1 - x of the mode sums
    "expm1-sign": (Edit("regsum", "_expm1", "- 2.0 * h * h", "+ 2.0 * h * h"),
                   MODE_SUMS),
    # the lower half circle's values unconjugated: the means' real parts are
    # those of the upper half either way, so the finite parts verify reads
    # keep their bits; the divergent coefficients are wrong, which
    # test_regsum.py's test_divergent_coefficients and test_oracle.py's
    # test_divergent_coefficients_are_analytic pin
    "circle-mirror": (Edit("regsum", "fit_finite_part", "[v.conjugate() for v in",
                           "[v for v in"), set()),
    # past pi/2 the circle reaches beyond the singularity at 2 (pi - theta) L / pi
    "oracle-radius-theta": (Edit("oracle", "mode_sum_finite_part",
                                 "min(point.theta, (math.pi - point.theta) + _PI_LO)",
                                 "point.theta"), MODE_SUMS),
    # Zeta, Bernoulli, Eulerian and master-integral inputs.
    "zeta-sign": (Edit("regsum", "zeta_neg_int", "-value if k % 2 else value",
                       "value if k % 2 else -value"), ENERGY),
    "zeta-denominator": (Edit("regsum", "zeta_neg_int", "/ (k + 1)", "/ (k + 2)"), ENERGY),
    "bernoulli-comb": (Edit("regsum", "bernoulli", "math.comb(n + 1, j)", "math.comb(n, j)"),
                       ENERGY),
    "eulerian-left": (Edit("regsum", "_eulerian_row", "(k - m) * prev[m - 1]",
                           "(k - m + 1) * prev[m - 1]"),
                      {"mode_sum_phidot2", CANONICAL}),
    "power-series-exponent": (Edit("regsum", "_power_series", "one_minus_x ** (k + 1)",
                                   "one_minus_x ** k"),
                              MODE_SUMS),
    "master-4pi": (Edit("dimreg", "master_integral", "4.0 * math.pi", "2.0 * math.pi"),
                   {"dimreg_quadrature"} | ENERGY),
    "master-denominator-N": (Edit("dimreg", "master_integral", "4.0 * math.pi * a",
                                  "4.0 * math.pi * N"),
                             {"dimreg_quadrature"} | ENERGY),
    "master-exponent-sign": (Edit("dimreg", "master_integral", "1.0 - N", "N - 1.0"),
                             {"dimreg_quadrature"} | READS_ENERGY),
    "energy-N": (Edit("casimir", "total_energy", "master_integral(-0.5", "master_integral(0.5"),
                 READS_ENERGY),
    "energy-zeta3": (Edit("casimir", "total_energy", "zeta_neg_int(3)", "zeta_neg_int(1)"), ENERGY),
    # A hand-typed pi: the energy 1.97e-13 off, inside the 1e-12 bounds of
    # integrated_density and tzz_equals_pressure.
    "k_n-pi": (Edit("spectrum", "k_n", "math.pi", "3.14159265359"), {"energy_pipeline"}),
    # Half angles.
    # the array path, which verify does not run: it fails the comparison of
    # test_cli.py's test_columns_equal_scalar_path_bit_for_bit
    # (test_array_rows_fail_the_columns_comparison)
    "columns-half-angle": (Edit("fluctuations", "expectation_columns", "np.sin(theta)",
                                "np.sin(0.5 * theta)"), set()),
    "scalar-half-angle": (Edit("fluctuations", "_sin2", "math.sin(theta)", "math.sin(0.5 * theta)"),
                          MODE_SUMS | {"single_plate_limit", CANONICAL}),
}


# The rows of the array path, which verify does not run.
ARRAY_ROWS = ("columns-half-angle", "stress-t-unsigned", "stress-A-doubled")
# Run by _python: the profile columns against the scalar path.
_COLUMNS = """
from platevac.cli import RunConfig
from platevac.spectrum import BoundaryCondition
from scalar_path import assert_columns_equal_scalar_path
assert_columns_equal_scalar_path(RunConfig(bc=BoundaryCondition.NEUMANN, L=0.77, grid_points=9))
"""
# A child of these tests' own, which imports scalar_path from here.
_python = partial(child, path=[Path(__file__).parent])


def _package() -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(PACKAGE.glob("*.py"))}


@pytest.fixture(scope="session")
def children(tmp_path_factory):
    """Every child run of this module, all submitted at once to the sweep's JOBS workers:
    {row: future of its outcome at L = 1}, and one future per (row, what) the tests below read."""
    package = _package()
    tmp = tmp_path_factory.mktemp("mutants")
    jobs = {(name, "columns"): (name, _python, "-c", _COLUMNS) for name in ARRAY_ROWS}
    jobs["zeta-sign", "verify"] = ("zeta-sign", _python, "-m", "platevac.cli", "verify")
    jobs["oracle-L", 0.77] = ("oracle-L", run, (0.77,))
    jobs.update({name: (name, run, (1.0,)) for name in MUTATIONS})

    # each edit parses its module here, in one thread: concurrent ast.parse
    # calls can fail with SystemError on CPython 3.11
    mutated = {name: MUTATIONS[name][0].apply(package) for name, *_ in jobs.values()}
    pool = ThreadPoolExecutor(JOBS)
    yield {key: pool.submit(how, mutated[name], tmp / str(i), *args)
           for i, (key, (name, how, *args)) in enumerate(jobs.items())}
    pool.shutdown(cancel_futures=True)


@pytest.mark.parametrize("edit", [
    Edit("spectrum", "<module>", '1 if value == "dirichlet"', "0"),  # in a method
    Edit("spectrum", "BoundaryCondition", "L_MIN", "0"),  # in top-level code
    Edit("spectrum", "BoundaryCondition.__init__", "-1", "0"),  # twice there
    Edit("spectrum", "Boundary.__init__", "-1", "0"),  # no such function
], ids=["module", "class", "twice", "missing"])
def test_an_edit_refuses_an_old_text_not_once_in_its_function(edit):
    with pytest.raises(AssertionError, match="old is not once in its function"):
        edit.apply(_package())


def _outcome(fails: set[str], L: float, raises: dict[str, str] | None = None) -> dict:
    """Exactly ``fails`` FAIL at L, and exactly ``raises`` raise, {check: error class}.

    A name that is no check's fails the row: it pins nothing.
    """
    unknown = (set(fails) | set(raises or {})) - {c.name for c in VERIFY_CHECKS}
    assert not unknown, f"no check is named {sorted(unknown)}"
    return {"import": None, "fail": {repr(L): [c.name for c in VERIFY_CHECKS if c.name in fails]},
            "raise": {repr(L): raises or {}}}


@pytest.mark.parametrize("fails, raises", [
    ({"zeta_cutoff_k3"}, None),
    ({"energy_pipeline", "abel_n_cos"}, None),
    (set(), {"abel_n3_cos": "DomainError"}),
], ids=["fail", "fail-among-checks", "raise"])
def test_a_row_naming_no_check_fails(fails, raises):
    with pytest.raises(AssertionError, match="no check is named"):
        _outcome(fails, 1.0, raises)


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_outcome(name, children):
    _, fails, *raises = MUTATIONS[name]
    assert children[name].result() == _outcome(fails, 1.0, *raises)


def test_oracle_L_fails_the_mode_sums_off_L_1(children):
    assert children["oracle-L", 0.77].result() == _outcome(MODE_SUMS, 0.77)


@pytest.mark.parametrize("name", ARRAY_ROWS)
def test_array_rows_fail_the_columns_comparison(name, children):
    # verify evaluates one point at a time; the array path it no longer runs
    # is pinned to the scalar one, bit for bit, which each of these breaks
    assert_columns_equal_scalar_path(RunConfig(bc=BoundaryCondition.NEUMANN, L=0.77, grid_points=9))
    done = children[name, "columns"].result()
    assert done.returncode == 1 and done.stderr.splitlines()[-1].startswith("AssertionError"), \
        done.stderr


def test_a_raising_check_makes_verify_exit_2(monkeypatch, capsys):
    # the last check raises, after every other has run: still no line of the report
    def measure(sample):
        raise DomainError("a check's measure raised")

    last = VERIFY_CHECKS[-1]
    monkeypatch.setattr(verify, "VERIFY_CHECKS",
                        VERIFY_CHECKS[:-1] + (Check(last.name, last.bound, measure),))
    assert cli.main(["verify"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["error: a check's measure raised"]


def test_a_pipeline_mutation_prints_the_whole_report_and_exits_1(children):
    done = children["zeta-sign", "verify"].result()
    lines = done.stdout.splitlines()
    assert (done.returncode, done.stderr) == (1, "")
    assert [line.split()[1] for line in lines[:-1]] == [c.name for c in VERIFY_CHECKS]
    assert {line.split()[1] for line in lines if line.startswith("FAIL ")} == ENERGY
    assert lines[-1] == "8/11 checks passed"


def test_every_check_fails_under_some_mutation():
    failed = set().union(*(fails for _, fails, *_ in MUTATIONS.values()))
    assert [check.name for check in VERIFY_CHECKS if check.name not in failed] == []
