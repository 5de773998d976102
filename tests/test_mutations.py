"""Transcription errors that ``verify`` must catch, applied one at a time.

Each :class:`Edit` rewrites the source of one platevac function (``old``
must occur in it exactly once), compiles it in its module and rebinds it
in every ``platevac`` namespace that holds the original, as
``perfbench/spans.py`` does for its timing wrappers.  Every ``verify``
check then runs at L = 1 on one fresh ``verify.Sample``, as in a
``platevac verify`` run, and the test pins the exact set of checks
that FAIL.  A check that raises a :class:`PlateVacError` fails the test.

The keep rule for ``verify.VERIFY_CHECKS``: a check stays only if it
compares two independently computed routes and some mutation makes it
FAIL, and it goes if one other check catches every mutant it catches,
over this table and the generated sweep of ``tests/sweep_mutants.py``.
A second rule, which would keep the only check of one of the paper's
claims, is still to come.  The rows with empty sets are errors no check
sees at L = 1; the comment on each says what pins it instead.
"""

from __future__ import annotations

import __future__
import ast
import inspect
import sys
import textwrap
from typing import NamedTuple

import pytest

from platevac import cli, fluctuations, stress, verify
from platevac.cli import RunConfig
from platevac.errors import DomainError
from platevac.spectrum import BoundaryCondition
from platevac.verify import VERIFY_CHECKS, Check, Sample
from test_cli import assert_columns_equal_scalar_path


class Edit(NamedTuple):
    """Replace ``old`` by ``new`` in the source of ``platevac.<module>.<function>``."""

    module: str
    function: str
    old: str
    new: str

    def apply(self, monkeypatch) -> None:
        module = sys.modules[f"platevac.{self.module}"]
        original = getattr(module, self.function)
        source = textwrap.dedent(inspect.getsource(original))
        assert source.count(self.old) == 1, f"{self.old!r} is not once in {self.function}"
        code = compile(source.replace(self.old, self.new), f"<mutant {self.function}>", "exec",
                       flags=__future__.annotations.compiler_flag, dont_inherit=True)
        namespace: dict = {}
        exec(code, vars(module), namespace)
        for name, holder in list(sys.modules.items()):
            if name == "platevac" or name.startswith("platevac."):
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        monkeypatch.setattr(holder, attr, namespace[self.function])


class KernelEdit(Edit):
    """An :class:`Edit` of ``fluctuations._kernel`` that also rebuilds the kernels built at import.

    Each is rebuilt as at import, with its record, so that both the
    scalar and the array path run the mutant.
    """

    def apply(self, monkeypatch) -> None:
        super().apply(monkeypatch)
        monkeypatch.setattr(fluctuations, "_FIELD_KERNEL", fluctuations._kernel(
            tuple(fluctuations.FIELD_PAIRS.values()), fluctuations.FluctuationSet, ("phi2",)))
        monkeypatch.setattr(stress, "_COMPONENT_KERNEL", fluctuations._kernel(
            tuple(stress._COMPONENTS.values()), stress.StressReport))


class SwapLabels(NamedTuple):
    """Give Dirichlet plates the Neumann sign and Neumann plates the Dirichlet one."""

    def apply(self, monkeypatch) -> None:
        for bc in BoundaryCondition:
            monkeypatch.setattr(bc, "sign_upper", -bc.sign_upper)


def outcome(mutation, monkeypatch, L: float = 1.0) -> set[str]:
    """The checks that FAIL under ``mutation``, at L = 1 by default."""
    try:
        with monkeypatch.context() as patch:
            mutation.apply(patch)
            _clear_caches()
            sample = Sample(L)  # one per mutation, so that no mutant sees another's grid
            return {check.name for check in VERIFY_CHECKS
                    if not check.passes(check.measure(sample))}
    finally:
        _clear_caches()  # also after a check raised, which fails the calling test


def _caches() -> list:
    """Every ``functools`` cache a ``platevac`` module holds, found by introspection."""
    return [value for name, module in list(sys.modules.items())
            if name == "platevac" or name.startswith("platevac.")
            for value in vars(module).values() if callable(getattr(value, "cache_clear", None))]


def _clear_caches() -> None:
    # a mutant reached through a cached function must neither see nor leave
    # a cached value of the other version: the oracle's power sums, say, which
    # call regsum._expm1 and regsum._power_series
    for cache in _caches():
        cache.cache_clear()


# The checks that compare total_energy's value with another route.
ENERGY = {"energy_pipeline", "integrated_density", "tzz_equals_pressure"}
# The checks that call total_energy: the other two read ratios of its values
# at two separations, in which a constant factor cancels.
READS_ENERGY = ENERGY | {"length_scaling", "pressure_finite_difference"}
MODE_SUMS = {"mode_sum_phi2", "mode_sum_phidot2"}
# The canonical density's quadrature against its closed-form integral.
CANONICAL = "canonical_density_integral"
ZETA = {"zeta_cutoff_k3"}
ABEL = {"abel_n_cos", "abel_n3_cos"}

# name: (mutation, FAIL set)
MUTATIONS = {
    # Literals of the closed forms.
    "A-1440": (Edit("fluctuations", "_ab", "1440.0", "1400.0"),
               {"mode_sum_phidot2", "improved_density_value", "tzz_equals_pressure",
                "integrated_density", CANONICAL}),
    "B-96": (Edit("fluctuations", "_ab", "96.0", "69.0"), {"mode_sum_phidot2", CANONICAL}),
    "phi2-48": (Edit("fluctuations", "_phi2", "48.0", "24.0"),
                {"mode_sum_phi2", "single_plate_limit"}),
    "phi2-3": (Edit("fluctuations", "_phi2", "s * 3.0", "s * 2.0"),
               {"mode_sum_phi2", "single_plate_limit"}),
    "f-3": (Edit("regsum", "_f_of_sin2", "3.0 / s2", "2.0 / s2"),
            {"abel_n3_cos", "mode_sum_phidot2", CANONICAL}),
    "f-2": (Edit("regsum", "_f_of_sin2", "- 2.0", "- 3.0"),
            {"abel_n3_cos", "mode_sum_phidot2", CANONICAL}),
    # f bounded: the canonical density integral no longer grows at the plates
    "f-outer-division": (Edit("regsum", "_f_of_sin2", ") / s2", ") * s2"),
                         {"abel_n3_cos", "mode_sum_phidot2", CANONICAL,
                          "canonical_density_divergence"}),
    "trig-quarter": (Edit("regsum", "trig_sum_n_cos", "-0.25", "-0.5"), {"abel_n_cos"}),
    "trig-eighth": (Edit("regsum", "trig_sum_n3_cos", "0.125", "0.25"), {"abel_n3_cos"}),
    "pressure-3": (Edit("casimir", "pressure", "3.0 *", "4.0 *"),
                   {"tzz_equals_pressure", "pressure_finite_difference"}),
    "single-plate-16": (Edit("fluctuations", "phi_squared_single_plate", "16.0", "8.0"),
                        {"single_plate_limit"}),
    # verify reads no EM value: test_casimir.py's test_exactly_twice_scalar pins it
    "em-2": (Edit("casimir", "em_reference", "2.0 * scalar_pressure", "4.0 * scalar_pressure"),
             set()),
    "canonical-24": (Edit("casimir", "canonical_density_integral", "24.0", "12.0"),
                     {CANONICAL}),
    # Signs.
    "phi2-sign": (Edit("fluctuations", "_phi2", "1.0 - s", "1.0 + s"),
                  {"mode_sum_phi2", "single_plate_limit"}),
    "f-sign": (Edit("regsum", "_f_of_sin2", "- 2.0", "+ 2.0"),
               {"abel_n3_cos", "mode_sum_phidot2", CANONICAL}),
    "trig-quarter-sign": (Edit("regsum", "trig_sum_n_cos", "-0.25", "0.25"), {"abel_n_cos"}),
    "single-plate-sign": (Edit("fluctuations", "phi_squared_single_plate", "-bc.sign_upper",
                               "bc.sign_upper"), {"single_plate_limit"}),
    "pressure-sign": (Edit("casimir", "pressure", "3.0 *", "-3.0 *"),
                      {"tzz_equals_pressure", "pressure_finite_difference"}),
    "t-unsigned": (Edit("fluctuations", "_fluctuations", "s * B", "B"),
                   {"mode_sum_phidot2", "trace_canonical_sign", CANONICAL}),
    # the array branch, which verify does not run: it fails the comparison of
    # test_cli.py's test_columns_equal_scalar_path_bit_for_bit
    # (test_array_rows_fail_the_columns_comparison)
    "stress-t-unsigned": (Edit("stress", "stress_report", "np.copysign(ab.B, d)", "ab.B"),
                          set()),
    # the array branch's A, pinned by the same comparison
    "stress-A-doubled": (Edit("stress", "stress_report", "np.broadcast_to(ab.A, d.shape)",
                              "np.broadcast_to(2.0 * ab.A, d.shape)"), set()),
    "pair-sign": (KernelEdit("fluctuations", "_kernel", "(A + {ratio!r} * t)",
                             "(A - {ratio!r} * t)"), {"mode_sum_phidot2", CANONICAL}),
    "pair-beta-zero-sign": (KernelEdit("fluctuations", "_kernel", 'f"{scale!r} * A"',
                                       'f"-{scale!r} * A"'),
                            {"improved_density_value", "tzz_equals_pressure",
                             "integrated_density"}),
    # negates dlambda_phi2, huggins_00 and trace_canonical, which verify reads
    # through each other, and the sign stress_report reads off dlambda_phi2, so
    # that the canonical density takes the other condition's t
    "pair-alpha-zero-sign": (KernelEdit("fluctuations", "_kernel", 'f"{ratio!r} * t"',
                                        'f"-{ratio!r} * t"'), {CANONICAL}),
    # The boundary-condition sign.
    "bc-label-swap": (SwapLabels(), MODE_SUMS),
    "oracle-bc-swap": (Edit("oracle", "_regulated_sums", "s = 1 if", "s = -1 if"), MODE_SUMS),
    "oracle-weight-sign": (Edit("oracle", "_regulated_sums", "- s *", "+ s *"), MODE_SUMS),
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
                  {"oracle_transverse_kernel", "mode_sum_phidot2"}),
    # k^1/eps^2 becomes k^1/eps: the kernel is unchanged at eps = 1, not at 1/2
    "kernel-c1": (Edit("oracle", "_kernel_coefficients", "2.0 / eps**2", "2.0 / eps"),
                  {"oracle_transverse_kernel", "mode_sum_phidot2"}),
    "kernel-c2": (Edit("oracle", "_kernel_coefficients", "1.0 / eps)", "2.0 / eps)"),
                  {"oracle_transverse_kernel", "mode_sum_phidot2"}),
    "oracle-half-angle": (Edit("oracle", "_power_sums", "2.0 * theta", "theta"), MODE_SUMS),
    "oracle-2L": (Edit("oracle", "_regulated_sums", "/ (2.0 * L)", "/ L"), MODE_SUMS),
    # Re Li_j(z) is not analytic in eps: the circle's mean is not its constant term
    "oracle-cos-real": (Edit("oracle", "_power_sums", "up + down", "2.0 * up.real"),
                        MODE_SUMS),
    # Re Li_j(z) counted twice: the cosine weight loses its 1/2
    "oracle-cos-half": (Edit("oracle", "_regulated_sums", "s * 0.5 *", "s *"), MODE_SUMS),
    # the real part of e^z - 1 off by 4 sin^2(y/2): every 1 - x of both oracles' sums
    "expm1-sign": (Edit("regsum", "_expm1", "- 2.0 * h * h", "+ 2.0 * h * h"),
                   ZETA | MODE_SUMS),
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
                       "value if k % 2 else -value"), ZETA | ENERGY),
    "zeta-denominator": (Edit("regsum", "zeta_neg_int", "/ (k + 1)", "/ (k + 2)"), ZETA | ENERGY),
    "bernoulli-comb": (Edit("regsum", "bernoulli", "math.comb(n + 1, j)", "math.comb(n, j)"),
                       ZETA | ENERGY),
    "eulerian-left": (Edit("regsum", "_eulerian_row", "(k - m) * prev[m - 1]",
                           "(k - m + 1) * prev[m - 1]"),
                      {"zeta_cutoff_k3", "abel_n3_cos", "mode_sum_phidot2"}),
    "power-series-exponent": (Edit("regsum", "_power_series", "one_minus_x ** (k + 1)",
                                   "one_minus_x ** k"),
                              ZETA | MODE_SUMS | ABEL),
    "master-4pi": (Edit("dimreg", "master_integral", "(4.0 * math.pi)", "(2.0 * math.pi)"),
                   {"dimreg_quadrature"} | ENERGY),
    "master-gamma-N": (Edit("dimreg", "master_integral", "gamma_real(N)",
                            "gamma_real(N + 1.0)"),
                       {"dimreg_quadrature"} | ENERGY),
    "master-exponent-sign": (Edit("dimreg", "master_integral", "d / 2.0 - N",
                                  "N - d / 2.0"),
                             {"dimreg_quadrature"} | READS_ENERGY),
    "energy-N": (Edit("casimir", "total_energy", "2.0, -0.5", "2.0, 0.5"), READS_ENERGY),
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
                          MODE_SUMS | {"single_plate_limit", "mirror_symmetry", CANONICAL}),
    "abel-angle": (Edit("regsum", "abel_sum_oracle", "math.cos(2.0 * theta), math.sin(2.0 * theta)",
                        "math.cos(theta), math.sin(theta)"), ABEL),
    # 1 - x conjugated: the pole's phase is wrong, at every angle
    "abel-one-minus-x-sign": (Edit("regsum", "abel_sum_oracle", "-2.0 * s * c", "2.0 * s * c"),
                              ABEL),
}


@pytest.mark.parametrize("mutation, fails", MUTATIONS.values(), ids=MUTATIONS)
def test_mutation_outcome(mutation, fails, monkeypatch):
    assert outcome(mutation, monkeypatch) == fails


@pytest.mark.parametrize("name", ["columns-half-angle", "stress-t-unsigned", "stress-A-doubled"])
def test_array_rows_fail_the_columns_comparison(name, monkeypatch):
    # verify evaluates one point at a time; the array path it no longer runs
    # is pinned to the scalar one, bit for bit, which each of these breaks
    config = RunConfig(bc=BoundaryCondition.NEUMANN, L=0.77, grid_points=9)
    assert_columns_equal_scalar_path(config)
    MUTATIONS[name][0].apply(monkeypatch)
    with pytest.raises(AssertionError):
        assert_columns_equal_scalar_path(config)


def test_the_caches_cleared_are_every_cache_in_the_source():
    # a cache added to any module later is cleared too, and none is missed:
    # each function the source decorates with lru_cache or cache is found
    def name(decorator) -> str:
        return ast.unparse(getattr(decorator, "func", decorator)).rsplit(".", 1)[-1]

    decorated = set()
    for module in [m for n, m in sys.modules.items() if n.startswith("platevac.")]:
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.FunctionDef) and any(
                    name(d) in ("lru_cache", "cache") for d in node.decorator_list):
                decorated.add(f"{module.__name__}.{node.name}")
    found = {f"{cache.__module__}.{cache.__qualname__}" for cache in _caches()}
    assert found == decorated
    assert {"platevac.dimreg._exp_sinh_nodes", "platevac.oracle._power_sums"} <= found
    sample = Sample(1.0)
    for check in VERIFY_CHECKS:
        check.measure(sample)
    _clear_caches()
    assert [c for c in _caches() if c.cache_info().currsize] == []


@pytest.mark.parametrize("name", ["expm1-sign", "eulerian-left", "power-series-exponent"])
def test_a_warm_cache_hides_no_mutant(name, monkeypatch):
    # the oracle's power sums, cached by an unmutated run, must not stand in
    # for the sums of a mutant of the functions they call
    sample = Sample(1.0)
    assert all(check.passes(check.measure(sample)) for check in VERIFY_CHECKS)
    assert outcome(MUTATIONS[name][0], monkeypatch) == MUTATIONS[name][1]


def test_oracle_L_fails_the_mode_sums_off_L_1(monkeypatch):
    assert outcome(MUTATIONS["oracle-L"][0], monkeypatch, L=0.77) == MODE_SUMS


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


def test_a_pipeline_mutation_prints_the_whole_report_and_exits_1(monkeypatch, capsys):
    MUTATIONS["zeta-sign"][0].apply(monkeypatch)
    assert cli.main(["verify"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and [line.split()[1] for line in lines[:-1]] == [c.name for c in VERIFY_CHECKS]
    assert {line.split()[1] for line in lines if line.startswith("FAIL ")} == ZETA | ENERGY
    assert lines[-1] == "14/18 checks passed"


def test_every_check_fails_under_some_mutation():
    failed = set().union(*(fails for _, fails in MUTATIONS.values()))
    assert [check.name for check in VERIFY_CHECKS if check.name not in failed] == []
