"""The bulk formatter gives exactly the bytes of Python's '%.{sig}g'."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platevac import render
from platevac.cli import RunConfig, _profile_rows
from platevac.render import _render_plan, format_g
from platevac.spectrum import BoundaryCondition

SIGS = (12, 17)  # CSV and JSON
TEN_L = (1e-72, 1e-3, 0.5, 0.77, 1.0, 1.3, 2.0, 10.0, 1e3, 1e72)


def _python(values: np.ndarray, sig: int) -> list[bytes]:
    return [(f"%.{sig}g" % value).encode("ascii") for value in values.tolist()]


def _powers_of_ten_and_neighbours() -> np.ndarray:
    """Every double nearest a power of ten from 1e-323 to 1e308, with 3 neighbours each side."""
    values = []
    for exponent in range(-323, 309):
        power = float(f"1e{exponent}")
        below = above = power
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            values += [below, above]
        values.append(power)
    return np.array(values)


EDGES = np.concatenate([
    [0.0, 5e-324, np.finfo(np.float64).max, np.finfo(np.float64).tiny, 0.5, 1.5, 2.5,
     # exact ties at 12 digits, and 2^-25 = 2.98023223876953125e-08 at 17
     1234567890125.0, 1234567890135.0, 2.0 ** -25],
    2.0 ** np.arange(-80, 81),
    _powers_of_ten_and_neighbours(),
])
EDGES = np.concatenate([EDGES, -EDGES])


@pytest.mark.parametrize("sig", SIGS)
def test_edge_values(sig):
    assert format_g(EDGES, sig).tolist() == _python(EDGES, sig)


@pytest.mark.parametrize("sig", SIGS)
def test_edge_set_holds_carries_to_the_next_power(sig):
    # values below a power of ten whose rounding carries: they print as that power
    carried = [value for value, text in zip(EDGES.tolist(), _python(EDGES, sig))
               if value > 0.0 and text.split(b"e")[0].replace(b".", b"").strip(b"0") == b"1"
               and Fraction(value) < Fraction(10) ** round(np.log10(value))]
    assert carried


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(finite, min_size=1, max_size=64), st.sampled_from(SIGS))
@settings(max_examples=300, deadline=None)
def test_any_finite_doubles_match_python(values, sig):
    array = np.array(values, dtype=np.float64)
    assert format_g(array, sig).tolist() == _python(array, sig)


@given(st.lists(st.tuples(st.floats(min_value=1.0, max_value=10.0, exclude_max=True),
                          st.integers(min_value=-290, max_value=290), st.booleans()),
                min_size=1, max_size=64),
       st.sampled_from(SIGS))
@settings(max_examples=300, deadline=None)
def test_mixed_signs_and_exponents_match_python(parts, sig):
    # a uniform double almost never has a small exponent; these cover
    # every notation %g picks, both signs and most of the power table
    array = np.array([(-m if negative else m) * 10.0 ** e for m, e, negative in parts])
    assert format_g(array, sig).tolist() == _python(array, sig)


def _near_ties(sig: int, count: int) -> np.ndarray:
    """The doubles nearest to, and next to, halfway between two sig-digit decimals."""
    rng = np.random.default_rng(sig)
    values = []
    for digits, exponent in zip(rng.integers(10 ** (sig - 1), 10 ** sig, count).tolist(),
                                rng.integers(-290, 290, count).tolist()):
        tie = float(Fraction(2 * digits + 1, 2) * Fraction(10) ** (exponent - sig + 1))
        values += [np.nextafter(tie, 0.0), tie, np.nextafter(tie, np.inf)]
    return np.array(values)


@pytest.mark.parametrize("sig", SIGS)
def test_near_ties_match_python(sig):
    # the scaled value of these lies within a double's spacing of 1/2,
    # so the double-double must round them exactly; exact ties go to Python
    values = _near_ties(sig, 2000)
    assert format_g(values, sig).tolist() == _python(values, sig)


@pytest.mark.parametrize("sig", SIGS)
def test_blocks_join_seamlessly(sig, monkeypatch):
    monkeypatch.setattr(render, "_BLOCK", 7)
    values = np.random.default_rng(5).standard_normal(50) * 10.0 ** np.arange(-25, 25)
    assert format_g(values, sig).tolist() == _python(values, sig)


def test_format_g_runs_where_long_double_is_a_double():
    # as on a platform without an extended long double; -W error, so that a
    # numpy RuntimeWarning fails the run too
    probe = ("import sys, numpy; "
             "numpy.longdouble, numpy.clongdouble = numpy.float64, numpy.complex128; "
             "from platevac.cli import RunConfig, _profile_rows; "
             "from platevac.render import _render_plan, format_g; "
             "from platevac.spectrum import BoundaryCondition; "
             "edges = numpy.frombuffer(sys.stdin.buffer.read()); "
             "columns = _profile_rows(RunConfig(bc=BoundaryCondition.NEUMANN, L=0.37, "
             "grid_points=4096)); "
             "print([format_g(v, sig).tolist() == [b'%.*g' % (sig, x) for x in v.tolist()] "
             "for sig in (12, 17) for v in (edges, *_render_plan(columns, sig)[1])])")
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-W", "error", "-c", probe], input=EDGES.tobytes(),
                          capture_output=True, env={**os.environ, "PYTHONPATH": str(root / "src")},
                          timeout=60)
    assert (proc.stdout, proc.stderr) == (repr([True] * 20).encode() + b"\n", b"")


@pytest.mark.parametrize("length", TEN_L)
@pytest.mark.parametrize("sig", SIGS)
def test_python_formats_few_profile_values(sig, length, monkeypatch):
    # the exact scaling is what makes the profile fast: at every
    # separation, Python sees only the exact decimal ties (none at 12
    # digits, a few percent of the 17-digit values at some L)
    columns = _profile_rows(RunConfig(bc=BoundaryCondition.NEUMANN, L=length, grid_points=4096))
    values = np.concatenate(_render_plan(columns, sig)[1])  # what the rows convert
    seen, scaled_digits = [], render._scaled_digits

    def counting(a, sig):
        digits, exponent, fallback = scaled_digits(a, sig)
        seen.append(int(fallback.sum()))
        return digits, exponent, fallback

    monkeypatch.setattr(render, "_scaled_digits", counting)
    assert format_g(values, sig).tolist() == _python(values, sig)
    assert sum(seen) <= {12: 0.001, 17: 0.05}[sig] * values.size


def test_power_table_is_rounded_to_107_bits():
    # each 10^k = (hi + lo) 2^b is the power of ten rounded to 107 bits
    hi, lo, b = render._powers()
    for k, h, l, e in zip(render._SHIFTS, hi.tolist(), lo.tolist(), b.tolist()):
        approx = (Fraction(h) + Fraction(l)) * Fraction(2) ** e
        assert abs(approx / Fraction(10) ** k - 1) <= Fraction(1, 2 ** 107), k
        assert Fraction(1, 2) <= h <= 1 and abs(l) <= 2.0 ** -54, k


def test_empty():
    assert format_g(np.array([]), 17).tolist() == []


def test_only_profile_loads_the_formatter():
    # energy and verify start without it; importing it builds no table
    root = Path(__file__).resolve().parents[1]
    probe = ("import sys, platevac.cli; loaded = 'platevac.render' in sys.modules; "
             "import platevac.render as r; "
             "print(loaded, sum(f.cache_info().currsize for f in "
             "(r._powers, r._digit_tables, r._layout_table)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=60)
    assert proc.stdout == "False 0\n", proc.stderr


def test_digit_tables_are_the_python_strings():
    # the tables are built by array arithmetic; these are the strings they spell
    four = "".join(f"{i:04d}" for i in range(10000)).encode("ascii")
    zeros = [len(f"{i:04d}") - len(f"{i:04d}".rstrip("0")) for i in range(10000)]
    suffix = "".join(f"{'-' if e < 0 else '+'}{abs(e):03d}" for e in range(-999, 1000))
    expected = (np.frombuffer(four, dtype=np.uint32), np.array(zeros, dtype=np.int64),
                np.frombuffer(suffix.encode("ascii"), dtype=np.uint32))
    for table, reference in zip(render._digit_tables(), expected, strict=True):
        assert table.dtype == reference.dtype and table.shape == reference.shape
        assert table.tobytes() == reference.tobytes()
