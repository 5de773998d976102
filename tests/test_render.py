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
from platevac.cli import RunConfig, _profile_rows, _render_plan
from platevac.render import format_g
from platevac.spectrum import BoundaryCondition

SIGS = (12, 17)  # CSV and JSON


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
                          st.integers(min_value=-30, max_value=40), st.booleans()),
                min_size=1, max_size=64),
       st.sampled_from(SIGS))
@settings(max_examples=300, deadline=None)
def test_mixed_signs_and_exponents_match_python(parts, sig):
    # a uniform double almost never has a small exponent; these cover
    # every notation %g picks, both signs and the long-double fast path
    array = np.array([(-m if negative else m) * 10.0 ** e for m, e, negative in parts])
    assert format_g(array, sig).tolist() == _python(array, sig)


def _near_ties(sig: int, count: int) -> np.ndarray:
    """The doubles nearest to, and next to, halfway between two sig-digit decimals."""
    rng = np.random.default_rng(sig)
    values = []
    for digits, exponent in zip(rng.integers(10 ** (sig - 1), 10 ** sig, count).tolist(),
                                rng.integers(-12, 30, count).tolist()):
        tie = float(Fraction(2 * digits + 1, 2) * Fraction(10) ** (exponent - sig + 1))
        values += [np.nextafter(tie, 0.0), tie, np.nextafter(tie, np.inf)]
    return np.array(values)


@pytest.mark.parametrize("sig", SIGS)
def test_near_ties_match_python(sig):
    # the scaled value of these sits within the rounding window of 1/2,
    # so the fast path must hand them to Python
    values = _near_ties(sig, 2000)
    assert format_g(values, sig).tolist() == _python(values, sig)


@pytest.mark.parametrize("sig", SIGS)
def test_blocks_join_seamlessly(sig, monkeypatch):
    monkeypatch.setattr(render, "_BLOCK", 7)
    values = np.random.default_rng(5).standard_normal(50) * 10.0 ** np.arange(-25, 25)
    assert format_g(values, sig).tolist() == _python(values, sig)


@pytest.mark.parametrize("sig", SIGS)
def test_a_double_long_double_gives_the_same_bytes(sig, monkeypatch):
    # where long double is only a double, the 17-digit window covers
    # every value, so all of them go to Python
    monkeypatch.setattr(render, "_WIDE", np.float64)
    values = np.concatenate([EDGES, np.random.default_rng(3).standard_normal(500)])
    assert format_g(values, sig).tolist() == _python(values, sig)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is not 80-bit")
@pytest.mark.parametrize("sig", SIGS)
def test_python_formats_few_profile_values(sig, monkeypatch):
    # the fast path is what makes the profile fast: with 80-bit long
    # double, Python sees about 2 / 64 of the 17-digit values (the tie
    # window) and almost none of the 12-digit ones
    columns = _profile_rows(RunConfig(bc=BoundaryCondition.NEUMANN, L=0.37, grid_points=4096))
    values = np.concatenate(_render_plan(columns, sig)[1])  # what the rows convert
    seen, python_digits = [], render._python_digits

    def counting(a, sig):
        seen.append(a.size)
        return python_digits(a, sig)

    monkeypatch.setattr(render, "_python_digits", counting)
    assert format_g(values, sig).tolist() == _python(values, sig)
    assert sum(seen) <= {12: 0.001, 17: 0.05}[sig] * values.size


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
