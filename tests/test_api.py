"""The public surface: what each module exports, and the README's quick start."""

import ast
import importlib
import inspect
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import platevac
from platevac.cli import RunConfig
from platevac.errors import DomainError, InvalidConfigError, _FrozenRecord
from platevac.fluctuations import Pair
from platevac.verify import Check, Sample

ROOT = Path(__file__).resolve().parents[1]
EXPORTING = [module for module in map(importlib.import_module, [
    "platevac", *(f"platevac.{m.name}" for m in pkgutil.iter_modules(platevac.__path__))])
    if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse(Path(platevac.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(platevac.__all__) == sorted(imported)
    assert len(set(platevac.__all__)) == len(platevac.__all__)


def test_readme_quick_start_runs():
    # a name the package no longer has cannot stay in the quick start
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-W", "error", "-c", blocks[0]], capture_output=True,
                          text=True, cwd=ROOT, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("cls, name, value, bad, error", [
    (platevac.PlateConfig, "L", 1.5, 0.0, InvalidConfigError),
    (platevac.InteriorPoint, "theta", 0.3, 4.0, DomainError),
])
def test_inputs_are_frozen_validated_records(cls, name, value, bad, error):
    # each input validates in its own __init__ and is otherwise a plain
    # frozen record of one field
    item = cls(value)
    assert item == cls(**{name: value}) and hash(item) == hash(cls(value))
    assert repr(item) == f"{cls.__name__}({name}={value!r})"
    assert list(inspect.signature(cls).parameters) == list(vars(item)) == [name]
    assert pickle.loads(pickle.dumps(item)) == item
    assert cls(**{**vars(item), name: 2 * value}) == cls(2 * value)
    with pytest.raises(error):
        cls(**{**vars(item), name: bad})
    with pytest.raises(error):
        cls(bad)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(item, name, 2 * value)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(item, name)
    assert vars(item) == {name: value}


# A record of each class but the inputs, a field and another value for it
RECORDS = [
    (platevac.ABPair(1.0, 2.0), "B", -2.0),
    (platevac.FluctuationSet(*map(float, range(6))), "dzphi2", 0.5),
    (platevac.StressReport(*map(float, range(6))), "trace_improved", 1.5),
    (Pair(1, Fraction(1, 3)), "beta", Fraction(2, 3)),
    (platevac.FinitePartResult(0.5, (1.0, -2.0), 1e-17), "divergent_coeffs", (1.0,)),
    (Check("claim", 1e-12, abs), "bound", 1e-13),
    (Sample(0.77, True), "sign_flip", False),
    (RunConfig(platevac.BoundaryCondition.NEUMANN, 2.0), "grid_points", 65),
]


@pytest.mark.parametrize("item, field, other", RECORDS,
                         ids=[type(item).__name__ for item, _, _ in RECORDS])
def test_records_compare_print_and_pickle_by_their_fields(item, field, other):
    # every record's fields are its constructor's parameters, in order; a
    # frozen one is hashable and refuses assignment, the others are neither
    cls = type(item)
    assert list(vars(item)) == list(inspect.signature(cls).parameters)
    same = cls(**vars(item))
    assert same == item and not same != item
    assert cls(**{**vars(item), field: other}) != item
    assert item != tuple(vars(item).values())
    fields = ", ".join(f"{name}={value!r}" for name, value in vars(item).items())
    assert repr(item) == f"{cls.__name__}({fields})"
    assert pickle.loads(pickle.dumps(item)) == item
    if isinstance(item, _FrozenRecord):
        assert hash(same) == hash(item)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(item, field, other)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(item)
        setattr(same, field, other)
        assert same == cls(**{**vars(item), field: other})
