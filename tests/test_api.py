"""The public surface: what each module exports, and the README's quick start."""

import ast
import dataclasses
import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import platevac
from platevac.errors import DomainError, InvalidConfigError

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
def test_inputs_are_frozen_validated_dataclasses(cls, name, value, bad, error):
    # each input validates in its own __init__ and is otherwise a plain
    # frozen dataclass of one field
    item = cls(value)
    assert item == cls(**{name: value}) and hash(item) == hash(cls(value))
    assert repr(item) == f"{cls.__name__}({name}={value!r})"
    assert [f.name for f in dataclasses.fields(item)] == [name]
    assert pickle.loads(pickle.dumps(item)) == item
    assert dataclasses.replace(item, **{name: 2 * value}) == cls(2 * value)
    with pytest.raises(error):
        dataclasses.replace(item, **{name: bad})
    with pytest.raises(error):
        cls(bad)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(item, name, value)
