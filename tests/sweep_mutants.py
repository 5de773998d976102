"""A generated mutation sweep of platevac's math modules against ``verify``'s checks.

    python3 tests/sweep_mutants.py [--json PATH]

Every mutant changes one spot of one of :data:`MODULES`: a numeric
literal doubled (0 becomes 1), or a binary ``+`` and ``-``, or ``*``
and ``/``, swapped.  Literals inside f-strings, which only shape error
messages, are left alone.  Each mutant runs in its own child process on
a copy of the package in a temporary directory.  The child imports
``platevac.verify``; an exception there, such as the ``ConsistencyError``
of ``stress``'s import-time proof, catches the mutant.  Otherwise it
evaluates every entry of ``verify.VERIFY_CHECKS`` on its own at each L
of :data:`LENGTHS`, so that a check that raises hides no other, and
records which checks FAIL and which raise.  A child that runs past
:data:`CHILD_TIMEOUT_S` or crashes catches its mutant too.  A mutant
that no check FAILs or raises on, at any L, survives.

Each survivor must be listed in ``sweep_allowlist.txt``, next to this
file, with its reason; an unlisted survivor fails the sweep, and so
does a listed entry that no surviving mutant matches any more (the
mutant is caught now, or is gone), since the entry is stale.  An entry
is keyed by module, function and mutated text, not by line number::

    regsum.zeta_neg_int: `k % 2` -> `k % 4`
        the reason, on the indented line(s) after one or more keys

The mutated text is the source of the mutated operator's expression,
or of the expression that holds the mutated literal, widened to its
enclosing expressions until the key is unique in its function (``#2``
tells equal statements apart).  ``--json`` writes every mutant's outcome, the
evidence for the keep rule above ``verify.VERIFY_CHECKS``.  Each run
ends with one line per check that one other check covers (every mutant
it catches, the other catches too), then one line per check with its
unique catches, the mutants no other check catches, counted by the
function mutated, then one line per two checks that together are the
only ones to catch some mutant, counted the same way.  The sweep
needs the standard library alone; it exits 0 when every survivor is
listed and no entry is stale, 1 otherwise, and 2 when the unmutated
package does not pass every check.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "platevac"
ALLOWLIST = HERE / "sweep_allowlist.txt"
MODULES = ("fluctuations", "regsum", "casimir", "spectrum", "stress", "dimreg", "oracle")
# Above L = 1.07 too: a mutant can move integrated_density_check's nodes
# out of the gap from there on.
LENGTHS = (1.0, 0.77, 1.3)
CHILD_TIMEOUT_S = 60.0
CHILD_MEMORY = 2 ** 30  # bytes of address space a child may take
JOBS = min(4, os.cpu_count() or 1)  # children at once, each about 17 MB

_SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}

# Run as ``python -S -c _CHILD root L ...``, without the site module, since
# verify needs the standard library alone: import the package under root and
# print one JSON line, {"import": error or null, "fail": {L: [names]},
# "raise": {L: {name: error}}}.
_CHILD = """
import json, resource, sys
root, lengths = sys.argv[1], [float(L) for L in sys.argv[2:]]
resource.setrlimit(resource.RLIMIT_AS, (%d, %d))
sys.path.insert(0, root)
result = {"import": None, "fail": {}, "raise": {}}
try:
    from platevac import verify
except Exception as exc:
    result["import"] = type(exc).__name__
else:
    if not verify.__file__.startswith(root):
        sys.exit("platevac was imported from " + verify.__file__)
    for L in lengths:
        sample = verify.Sample(L)
        fails, raises = [], {}
        for check in verify.VERIFY_CHECKS:
            try:
                if not check.passes(check.measure(sample)):
                    fails.append(check.name)
            except Exception as exc:
                raises[check.name] = type(exc).__name__
        result["fail"][repr(L)], result["raise"][repr(L)] = fails, raises
print(json.dumps(result))
""" % (CHILD_MEMORY, CHILD_MEMORY)


class Mutant(NamedTuple):
    module: str
    function: str  # the qualified name of the enclosing def or class, <module> at top level
    old: str  # the mutated text, before and after
    new: str
    line: int
    start: int  # the byte range of the module's source that ``edit`` replaces
    end: int
    edit: bytes

    @property
    def key(self) -> str:
        return f"{self.module}.{self.function}: `{self.old}` -> `{self.new}`"

    def source(self, original: bytes) -> bytes:
        return original[:self.start] + self.edit + original[self.end:]


def _doubled(value) -> str:
    return repr(2 * value if value else type(value)(1))


def _operator_offset(source: bytes, start: int, end: int, symbol: str) -> int:
    """The offset of the one operator ``symbol`` between two operands, skipping parentheses,
    line breaks and comments."""
    i = start
    while i < end:
        char = chr(source[i])
        if char == "#":
            i = source.index(b"\n", i)
        elif char in " \t\r\n\\()":
            i += 1
        elif char == symbol and source[i + 1:i + 2] != symbol.encode():
            return i
        else:
            break
    raise ValueError(f"no {symbol!r} at byte {start}")


class _Sites(ast.NodeVisitor):
    """The mutable spots of one module: (node, function, byte range, replacement)."""

    def __init__(self, source: bytes) -> None:
        self.source = source
        self.line_start = [0, *accumulate(len(line) + 1 for line in source.split(b"\n"))]
        self.scope: list[str] = []
        self.sites: list[tuple[ast.AST, str, int, int, bytes]] = []

    def offset(self, line: int, col: int) -> int:
        return self.line_start[line - 1] + col  # ast columns count bytes

    def span(self, node: ast.AST) -> tuple[int, int]:
        return (self.offset(node.lineno, node.col_offset),
                self.offset(node.end_lineno, node.end_col_offset))

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        pass  # an f-string shapes a message alone

    def visit_Constant(self, node: ast.Constant) -> None:
        if type(node.value) in (int, float, complex):
            start, end = self.span(node)
            self.sites.append((node, self._function(), start, end,
                               _doubled(node.value).encode()))

    def visit_BinOp(self, node: ast.BinOp) -> None:
        swap = _SWAPS.get(type(node.op))
        if swap is not None:
            at = _operator_offset(self.source, self.span(node.left)[1],
                                  self.span(node.right)[0], swap[0])
            self.sites.append((node, self._function(), at, at + 1, swap[1].encode()))
        self.generic_visit(node)

    def _function(self) -> str:
        return ".".join(self.scope) or "<module>"


def _text(source: bytes) -> str:
    return " ".join(source.decode().split())


def _enclosing(node: ast.AST, parents: dict) -> ast.AST | None:
    """The nearest enclosing node with a source span, short of a compound statement."""
    if isinstance(node, ast.stmt):
        return None
    parent = parents.get(node)
    while parent is not None and not hasattr(parent, "end_lineno"):
        parent = parents.get(parent)
    compound = isinstance(parent, ast.stmt) and hasattr(parent, "body")
    return None if parent is None or compound else parent


def mutants(module: str, source: bytes) -> list[Mutant]:
    """Every mutant of ``module``, in source order, each with a key unique in the sweep."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    sites = _Sites(source)
    sites.visit(tree)

    def texts(node, start, end, edit) -> tuple[str, str]:
        lo, hi = sites.span(node)
        return (_text(source[lo:hi]),
                _text(source[lo:start] + edit + source[end:hi]))

    # show a literal in the expression that holds it, a sign with it; then
    # widen each spot to its enclosing expressions until its key is unique
    scopes = {}
    for i, (node, *_) in enumerate(sites.sites):
        while isinstance(node, (ast.Constant, ast.UnaryOp)):
            parent = _enclosing(node, parents)
            if parent is None:
                break
            node = parent
        scopes[i] = node
    while True:
        keys: dict[tuple, list[int]] = {}
        for i, (_, function, start, end, edit) in enumerate(sites.sites):
            keys.setdefault((function, *texts(scopes[i], start, end, edit)), []).append(i)
        widened = False
        for group in keys.values():
            for i in group if len(group) > 1 else ():
                parent = _enclosing(scopes[i], parents)
                if parent is not None:
                    scopes[i], widened = parent, True
        if not widened:
            break
    found, seen = [], {}
    for i, (node, function, start, end, edit) in enumerate(sites.sites):
        old, new = texts(scopes[i], start, end, edit)
        seen[function, old, new] = count = seen.get((function, old, new), 0) + 1
        suffix = f" #{count}" if count > 1 else ""
        found.append(Mutant(module, function, old + suffix, new + suffix,
                            node.lineno, start, end, edit))
    return found


def child(package: dict, workdir: Path, *args: str, path=()) -> subprocess.CompletedProcess:
    """``python -B args`` on a copy of the package in ``workdir``, with ``path`` after it."""
    (workdir / "platevac").mkdir(parents=True)
    for name, source in package.items():
        (workdir / "platevac" / name).write_bytes(source)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (workdir, *path)))}
    try:
        return subprocess.run([sys.executable, "-B", *args], cwd=workdir, env=env, text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(workdir)


def run(package: dict[str, bytes], workdir: Path, lengths: tuple[float, ...]) -> dict:
    """The child's outcome for a copy of the package at each L: its JSON, or {"error": why}."""
    try:
        done = child(package, workdir, "-I", "-S", "-c", _CHILD, str(workdir), *map(repr, lengths))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S:g} s"}
    if done.returncode != 0:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()}"}
    return json.loads(done.stdout)


def caught(outcome: dict) -> bool:
    return bool(outcome.get("error") or outcome["import"]
                or any(outcome["fail"].values()) or any(outcome["raise"].values()))


def _catchers(outcome: dict) -> set[str]:
    """The checks that FAIL or raise on a mutant, at any L."""
    return {name for by_length in (outcome.get("fail", {}), outcome.get("raise", {}))
            for names in by_length.values() for name in names}


def covered(outcomes: list[dict]) -> list[str]:
    """One line per check whose every caught mutant one other check catches too.

    Each line gives the check's count of mutants caught, by a FAIL or a
    raise at any L, and the count of each check that covers it.
    """
    catches: dict[str, set[int]] = {}
    for i, outcome in enumerate(outcomes):
        for name in _catchers(outcome):
            catches.setdefault(name, set()).add(i)
    lines = []
    for name, mine in sorted(catches.items()):
        others = [f"{other} {len(theirs)}" for other, theirs in sorted(catches.items())
                  if other != name and mine <= theirs]
        if others:
            lines.append(f"covered: {name} {len(mine)}, by {' and '.join(others)}")
    return lines


def unique(functions: list[str], outcomes: list[dict]) -> list[str]:
    """One line per check that catches a mutant: the mutants it alone catches, by function.

    Then one ``pair:`` line per two checks that alone catch some mutant:
    the mutants they catch and no other check does.  ``functions[i]`` is
    the module.function that mutant i changes.  Each line gives the
    count of catches, then the count in each function, the most first.
    """
    alone: dict[tuple[str, ...], Counter] = {}
    for function, outcome in zip(functions, outcomes):
        names = tuple(sorted(_catchers(outcome)))
        for name in names:
            alone.setdefault((name,), Counter())
        if 1 <= len(names) <= 2:
            alone.setdefault(names, Counter())[function] += 1
    lines = []
    for names, counts in sorted(alone.items(), key=lambda item: (len(item[0]), item[0])):
        where = ", ".join(f"{f} {n}" for f, n in sorted(counts.items(), key=lambda c: (-c[1], c[0])))
        label = "unique" if len(names) == 1 else "pair"
        lines.append(f"{label}: {' + '.join(names)} {sum(counts.values())}"
                     + (f", in {where}" if where else ""))
    return lines


def read_allowlist(path: Path) -> dict[str, str]:
    """{key: reason}: the indented lines after one or more key lines are their reason."""
    groups: list[tuple[list[str], list[str]]] = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        if not line[0].isspace():
            if groups and not groups[-1][1]:
                groups[-1][0].append(line)
            else:
                groups.append(([line], []))
        elif groups:
            groups[-1][1].append(line.strip())
        else:
            raise SystemExit(f"{path}:{number}: a reason without a key")
    entries: dict[str, str] = {}
    for keys, reason in groups:
        if not reason:
            raise SystemExit(f"{path}: no reason for {keys[0]}")
        for key in keys:
            if key in entries:
                raise SystemExit(f"{path}: {key} is listed twice")
            entries[key] = " ".join(reason)
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, help="write every mutant's outcome here")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    package = {path.name: path.read_bytes() for path in sorted(PACKAGE.glob("*.py"))}
    found = [m for module in MODULES for m in mutants(module, package[f"{module}.py"])]
    allowed = read_allowlist(ALLOWLIST)

    with tempfile.TemporaryDirectory(prefix="platevac-sweep-") as tmp:
        def outcome(i: int) -> dict:
            if i < 0:
                return run(package, Path(tmp) / "unmutated", LENGTHS)
            m = found[i]
            name = f"{m.module}.py"
            return run({**package, name: m.source(package[name])}, Path(tmp) / str(i), LENGTHS)

        with ThreadPoolExecutor(JOBS) as pool:
            unmutated = outcome(-1)
            if caught(unmutated):
                print(f"the unmutated package fails: {unmutated}")
                return 2
            outcomes = list(pool.map(outcome, range(len(found))))

    survivors = [m for m, o in zip(found, outcomes) if not caught(o)]
    at_import = sum(bool(o.get("import")) for o in outcomes)
    ended = sum(bool(o.get("error")) for o in outcomes)
    if args.json:
        args.json.write_text(json.dumps(
            [{**m._asdict(), "key": m.key, "edit": m.edit.decode(), **o}
             for m, o in zip(found, outcomes)], indent=1) + "\n")

    unlisted = [m.key for m in survivors if m.key not in allowed]
    stale = sorted(set(allowed) - {m.key for m in survivors})
    for key in unlisted:
        print(f"survives, not in {ALLOWLIST.name}: {key}")
    generated = {m.key for m in found}
    for key in stale:
        why = "caught now" if key in generated else "no such mutant"
        print(f"stale entry of {ALLOWLIST.name} ({why}): {key}")
    print(f"{len(found)} mutants: {at_import} caught at import, "
          f"{len(found) - len(survivors) - at_import - ended} by checks, "
          f"{ended} ended the child (a timeout or a crash), "
          f"{len(survivors)} survive ({len(survivors) - len(unlisted)} listed); "
          f"{time.perf_counter() - started:.1f} s")
    for line in covered(outcomes) + unique([f"{m.module}.{m.function}" for m in found], outcomes):
        print(line)
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
