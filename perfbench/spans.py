"""Span tracing of platevac's layers, installed from outside the library.

:meth:`Tracer.install` wraps every public function of each platevac
module in a timing wrapper and rebinds it in every namespace that holds
it.  Rebinding the defining module alone is not enough: ``cli``,
``casimir`` and ``stress`` bind ``expectation_set``,
``improved_energy_density`` and the others by name at import time.

Spans are aggregated per (name, parent) as they close, so memory stays
bounded however many calls a run makes.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# One layer per platevac module.
MODULES = ("spectrum", "regsum", "dimreg", "fluctuations", "stress", "casimir", "oracle", "cli")


class Tracer:
    """Per-process span statistics keyed by (name, parent name)."""

    def __init__(self) -> None:
        # (name, parent) -> [calls, total_s, self_s, errors]
        self.stats: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, error_type):
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            failed = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except error_type:
                failed = True
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = stats.get((name, parent))
                if record is None:
                    record = stats[(name, parent)] = [0, 0.0, 0.0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                record[3] += failed

        return traced

    def install(self) -> None:
        """Wrap each module's public functions and rebind them everywhere."""
        import platevac.cli  # noqa: F401  (loads every platevac module)
        from platevac.errors import PlateVacError

        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"platevac.{short}"]
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if not attr.startswith("_") and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn, PlateVacError))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "platevac" or n.startswith("platevac.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for module, attr, original in self._rebound:
            setattr(module, attr, original)
        self._rebound.clear()

    def export(self) -> list[list]:
        return [[name, parent, *record] for (name, parent), record in self.stats.items()]


def merge(into: dict, rows: list[list]) -> None:
    """Add exported rows into a (name, parent) -> [calls, total, self, errors] dict."""
    for name, parent, *record in rows:
        acc = into.setdefault((name, parent), [0, 0.0, 0.0, 0])
        for i, value in enumerate(record):
            acc[i] += value
