"""The parts of the generated mutation sweep that its verdict rests on.

``python3 tests/sweep_mutants.py`` runs every mutant of the math modules
in a child process; that takes tens of seconds, so the sweep itself is
not part of this suite.  These tests pin its parts instead: the mutants
it generates and the keys the allow-list names them by, the
allow-list's format, the rule that decides whether a child's outcome
catches its mutant, the per-check summaries, and three child runs (the unmutated package, a
mutant caught at import and one caught by a check).
"""

from __future__ import annotations

import pytest

from sweep_mutants import (ALLOWLIST, LENGTHS, MODULES, PACKAGE, caught, covered, mutants,
                           read_allowlist, run, unique)


def _module_source(module: str) -> bytes:
    return (PACKAGE / f"{module}.py").read_bytes()


def _package() -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(PACKAGE.glob("*.py"))}


@pytest.mark.parametrize("literal, doubled", [
    ("0", "1"), ("3", "6"), ("0.0", "1.0"), ("0.25", "0.5"), ("2j", "4j"),
])
def test_literal_doubled(literal, doubled):
    source = f"def f(x):\n    return x({literal})\n".encode()
    [m] = mutants("m", source)
    assert (m.function, m.old, m.new) == ("f", f"x({literal})", f"x({doubled})")
    assert m.source(source) == source.replace(literal.encode(), doubled.encode())


@pytest.mark.parametrize("op, swapped", [("+", "-"), ("-", "+"), ("*", "/"), ("/", "*")])
def test_binary_operator_swapped_across_parentheses_and_comments(op, swapped):
    source = f"class C:\n    def f(self, a, b):\n        return (a  # {op}\n            ) {op} b\n".encode()
    [m] = mutants("m", source)
    assert m.function == "C.f" and m.edit == swapped.encode()
    assert m.source(source) == source.replace(f") {op} b".encode(), f") {swapped} b".encode())


def test_other_operators_and_f_strings_are_left_alone():
    # ** and // are not swapped; a literal inside an f-string only shapes a message
    assert mutants("m", b"x = a ** b // c\ny = f'{x + 1:.3f} {2}'\n") == []


def test_keys_show_the_expression_widened_until_unique_and_ignore_line_numbers():
    assert [m.key for m in mutants("m", b"def f(x):\n    return 2.0 * x + 1\n")] == [
        "m.f: `2.0 * x + 1` -> `2.0 * x - 1`", "m.f: `2.0 * x` -> `2.0 / x`",
        "m.f: `2.0 * x` -> `4.0 * x`", "m.f: `2.0 * x + 1` -> `2.0 * x + 2`",
    ]
    source = b"def f(x):\n    y = 2.0 * x\n    y = 2.0 * x\n    return y\n"
    found = mutants("m", source)
    assert [m.key for m in found] == [
        "m.f: `y = 2.0 * x` -> `y = 2.0 / x`", "m.f: `y = 2.0 * x` -> `y = 4.0 * x`",
        "m.f: `y = 2.0 * x #2` -> `y = 2.0 / x #2`", "m.f: `y = 2.0 * x #2` -> `y = 4.0 * x #2`",
    ]
    shifted = mutants("m", b"\n# a comment above\n\n" + source)
    assert [m.key for m in shifted] == [m.key for m in found]
    assert [m.line for m in shifted] == [m.line + 3 for m in found]


@pytest.mark.parametrize("module", MODULES)
def test_every_mutant_compiles_under_a_key_unique_in_its_module(module):
    source = _module_source(module)
    found = mutants(module, source)
    assert found
    assert len({m.key for m in found}) == len(found)
    for m in found:
        mutated = m.source(source)
        assert mutated != source and mutated[:m.start] == source[:m.start]
        compile(mutated, m.key, "exec")


def test_every_allowlist_entry_names_a_generated_mutant():
    generated = {m.key for module in MODULES for m in mutants(module, _module_source(module))}
    allowed = read_allowlist(ALLOWLIST)
    assert allowed
    assert sorted(set(allowed) - generated) == []
    assert all(reason for reason in allowed.values())


def test_allowlist_reason_serves_the_keys_above_it(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("# a comment\n\na: `1` -> `2`\nb: `x + y` -> `x - y`\n"
                    "    first line\n    second line\nc: `3` -> `6`\n  its own\n")
    assert read_allowlist(path) == {
        "a: `1` -> `2`": "first line second line",
        "b: `x + y` -> `x - y`": "first line second line",
        "c: `3` -> `6`": "its own",
    }


@pytest.mark.parametrize("text, message", [
    ("a: `1` -> `2`\n", "no reason for a"),
    ("    a reason first\na: `1` -> `2`\n    why\n", "a reason without a key"),
    ("a: `1` -> `2`\n    why\na: `1` -> `2`\n    again\n", "listed twice"),
], ids=["no-reason", "reason-without-key", "duplicate"])
def test_malformed_allowlist_is_refused(tmp_path, text, message):
    path = tmp_path / "allow.txt"
    path.write_text(text)
    with pytest.raises(SystemExit, match=message):
        read_allowlist(path)


_PASSES = {"import": None, "fail": {"1.0": [], "0.77": []}, "raise": {"1.0": {}, "0.77": {}}}


@pytest.mark.parametrize("outcome, expected", [
    (_PASSES, False),
    ({"import": "ConsistencyError", "fail": {}, "raise": {}}, True),
    ({**_PASSES, "fail": {"1.0": [], "0.77": ["energy_pipeline"]}}, True),
    ({**_PASSES, "raise": {"1.0": {"single_plate_limit": "DomainError"}, "0.77": {}}}, True),
    ({"error": "timed out after 60 s"}, True),
], ids=["passes", "import", "fail", "raise", "child-ended"])
def test_caught(outcome, expected):
    assert caught(outcome) is expected


def test_covered_names_each_check_another_catches_every_mutant_of():
    # a FAIL or a raise at any L counts; "b" is covered by "a" and by "c",
    # "c" by "a", and nothing covers "a", which alone catches the third mutant
    outcomes = [
        {**_PASSES, "fail": {"1.0": ["a", "b"], "0.77": ["c"]}},
        {**_PASSES, "fail": {"1.0": ["a"], "0.77": []}, "raise": {"1.0": {}, "0.77": {"c": "E"}}},
        {**_PASSES, "fail": {"1.0": ["a"], "0.77": ["a"]}},
        {"import": "ConsistencyError", "fail": {}, "raise": {}},
        {"error": "timed out after 60 s"},
        _PASSES,
    ]
    assert covered(outcomes) == ["covered: b 1, by a 3 and c 2", "covered: c 2, by a 3"]
    assert covered(outcomes[3:]) == []


def test_unique_counts_each_check_s_lone_catches_by_function():
    # a FAIL or a raise at any L counts; "a" alone catches mutants 2 and 3,
    # "c" alone mutant 1, and "b" nothing alone; a mutant caught at import
    # or by an ended child is no check's catch
    outcomes = [
        {**_PASSES, "fail": {"1.0": ["a", "b"], "0.77": ["c"]}},
        {**_PASSES, "fail": {"1.0": [], "0.77": []}, "raise": {"1.0": {}, "0.77": {"c": "E"}}},
        {**_PASSES, "fail": {"1.0": ["a"], "0.77": ["a"]}},
        {**_PASSES, "fail": {"1.0": [], "0.77": ["a"]}},
        {"import": "ConsistencyError", "fail": {}, "raise": {}},
        {"error": "timed out after 60 s"},
        _PASSES,
    ]
    functions = ["m.f", "m.g", "n.h", "m.f", "m.f", "m.f", "m.f"]
    assert unique(functions, outcomes) == [
        "unique: a 2, in m.f 1, n.h 1", "unique: b 0", "unique: c 1, in m.g 1"]
    assert unique(functions[4:], outcomes[4:]) == []


def test_pair_counts_the_mutants_two_checks_alone_catch_by_function():
    # "a" and "b" alone catch mutants 0 and 1, "b" and "c" mutant 2; mutant 3
    # is a's alone and mutant 4, caught by all three, is no pair's
    outcomes = [
        {**_PASSES, "fail": {"1.0": ["b"], "0.77": ["a"]}},
        {**_PASSES, "fail": {"1.0": ["a"], "0.77": []}, "raise": {"1.0": {"b": "E"}, "0.77": {}}},
        {**_PASSES, "fail": {"1.0": ["c", "b"], "0.77": []}},
        {**_PASSES, "fail": {"1.0": ["a"], "0.77": []}},
        {**_PASSES, "fail": {"1.0": ["a", "b", "c"], "0.77": []}},
    ]
    functions = ["m.g", "n.h", "m.g", "m.f", "m.f"]
    assert unique(functions, outcomes) == [
        "unique: a 1, in m.f 1", "unique: b 0", "unique: c 0",
        "pair: a + b 2, in m.g 1, n.h 1", "pair: b + c 1, in m.g 1"]


def test_unique_orders_functions_by_count():
    outcomes = [{**_PASSES, "fail": {"1.0": ["a"], "0.77": []}}] * 3
    assert unique(["m.z", "m.y", "m.z"], outcomes) == ["unique: a 3, in m.z 2, m.y 1"]


def _mutated_package(key: str) -> dict[str, bytes]:
    package = _package()
    module = key.split(".", 1)[0]
    [m] = [m for m in mutants(module, package[f"{module}.py"]) if m.key == key]
    return {**package, f"{module}.py": m.source(package[f"{module}.py"])}


def test_child_passes_the_unmutated_package(tmp_path):
    outcome = run(_package(), tmp_path / "unmutated", LENGTHS)
    assert not caught(outcome), outcome
    assert sorted(outcome["fail"]) == sorted(map(repr, LENGTHS))
    assert not (tmp_path / "unmutated").exists()


def test_child_catches_a_mutant_at_import(tmp_path):
    key = "fluctuations.Pair.__add__: `self.alpha + other.alpha` -> `self.alpha - other.alpha`"
    outcome = run(_mutated_package(key), tmp_path / "mutant", LENGTHS)
    assert outcome == {"import": "ConsistencyError", "fail": {}, "raise": {}}


def test_child_catches_a_mutant_by_its_checks(tmp_path):
    key = "regsum.bernoulli: `Fraction(1)` -> `Fraction(2)`"
    outcome = run(_mutated_package(key), tmp_path / "mutant", LENGTHS)
    assert caught(outcome)
    assert all("energy_pipeline" in fails for fails in outcome["fail"].values()), outcome
