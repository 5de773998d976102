"""Self-test: prove that the benchmark's gates can fail.

Usage (from the repository root): python3 perfbench/selftest.py

Each case feeds the benchmark's own checks a run or an output that must
be caught, next to a control that must pass:

- ``verify --quick --inject-sign-flip`` counts as a failed operation;
- a profile row doctored by 1e-9 relative in ``E_improved`` raises
  ``inexact_share``; doctored ``phi2``, a NaN token, or cut output fail;
- verify output with a FAIL line or a wrong summary fails;
- the metric names and units in BENCHMARK.json are those run.py prints.

Exits 0 only when every case behaves.
"""

import json
import math
import sys

import checks
import run

FAILURES = []


def expect(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def cli(*args: str) -> run.Child:
    return run.run_child([sys.executable, "-m", "platevac.cli", *args])


def outcome(child: run.Child, check) -> tuple[str | None, checks.Accuracy]:
    acc = checks.Accuracy()
    return checks.check_process(child.returncode, child.stderr) or check(child.stdout, acc), acc


def verify_cases() -> None:
    reason, acc = outcome(cli("verify", "--quick"), checks.check_verify)
    expect(f"verify --quick passes (headroom {acc.headroom_max:.3g})", reason is None)

    flipped = cli("verify", "--quick", "--inject-sign-flip")
    reason, _ = outcome(flipped, checks.check_verify)
    expect(f"verify --inject-sign-flip is a failed operation ({reason})", reason is not None)
    reason = checks.check_verify(flipped.stdout, checks.Accuracy())
    expect(f"its output alone fails too ({reason})", reason is not None)

    good = cli("verify", "--quick").stdout
    lines = good.splitlines()
    expect("a FAIL line fails", checks.check_verify(
        "\n".join([lines[0].replace("PASS", "FAIL", 1), *lines[1:]]), checks.Accuracy())
        is not None)
    expect("a summary that disagrees with the check lines fails",
           checks.check_verify("\n".join(lines[1:]), checks.Accuracy()) is not None)


def profile_cases() -> None:
    bc, L, points = "neumann", 1.3, 2001
    child = cli("profile", "--bc", bc, "--length", repr(L), "--points", str(points),
                "--format", "json")

    def check(text: str, acc: checks.Accuracy) -> str | None:
        return checks.check_profile(text, bc, L, points, run.PROFILE_MARGIN, acc)

    reason, base = outcome(child, check)
    expect(f"profile passes (inexact {base.inexact}/{base.values})", reason is None)
    doc = json.loads(child.stdout)
    exact = -math.pi ** 2 / (1440.0 * L ** 4)
    row = next(r for r in doc["rows"]
               if checks.rel_err(r["E_improved"], exact) <= checks.EXACT_RTOL)

    row["E_improved"] *= 1.0 + 1e-9
    acc = checks.Accuracy()
    reason = check(json.dumps(doc), acc)
    expect(f"a doctored E_improved raises inexact_share "
           f"({base.inexact_share:.6f} -> {acc.inexact_share:.6f})",
           reason is None and acc.inexact == base.inexact + 1)
    row["E_improved"] /= 1.0 + 1e-9

    row["phi2"] *= 1.0 + 1e-9
    expect("a doctored phi2 fails", check(json.dumps(doc), checks.Accuracy()) is not None)
    row["phi2"] /= 1.0 + 1e-9

    expect("a NaN in the output fails",
           check(child.stdout.replace('"T_zz":', '"T_zz":NaN,"x":', 1),
                 checks.Accuracy()) is not None)
    expect("cut output fails",
           check(child.stdout[: len(child.stdout) // 2], checks.Accuracy()) is not None)


def metric_cases() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect("BENCHMARK.json workloads are run.py's",
           [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))
    expect("BENCHMARK.json end_to_end metrics are run.py's",
           {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END)
    expect("BENCHMARK.json per_layer metrics are run.py's",
           {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER)


def main() -> int:
    run.probe_environment()
    verify_cases()
    profile_cases()
    metric_cases()
    print(f"{len(FAILURES)} self-test case(s) failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
