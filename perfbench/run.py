"""platevac benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark itself uses the standard library only.  platevac is
imported from ./src in fresh interpreters, one at a time: one
closed-loop client, no threads.  Every output is checked by
``checks.py``, which never calls platevac.

The report goes to stdout: a human-readable block with every metric,
its unit and its sample count, one ``# env`` line recording the
machine, and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured without
tracing; with ``--trace 1`` they are the per-layer ones.  README.md
lists them and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import checks
import cli_child
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 120.0
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
PROFILE_POINTS = 100_000
PROFILE_MARGIN = 0.02  # the CLI's default margin, which profile-dense keeps

END_TO_END = {"setup_s": "s", "calibrated_wall_s": "s", "peak_rss_mb": "MB"}

_LAYER_UNITS = {"calls": "count/op", "self_s": "s/op", "errors": "count/op"}
_LAYER_FIELDS = (
    "oracle.mode_sum_finite_part.calls", "oracle.mode_sum_finite_part.self_s",
    "regsum.fit_finite_part.calls", "regsum.fit_finite_part.self_s",
    "regsum.abel_sum_oracle.calls", "regsum.abel_sum_oracle.self_s",
    "regsum.cutoff_sum_oracle.calls", "regsum.cutoff_sum_oracle.self_s",
    "casimir.canonical_density_integral.self_s", "casimir.integrated_density_check.self_s",
    "dimreg.quadrature_reference.self_s", "dimreg.master_integral.calls",
    "fluctuations.expectation_set.calls", "fluctuations.expectation_set.self_s",
    "fluctuations.ab_values.self_s", "stress.stress_report.self_s",
    "cli.cmd_profile.self_s", "cli.run_verification.self_s",
    "spectrum.orthonormality_check.self_s",
    *(f"{module}.errors" for module in spans.MODULES),
)
PER_LAYER = {
    **{name: _LAYER_UNITS[name.rpartition(".")[2]] for name in _LAYER_FIELDS},
    "import.platevac_s": "s",
    "import.scipy_integrate_s": "s",
    "trace.overhead_s": "s/op",
    "check.max_rel_err": "ratio",
    "check.inexact_share": "share",
    "check.verify_headroom_max": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (for instance, no program to run)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

_CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one process to completion; wall time and peak RSS come from os.wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_CHILD_ENV, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            selector.register(proc.stderr, selectors.EVENT_READ)
            deadline = start + timeout
            while selector.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0.0:
                    proc.kill()
                    break
                for key, _ in selector.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        selector.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    return Child(
        returncode=proc.returncode,
        stdout=b"".join(chunks[out_fd]).decode(errors="replace"),
        stderr=b"".join(chunks[err_fd]).decode(errors="replace"),
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )


# ---------------------------------------------------------------------------
# Set-up, imports and the environment record
# ---------------------------------------------------------------------------

_ENV_PROBE = """
import json, sys
import numpy, scipy, platevac, platevac.cli
print(json.dumps({
    "platevac_file": platevac.__file__,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "longdouble_eps": float(numpy.finfo(numpy.longdouble).eps),
}))
"""

def probe_environment() -> dict:
    """Import platevac once (which also fills its bytecode cache) and record
    the versions, checking that platevac comes from this checkout's src/."""
    if not (SRC / "platevac" / "cli.py").is_file():
        raise BenchError(f"no platevac sources under {SRC}")
    child = run_child([sys.executable, "-c", _ENV_PROBE])
    if child.returncode != 0:
        raise BenchError(f"importing platevac failed:\n{child.stderr}")
    env = json.loads(child.stdout)
    if SRC.resolve() not in Path(env.pop("platevac_file")).resolve().parents:
        raise BenchError(f"platevac was not imported from {SRC}")
    return {"nproc": len(os.sched_getaffinity(0)), "caches": _cache_sizes(), **env,
            "commit": _git_commit()}


def _cache_sizes() -> dict:
    """CPU cache sizes from sysfs (read-only); empty where sysfs lacks them."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def _git_commit() -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text()
    except OSError:
        return None
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def split_report(child: Child) -> tuple[str, list]:
    """(stderr without the report line, the report) of a cli_child.py run."""
    kept, report = [], []
    for line in child.stderr.splitlines(keepends=True):
        if line.startswith(cli_child.MARKER):
            try:
                report = json.loads(line[len(cli_child.MARKER):])
            except ValueError:  # cut mid-line; the run is still checked
                pass
        else:
            kept.append(line)
    return "".join(kept), report


def measure_setup(samples: int) -> list[float]:
    """Fresh-interpreter ``import platevac.cli`` times, adjusted to an
    uncontended host like the CLI calls (calibrate.py)."""
    values = []
    for _ in range(samples):
        child = run_child([sys.executable, str(HERE / "cli_child.py"), "setup"])
        stderr, refs = split_report(child)
        if child.returncode != 0 or not refs:
            raise BenchError(f"import platevac.cli failed:\n{stderr}")
        values.append(calibrate.adjust(float(child.stdout), statistics.median(refs),
                                       calibrate.CLI_EXPONENT))
    return values


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(platevac, scipy.integrate) cumulative seconds from ``-X importtime``.

    Each line reads ``import time: self | cumulative | <indent>name``,
    two spaces of indent per nesting level.  platevac's cost is the sum
    over its top-level entries; scipy.integrate's is its own cumulative,
    0 if it was never imported.
    """
    platevac_us = scipy_integrate_us = 0
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, field_ = int(parts[1]), parts[2][1:]
        name = field_.strip()
        if not field_.startswith(" ") and (name == "platevac" or name.startswith("platevac.")):
            platevac_us += cumulative
        if name == "scipy.integrate":
            scipy_integrate_us = cumulative
    return platevac_us / 1e6, scipy_integrate_us / 1e6


def measure_imports(samples: int) -> tuple[list[float], list[float]]:
    platevac_s, scipy_s = [], []
    for _ in range(samples):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import platevac.cli"])
        if child.returncode != 0:
            raise BenchError(f"import platevac.cli failed:\n{child.stderr}")
        a, b = parse_importtime(child.stderr)
        platevac_s.append(a)
        scipy_s.append(b)
    return platevac_s, scipy_s


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Run:
    """What one workload run measured."""

    op: str                                   # what one operation is
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    walls: list[float] = field(default_factory=list)         # untraced, s per op
    refs: list[float] = field(default_factory=list)          # kernel s per point, per untraced op
    exponent: float = calibrate.CLI_EXPONENT
    traced_walls: list[float] = field(default_factory=list)  # traced, s per op
    traced_ops: int = 0
    rss_mb: list[float] = field(default_factory=list)
    spans: dict = field(default_factory=dict)
    acc: checks.Accuracy = field(default_factory=checks.Accuracy)
    points_per_s: float | None = None

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] += 1


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def verify_full_call(rng: random.Random, i: int):
    L = _log_uniform(rng, 0.5, 2.0)
    return (["verify", "--length", repr(L)],
            lambda out, acc: checks.check_verify(out, acc))


def profile_dense_call(rng: random.Random, i: int):
    bc = ("dirichlet", "neumann")[i % 2]
    L = _log_uniform(rng, 0.1, 10.0)
    argv = ["profile", "--bc", bc, "--length", repr(L),
            "--points", str(PROFILE_POINTS), "--format", "json"]
    return argv, lambda out, acc: checks.check_profile(out, bc, L, PROFILE_POINTS,
                                                       PROFILE_MARGIN, acc)


def run_cli_workload(name: str, make_call, seed: int, seconds: float, trace: bool) -> Run:
    """CLI calls in fresh interpreters, back to back, for ``seconds``.

    Traced runs make each call twice with the same arguments, untraced
    and then traced, so that the difference is the tracing overhead.
    """
    rng = random.Random(f"{name}/{seed}")
    run = Run(op="CLI call")
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        cli_args, check = make_call(rng, i)
        for mode in ("plain", "traced") if trace else ("plain",):
            child = run_child([sys.executable, str(HERE / "cli_child.py"), mode, *cli_args])
            stderr, report = split_report(child)
            if mode == "traced":
                spans.merge(run.spans, report)
                run.traced_walls.append(child.wall_s)
                run.traced_ops += 1
            else:
                run.walls.append(child.wall_s)
                run.rss_mb.append(child.peak_rss_mb)
                run.refs.append(statistics.median(report) if report else math.nan)
            run.record(checks.check_process(child.returncode, stderr)
                       or check(child.stdout, run.acc))
        i += 1
    return run


def run_point_workload(seed: int, seconds: float, trace: bool) -> Run:
    """One interpreter evaluating closed-form points (see point_worker.py)."""
    child = run_child([sys.executable, str(HERE / "point_worker.py"), "--seed", str(seed),
                       "--seconds", repr(seconds), "--trace", str(int(trace))],
                      timeout=seconds + CHILD_TIMEOUT_S)
    reason = checks.check_process(child.returncode, child.stderr)
    try:
        report = json.loads(child.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        report = None
    if reason is not None or report is None:
        raise BenchError(f"point worker failed ({reason or 'no report'}):\n{child.stderr}")
    chunk = report["chunk"]
    run = Run(op="point", attempted=report["attempted"], failed=report["failed"],
              reasons=Counter(report["reasons"]), walls=report["walls"],
              refs=report["refs"], exponent=calibrate.POINT_EXPONENT,
              traced_walls=report["traced_walls"],
              traced_ops=chunk * len(report["traced_walls"]),
              rss_mb=[child.peak_rss_mb],
              acc=checks.Accuracy(**report["accuracy"]))
    spans.merge(run.spans, report["spans"])
    run.points_per_s = 1.0 / statistics.fmean(run.walls)
    return run


WORKLOADS = {
    "verify-full": lambda seed, seconds, trace: run_cli_workload(
        "verify-full", verify_full_call, seed, seconds, trace),
    "profile-dense": lambda seed, seconds, trace: run_cli_workload(
        "profile-dense", profile_dense_call, seed, seconds, trace),
    "point-api": run_point_workload,
}


# ---------------------------------------------------------------------------
# Metrics and report
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return ""
    q = math.floor(100.0 * (1.0 - 10.0 / n))
    return f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g}"


def layer_metrics(run: Run, imports: tuple[list[float], list[float]]) -> dict[str, float]:
    by_name: dict[str, list] = {}
    for (name, _parent), record in run.spans.items():
        total = by_name.setdefault(name, [0, 0.0, 0.0, 0])
        for i, value in enumerate(record):
            total[i] += value
    ops = max(run.traced_ops, 1)
    values = {}
    for metric in _LAYER_FIELDS:
        head, _, kind = metric.rpartition(".")
        if kind == "errors":
            count = sum(r[3] for n, r in by_name.items() if n.startswith(head + "."))
        else:
            count = by_name.get(head, [0, 0.0, 0.0, 0])[0 if kind == "calls" else 2]
        values[metric] = count / ops
    values["import.platevac_s"] = statistics.median(imports[0])
    values["import.scipy_integrate_s"] = statistics.median(imports[1])
    values["trace.overhead_s"] = (statistics.median(run.traced_walls)
                                  - statistics.median(run.walls))
    values["check.max_rel_err"] = run.acc.max_rel_err
    values["check.inexact_share"] = run.acc.inexact_share
    values["check.verify_headroom_max"] = run.acc.headroom_max
    return values


def print_report(workload: str, run: Run, setup: list[float] | None,
                 imports: tuple[list[float], list[float]] | None) -> dict[str, float]:
    """Print every metric with unit and sample count; return the JSON metrics."""
    n = len(run.walls)
    print(f"# perfbench {workload}: {run.attempted} operations ({run.op}s), "
          f"{run.failed} failed")
    for reason, count in run.reasons.most_common(5):
        print(f"#   failure x{count}: {reason}")

    def line(name: str, value: float, unit: str, note: str) -> None:
        print(f"{name:<42} {value:<14.6g} {unit:<9} {note}")

    line("error_rate", run.failed / run.attempted, "share",
         f"{run.failed} of {run.attempted} operations failed")
    if run.acc.checks:
        line("verify_headroom_max", run.acc.headroom_max, "ratio",
             f"max over {run.acc.checks} verify checks")
    if run.acc.values:
        line("max_rel_err", run.acc.max_rel_err, "ratio",
             f"E_improved and T_zz, max over {run.acc.values} values")
        line("inexact_share", run.acc.inexact_share, "share",
             f"{run.acc.inexact} of {run.acc.values} miss by > {checks.EXACT_RTOL:g}")
    if imports is None:
        timed = [(w, r) for w, r in zip(run.walls, run.refs) if not math.isnan(r)]
        if not timed:
            raise BenchError("no operation lasted long enough to sample the reference kernel")
        metrics = {
            "setup_s": statistics.median(setup),
            "calibrated_wall_s": statistics.median(
                calibrate.adjust(wall, ref, run.exponent) for wall, ref in timed),
            "peak_rss_mb": statistics.median(run.rss_mb),
        }
        line("setup_s", metrics["setup_s"], "s",
             f"median of {len(setup)} fresh imports, adjusted to an uncontended host")
        line("calibrated_wall_s", metrics["calibrated_wall_s"], "s",
             f"per {run.op}, median of {len(timed)}, adjusted to an uncontended host")
        line("host_slowdown", statistics.median(r for _, r in timed) / calibrate.REFERENCE_POINT_S,
             "x", f"reference kernel against its uncontended time, median of {len(timed)}")
        line("wall_median_s", statistics.median(run.walls), "s",
             f"per {run.op}, as measured, median of {n}{tail(run.walls)}")
        if run.points_per_s is not None:
            line("points_per_s", run.points_per_s, "1/s", f"over {n} chunks, after set-up")
        line("peak_rss_mb", metrics["peak_rss_mb"], "MB",
             f"median of {len(run.rss_mb)} child processes")
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    values = layer_metrics(run, imports)
    for name, value in values.items():
        if name.startswith("import."):
            note = f"median of {len(imports[0])} -X importtime runs"
        elif name.startswith("check."):
            note = "from the output checks"
        else:
            note = f"per traced {run.op}, over {run.traced_ops}"
        line(name, value, PER_LAYER[name], note)
    print("# heaviest spans by self time (name <- parent: calls, self_s per traced op)")
    ranked = sorted(run.spans.items(), key=lambda item: -item[1][2])[:12]
    for (name, parent), (calls, _total, self_s, _errors) in ranked:
        print(f"#   {name} <- {parent or '-'}: {calls / run.traced_ops:.4g}, "
              f"{self_s / run.traced_ops:.4g}")
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    trace = bool(args.trace)
    # A terminated run unwinds through run_child, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        env = probe_environment()
        setup = None if trace else measure_setup(SETUP_SAMPLES)
        imports = measure_imports(IMPORTTIME_SAMPLES) if trace else None
        run = WORKLOADS[args.workload](args.seed, args.seconds, trace)
        metrics = print_report(args.workload, run, setup, imports)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("# env " + json.dumps({**env, "workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
