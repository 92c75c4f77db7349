"""Measurement: timed passes, output checks, set-up time, traced run, record.

A pass runs every command of a workload once, in one process, one after the
other (a closed loop with one client). Untraced runs give the end-to-end
metrics; a traced run makes two untraced passes, then one pass with
the hooks of :mod:`hooks` installed, and reports per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

import hooks
import workloads

SETUP_SAMPLES = 5


@dataclass
class Outcome:
    label: str
    seconds: float
    report: str
    problems: list[str] = field(default_factory=list)


def run_command(cmd: workloads.Command) -> Outcome:
    """Run and check one command; any exception counts as a failure."""
    start = time.perf_counter()
    try:
        code, report = cmd.run()
    except Exception:
        seconds = time.perf_counter() - start
        return Outcome(cmd.label, seconds, "",
                       [f"{cmd.label}: raised\n{traceback.format_exc()}"])
    seconds = time.perf_counter() - start
    if code != 0:
        return Outcome(cmd.label, seconds, report,
                       [f"{cmd.label}: exit code {code!r}, expected 0"])
    try:
        problems = cmd.check(json.loads(report))
    except Exception:
        problems = [f"{cmd.label}: check raised\n{traceback.format_exc()}"]
    return Outcome(cmd.label, seconds, report, problems)


def run_pass(commands) -> tuple[float, list[Outcome]]:
    start = time.perf_counter()
    outcomes = [run_command(cmd) for cmd in commands]
    return time.perf_counter() - start, outcomes


def tally(passes) -> tuple[int, int, list[str]]:
    """Commands attempted, commands failed, and every problem found."""
    outcomes = [out for _, pass_ in passes for out in pass_]
    failed = sum(1 for out in outcomes if out.problems)
    return len(outcomes), failed, [p for out in outcomes for p in out.problems]


def mark_repeats(reference: list[Outcome], passes) -> None:
    """Fail every report that differs from the same command's reference."""
    for _, outcomes in passes:
        for ref, out in zip(reference, outcomes):
            if out.report != ref.report and not out.problems:
                out.problems.append(
                    f"{out.label}: report differs from the first run")


def measure(commands, seconds: float):
    """Run passes while the next one is expected to end within ``seconds``.

    At least two passes run, so every run repeats each report once and a
    workload whose pass is longer than half the window still gets a median
    of two.
    """
    start = time.perf_counter()
    passes = [run_pass(commands), run_pass(commands)]
    while (time.perf_counter() - start
           + statistics.median(w for w, _ in passes)) <= seconds:
        passes.append(run_pass(commands))
    return passes


def quartiles(values) -> dict:
    values = list(values)
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "samples": len(values)}


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def setup_times(root: Path, samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall time of a fresh interpreter importing ``nlwe.cli``."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nlwe.cli"], cwd=root,
                       env=_child_env(root), check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def import_times(root: Path) -> dict:
    """``-X importtime``: self time of nlwe.cli, cumulative of nlwe.bound."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import nlwe.cli"],
        cwd=root, env=_child_env(root), check=True, timeout=120,
        capture_output=True, text=True)
    found = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*(\d+) \|\s*(\d+) \|\s*(\S+)", line)
        if m:
            found[m.group(3)] = (int(m.group(1)) / 1e6, int(m.group(2)) / 1e6)
    out = {}
    if "nlwe.cli" in found:
        out["cli.self_s"] = {"value": found["nlwe.cli"][0], "unit": "s"}
    if "nlwe.bound" in found:
        out["cli.import_bound_s"] = {"value": found["nlwe.bound"][1],
                                     "unit": "s"}
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(root: Path, args) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


def untraced(commands, args, root: Path):
    setup = setup_times(root)
    passes = measure(commands, args.seconds)
    mark_repeats(passes[0][1], passes)
    wall = quartiles(w for w, _ in passes)
    metrics = {
        "wall_s": {"value": wall["median"], "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    detail = {
        "wall_s": wall,
        "setup_s": {"median": statistics.median(setup), "samples": setup},
        "groups_s": {
            group: quartiles(
                sum(out.seconds for cmd, out in zip(commands, pass_)
                    if cmd.group == group)
                for _, pass_ in passes)
            for group in dict.fromkeys(cmd.group for cmd in commands)
        },
        "commands_s": {
            cmd.label: quartiles(pass_[i].seconds for _, pass_ in passes)
            for i, cmd in enumerate(commands)
        },
    }
    return metrics, detail, passes


def _report_metrics(outcomes: list[Outcome]) -> dict:
    """Restart, radius and convergence figures from the bound reports."""
    restarts, radii, converged = 0, 0, 0.0
    for out in outcomes:
        if out.label.startswith("bound_") and not out.problems:
            report = json.loads(out.report)
            diagnostics = report["diagnostics"]
            restarts += diagnostics["restarts_total"]
            radii += len(report["r_grid"])
            converged += (diagnostics["converged_fraction"]
                          * diagnostics["restarts_total"])
    return {
        "bound.restarts_total": {"value": restarts, "unit": "count"},
        "bound.radii": {"value": radii, "unit": "count"},
        "bound.converged_fraction": {
            "value": converged / restarts if restarts else 0.0,
            "unit": "ratio"},
    }


def traced(commands, args, root: Path):
    # The first pass pays first-call costs and only serves as the reference
    # report; the overhead compares the two warm passes that follow.
    warm = run_pass(commands)
    base = run_pass(commands)
    tracer = hooks.Tracer()
    with hooks.installed(tracer):
        with_hooks = run_pass(commands)
    passes = [warm, base, with_hooks]
    mark_repeats(warm[1], passes)
    metrics = hooks.layer_metrics(tracer)
    metrics.update(_report_metrics(with_hooks[1]))
    metrics.update(import_times(root))
    seconds = {out.label: out.seconds for out in with_hooks[1]}
    for label in workloads.COMMAND_LABELS:
        metrics[f"cmd.{label}_s"] = {"value": seconds.get(label, 0.0),
                                     "unit": "s"}
    metrics["trace.overhead_s"] = {"value": with_hooks[0] - base[0],
                                   "unit": "s"}
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans, "w", encoding="utf-8") as f:
        for record in tracer.span_records():
            f.write(json.dumps(record) + "\n")
    detail = {
        "untraced_wall_s": base[0],
        "traced_wall_s": with_hooks[0],
        "missing_hooks": tracer.missing,
        "spans_file": str(spans.relative_to(root)),
        "spans": len(tracer.spans),
    }
    return metrics, detail, passes


def run(args, root: Path) -> int:
    """Run one workload and print the detail record and the result line."""
    record = {"machine": machine_record(root, args)}
    with tempfile.TemporaryDirectory(prefix=".work-",
                                     dir=root / "perfbench") as workdir:
        start = time.perf_counter()
        commands = workloads.build(args.workload, args.seed, workdir)
        record["inputs_s"] = time.perf_counter() - start
        measured = traced if args.trace else untraced
        metrics, detail, passes = measured(commands, args, root)
    attempted, failed, problems = tally(passes)
    record.update(detail)
    record["fail_frac"] = failed / attempted
    record["problems"] = problems
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1
