"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest -q perfbench``.
They use only the fast commands, so the whole file takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import hooks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def corrupt(cmd: workloads.Command, edit) -> workloads.Command:
    """The same command with its report passed through ``edit``."""
    def run():
        code, text = cmd.run()
        report = json.loads(text)
        edit(report)
        return code, json.dumps(report)
    return dataclasses.replace(cmd, run=run)


def fail_frac(commands) -> float:
    attempted, failed, _ = bench.tally([bench.run_pass(commands)])
    return failed / attempted


def upb_tiles():
    return workloads.Command("upb_tiles", workloads.cli(["upb", "tiles"]),
                             workloads.check_upb_tiles)


def test_workload_names_match(tmp_path):
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    labels = [cmd.label for name in workloads.WORKLOADS
              for cmd in workloads.build(name, 0, tmp_path)]
    assert tuple(labels) == workloads.COMMAND_LABELS


def test_correct_outputs_pass():
    assert fail_frac([upb_tiles()]) == 0.0


def test_flipped_verdict_raises_fail_frac():
    flipped = corrupt(upb_tiles(),
                      lambda r: r.update(verdict="INCONCLUSIVE"))
    assert fail_frac([upb_tiles(), flipped]) == 0.5


def test_bell_bound_outside_bracket_fails():
    r_max = 0.75 ** 0.5
    good = {"p_err_lower": 0.25, "diagnostics": {"argmax_r": r_max},
            "r_grid": [0.0, 0.5, r_max], "delta_r": [0.0, 0.6, 0.7071]}

    def command(report):
        return workloads.Command("bound_bell", lambda: (0, json.dumps(report)),
                                 workloads.check_bell)

    assert fail_frac([command(good)]) == 0.0
    assert fail_frac([command({**good, "p_err_lower": 0.5})]) == 1.0
    assert fail_frac([command({**good, "delta_r": [0.0, 0.0, 0.7071]})]) == 1.0


def test_wrong_exit_code_and_exception_fail():
    wrong_exit = workloads.Command(
        "bad", workloads.cli(["certify", "no-such-family"]), lambda r: [])

    def boom():
        raise RuntimeError("boom")

    raises = workloads.Command("boom", boom, lambda r: [])
    assert fail_frac([wrong_exit, raises]) == 1.0


def test_changed_report_on_repeat_fails():
    first = bench.run_pass([upb_tiles()])
    second = bench.run_pass([corrupt(upb_tiles(), lambda r: r.update(x=1))])
    bench.mark_repeats(first[1], [first, second])
    assert not first[1][0].problems
    assert second[1][0].problems


def test_hooks_pass_through_and_restore():
    certify = sys.modules["nlwe.certify"]
    original = certify.exclusive_pairs
    commands = [workloads.Command("g4", workloads.cli(
        ["certify", "gentiles1", "--n", "4"]), lambda r: [])]
    _, plain = bench.run_pass(commands)
    tracer = hooks.Tracer()
    with hooks.installed(tracer):
        assert certify.exclusive_pairs is not original
        _, traced = bench.run_pass(commands)
    assert certify.exclusive_pairs is original
    assert traced[0].report == plain[0].report
    metrics = hooks.layer_metrics(tracer)
    assert metrics["certify.pairs_calls"]["value"] == 2
    assert metrics["certify.pairs_found"]["value"] == 2 * 32
    assert metrics["bound.minimize_calls"]["value"] == 0
    assert tracer.spans and all(end is not None for _, _, end, _ in
                                tracer.spans)


def test_missing_hook_target_is_absent():
    table = [h for h in hooks.HOOKS if h[2] != "certify.pairs"]
    table.append(("nlwe.certify", "no_such_function", "certify.pairs",
                  hooks.pairs))
    tracer = hooks.Tracer()
    with hooks.installed(tracer, table):
        _, outcomes = bench.run_pass([upb_tiles()])
    assert not outcomes[0].problems
    assert tracer.missing == ["nlwe.certify.no_such_function"]
    metrics = hooks.layer_metrics(tracer)
    assert "certify.pairs_s" not in metrics
    assert "certify.pairs_found" not in metrics
    assert metrics["certify.minimal_check_calls"]["value"] == 2


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work-*",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-upb",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", [0, 7])
def test_inputs_depend_only_on_seed(tmp_path, seed):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    workloads.build("certify-upb", seed, a)
    workloads.build("certify-upb", seed, b)
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()
