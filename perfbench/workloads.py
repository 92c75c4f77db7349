"""The benchmark's workloads: seeded inputs, the commands run on them, checks.

Every command goes through ``nlwe.cli.main`` in-process, except the
``gentiles1(6)`` UPB analysis, which the CLI refuses under its default
budget and which therefore calls ``nlwe.certify.upb_report`` directly.
Module attributes are looked up when a command runs, so the traced run's
hooks see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

CERTIFIED = "CERTIFIED_INDISCRIMINABLE"

# Exclusive pairs per party of the unscrambled gentiles1(n); local unitaries
# and reordering leave the count unchanged.
GENTILES1_PAIRS = {8: 1072, 12: 6576, 16: 23456}

# gentiles1(6) needs 2^25 partition-search assignments, above the default
# UPB budget of 10^7.
UPB_BUDGET = 2 ** 25


@dataclasses.dataclass(frozen=True)
class Command:
    """One timed step of a workload.

    ``run`` returns the exit code and the report text; ``check`` takes the
    parsed report and returns the problems found, empty when it is correct.
    """

    label: str
    run: Callable[[], tuple[int, str]]
    check: Callable[[dict], list[str]]
    group: str = ""


def _failed(conditions: dict) -> list[str]:
    return [message for message, ok in conditions.items() if not ok]


def cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    """Run ``nlwe.cli.main(argv)`` and capture the report it prints."""
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = importlib.import_module("nlwe.cli").main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
        return code, out.getvalue()
    return run


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def scramble(s, rng: np.random.Generator, permute: bool):
    """Apply Haar local unitaries and, if asked, reorder the members."""
    families = importlib.import_module("nlwe.families")
    unitaries = [haar_unitary(rng, d) for d in s.dims]
    order = rng.permutation(s.n_states) if permute else np.arange(s.n_states)
    states = [
        tuple(u @ s.local_state(int(m), party)
              for party, u in enumerate(unitaries))
        for m in order
    ]
    return families.StateSet(s.dims, states, s.priors[order])


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


# -- checks -----------------------------------------------------------------

def check_certify(n: int):
    def check(report):
        parties = report["parties"]
        return _failed({
            f"gentiles1({n}): verdict is {report['verdict']}":
                report["verdict"] == CERTIFIED,
            f"gentiles1({n}): expected 2 parties": len(parties) == 2,
            f"gentiles1({n}): span_rank is not {n * n - 1}": all(
                p["span_rank"] == n * n - 1 for p in parties),
            f"gentiles1({n}): pair_count is not {GENTILES1_PAIRS[n]}": all(
                p["pair_count"] == GENTILES1_PAIRS[n] for p in parties),
        })
    return check


def check_strong(report):
    return _failed({"halder-full: strong nonlocality not certified":
                    report["strong_nlwe"]["certified"] is True})


def check_bell(report):
    bound = importlib.import_module("nlwe.bound")
    p_err = report["p_err_lower"]
    return _failed({
        f"bell: p_err_lower {p_err!r} outside [0.23, 0.27]":
            0.23 <= p_err <= 0.27,
        "bell: argmax_r is not max_radius(4)": math.isclose(
            report["diagnostics"]["argmax_r"], bound.max_radius(4),
            rel_tol=0.0, abs_tol=1e-12),
        # A radius where no restart reached a feasible point reports 0.
        "bell: a radius failed": all(
            delta > 0 for r, delta in zip(report["r_grid"], report["delta_r"])
            if r > 0),
    })


def check_tiles_bound(report):
    p_err = report["p_err_lower"]
    return _failed({
        f"tiles bound: p_err_lower {p_err!r} not finite and positive":
            math.isfinite(p_err) and p_err > 0,
        "tiles bound: warnings not empty":
            report["diagnostics"]["warnings"] == [],
    })


def check_upb_gentiles1(report):
    return _failed({"gentiles1(6): not unextendible":
                    report["is_unextendible"] is True})


def check_upb_tiles(report):
    return _failed({
        "tiles: not unextendible": report["is_unextendible"] is True,
        "tiles: not minimal": report["is_minimal"] is True,
        f"tiles: verdict is {report['verdict']}": report["verdict"] == CERTIFIED,
    })


# -- command groups -------------------------------------------------------

def bound_bell(seed, workdir):
    return [Command("bound_bell", cli(["bound", "bell", "--seed", str(seed)]),
                    check_bell)]


def bound_tiles(seed, workdir):
    return [Command("bound_tiles",
                    cli(["bound", "tiles", "--seed", str(seed),
                         "--restarts", "4"]),
                    check_tiles_bound)]


def certify_gentiles1(seed, workdir):
    families = importlib.import_module("nlwe.families")
    commands = []
    for n in GENTILES1_PAIRS:
        path = Path(workdir) / f"gentiles1-{n}.json"
        families.save(scramble(families.gentiles1(n), _rng(seed, n), True),
                      path)
        commands.append(Command(f"certify_g{n}", cli(["certify", str(path)]),
                                check_certify(n)))
    commands.append(Command(
        "certify_halder",
        cli(["certify", "halder-full", "--cut", "all-bipartite"]),
        check_strong))
    return commands


def upb_gentiles1(seed, workdir):
    families = importlib.import_module("nlwe.families")
    # No reordering: the partition search then visits the same tree for
    # every seed, and only the local bases change.
    s = scramble(families.gentiles1(6), _rng(seed, 6), False)

    def run():
        certify = importlib.import_module("nlwe.certify")
        report = certify.upb_report(s, budget=UPB_BUDGET)
        return 0, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"

    return [Command("upb_g6", run, check_upb_gentiles1),
            Command("upb_tiles", cli(["upb", "tiles"]), check_upb_tiles)]


# The four command groups of the benchmark design, each with its seeded
# inputs. They run as two workloads: on a shared two-vCPU VM the speed of
# the same code drifts by up to a factor of two within minutes, and a
# workload's median over ten runs only stays within its bound when each run
# measures a longer pass. The split keeps the layers apart: ``bound``
# touches only nlwe.bound, ``certify-upb`` never touches it.
GROUPS = {
    "bound-bell": bound_bell,
    "bound-tiles": bound_tiles,
    "certify-gentiles1": certify_gentiles1,
    "upb-gentiles1": upb_gentiles1,
}

WORKLOADS = {
    "bound": ("bound-bell", "bound-tiles"),
    "certify-upb": ("certify-gentiles1", "upb-gentiles1"),
}

COMMAND_LABELS = ("bound_bell", "bound_tiles", "certify_g8", "certify_g12",
                  "certify_g16", "certify_halder", "upb_g6", "upb_tiles")


def build(workload: str, seed: int, workdir) -> list[Command]:
    """The commands of ``workload``, each tagged with its group."""
    return [dataclasses.replace(cmd, group=group)
            for group in WORKLOADS[workload]
            for cmd in GROUPS[group](seed, workdir)]
