"""Command-line front end: generate | certify | upb | bound.

Inputs may be state-set files or family names, so the named constructions
run as one-liners. Reports are JSON with deterministic key order and embed
the tool version, the effective configuration, and the seed; rerunning a
command reproduces the report byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .bound import BoundResult, OptimizerOptions, error_lower_bound
from .certify import (
    CERTIFIED_INDISCRIMINABLE,
    DEFAULT_PAIR_TOL,
    EnumerationBudgetExceeded,
    certify,
    certify_cut,
    strong_nlwe,
    upb_report,
)
from .families import (
    PartyCut,
    StateSet,
    bell_states,
    gentiles1,
    halder_states,
    load,
    rotated_dominoes,
    save,
    tiles,
    to_payload,
    two_qubit_demo,
)

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3


def _parse_thetas(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected four comma-separated angles, got {text!r}")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


# Family name -> builder of the set from the parsed ``--theta`` and ``--n``.
FAMILIES = {
    "tiles": lambda args: tiles(),
    "bell": lambda args: bell_states(),
    "two-qubit-demo": lambda args: two_qubit_demo(),
    "rotated-dominoes": lambda args: rotated_dominoes(
        *(_parse_thetas(args.theta) if args.theta else (math.pi / 4,) * 4)),
    "gentiles1": lambda args: gentiles1(4 if args.n is None else args.n),
    "halder-full": lambda args: halder_states("full"),
    "halder-reduced12": lambda args: halder_states("reduced12"),
    "halder-omit-diag24": lambda args: halder_states("omit_diag24"),
}


def _resolve_input(text: str, args) -> StateSet:
    if text in FAMILIES:
        return FAMILIES[text](args)
    path = Path(text)
    if path.exists():
        return load(path)
    raise ValueError(f"{text!r} is neither a known family nor an existing file")


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report_header(args, command: str) -> dict:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "output", "command", "input")
        and value is not None
    }
    return {
        "tool": {"name": "nlwe", "version": __version__},
        "command": command,
        "config": config,
    }


def _cmd_generate(args) -> int:
    s = FAMILIES[args.family](args)
    if args.output:
        save(s, args.output)
    else:
        sys.stdout.write(json.dumps(to_payload(s), indent=1) + "\n")
    return EXIT_OK


def _cmd_certify(args) -> int:
    s = _resolve_input(args.input, args)
    tol = args.tol if args.tol is not None else DEFAULT_PAIR_TOL
    payload = _report_header(args, "certify")
    payload["input"] = args.input
    if args.cut == "all-bipartite":
        report = strong_nlwe(s, tol)
        payload["strong_nlwe"] = report.to_dict()
        certified = report.certified
    elif args.cut is not None:
        cut = PartyCut.parse(args.cut, s.parties)
        cert = certify_cut(s, cut, tol)
        payload["cut"] = [list(b) for b in cut.blocks]
        payload.update(cert.to_dict())
        certified = cert.verdict == CERTIFIED_INDISCRIMINABLE
    else:
        cert = certify(s, tol)
        payload.update(cert.to_dict())
        certified = cert.verdict == CERTIFIED_INDISCRIMINABLE
    _emit(payload, args.output)
    return EXIT_OK if certified else EXIT_INCONCLUSIVE


def _cmd_upb(args) -> int:
    s = _resolve_input(args.input, args)
    report = upb_report(s)
    payload = _report_header(args, "upb")
    payload["input"] = args.input
    payload.update(report.to_dict())
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_bound(args) -> int:
    s = _resolve_input(args.input, args)
    opts = OptimizerOptions(
        r_steps=args.r_steps,
        restarts=args.restarts,
        seed=args.seed,
        penalty_stages=args.penalty_stages,
        max_iters=args.max_iters,
        tol=args.tol,
    )
    result: BoundResult = error_lower_bound(s, opts)
    payload = _report_header(args, "bound")
    payload["input"] = args.input
    payload.update(result.to_dict())
    _emit(payload, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlwe",
        description=("Certify LOCC-indiscriminability of orthogonal state "
                     "sets and bound the discrimination error."),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--theta", help="four comma-separated angles in "
                                        "(0, pi/4]")
    common.add_argument("--n", type=int, help="system size for gentiles1")
    common.add_argument("-o", "--output", help="output path (default stdout)")

    gen = sub.add_parser("generate", parents=[common],
                         help="write a named family to a file")
    gen.add_argument("family", choices=FAMILIES)
    gen.set_defaults(func=_cmd_generate)

    cert = sub.add_parser("certify", parents=[common],
                          help="dyad-span certificates")
    cert.add_argument("input", help="state-set file or family name")
    cert.add_argument("--cut", help="'0,1|2'-style party blocks or "
                                    "'all-bipartite'")
    cert.add_argument("--tol", type=float, help="overlap tolerance")
    cert.set_defaults(func=_cmd_certify)

    upb = sub.add_parser("upb", parents=[common],
                         help="extendibility and minimality analysis")
    upb.add_argument("input")
    upb.set_defaults(func=_cmd_upb)

    bnd = sub.add_parser("bound", parents=[common],
                         help="error lower bound over a radius grid")
    bnd.add_argument("input")
    defaults = OptimizerOptions()
    bnd.add_argument("--seed", type=int, default=defaults.seed)
    bnd.add_argument("--r-steps", type=int, default=defaults.r_steps)
    bnd.add_argument("--restarts", type=int, default=defaults.restarts)
    bnd.add_argument("--penalty-stages", type=int,
                     default=defaults.penalty_stages)
    bnd.add_argument("--max-iters", type=int, default=defaults.max_iters)
    bnd.add_argument("--tol", type=float, default=defaults.tol)
    bnd.set_defaults(func=_cmd_bound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationBudgetExceeded as exc:
        print(f"nlwe: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"nlwe: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
