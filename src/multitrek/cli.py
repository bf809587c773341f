"""Command-line front end.

Every command writes exactly one canonical JSON document to stdout
(human-readable logs go to stderr; set MULTITREK_LOG=info or =debug)
and exits 0 on NotVanishes/success, 10 on Vanishes, 2 on any error or
a failed certificate.  Randomized mode refuses to run without --seed,
so byte-identical reruns are the default, not an option.

Set syntax: sides separated by ";", vertices by "," — "4,6;5,8;7,8"
names three sides of size two.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .cumulants import instance_from_json, model_cumulant
from .errors import MultitrekError
from .estimation import (
    NoiseSpec,
    read_sample_binary,
    read_sample_csv,
    sample_cumulant,
    simulate_lsem,
    test_determinant_zero,
    write_sample_binary,
    write_sample_csv,
)
from .graphs import parse_graph
from .moments import _ensemble_count, model_moment, scan_conjecture
from .oracle import EXIT_VANISHES, certify_decision, decide_vanishing, detect_common_cause
from .ser import (
    canonical_int, canonical_json, frac_from_str, in_float_range, read_edge, read_int, read_json, write_output,
)
from .tensors import tensor_to_json
from .treks import DEFAULT_BUDGET

log = logging.getLogger("multitrek")

EXIT_OK = 0
EXIT_ERROR = 2


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # keep stdout JSON-only
        raise _Usage(message)


def _parse_sets(text: str) -> list[tuple[int, ...]]:
    bad = f"--sets expects integers like '4,6;5,8;7,8', got {text!r}"
    parts = [part.strip() for part in text.split(";")]
    if not all(parts):
        raise ValueError(f"empty side in --sets {text!r}")
    return [tuple(read_int(v.strip(), "", bad) for v in part.split(",")) for part in parts]


def _parse_vars(text: str) -> list[int]:
    bad = f"--vars expects integers like '1,2,3', got {text!r}"
    return [read_int(v.strip(), "", bad) for v in text.split(",")]


def _int_arg(text: str) -> int:
    value = canonical_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _load_graph(path: str):
    g = parse_graph(Path(path).read_text(encoding="utf-8"))
    log.info("loaded graph with %d vertices from %s", len(g.vertices), path)
    return g


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out`` first, then to stdout: a failed
    write prints only its error line."""
    line = text + "\n"
    if out:
        write_output(out, line.encode("utf-8"))
    sys.stdout.write(line)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top parser, and each command's own parser by name."""
    parser = _Parser(prog="multitrek", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--mode", choices=("randomized", "certain"), default="randomized")
        p.add_argument("--seed", type=_int_arg, default=None)
        p.add_argument("--trials", type=_int_arg, default=5)
        p.add_argument("--budget", type=_int_arg, default=DEFAULT_BUDGET)
        p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="decide vanishing of a cumulant subtensor determinant")
    p.add_argument("--graph", required=True)
    p.add_argument("--sets", required=True)
    p.add_argument("--order", type=_int_arg, default=None)
    common(p)

    p = sub.add_parser("common-cause", help="decide whether the variables share a cause")
    p.add_argument("--graph", required=True)
    p.add_argument("--vars", required=True)
    common(p)

    p = sub.add_parser("parametrize", help="emit the model cumulant or moment tensor")
    p.add_argument("--graph", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--order", type=_int_arg, required=True)
    p.add_argument("--kind", choices=("cumulant", "moment"), default="cumulant")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="simulate the structural system to a data file")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", required=True, help="JSON with lambda weights and noise distributions")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--seed", type=_int_arg, required=True)
    p.add_argument("--out", required=True, help=".csv writes CSV, anything else the MTRK binary")

    p = sub.add_parser("estimate", help="sample cumulants or a bootstrap determinant test")
    p.add_argument("--data", required=True)
    p.add_argument("--order", type=_int_arg, required=True)
    p.add_argument("--sets", default=None)
    p.add_argument("--boot", type=_int_arg, default=200)
    p.add_argument("--seed", type=_int_arg, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("scan-conjecture", help="randomized scan of the split-trek criterion")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--order", type=_int_arg, default=None)
    p.add_argument("--seed", type=_int_arg, required=True)
    p.add_argument("--trials", type=_int_arg, default=5)
    p.add_argument("--budget", type=_int_arg, default=DEFAULT_BUDGET)
    p.add_argument("--out", default=None)

    p = sub.add_parser("certify", help="re-verify a stored decision document")
    p.add_argument("--decision", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--budget", type=_int_arg, default=DEFAULT_BUDGET)
    p.add_argument("--out", default=None)

    return parser, sub.choices


def _decide(args, decide, g, sides_or_vars) -> int:
    """Run ``decide`` with the common options, emit its document, return its exit code."""
    decision = decide(
        g, sides_or_vars, mode=args.mode, seed=args.seed, trials=args.trials, budget=args.budget
    )
    log.info("verdict: %s", decision.verdict)
    _emit(decision.to_json(), args.out)
    return decision.exit_code


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    sides = _parse_sets(args.sets)
    if args.order is not None and args.order != len(sides):
        raise ValueError(f"--order {args.order} does not match {len(sides)} sides")
    return _decide(args, decide_vanishing, g, sides)


def _cmd_common_cause(args) -> int:
    g = _load_graph(args.graph)
    return _decide(args, detect_common_cause, g, _parse_vars(args.vars))


def _cmd_parametrize(args) -> int:
    g = _load_graph(args.graph)
    inst = instance_from_json(Path(args.instance).read_text(encoding="utf-8"))
    if args.kind == "cumulant":
        tensor = model_cumulant(g, inst, args.order)
    else:
        tensor = model_moment(g, inst, args.order)
    _emit(tensor_to_json(tensor), args.out)
    return EXIT_OK


def _number(x, where: str):
    """A finite JSON number as it is, else (booleans included) an "a/b" string; either must fit a float."""
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"{where}: {x} is not a finite number")
    number = x if isinstance(x, (int, float)) and not isinstance(x, bool) else frac_from_str(x, where)
    return in_float_range(number, where)


def _noise_spec(doc: dict) -> NoiseSpec:
    if not isinstance(doc, dict) or not all(isinstance(spec, list) and spec for spec in doc.values()):
        raise ValueError('model "noise" must map each vertex to a list [distribution, params...]')
    entries = {}
    for key, (tag, *params) in doc.items():
        vertex = read_int(key, f"/noise/{key}", "vertex id must be an integer")
        entries[vertex] = (tag, *(Fraction(_number(x, f"/noise/{key}")) for x in params))
    return NoiseSpec(entries)


def _cmd_simulate(args) -> int:
    g = _load_graph(args.graph)
    model = read_json(Path(args.model).read_text(encoding="utf-8"))
    if not isinstance(model, dict) or "lambda" not in model or "noise" not in model:
        raise ValueError('model file needs keys "lambda" and "noise"')
    if not isinstance(model["lambda"], dict):
        raise ValueError('model "lambda" must be an object of "u->v" -> weight')
    lam = {read_edge(key, f"/lambda/{key}"): float(_number(val, f"/lambda/{key}"))
           for key, val in model["lambda"].items()}
    noise = _noise_spec(model["noise"])
    sm = simulate_lsem(g, lam, noise, args.n, args.seed)
    fmt = "csv" if args.out.lower().endswith(".csv") else "binary"
    if fmt == "csv":
        write_sample_csv(sm, args.out)
    else:
        write_sample_binary(sm, args.out)
    log.info("wrote %d x %d samples to %s", sm.data.shape[0], sm.data.shape[1], args.out)
    doc = {
        "rows": sm.data.shape[0],
        "cols": sm.data.shape[1],
        "vertices": list(sm.vertices),
        "path": args.out,
        "format": fmt,
    }
    sys.stdout.write(canonical_json(doc) + "\n")
    return EXIT_OK


def _load_data(path: str):
    if path.lower().endswith(".csv"):
        return read_sample_csv(path)
    return read_sample_binary(path)


def _cmd_estimate(args) -> int:
    sm = _load_data(args.data)
    if args.sets is None:
        tensor = sample_cumulant(sm, args.order)
        _emit(tensor_to_json(tensor), args.out)
        return EXIT_OK
    sides = _parse_sets(args.sets)
    if args.seed is None:
        raise ValueError("the bootstrap test needs --seed")
    result = test_determinant_zero(sm, sides, args.order, args.boot, args.seed)
    log.info("statistic %.6g, bootstrap sd %.6g", result.statistic, result.bootstrap_sd)
    _emit(canonical_json(result.to_doc()), args.out)
    return EXIT_OK


def _cmd_scan(args) -> int:
    ensemble = read_json(Path(args.ensemble).read_text(encoding="utf-8"))
    if not isinstance(ensemble, dict):
        raise ValueError("the ensemble file must hold a JSON object")
    order = args.order if args.order is not None else _ensemble_count(ensemble, "k", 0)
    if order < 4:
        raise ValueError("scan-conjecture needs --order >= 4 (or a k >= 4 in the ensemble file)")
    report = scan_conjecture(order, ensemble, args.seed, trials=args.trials, budget=args.budget)
    log.info(
        "scanned %d cases: %d agreements, %d disagreements",
        report.cases_scanned, report.agreements, len(report.disagreements),
    )
    _emit(report.to_json(), args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    g = _load_graph(args.graph)
    doc = read_json(Path(args.decision).read_text(encoding="utf-8"))
    valid, reason = certify_decision(g, doc, budget=args.budget)
    _emit(canonical_json({"valid": valid, "reason": reason}), args.out)
    return EXIT_OK if valid else EXIT_ERROR


_COMMANDS = {
    "check": _cmd_check,
    "common-cause": _cmd_common_cause,
    "parametrize": _cmd_parametrize,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "scan-conjecture": _cmd_scan,
    "certify": _cmd_certify,
}


# Built once: parse_args keeps no state between calls, and _Parser.error raises.
_PARSER, _SUBPARSERS = _build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """The top parser's namespace for argv.  A known command's arguments go
    straight to that command's parser, which is what the top parser hands
    them to; an empty argv, an unknown command or a leading option goes
    through the top parser, so every usage message stays its own."""
    if argv and argv[0] in _SUBPARSERS:
        return _SUBPARSERS[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return _PARSER.parse_args(argv)


def _configure_logging() -> None:
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("MULTITREK_LOG", "").lower(), logging.WARNING
    )
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(message)s")


def run(argv: list[str]) -> int:
    """Parse argv, run one command, return the exit code; stdout is one JSON line."""
    _configure_logging()
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    except _Usage as exc:
        sys.stdout.write(canonical_json({"error": str(exc)}) + "\n")
        return EXIT_ERROR
    except (MultitrekError, ValueError, OSError, KeyError) as exc:
        log.debug("command failed", exc_info=True)
        sys.stdout.write(canonical_json({"error": str(exc)}) + "\n")
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
