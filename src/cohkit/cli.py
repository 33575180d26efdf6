"""Command-line front end.

Exit codes: 0 success; 1 an input file that is missing, unreadable (say a
directory, or not UTF-8) or malformed (with parse location), or an ``--out``
path that cannot be written, each with one ``error:`` line on stderr;
2 invariant violation (naming the invariant); 3 transformation impossible
(with the majorization witness); 4 a failed ``selftest``.  An input file
whose JSON parses but has a missing or wrong-typed field is the invariant
violation ``json_schema``.
The count arguments ``--n``, ``--trials``, ``--restarts`` and
``--subset-size`` must be integers >= 1, and ``--delta``, ``--delta2`` and
``--threshold`` finite numbers >= 0.  Identical (arguments, seed) pairs
produce byte-identical reports; every report records the seed and all
numbers are emitted at full double precision.  Reports, error objects and
output files are compact JSON with sorted keys.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    CohkitError,
    InvariantViolationError,
    TransformationImpossibleError,
)
from .asymptotic import (
    covering_check,
    simulate_concentration,
    simulate_dilution,
    simulate_formation,
)
from .incoherent import (
    IncoherentChannel,
    classify_channel,
    synthesize_pure_transformation,
)
from .measures import (
    Ensemble,
    coherence_of_formation,
    entropy_of_coherence,
    relative_entropy_of_coherence,
    relative_entropy_of_coherence_variational,
)
from .qstate import (
    BasisPartition,
    PureState,
    dumps_json,
    state_from_dict,
)
from .rand import RNG_NAME
from .reversibility import is_reversible
from .selftest import run_selftest

TOLERANCE_RANGE = (1e-14, 1e-3)


def _tolerance(text: str) -> float:
    value = float(text)
    lo, hi = TOLERANCE_RANGE
    if not (lo <= value <= hi):
        raise argparse.ArgumentTypeError(
            f"tolerance {value!r} outside [{lo}, {hi}]")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"{value} is not a finite number >= 0")
    return value


def _load(path: str, build):
    """``build`` applied to the parsed file: the one reader of input files.

    A file that cannot be opened, decoded or parsed (including a JSON
    integer past Python's digit limit) exits 1 with one ``error:`` line; a missing or wrong-typed field is the invariant
    violation ``json_schema``, not a traceback."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise SystemExit(f"error: no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: malformed JSON in {path} at line "
                         f"{exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise SystemExit(f"error: JSON nesting too deep in {path}")
    except (OSError, ValueError) as exc:  # also not UTF-8, or a NUL in path
        raise SystemExit(f"error: cannot read {path}: {exc}")
    try:
        return build(data)
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise InvariantViolationError(
            "json_schema", f"{type(exc).__name__}: {exc}")


def _encoded(obj) -> str:
    """``obj`` as JSON; a string is JSON already."""
    return obj if isinstance(obj, str) else dumps_json(obj)


def _write(path: str, out) -> None:
    """The one writer of ``--out``: a ``(header, rows)`` table as CSV,
    anything else as JSON."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if isinstance(out, tuple):
                writer = csv.writer(fh)
                writer.writerow(out[0])
                writer.writerows(out[1])
            else:
                fh.write(_encoded(out) + "\n")
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path}: {exc}")


def _load_state(path: str, tolerance: float | None, ensemble: bool = False):
    """A state file (an ensemble file with ``ensemble``) whose states are
    validated at ``tolerance``."""
    kwargs = {} if tolerance is None else {"atol": tolerance}
    build = Ensemble.from_dict if ensemble else state_from_dict
    return _load(path, lambda data: build(data, **kwargs))


def _as_density(state):
    return state.to_density() if isinstance(state, PureState) else state


def _pure(state, detail: str) -> PureState:
    if not isinstance(state, PureState):
        raise InvariantViolationError("pure_state", detail)
    return state


# Each command maps ``args`` to ``(report, out)``: the report goes to
# stdout, ``out`` is what ``--out`` writes.  Either may be JSON text
# already.

def _cmd_measure(args):
    state = _load_state(args.state, args.tolerance)
    report = {"command": "measure", "which": args.which, "seed": args.seed,
              "rng": RNG_NAME, "log_base": 2}
    if args.which == "c":
        report["value"] = entropy_of_coherence(
            _pure(state, "entropy of coherence takes a pure state"))
    elif args.which == "cr":
        rho = _as_density(state)
        report["value"] = relative_entropy_of_coherence(rho)
        if args.variational:
            report["variational"] = relative_entropy_of_coherence_variational(rho)
    elif args.which == "cf":
        result = coherence_of_formation(_as_density(state),
                                        restarts=args.restarts, seed=args.seed)
        report.update(result.to_dict())
    report[args.which] = report["value"]
    return report, report


def _cmd_transform(args):
    source = _load_state(args.source, args.tolerance)
    target = _load_state(args.target, args.tolerance)
    detail = "transform takes pure-state JSON files"
    channel = synthesize_pure_transformation(_pure(source, detail),
                                             _pure(target, detail))
    # The channel is encoded once, for the report and for --out (the
    # channel file itself, loadable by `classify`).  "channel" is the first
    # of the report's sorted keys, so it goes in front of the rest.
    channel_json = dumps_json(channel.to_dict())
    rest = dumps_json({"command": "transform", "seed": args.seed,
                       "kraus_count": len(channel.kraus),
                       "class": channel.class_label,
                       "completeness_defect": channel.completeness_defect()})
    return f'{{"channel":{channel_json},{rest[1:]}', channel_json


def _cmd_classify(args):
    # A transform report is accepted too: its channel is under "channel".
    channel = _load(args.channel, lambda data: IncoherentChannel.from_dict(
        data.get("channel", data)))
    partition = None
    if args.partition:
        partition = _load(args.partition, BasisPartition.from_dict)
    report = {"command": "classify", "seed": args.seed,
              "class": classify_channel(channel, partition)}
    return report, report


def _cmd_reversibility(args):
    rho = _as_density(_load_state(args.state, args.tolerance))
    verdict = is_reversible(rho, threshold=args.threshold,
                            restarts=args.restarts, seed=args.seed)
    report = {"command": "reversibility", "seed": args.seed,
              "threshold": args.threshold}
    report.update(verdict.to_dict())
    return report, report


def _cmd_simulate(args):
    """A summary report, and a CSV table with one row per trial (per
    evaluated subset for ``cover``)."""
    seed = args.seed
    report = {"command": "simulate", "protocol": args.protocol,
              "seed": seed, "rng": RNG_NAME, "n": args.n}
    if args.protocol == "cover":
        ensemble = _load_state(args.state, args.tolerance, ensemble=True)
        cover = covering_check(ensemble, args.n, args.subset_size,
                               args.trials, seed=seed)
        report.update(S=cover.S, M=cover.M,
                      median_deviation=float(np.median(cover.deviations)),
                      fraction_good={str(k): v for k, v
                                     in cover.fraction_good.items()})
        header = ["subset", "n", "deviation", "seed"]
        columns = [cover.deviations]
    else:
        state = _load_state(args.state, args.tolerance)
        if args.protocol == "form":
            trace = simulate_formation(_as_density(state), args.n, args.delta,
                                       args.delta2, seed=seed,
                                       trials=args.trials,
                                       restarts=args.restarts)
        else:
            psi = _pure(state, f"{args.protocol} takes a pure state")
            trace = (simulate_dilution(psi, args.n, args.delta, seed=seed)
                     if args.protocol == "dilute" else
                     simulate_concentration(psi, args.n, args.trials,
                                            seed=seed))
        report.update(trials=trace.trials, mean_rate=trace.mean_rate,
                      std_rate=float(np.std(trace.rates)),
                      mean_fidelity=float(np.mean(trace.fidelity)),
                      target_rate=trace.target_rate)
        header = ["trial", "n", "rate", "fidelity", "seed"]
        columns = [trace.rates, trace.fidelity]
    rows = ([i, args.n, *(repr(float(v)) for v in values), seed]
            for i, values in enumerate(zip(*columns)))
    return report, (header, rows)


# The options of ``simulate`` beyond --state and --n: (type, default).
SIMULATE_OPTIONS = {
    "trials": (_positive_int, 100), "delta": (_nonnegative_float, 0.02),
    "delta2": (_nonnegative_float, 0.01), "restarts": (_positive_int, 32),
    "subset-size": (_positive_int, 16)}


@functools.lru_cache(maxsize=1)
def _build_parser(default_seed: str) -> argparse.ArgumentParser:
    """The parser, built once per COHKIT_SEED value: building it costs more
    than most subcommands, and parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cohkit",
        description="Operational coherence toolkit (all logarithms base 2).")
    parser.add_argument(
        "--version", action="version",
        version=(f"cohkit {__version__} | conventions: log base 2; "
                 "hermitian/trace tolerance 1e-10; psd floor -1e-9; "
                 "entropy eigenvalue floor 1e-12; support tolerance 1e-10"))
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(p):
        # A string default goes through ``type``, so a bad COHKIT_SEED is a
        # usage error rather than a traceback while the parser is built.
        p.add_argument("--seed", type=int, default=default_seed)

    def common(p, tolerance=True):
        seed(p)
        if tolerance:
            p.add_argument("--tolerance", type=_tolerance, default=None,
                           help="override state-validation tolerance "
                                "(within [1e-14, 1e-3])")
        p.add_argument("--out", default=None, help="write report/trace here")

    p = sub.add_parser("measure", help="compute a coherence measure")
    common(p)
    p.add_argument("--state", required=True)
    p.add_argument("--which", required=True, choices=["cr", "cf", "c"])
    p.add_argument("--restarts", type=_positive_int, default=32)
    p.add_argument("--variational", action="store_true",
                   help="also report the variational C_r cross-check")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("transform",
                       help="synthesize a pure-state transformation")
    common(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("classify", help="classify a channel's free class")
    common(p, tolerance=False)  # channel files carry no tolerance
    p.add_argument("--channel", required=True)
    p.add_argument("--partition", default=None)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("reversibility", help="reversibility verdict")
    common(p)
    p.add_argument("--state", required=True)
    p.add_argument("--threshold", type=_nonnegative_float, default=1e-10)
    p.add_argument("--restarts", type=_positive_int, default=32)
    p.set_defaults(fn=_cmd_reversibility)

    protocols = sub.add_parser("simulate", help="run a protocol simulation"
                               ).add_subparsers(dest="protocol", required=True)
    for name, options in (("concentrate", "trials"), ("dilute", "delta"),
                          ("form", "trials delta delta2 restarts"),
                          ("cover", "trials subset-size")):
        p = protocols.add_parser(name)
        common(p)
        p.add_argument("--state", required=True,
                       help="state JSON (ensemble JSON for cover)")
        p.add_argument("--n", type=_positive_int, required=True)
        for option in options.split():
            kind, default = SIMULATE_OPTIONS[option]
            p.add_argument(f"--{option}", type=kind, default=default)
        p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("selftest", help="run the invariant suite")
    seed(p)

    return parser


def main(argv=None) -> int:
    """Run one command: write ``--out`` first, then print the report; the
    one place exceptions become exit codes."""
    try:
        args = _build_parser(
            os.environ.get("COHKIT_SEED", "0")).parse_args(argv)
        if args.command == "selftest":
            return 0 if run_selftest(seed=args.seed) else 4
        report, out = args.fn(args)
        if args.out:
            _write(args.out, out)
        print(_encoded(report))
        return 0
    except SystemExit as exc:
        if isinstance(exc.code, int):  # argparse: usage errors, --version
            return exc.code
        print(exc.code, file=sys.stderr)  # files that cannot be read/written
        return 1
    except TransformationImpossibleError as exc:
        print(dumps_json({"error": "transformation_impossible",
                          "detail": str(exc),
                          "witness": exc.witness.to_dict()}), file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(dumps_json({"error": "invariant_violation",
                          "invariant": exc.invariant,
                          "detail": exc.detail}), file=sys.stderr)
        return 2
    except CohkitError as exc:
        print(dumps_json({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
