"""Command-line front end.

Subcommands: generate, predict, measure, validate, certify.  Exit codes:
0 when everything passed, 1 when a validation or certificate failed, 2 for
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict

from ._version import __version__
from .edgelist import read_edgelist, read_header, write_edgelist
from .errors import ConfigError, KronvalError, ParameterError
from .generate import degree_histogram
# Bound for perfbench/spans.py, which traces these names on this module.
from .generate import generate_naive, generate_rmat, generate_stratified  # noqa: F401
from .harness import (
    GENERATORS,
    KINDS,
    MODEL_GENERATORS,
    ExperimentConfig,
    canonical_json,
    check_degree_array,
    emit_report,
    generate_graph,
    report_json,
    run_experiment,
)
from .measure import check_countable, count_labeled_copies, edge_distance_histogram
from .model import KroneckerParams
from .patterns import parse_pattern, second_moment_certificate
from .predict import (
    TABLE_MAX,
    classify_regime,
    critical_fraction,
    degree_moments,
    expected_degree_count,
    hamming_profile_prediction,
    hamming_window,
)
from .streams import SeedSpec


def _add_entries(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument("--beta", type=float, required=True)
    parser.add_argument("--gamma", type=float, required=True)


def _add_params(parser: argparse.ArgumentParser) -> None:
    _add_entries(parser)
    parser.add_argument("--n", type=int, required=True, help="digit count")


def _params(args) -> KroneckerParams:
    return KroneckerParams(alpha=args.alpha, beta=args.beta, gamma=args.gamma, n=args.n)


def _pattern_text(text: str) -> str:
    """The pattern spec itself, read from the file for an ``@file`` argument."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="ascii") as fh:
                return fh.read()
        except UnicodeDecodeError:
            raise ParameterError(f"pattern file {text[1:]!r} is not ASCII") from None
    return text


def _load_pattern(text: str):
    return parse_pattern(_pattern_text(text))


def _sweep(values):
    """(lo, hi, steps) from --sweep's floats; steps must be a whole number."""
    lo, hi, steps = values
    if not math.isfinite(steps) or steps != int(steps):
        raise ConfigError(f"sweep STEPS must be a whole number, got {steps!r}")
    return lo, hi, int(steps)


def _write_out(text: str, out_path=None) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    seed = SeedSpec(args.seed)
    graph = generate_graph(_params(args), args.generator, seed, args.loops, args.rmat_edges)
    write_edgelist(graph, args.out)
    print(f"wrote {len(graph.edges)} edges and {len(graph.loops)} loops to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    params = _params(args)
    if args.what in ("moments", "degree-counts", "hamming-profile") and params.n > TABLE_MAX:
        raise ConfigError(f"predict --what {args.what} tabulates up to n = {TABLE_MAX}")
    payload = {"params": asdict(params)}
    if args.what == "moments":
        payload["moments"] = [asdict(degree_moments(params, w)) for w in range(params.n + 1)]
    elif args.what == "degree-counts":
        if not 0 <= args.d_max <= TABLE_MAX:
            raise ConfigError(f"degree-max must lie in [0, {TABLE_MAX}]")
        payload["expected_degree_counts"] = [
            {"d": d, "count": expected_degree_count(params, d)}
            for d in range(args.d_max + 1)
        ]
    elif args.what == "regime":
        if not 0 <= args.d <= TABLE_MAX:
            raise ConfigError(f"degree must lie in [0, {TABLE_MAX}]")
        verdict = classify_regime(params, args.d)
        payload["regime"] = {
            "d": args.d,
            "case_id": verdict.case_id,
            "subcase": verdict.subcase,
            "vanishing": verdict.vanishing,
            "theta_base": verdict.theta_base,
            "power_law_possible": verdict.power_law_possible,
            "boundary": verdict.boundary,
            "text": verdict.describe(),
        }
    elif args.what == "hamming-profile":
        lo, hi = hamming_window(params)
        payload["window"] = {"lo": lo, "hi": hi}
        payload["profile"] = [
            {"k": k, "expected_neighbors": hamming_profile_prediction(params, k)}
            for k in range(params.n + 1)
        ]
    elif args.what == "critical-fraction":
        payload["critical_fraction"] = asdict(critical_fraction(params))
    _write_out(canonical_json(payload), args.out)
    return 0


def _cmd_measure(args) -> int:
    # The header's n alone decides the degree-array and counting caps:
    # refuse before the body is read.
    if args.what == "degrees":
        check_degree_array(read_header(args.input)[0].n)
    elif args.what == "subgraph":
        if not args.pattern:
            raise KronvalError("measure --what subgraph needs --pattern")
        pattern = _load_pattern(args.pattern)
        check_countable(pattern, read_header(args.input)[0].n)
    graph = read_edgelist(args.input)
    payload = {
        "n": graph.n,
        "edges": len(graph.edges),
        "loops": len(graph.loops),
    }
    if args.what == "degrees":
        hist = degree_histogram(graph)
        payload["degree_histogram"] = {str(d): c for d, c in hist.items()}
    elif args.what == "subgraph":
        payload["pattern"] = args.pattern
        payload["labeled_copies"] = count_labeled_copies(graph, pattern)
    elif args.what == "hamming":
        hist = edge_distance_histogram(graph)
        payload["edge_distance_histogram"] = {str(k): int(c) for k, c in enumerate(hist) if c}
    _write_out(canonical_json(payload), args.out)
    return 0


def _cmd_validate(args) -> int:
    params = _params(args)
    sweep = _sweep(args.sweep) if args.sweep else None
    config = ExperimentConfig(
        params=params,
        kind=args.kind,
        seed=args.seed,
        trials=args.trials,
        generator=args.generator,
        include_loops=args.loops,
        pattern=_pattern_text(args.pattern) if args.pattern else args.pattern,
        degree_max=args.d_max,
        sweep=sweep,
        dump_edges=args.dump_edges,
    )
    report = run_experiment(config)
    emit_report(report, json_path=args.out_json, csv_path=args.out_csv)
    if args.out_json is None:
        sys.stdout.write(report_json(report))
    for criterion in report.criteria:
        status = "pass" if criterion.passed else "FAIL"
        print(
            f"[{status}] {criterion.name}: {criterion.statistic}="
            f"{criterion.value:.6g} (tolerance {criterion.tolerance:.6g})",
            file=sys.stderr,
        )
    return 0 if report.passed else 1


def _cmd_certify(args) -> int:
    # The certificate compares base values, which depend on the entries
    # alone, so any n gives the same report; n = 1 is a placeholder.  The
    # params are still built, since KroneckerParams validates the entries.
    params = KroneckerParams(alpha=args.alpha, beta=args.beta, gamma=args.gamma, n=1)
    pattern = _load_pattern(args.pattern)
    report = second_moment_certificate(params, pattern)
    payload = {
        "pattern": args.pattern,
        "pattern_base": report.pattern_base,
        "bound": report.pattern_base**2,
        "status": report.status,
        "unions": [
            {
                "vertices": entry.union.graph.vertex_count,
                "edges": sorted(entry.union.graph.edge_list),
                "base": entry.union_base,
                "margin": entry.margin,
                "status": entry.status,
            }
            for entry in report.entries
        ],
    }
    _write_out(canonical_json(payload), args.out)
    return 0 if report.passes else 1


def _generate_arguments(parser: argparse.ArgumentParser) -> None:
    _add_params(parser)
    parser.add_argument("--generator", choices=GENERATORS, default="stratified")
    parser.add_argument(
        "--rmat-edges", type=int, default=None, help="pair draws for the rmat generator"
    )
    parser.add_argument("--loops", action=argparse.BooleanOptionalAction, default=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.set_defaults(func=_cmd_generate)


def _predict_arguments(parser: argparse.ArgumentParser) -> None:
    _add_params(parser)
    parser.add_argument(
        "--what",
        choices=("moments", "degree-counts", "regime", "hamming-profile", "critical-fraction"),
        required=True,
    )
    parser.add_argument("--d", type=int, default=1, help="degree for the regime verdict")
    parser.add_argument("--d-max", type=int, default=8)
    parser.add_argument("--out", default=None)
    parser.set_defaults(func=_cmd_predict)


def _measure_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True)
    parser.add_argument("--what", choices=("degrees", "subgraph", "hamming"), required=True)
    parser.add_argument("--pattern", default=None, help="star:k, cycle:k, path:k, or @file")
    parser.add_argument("--out", default=None)
    parser.set_defaults(func=_cmd_measure)


def _validate_arguments(parser: argparse.ArgumentParser) -> None:
    _add_params(parser)
    parser.add_argument("--kind", choices=KINDS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--generator", choices=MODEL_GENERATORS, default="stratified",
                        help="checked at every graph the run samples, before trial 0")
    parser.add_argument("--loops", action=argparse.BooleanOptionalAction, default=True)
    parser.add_argument("--pattern", default=None)
    parser.add_argument("--d-max", type=int, default=8)
    parser.add_argument(
        "--sweep", nargs=3, type=float, metavar=("LO", "HI", "STEPS"), default=None,
        help="alpha(=gamma) sweep for kind=thresholds",
    )
    parser.add_argument("--dump-edges", default=None, metavar="PREFIX",
                        help="also write each trial's edge list to PREFIX.<tag>.edges")
    parser.add_argument("--out-json", default=None)
    parser.add_argument("--out-csv", default=None)
    parser.set_defaults(func=_cmd_validate)


def _certify_arguments(parser: argparse.ArgumentParser) -> None:
    _add_entries(parser)
    parser.add_argument("--pattern", required=True)
    parser.add_argument("--out", default=None)
    parser.set_defaults(func=_cmd_certify)


_PROG = "kronval"
# name -> (the function adding its arguments, its add_parser keywords).
_COMMANDS = {
    "generate": (_generate_arguments, {"help": "sample a realization and write an edge list"}),
    "predict": (_predict_arguments, {"help": "closed-form predictions as JSON"}),
    "measure": (_measure_arguments, {"help": "measure an edge-list file"}),
    "validate": (_validate_arguments, {"help": "run a seeded prediction-vs-simulation experiment"}),
    "certify": (
        _certify_arguments,
        {
            "help": "second-moment concentration certificate",
            "description": "Check B_F < B_G^2 for every union F of two edge-overlapping"
            " copies of the pattern G.  Base values depend on alpha, beta and gamma"
            " alone, so the certificate takes no --n.",
        },
    ),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The kronval parser: every command with its help and its arguments, or,
    when ``command`` names one, that command alone, which parses its words
    with the same texts at a fraction of the cost."""
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Stochastic Kronecker graphs: generate, predict, measure, validate, certify.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # The lone build's usage line lists every command, as the full build's
    # does.  The full build keeps the default, since a metavar would also
    # replace "command" in its message for a missing command.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (add_arguments, kwargs) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, **kwargs))
    return parser


def parse_args(argv: list) -> argparse.Namespace:
    """``argv`` parsed by the parser of the command ``argv[0]`` names, or by
    the full parser when it names none."""
    return build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    try:
        return args.func(args)
    except KronvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
