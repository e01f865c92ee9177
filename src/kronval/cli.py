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
from .measure import count_labeled_copies, edge_distance_histogram
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
    if args.what == "degrees":
        # The header's n alone decides the degree-array cap: refuse before
        # the body is read.
        check_degree_array(read_header(args.input)[0].n)
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
        if not args.pattern:
            raise KronvalError("measure --what subgraph needs --pattern")
        pattern = _load_pattern(args.pattern)
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
    # alone, so any n gives the same report; n = 1 is a placeholder.
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronval",
        description="Stochastic Kronecker graphs: generate, predict, measure, validate, certify.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="sample a realization and write an edge list")
    _add_params(p_gen)
    p_gen.add_argument("--generator", choices=GENERATORS, default="stratified")
    p_gen.add_argument("--rmat-edges", type=int, default=None, help="pair draws for the rmat generator")
    p_gen.add_argument("--loops", action=argparse.BooleanOptionalAction, default=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_pred = sub.add_parser("predict", help="closed-form predictions as JSON")
    _add_params(p_pred)
    p_pred.add_argument(
        "--what",
        choices=("moments", "degree-counts", "regime", "hamming-profile", "critical-fraction"),
        required=True,
    )
    p_pred.add_argument("--d", type=int, default=1, help="degree for the regime verdict")
    p_pred.add_argument("--d-max", type=int, default=8)
    p_pred.add_argument("--out", default=None)
    p_pred.set_defaults(func=_cmd_predict)

    p_meas = sub.add_parser("measure", help="measure an edge-list file")
    p_meas.add_argument("--input", required=True)
    p_meas.add_argument("--what", choices=("degrees", "subgraph", "hamming"), required=True)
    p_meas.add_argument("--pattern", default=None, help="star:k, cycle:k, path:k, or @file")
    p_meas.add_argument("--out", default=None)
    p_meas.set_defaults(func=_cmd_measure)

    p_val = sub.add_parser("validate", help="run a seeded prediction-vs-simulation experiment")
    _add_params(p_val)
    p_val.add_argument("--kind", choices=KINDS, required=True)
    p_val.add_argument("--seed", type=int, required=True)
    p_val.add_argument("--trials", type=int, default=20)
    p_val.add_argument("--generator", choices=MODEL_GENERATORS, default="stratified",
                       help="checked at every graph the run samples, before trial 0")
    p_val.add_argument("--loops", action=argparse.BooleanOptionalAction, default=True)
    p_val.add_argument("--pattern", default=None)
    p_val.add_argument("--d-max", type=int, default=8)
    p_val.add_argument(
        "--sweep", nargs=3, type=float, metavar=("LO", "HI", "STEPS"), default=None,
        help="alpha(=gamma) sweep for kind=thresholds",
    )
    p_val.add_argument("--dump-edges", default=None, metavar="PREFIX",
                       help="also write each trial's edge list to PREFIX.<tag>.edges")
    p_val.add_argument("--out-json", default=None)
    p_val.add_argument("--out-csv", default=None)
    p_val.set_defaults(func=_cmd_validate)

    p_cert = sub.add_parser(
        "certify", help="second-moment concentration certificate",
        description="Check B_F < B_G^2 for every union F of two edge-overlapping copies of"
        " the pattern G.  Base values depend on alpha, beta and gamma alone, so the"
        " certificate takes no --n.",
    )
    _add_entries(p_cert)
    p_cert.add_argument("--pattern", required=True)
    p_cert.add_argument("--out", default=None)
    p_cert.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
