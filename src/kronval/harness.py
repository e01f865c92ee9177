"""Experiment orchestration: seeded trials, prediction-vs-measurement
comparison, and deterministic report emission.

Reports are reproducible byte for byte from (config, seed): trials use named
substreams, aggregation is order-independent, and no wall-clock state enters
the output.  Every criterion carries its tolerance; every analytic number
carries a tag naming the closed form it came from.
"""

from __future__ import annotations

import csv
import io
import json
import math
import dataclasses
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .errors import CapacityError, ConfigError, ParameterError
from .generate import (
    GENERATE_MEMORY_CEILING,
    RmatParams,
    batch_trials,
    check_naive,
    check_stratified,
    edge_sum_moments,
    generate_naive,
    generate_rmat,
    generate_stratified,
    stratified_degrees,
    stratified_distances,
)
from .edgelist import write_edgelist
from .measure import (
    check_countable,
    concentration_report,
    count_labeled_copies,
    edge_distance_histogram,
    star_arms,
    star_count,
)
from .model import KroneckerParams
from .patterns import (
    base_value,
    expected_copies_asymptotic,
    expected_copies_exact,
    parse_pattern,
)
from .predict import (
    TABLE_MAX,
    _bisect,
    classify_regime,
    expected_degree_count,
    hamming_profile_prediction,
    hamming_window,
)
from .streams import SeedSpec

KINDS = ("degrees", "subgraph", "hamming", "regime", "thresholds")
GENERATORS = ("naive", "stratified", "rmat")
# The generators whose graphs follow the closed forms validate judges by (rmat's do not).
MODEL_GENERATORS = ("naive", "stratified")
# The largest n whose degree array, 2^n int64 counts, fits GENERATE_MEMORY_CEILING.
DEGREE_ARRAY_MAX_N = (GENERATE_MEMORY_CEILING // 8).bit_length() - 1

# Every criterion's |z| tolerance, pinned here rather than per call site.
Z_TOLERANCE = 4.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One validate run.  validate() refuses, before trial 0, a run that cannot
    complete, checking the generator's limits at every parameter point the run
    samples: each sweep point of thresholds, and none for regime."""

    params: KroneckerParams
    kind: str
    seed: int
    trials: int = 20
    generator: str = "stratified"
    include_loops: bool = True
    pattern: "str | None" = None
    degree_max: int = 8
    sweep: "tuple | None" = None  # (alpha_lo, alpha_hi, steps) for thresholds
    dump_edges: "str | None" = None  # path prefix for per-trial edge-list dumps

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 1 <= self.trials <= TABLE_MAX:
            raise ConfigError(f"trials must lie in [1, {TABLE_MAX}], got {self.trials}")
        if not 0 <= self.degree_max <= TABLE_MAX:
            raise ConfigError(f"degree-max must lie in [0, {TABLE_MAX}]")
        if self.generator not in MODEL_GENERATORS:
            raise ConfigError(f"validate's generator must be one of {MODEL_GENERATORS}")
        n = self.params.n
        if self.kind == "regime":  # bound n before the table's per-digit arrays
            if n > TABLE_MAX:
                raise ConfigError(f"the regime table caps at n = {TABLE_MAX}, got n = {n}")
            return
        if self.kind == "thresholds":
            if self.sweep is None:
                raise ConfigError("kind=thresholds needs a sweep (alpha_lo alpha_hi steps)")
            lo, hi, steps = self.sweep
            if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0 and lo < hi):
                raise ConfigError("sweep endpoints must satisfy 0 < lo < hi < 1")
            if not 2 <= steps <= TABLE_MAX:
                raise ConfigError(f"sweep STEPS must lie in [2, {TABLE_MAX}], got {steps}")
        for point in _sample_points(self):
            _check_generator(point, self.generator, self.include_loops)
        if self.kind == "degrees":
            check_degree_array(n)
        if self.kind in ("subgraph", "thresholds"):
            if not self.pattern:
                raise ConfigError(f"kind={self.kind} needs a pattern")
            check_countable(parse_pattern(self.pattern), n)
        if self.kind == "hamming":
            if not self.params.alpha_equals_gamma:
                raise ConfigError("the hamming experiment requires alpha = gamma")
            if self.params.alpha + self.params.beta <= 1.0:
                raise ConfigError("the hamming experiment requires alpha + beta > 1")

    def echo(self) -> dict:
        return asdict(self)


def _sample_points(config: ExperimentConfig) -> list:
    """The parameter points the run samples, in run order: none for regime,
    each alpha = gamma point of the sweep for thresholds, else the params."""
    if config.kind != "thresholds":
        return [] if config.kind == "regime" else [config.params]
    alphas = np.linspace(*config.sweep[:2], int(config.sweep[2])).tolist()
    return [dataclasses.replace(config.params, alpha=a, gamma=a) for a in alphas]


@dataclass(frozen=True)
class AnalyticValue:
    name: str
    value: float
    source: str


@dataclass(frozen=True)
class Criterion:
    name: str
    observed: float
    expected: float
    statistic: str
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    kind: str
    config: dict
    analytic: tuple
    empirical: dict
    criteria: tuple
    table_columns: tuple
    table_rows: tuple
    schema: int = 2
    version: str = __version__

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "version": self.version,
            "kind": self.kind,
            "config": self.config,
            "analytic": [asdict(a) for a in self.analytic],
            "empirical": self.empirical,
            "criteria": [asdict(c) for c in self.criteria],
            "table": {
                "columns": list(self.table_columns),
                "rows": [list(r) for r in self.table_rows],
            },
            "passed": self.passed,
        }


def _check_generator(
    params: KroneckerParams, generator: str, include_loops: bool, rmat_edges=None
) -> None:
    """The generator's argument rules and its limits (kept in kronval.generate)
    for one graph, raised as ConfigError before any sampling."""
    try:
        if generator == "naive":
            check_naive(params)
        elif generator == "stratified":
            check_stratified(params, include_loops)
        elif generator != "rmat":
            raise ConfigError(f"generator must be one of {GENERATORS}")
        elif rmat_edges is None:
            raise ConfigError("the rmat generator needs --rmat-edges")
        elif not include_loops:
            raise ConfigError("rmat keeps u = v draws as loops and cannot run with --no-loops")
        else:
            RmatParams(base=params, m=rmat_edges)
    except (CapacityError, ParameterError) as exc:
        raise ConfigError(str(exc)) from exc


def check_degree_array(n: int) -> None:
    """Refuse, as ConfigError, a degree array over the memory ceiling."""
    if n > DEGREE_ARRAY_MAX_N:
        raise ConfigError(
            f"degree arrays of 2^n int64 counts cap at n = {DEGREE_ARRAY_MAX_N}"
            f" under the memory ceiling, got n = {n}"
        )


def generate_graph(
    params: KroneckerParams, generator: str, seed: SeedSpec, include_loops=True, rmat_edges=None
):
    """Sample one graph with the named generator, after checking its arguments."""
    _check_generator(params, generator, include_loops, rmat_edges)
    if generator == "rmat":
        return generate_rmat(RmatParams(base=params, m=rmat_edges), seed=seed)
    sample = generate_naive if generator == "naive" else generate_stratified
    return sample(params, include_loops=include_loops, seed=seed)


def _z_score(mean: float, predicted: float, sample_sd: float, trials: int) -> float:
    # Sample standard error with a Poisson floor, so degenerate all-equal
    # samples (sd = 0) do not turn a vanishing discrepancy into infinity.
    floor = math.sqrt(max(predicted, 1e-300) / trials)
    se = max(sample_sd / math.sqrt(trials), floor)
    return (mean - predicted) / se


def _z_criterion(name: str, observed: float, expected: float, z: float) -> Criterion:
    """The criterion |z| <= Z_TOLERANCE."""
    return Criterion(
        name=name,
        observed=observed,
        expected=expected,
        statistic="|z|",
        value=abs(z),
        tolerance=Z_TOLERANCE,
        passed=abs(z) <= Z_TOLERANCE,
    )


def _trial_rows(config: ExperimentConfig, seed: SeedSpec, of_graph, of_core):
    """Each trial's row at config.params, from substream seed.child("trial",
    t), in trial order.

    The stratified sampler's rows come from of_core(seeds), batch_trials
    trials per call, with no graph built.  The naive sampler's, those of a
    run that dumps its edges, and all of them where of_core is None, are
    of_graph(graph) of each trial's graph, dumped to PREFIX.<tag>.edges
    with the trial stream's labels as tag: ("sweep", 1, "trial", 0) ->
    "sweep1.trial0".  A row the caller keeps should own its memory: a view
    into a batch keeps the batch alive while the next is drawn."""
    seeds = [seed.child("trial", t) for t in range(config.trials)]
    if of_core is None or config.generator != "stratified" or config.dump_edges is not None:
        for trial in seeds:
            graph = generate_graph(config.params, config.generator, trial, config.include_loops)
            if config.dump_edges is not None:
                labels = trial.stream
                tag = ".".join(f"{name}{index}" for name, index in zip(labels[::2], labels[1::2]))
                write_edgelist(graph, f"{config.dump_edges}.{tag}.edges")
            yield of_graph(graph)
        return
    step = batch_trials(config.params, config.include_loops)
    for s in range(0, len(seeds), step):
        yield from of_core(seeds[s : s + step])


def _degree_counts(config: ExperimentConfig, seed: SeedSpec) -> np.ndarray:
    """(trials, degree_max + 1) floats: per trial (_trial_rows), the
    vertices of each degree 0..degree_max, the stratified sampler's read
    off stratified_degrees."""
    params, loops = config.params, config.include_loops
    width = config.degree_max + 1

    def binned(degrees: np.ndarray) -> np.ndarray:
        return np.bincount(degrees, minlength=width)[:width]

    # Each batch is binned before _trial_rows yields, so no view of it is
    # held while the next is drawn.
    rows = _trial_rows(
        config,
        seed,
        lambda graph: binned(graph.degrees()),
        lambda seeds: [binned(row) for row in stratified_degrees(params, loops, seeds=seeds)],
    )
    return np.array(list(rows), dtype=float)


def _run_degrees(config: ExperimentConfig, seed: SeedSpec) -> ValidationReport:
    """The mean and sd over the trials of the vertices of each degree
    0..degree_max (_degree_counts), each against the Poisson-mixture
    degree-count formula by a |z| criterion."""
    params = config.params
    d_max = config.degree_max
    counts = _degree_counts(config, seed)
    means = counts.mean(axis=0)
    sds = counts.std(axis=0, ddof=1) if config.trials > 1 else np.zeros(d_max + 1)
    predicted = np.array([expected_degree_count(params, d) for d in range(d_max + 1)])
    analytic = tuple(
        AnalyticValue(
            name=f"expected_count_degree_{d}",
            value=float(predicted[d]),
            source="Poisson-mixture degree-count formula",
        )
        for d in range(d_max + 1)
    )
    criteria = []
    rows = []
    for d in range(d_max + 1):
        z = _z_score(float(means[d]), float(predicted[d]), float(sds[d]), config.trials)
        criteria.append(_z_criterion(f"degree_{d}_count", float(means[d]), float(predicted[d]), z))
        rows.append((d, float(means[d]), float(predicted[d]), z))
    empirical = {
        "trials": config.trials,
        "mean_counts": [float(x) for x in means],
        "sd_counts": [float(x) for x in sds],
    }
    return ValidationReport(
        kind="degrees",
        config=config.echo(),
        analytic=analytic,
        empirical=empirical,
        criteria=tuple(criteria),
        table_columns=("d", "empirical_mean_count", "predicted_count", "z_score"),
        table_rows=tuple(rows),
    )


def _copy_counts(config: ExperimentConfig, seed: SeedSpec, pattern) -> list:
    """Each trial's labeled copy count of the pattern (_trial_rows), an
    exact int.  A star's counts need only the loop-free degrees, which the
    stratified sampler gives with no graph built: its pairs do not depend
    on the loops, which it draws from their own streams."""
    params = config.params
    arms = star_arms(pattern)

    def star_counts(seeds):
        return [star_count(row, arms) for row in stratified_degrees(params, False, seeds=seeds)]

    of_core = None if arms is None else star_counts
    return list(_trial_rows(config, seed, lambda g: count_labeled_copies(g, pattern), of_core))


def _run_subgraph(config: ExperimentConfig, seed: SeedSpec) -> ValidationReport:
    """The mean of the trials' labeled copy counts (_copy_counts) against
    their exact expectation."""
    params = config.params
    pattern = parse_pattern(config.pattern)
    counts = _copy_counts(config, seed, pattern)
    # Exact ints go to the report; the statistics use their float64 values.
    values = np.array(counts, dtype=float)
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if config.trials > 1 else 0.0
    upper = expected_copies_asymptotic(params, pattern)
    exact = expected_copies_exact(params, pattern)
    analytic = (
        AnalyticValue("base_value", base_value(params, pattern), "pattern base value (labeling sum)"),
        AnalyticValue("copies_leading_order", upper, "asymptotic copy count (base value)^n"),
        AnalyticValue("copies_exact", exact, "exact injective-map expectation"),
    )
    z = _z_score(mean, exact, sd, config.trials)
    criterion = _z_criterion("mean_copies_vs_exact", mean, exact, z)
    empirical = {
        "trials": config.trials,
        "mean_count": mean,
        "sd_count": sd,
        "counts": counts,
    }
    rows = tuple(enumerate(counts))
    return ValidationReport(
        kind="subgraph",
        config=config.echo(),
        analytic=analytic,
        empirical=empirical,
        criteria=(criterion,),
        table_columns=("trial", "labeled_copies"),
        table_rows=rows,
    )


def _run_hamming(config: ExperimentConfig, seed: SeedSpec) -> ValidationReport:
    """Two totals per trial, the edge distance and the degree, against
    their exact moments, and each trial's concentration_report.  Both read
    the trial's edges at each Hamming distance 0..n, loops at 0: the
    stratified sampler's from stratified_distances, with no graph built,
    the others' from edge_distance_histogram of each trial's graph."""
    params, loops = config.params, config.include_loops
    n = params.n
    a, b = params.alpha, params.beta
    hists = np.array(
        list(
            _trial_rows(
                config,
                seed,
                edge_distance_histogram,
                lambda seeds: stratified_distances(params, loops, seeds=seeds),
            )
        ),
        dtype=np.int64,
    )
    reports = [concentration_report(params, row, loops) for row in hists]
    distances = np.arange(n + 1)
    lo, hi = hamming_window(params)
    entries = 2 * hists
    entries[:, 0] = hists[:, 0]  # a loop is a single one-sided neighbor entry
    # Per trial, the total edge distance and the total degree 2 edges + loops.
    distance_sums = hists @ distances
    degree_sums = entries.sum(axis=1)
    # Both totals are sums of independent pair indicators, so their exact
    # moments over the trials give a z that scales with the sample.
    criteria = []
    for name, sums, (mean, var) in zip(
        ("total_edge_distance_vs_exact", "total_degree_vs_exact"),
        (distance_sums, degree_sums),
        edge_sum_moments(params, loops),
    ):
        observed = float(sums.mean())
        z = (observed - mean) / math.sqrt(var / config.trials)
        criteria.append(_z_criterion(name, observed, mean, z))
    analytic = (
        AnalyticValue("expected_degree", (a + b) ** n, "uniform expected degree (alpha+beta)^n"),
        AnalyticValue("window_center", b * n / (a + b), "binomial neighbor-distance profile"),
        AnalyticValue("window_lo", lo, "neighbor-distance concentration window"),
        AnalyticValue("window_hi", hi, "neighbor-distance concentration window"),
    )
    empirical = {
        "trials": config.trials,
        "mean_degree": float(degree_sums.mean() / params.vertex_count),
        # A trial without edges reads NaN.
        "in_window_fraction": float(np.mean([r.in_window_edge_fraction for r in reports])),
        "mean_edge_distance": float(np.mean([r.mean_edge_distance for r in reports])),
    }
    profile_mean = entries.sum(axis=0) / params.vertex_count / config.trials
    rows = tuple(
        (k, float(profile_mean[k]), hamming_profile_prediction(params, k)) for k in range(n + 1)
    )
    return ValidationReport(
        kind="hamming",
        config=config.echo(),
        analytic=analytic,
        empirical=empirical,
        criteria=tuple(criteria),
        table_columns=("k", "empirical_mean", "predicted"),
        table_rows=rows,
    )


def _run_regime(config: ExperimentConfig, seed: SeedSpec) -> ValidationReport:
    params = config.params
    headline = classify_regime(params, 1)
    analytic = [
        AnalyticValue("case_id", float(headline.case_id), "six-case regime classification"),
        AnalyticValue(
            "power_law_possible",
            float(headline.power_law_possible),
            "six-case regime classification",
        ),
    ]
    rows = []
    for d in range(config.degree_max + 1):
        verdict = classify_regime(params, d)
        predicted = expected_degree_count(params, d)
        rows.append(
            (
                d,
                predicted,
                int(verdict.vanishing),
                verdict.theta_base if verdict.theta_base is not None else math.nan,
            )
        )
    empirical = {"verdict": headline.describe()}
    return ValidationReport(
        kind="regime",
        config=config.echo(),
        analytic=tuple(analytic),
        empirical=empirical,
        criteria=(),
        table_columns=("d", "predicted_count", "vanishing", "theta_base"),
        table_rows=tuple(rows),
    )


def _run_thresholds(config: ExperimentConfig, seed: SeedSpec) -> ValidationReport:
    pattern = parse_pattern(config.pattern)
    points = _sample_points(config)
    rows = []
    for i, point in enumerate(points):
        b = base_value(point, pattern)
        point_config = dataclasses.replace(config, params=point)
        counts = np.array(_copy_counts(point_config, seed.child("sweep", i), pattern), dtype=float)
        frac = float((counts > 0).mean())
        rows.append((point.alpha, b, float(counts.mean()), frac))
    _, bases, _, presence = zip(*rows)

    def base_at(a: float) -> float:
        return base_value(dataclasses.replace(config.params, alpha=a, gamma=a), pattern)

    analytic = [
        AnalyticValue("base_value_lo", bases[0], "pattern base value (labeling sum)"),
        AnalyticValue("base_value_hi", bases[-1], "pattern base value (labeling sum)"),
    ]
    if (bases[0] - 1.0) * (bases[-1] - 1.0) < 0:
        # The base value is a polynomial in alpha (= gamma) with nonnegative
        # coefficients, so it increases across the sweep and crosses 1 once.
        crossing = _bisect(lambda a: base_at(a) - 1.0, points[0].alpha, points[-1].alpha)
        analytic.append(
            AnalyticValue("threshold_alpha", crossing, "appearance threshold: base value = 1")
        )
    criteria = []
    below = [f for f, b in zip(presence, bases) if b < 0.95]
    above = [f for f, b in zip(presence, bases) if b > 1.05]
    if below and above:
        criteria.append(
            Criterion(
                name="presence_increases_across_threshold",
                observed=max(above),
                expected=min(below),
                statistic="max_above - min_below",
                value=max(above) - min(below),
                tolerance=0.0,
                passed=max(above) >= min(below),
            )
        )
    empirical = {"presence_fraction": presence}
    return ValidationReport(
        kind="thresholds",
        config=config.echo(),
        analytic=tuple(analytic),
        empirical=empirical,
        criteria=tuple(criteria),
        table_columns=("alpha", "base_value", "mean_count", "presence_fraction"),
        table_rows=tuple(rows),
    )


_RUNNERS = {
    "degrees": _run_degrees,
    "subgraph": _run_subgraph,
    "hamming": _run_hamming,
    "regime": _run_regime,
    "thresholds": _run_thresholds,
}


def run_experiment(config: ExperimentConfig) -> ValidationReport:
    """Validate the configuration, run its trials, and assemble the report."""
    config.validate()
    seed = SeedSpec(config.seed)
    return _RUNNERS[config.kind](config, seed)


def _json_value(obj):
    """obj with floats at 12 significant digits, NaN as None, NumPy scalars
    as Python numbers and tuples as lists; ±inf has no JSON form."""
    if isinstance(obj, (float, np.floating)):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            raise ParameterError(f"a reported value is {float(obj)}, beyond the float range")
        return float(f"{obj:.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _json_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(v) for v in obj]
    return obj


def canonical_json(payload) -> str:
    """Canonical JSON text: sorted keys, 12 significant digits, no clock."""
    return json.dumps(_json_value(payload), sort_keys=True, indent=2) + "\n"


def report_json(report: ValidationReport) -> str:
    return canonical_json(report.to_dict())


def emit_report(report: ValidationReport, json_path=None, csv_path=None) -> None:
    """Write the JSON report and/or the flat CSV table.  Both texts are built
    before any file is opened: the JSON text raises on a value beyond the
    float range, and then no file is left behind, the CSV included."""
    if json_path is None and csv_path is None:
        return
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(report.table_columns)
    for row in report.table_rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    for path, text in ((json_path, report_json(report)), (csv_path, table.getvalue())):
        if path is not None:
            with open(path, "w", encoding="ascii", newline="\n") as fh:
                fh.write(text)
