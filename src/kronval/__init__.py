"""Stochastic Kronecker graphs: generation, closed-form prediction, and
seeded validation of degree, subgraph, and neighborhood structure."""

from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    KronvalError,
    ParameterError,
)
from .model import (
    KroneckerParams,
    PairClass,
    SampledGraph,
    edge_probability,
    edge_probability_array,
    hamming,
    hamming_array,
    log_edge_probability,
    pair_class,
    weight,
)
from .streams import SeedSpec
from .generate import (
    RmatParams,
    degree_histogram,
    expected_edge_count,
    generate_naive,
    generate_rmat,
    generate_stratified,
    pair_classes,
    rmat_pairs,
)
from .edgelist import read_edgelist, write_edgelist
from .predict import (
    CriticalFraction,
    DegreeMoments,
    RegimeVerdict,
    classify_regime,
    critical_fraction,
    degree_moments,
    expected_degree_count,
    hamming_profile_prediction,
    hamming_window,
    psi,
)
from .patterns import (
    CertificateReport,
    PatternGraph,
    UnionPattern,
    base_value,
    base_value_from_edge_labelings,
    cycle,
    cycle_base_value,
    edge_labeling_from_vertex_labeling,
    enumerate_pair_unions,
    expected_copies_asymptotic,
    expected_copies_exact,
    identify_vertices,
    overlap_cycle_base_value,
    overlap_cycles,
    parse_pattern,
    path,
    second_moment_certificate,
    star,
    star_base_value,
    tree_base_value,
    valid_edge_labelings,
)
from .measure import (
    ConcentrationReport,
    ExtremalScan,
    check_countable,
    concentration_report,
    count_labeled_copies,
    edge_distance_histogram,
    extremal_edge_scan,
    neighbor_hamming_histogram,
)
from .harness import (
    ExperimentConfig,
    ValidationReport,
    emit_report,
    report_json,
    run_experiment,
)
from ._version import __version__
