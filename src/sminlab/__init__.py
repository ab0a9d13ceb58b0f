"""smin-lab: desk-scale experiments on the smallest singular value of
shifted random matrices.

Subpackages: :mod:`sminlab.linalg` (row-to-span distance kernels),
:mod:`sminlab.samplers` (row distributions, shifts, seeding),
:mod:`sminlab.combinatorics` (half-cover decompositions and derived
graphs), :mod:`sminlab.alphaeta` (exhaustively verified partition
structures on discrete product spaces), :mod:`sminlab.experiments`
(Monte Carlo tail estimation), :mod:`sminlab.suites` (randomized
verification suites), :mod:`sminlab.cli` (the ``smin-lab`` command).
"""

from .errors import InvalidInputError, PreconditionError, UnsupportedSizeError
from .linalg import (
    dist_to_complement,
    dist_to_span,
    hs_inverse,
    row_distances,
)
from .samplers import (
    RowDistribution,
    SeedSpec,
    ShiftSpec,
    build_shift,
    counterexample_witness,
    sample_matrix,
)
from .combinatorics import (
    Graph,
    GreedyDecomposition,
    build_graph_G,
    build_graph_G_tilde,
    check_edge_interval,
    greedy_decomposition,
    low_value_count,
    pivot_index,
    q_sets,
    rho_set,
    two_graphs_dichotomy,
    vertex_value,
)
from .alphaeta import AlphaEtaStructure, DiscreteProductSpace, cube_example_structure
from .experiments import (
    ExperimentConfig,
    Statistic,
    TailEstimate,
    counterexample_experiment,
    distance_profile_tail,
    emit_results,
    estimate_tail,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaEtaStructure",
    "DiscreteProductSpace",
    "ExperimentConfig",
    "Graph",
    "GreedyDecomposition",
    "InvalidInputError",
    "PreconditionError",
    "RowDistribution",
    "SeedSpec",
    "ShiftSpec",
    "Statistic",
    "TailEstimate",
    "UnsupportedSizeError",
    "build_graph_G",
    "build_graph_G_tilde",
    "build_shift",
    "check_edge_interval",
    "counterexample_experiment",
    "counterexample_witness",
    "cube_example_structure",
    "dist_to_complement",
    "dist_to_span",
    "distance_profile_tail",
    "emit_results",
    "estimate_tail",
    "greedy_decomposition",
    "hs_inverse",
    "low_value_count",
    "pivot_index",
    "q_sets",
    "rho_set",
    "row_distances",
    "sample_matrix",
    "two_graphs_dichotomy",
    "vertex_value",
    "wilson_interval",
]
