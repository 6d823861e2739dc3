"""Temporally coherent hierarchical clustering of time-varying point sets.

The pipeline: fit an ultrametric per snapshot (exact nearest or stable
subdominant), link adjacent snapshots with low-stretch correspondences,
then convert those into contiguous label assignments via a minimum flow.
Extras: a 3-coloring reduction showing why the unrestricted problem is
hard, a seeded flocking generator for end-to-end runs, and a CLI.
"""

from .metric import (
    TOL,
    MetricSpace,
    TemporalSampling,
    ValidationError,
    hausdorff_distance,
    linf_distance,
    shortest_path_closure,
)
from .temporal import (
    Certification,
    CertificationError,
    Correspondence,
    LocalSolution,
    build_hausdorff_correspondence,
    distortion,
    evaluate_general,
    locality,
    solve_local,
)
from .ultrametric import (
    Dendrogram,
    FkwFit,
    MstEdgeList,
    PseudoUltrametric,
    cut_at_height,
    fkw_fit,
    instability_family,
    minimum_spanning_edges,
    subdominant_ultrametric,
    to_dendrogram,
    validate_ultrametric,
)
from .labeling import (
    ContiguityViolation,
    FlowNetwork,
    IntegralFlow,
    LabeledSolution,
    Labeling,
    build_flow_instance,
    certify,
    check_contiguity,
    decompose_paths,
    min_feasible_flow,
    paths_to_labelings,
    solve_labeled,
)
from .hardness import (
    COLORS,
    Graph,
    ThcInstance,
    Witness,
    WitnessError,
    coloring_from_witness,
    pad_to_three_colors,
    reduce_from_graph,
    verify_witness,
    witness_from_coloring,
)
from .flocking import SimConfig, initial_state, run_detailed, step

__version__ = "0.1.0"
