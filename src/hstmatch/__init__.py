"""Randomized online bipartite matching on metric spaces.

The package plays the online matching game three ways: an exact offline
oracle, a deterministic greedy baseline, and a randomized pipeline that
discretizes requests onto the servers, embeds the server submetric into a
random level-weighted tree, and matches greedily on the tree with random
tie-breaking by levels. A seeded Monte Carlo harness measures cost ratios
against the oracle.
"""
from .generators import FAMILIES, GeneratorSpec, generate_instance
from .harness import (
    ALGORITHMS,
    RunRecord,
    derive_seed,
    run_algorithm,
    run_episode,
    run_pipeline,
    pipeline_setup,
    sweep,
    sweep_csv,
    trace_csv,
)
from .hst import (
    EmbeddingParams,
    HstTree,
    attach_servers,
    frt_embed,
    lambda_for_n,
    tree_to_dict,
)
from .metric import (
    FiniteMetric,
    Instance,
    MetricStructureError,
    MetricViolation,
    load_instance,
    save_instance,
    submetric_of_servers,
    validate_metric,
)
from .online import (
    RwgmState,
    discretize_all,
    pick_a_leaf,
    run_greedy,
    rwgm_init,
    rwgm_serve,
)
from .oracle import (
    OptimalMatching,
    TurningPointProfile,
    bound_rwgm_hst,
    expected_moves_bound,
    hst_cost_from_tau,
    optimal_matching,
    turning_point_tau,
)

__version__ = "0.1.0"
