"""Exact solvers for valuated matroid and M-convex optimization under
intersection constraints, with brute-force oracles and witness verifiers."""

from .core import (
    INF,
    EmptyDomainError,
    ExtValue,
    GroundSet,
    IntVector,
    InternalInvariantError,
    InvalidInputError,
    ResourceLimitError,
    Subset,
    componentwise_min,
    intersection_cardinality,
    parse_rational,
    subset_to_vector,
    vector_to_subset,
)
from .matroid import (
    ExplicitBaseFamily,
    MatroidOracle,
    check_base_exchange,
    dual_matroid,
    enumerate_bases,
    from_explicit_bases,
    make_free,
    make_graphic,
    make_linear,
    make_partition,
    make_uniform,
    min_weight_base,
)
from .valuated import (
    ConvexTable,
    LaminarSpec,
    MnatFunction,
    TupleGround,
    ValuationOracle,
    check_mnat_exchange,
    check_valuated_exchange,
    disjoint_sum,
    dual_valuation,
    from_matroid_and_weights,
    indicator_of_matroid,
    intersection_constraint_valuation,
    laminar_convex_function,
    laminar_penalty,
    size_constrained_modular,
)
from .greedy import minimize_valuated
from .viap import (
    IntersectionSolution,
    Witness,
    augment_step,
    build_aux_digraph,
    shortest_path_with_hop_tiebreak,
    solve_v_eq_k,
    solve_v_geq_k,
    verify_solution,
    verify_witness,
)
from .vmi import (
    TupleSolution,
    solve_sum_valuated_plus_laminar,
    solve_v_In,
    solve_v_geq_k_via_dual,
    solve_v_leq_k,
    solve_v_n_w,
    solve_vmi,
)
from .mflow import (
    CoupledSolution,
    FlowArc,
    FlowNetwork,
    FlowSolution,
    boundary,
    build_mgeqk_instance,
    flow_to_solution,
    solution_to_flow,
    solve_m_geq_k_w,
    solve_mnat_flow,
)
from .reference import (
    LptWitness,
    convert_witness,
    lpt_solve_w_eq_k,
    lpt_solve_with_witness,
    lpt_witness_check,
    witness_from_lpt,
)
from .apps import (
    CongestionInstance,
    IntervalUncertainty,
    check_weak_convexity,
    solve_congestion_social_optimum,
    solve_copic_diagonal,
    solve_recoverable_robust_interval,
    solve_recoverable_robust_interval_mconvex,
    solve_v_c,
)
from . import bruteforce

__all__ = [name for name in dir() if not name.startswith("_")]
