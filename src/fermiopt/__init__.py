"""Gaussian-state energy certificates for sparse Majorana Hamiltonians."""

from .hamiltonian import (
    FormatError,
    InteractionTerm,
    MajoranaHamiltonian,
    SparsityProfile,
    canonical_sign,
    parse_hamiltonian,
    serialize_hamiltonian,
    sparsity_profile,
    total_strength,
)
from .gaussian import (
    ConsistencyVerdict,
    CorrelationMatrix,
    Matching,
    SignAssignment,
    assign_signs,
    classify_consistency,
    condition_on_dimer,
    correlation_from_matching,
    hamiltonian_expectation,
    matching_state_expectation,
    monomial_expectation,
    pfaffian,
)
from .combinatorics import (
    DiffusePartition,
    DiracError,
    build_conflict_graph,
    diffuse_matching,
    diffuse_partition,
    greedy_color,
    hamiltonian_cycle_dense,
    is_diffuse,
    part_bound,
    permitted_graph,
)
from .optimizer import (
    OptimizationResult,
    RatioCertificate,
    lift_to_strict4,
    optimize,
    optimize_mixed_24,
    optimize_ssyk,
    optimize_strict_q,
    pull_back,
    ssyk_part_bound,
    truncate_to_sparse,
)
from .ensembles import (
    EnsembleSpec,
    gen_mixed_24,
    gen_sparse_random,
    gen_ssyk,
    gen_syk_q,
    gen_two_colored,
)
from .oracle import (
    BudgetError,
    dense_hamiltonian,
    dense_state_from_matching,
    gaussian_numeric_max,
    jordan_wigner,
    lambda_max_exact,
    rho_theta_sweep,
    sweep_slope,
)

__version__ = "0.1.0"
