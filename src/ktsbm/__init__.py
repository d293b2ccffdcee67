"""Penalized Krichevsky-Trofimov estimation of the number of communities in
stochastic block models: exact small-instance oracles, non-asymptotic bound
verifiers, and a reproducible simulation harness."""

from .errors import GraphFormatError, InfeasibleSizeError, ValidationError
from .graphio import read_graph_file, read_labels_file, write_graph_file, write_labels_file
from .kt import (
    BoundConstants,
    KtValue,
    gamma_composition_inequality,
    log_kt_graph_given_labels,
    log_kt_labels,
    log_kt_marginal_exact,
    log_kt_marginal_mc,
    prop31_bound,
    verify_prop31,
)
from .likelihood import (
    EmpiricalRates,
    FitResult,
    complete_log_prob,
    fit_marginal_ml,
    gamma_fn,
    marginal_log_lik_exact,
    max_complete_log_lik,
    mle_from_labels,
    profile_label_search,
    sparse_decomposition_check,
    sparse_decomposition_parts,
    sup_log_lik_upper_bound,
    tau_fn,
)
from .sbm import (
    Graph,
    LabelVector,
    SbmParams,
    SparseSchedule,
    cell_stats,
    enumerate_graphs,
    realize_sparse,
    sample_sbm,
)
from .seeds import derive_seed, mix64, rng_from_seed
from .selection import (
    CriterionRow,
    CriterionTable,
    GapResult,
    MergeResult,
    PenaltySpec,
    dense_gap,
    empirical_underfit_ratio,
    estimate_order,
    identical_columns,
    merge_blocks,
    overestimation_bound,
    penalty,
    penalty_closed_coefficient,
    penalty_sum_coefficient,
    sparse_gap,
)
from .experiments import (
    ExperimentConfig,
    TrialRecord,
    gamma_suite,
    lemma_a2_suite,
    normalization_suite,
    prop31_suite,
    run_consistency,
)

__version__ = "0.1.0"
