"""Every size argument goes through one rule: an integer (not bool) >= its floor.
Every seed goes through one more: an integer (not bool) in [0, 2**64)."""

import numpy as np
import pytest

from ktsbm import (
    Graph,
    LabelVector,
    PenaltySpec,
    SbmParams,
    SparseSchedule,
    ValidationError,
    cell_stats,
    estimate_order,
    fit_marginal_ml,
    log_kt_graph_given_labels,
    log_kt_labels,
    log_kt_marginal_exact,
    log_kt_marginal_mc,
    penalty,
    profile_label_search,
    sample_sbm,
)
from ktsbm.experiments import ExperimentConfig, gamma_suite, run_consistency

G = Graph.from_edges(4, [(0, 1), (2, 3)])
SPEC = PenaltySpec(1.0)
PARAMS = SbmParams(k=1, pi=[1.0], P=[[0.5]])
CONFIG = dict(
    k0=1, pi0=[1.0], P0=[[0.5]], regime="dense", n_grid=[4], trials=1,
    epsilon=1.0, k_max=2, kt_method="exact", master_seed=1,
)

SIZE_ARGUMENTS = {
    "ExperimentConfig.k0": lambda v: ExperimentConfig(**{**CONFIG, "k0": v}),
    "ExperimentConfig.trials": lambda v: ExperimentConfig(**{**CONFIG, "trials": v}),
    "ExperimentConfig.k_max": lambda v: ExperimentConfig(**{**CONFIG, "k_max": v}),
    "ExperimentConfig.master_seed": lambda v: ExperimentConfig(**{**CONFIG, "master_seed": v}),
    "ExperimentConfig.n_grid": lambda v: ExperimentConfig(**{**CONFIG, "n_grid": [v]}),
    "log_kt_marginal_exact.k": lambda v: log_kt_marginal_exact(G, v),
    "log_kt_marginal_mc.k": lambda v: log_kt_marginal_mc(G, v, 1000, 0),
    "log_kt_marginal_mc.samples": lambda v: log_kt_marginal_mc(G, 2, v, 0),
    "profile_label_search.k": lambda v: profile_label_search(G, v),
    "profile_label_search.restarts": lambda v: profile_label_search(G, 2, restarts=v),
    "fit_marginal_ml.k": lambda v: fit_marginal_ml(G, v),
    "fit_marginal_ml.starts": lambda v: fit_marginal_ml(G, 2, starts=v),
    "SbmParams.k": lambda v: SbmParams(k=v, pi=[1.0], P=[[0.5]]),
    "LabelVector.k": lambda v: LabelVector([1], v),
    "Graph.n": lambda v: Graph(v, np.zeros(0, dtype=bool)),
    "Graph.from_edges.n": lambda v: Graph.from_edges(v, []),
    "cell_stats.k": lambda v: cell_stats(LabelVector([1, 1, 1, 1], 1), G, v),
    "log_kt_graph_given_labels.k": lambda v: log_kt_graph_given_labels(LabelVector([1, 1, 1, 1], 1), G, v),
    "log_kt_labels.k": lambda v: log_kt_labels(LabelVector([], 1), v),
    "sample_sbm.n": lambda v: sample_sbm(PARAMS, v, 0),
    "SparseSchedule.rho.n": lambda v: SparseSchedule(S0=[[0.5]], c=1.0, alpha=0.0).rho(v),
    "penalty.k": lambda v: penalty(v, 10, SPEC),
    "penalty.n": lambda v: penalty(2, v, SPEC),
    "estimate_order.k_max": lambda v: estimate_order(G, SPEC, k_max=v),
    "run_consistency.threads": lambda v: run_consistency(ExperimentConfig(**CONFIG), threads=v, log=None),
    "gamma_suite.count": lambda v: gamma_suite(count=v),
}


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", sorted(SIZE_ARGUMENTS))
def test_size_arguments_reject_non_integers(name, value):
    with pytest.raises(ValidationError, match="must be an integer >= "):
        SIZE_ARGUMENTS[name](value)


# past the table cap at k=4, so profile search is local and reads its seed
G13 = Graph(13, np.zeros(13 * 12 // 2, dtype=bool))

SEED_ARGUMENTS = {
    "sample_sbm.seed": lambda v: sample_sbm(PARAMS, 4, v),
    "log_kt_marginal_mc.seed": lambda v: log_kt_marginal_mc(G, 2, 100, v),
    "estimate_order.seed": lambda v: estimate_order(G, SPEC, k_max=2, kt_method="mc:100", seed=v),
    "profile_label_search.seed": lambda v: profile_label_search(G13, 4, restarts=1, seed=v),
    "fit_marginal_ml.seed": lambda v: fit_marginal_ml(G, 2, starts=1, seed=v),
    "gamma_suite.seed": lambda v: gamma_suite(count=1, seed=v),
}


@pytest.mark.parametrize("value", [2.5, True, -1, 2**64], ids=["float", "bool", "negative", "2**64"])
@pytest.mark.parametrize("name", sorted(SEED_ARGUMENTS))
def test_seed_arguments_reject_all_but_64_bit_integers(name, value):
    # 2.5 raised TypeError, True was seed 1, -1 aliased 2**64 - 1 and 2**64 aliased 0
    with pytest.raises(ValidationError, match="seed must be an integer >= 0 and <= 18446744073709551615"):
        SEED_ARGUMENTS[name](value)


@pytest.mark.parametrize("name", sorted(SEED_ARGUMENTS))
def test_seed_arguments_take_both_ends_of_the_range(name):
    for value in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        SEED_ARGUMENTS[name](value)


@pytest.mark.parametrize("name", ["cell_stats.k", "log_kt_graph_given_labels.k", "log_kt_labels.k"])
def test_per_labeling_block_counts_reject_zero(name):
    # k = 0 gave log K(z) = NaN for the empty labeling
    with pytest.raises(ValidationError, match="k must be an integer >= 1"):
        SIZE_ARGUMENTS[name](0)
