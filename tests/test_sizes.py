"""Every size argument goes through one rule: an integer (not bool) >= its floor."""

import numpy as np
import pytest

from ktsbm import (
    Graph,
    LabelVector,
    PenaltySpec,
    SbmParams,
    SparseSchedule,
    ValidationError,
    estimate_order,
    fit_marginal_ml,
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
    "profile_label_search.restarts": lambda v: profile_label_search(G, 2, mode="local", restarts=v),
    "fit_marginal_ml.k": lambda v: fit_marginal_ml(G, v),
    "fit_marginal_ml.starts": lambda v: fit_marginal_ml(G, 2, starts=v),
    "SbmParams.k": lambda v: SbmParams(k=v, pi=[1.0], P=[[0.5]]),
    "LabelVector.k": lambda v: LabelVector([1], v),
    "Graph.n": lambda v: Graph(v, np.zeros(0, dtype=bool)),
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
