import json

import numpy as np
import pytest

from ktsbm import ValidationError
from ktsbm.experiments import (
    ExperimentConfig,
    gamma_suite,
    lemma_a2_suite,
    prop31_suite,
    run_consistency,
    write_outputs,
)


def small_config(**kw):
    base = dict(
        k0=1,
        pi0=(1.0,),
        P0=((0.5,),),
        regime="dense",
        n_grid=(4, 6),
        trials=10,
        epsilon=1.0,
        k_max=3,
        kt_method="exact",
        master_seed=99,
        output_path=".",
    )
    base.update(kw)
    return ExperimentConfig.from_dict(base)


def test_config_round_trip_lossless(tmp_path):
    cfg = small_config(epsilon=0.1 + 0.2, master_seed=2**63 + 11)  # awkward float + big int
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    with open(path) as fh:
        back = ExperimentConfig.from_dict(json.load(fh))
    assert back == cfg
    assert back.epsilon == cfg.epsilon  # bit-exact float round trip


def test_config_validation():
    with pytest.raises(ValidationError):
        small_config(n_grid=(6, 4))
    with pytest.raises(ValidationError):
        small_config(trials=0)
    with pytest.raises(ValidationError):
        small_config(regime="bogus")
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({**small_config().to_dict(), "surprise": 1})


def test_master_seed_range():
    # seeds are keys of a 64-bit generator: [0, 2**64), no aliasing modulo 2**64
    assert small_config(master_seed=0).master_seed == 0
    assert small_config(master_seed=2**64 - 1).master_seed == 2**64 - 1
    for seed in (-1, 2**64, 2**64 + 99):
        with pytest.raises(ValidationError, match="master_seed must be an integer >= 0 and <= 18446744073709551615"):
            small_config(master_seed=seed)
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0 and <= "):
            gamma_suite(count=1, seed=seed)


def test_run_consistency_thread_independence(tmp_path):
    cfg = small_config()
    r1 = run_consistency(cfg, threads=1, log=None)
    r4 = run_consistency(cfg, threads=4, log=None)
    assert [(r.n, r.trial_index, r.seed, r.k_hat, r.scores) for r in r1] == [
        (r.n, r.trial_index, r.seed, r.k_hat, r.scores) for r in r4
    ]
    d1, d4 = tmp_path / "a", tmp_path / "b"
    p1 = write_outputs(cfg, r1, d1)
    p4 = write_outputs(cfg, r4, d4)
    for key in ("trials", "summary", "config"):
        assert p1[key].read_bytes() == p4[key].read_bytes()


def test_trials_csv_schema(tmp_path):
    cfg = small_config()
    records = run_consistency(cfg, log=None)
    paths = write_outputs(cfg, records, tmp_path)
    lines = paths["trials"].read_text().splitlines()
    assert lines[0] == "n,trial_index,seed,k_hat,kt_method,score_1,score_2,score_3"
    assert len(lines) == 1 + len(cfg.n_grid) * cfg.trials
    data = paths["trials"].read_bytes()
    assert b"\r" not in data


def test_summary_rates_sum_to_one(tmp_path):
    cfg = small_config(trials=25)
    records = run_consistency(cfg, log=None)
    paths = write_outputs(cfg, records, tmp_path)
    lines = paths["summary"].read_text().splitlines()
    assert lines[0] == "n,rho_n,trials,frac_correct,frac_under,frac_over"
    for ln in lines[1:]:
        _, _, _, c, u, o = ln.split(",")
        total = float(c) + float(u) + float(o)
        assert total == pytest.approx(1.0)
        assert 0.0 <= float(c) <= 1.0


def test_sparse_rho_column():
    cfg = small_config(
        k0=2,
        pi0=(0.5, 0.5),
        P0=((0.8, 0.2), (0.2, 0.8)),
        regime="sparse",
        c=1.0,
        alpha=0.4,
        n_grid=(5, 9),
        trials=2,
    )
    for n in cfg.n_grid:
        assert cfg.rho_at(n) == pytest.approx(n**-0.4)
        assert np.allclose(cfg.params_at(n).P, n**-0.4 * np.array(cfg.P0))


def test_gamma_suite_passes():
    rep = gamma_suite(count=300, seed=5)
    assert rep.ok


def test_prop31_suite_is_certified_without_em(monkeypatch):
    from ktsbm import likelihood

    def no_em(*args):
        raise AssertionError("prop31_suite ran EM")

    monkeypatch.setattr(likelihood, "_em_runs", no_em)
    rep = prop31_suite(n_values=(4,), k_values=(1, 2, 3))
    assert rep.ok
    for label, _, detail in rep.checks:
        assert label.endswith("(certified)")
        assert detail.startswith("worst slack ") and detail.endswith(" over 64 graphs")
    # em_starts and seed have no effect
    assert prop31_suite(n_values=(4,), k_values=(2,), em_starts=2, seed=3).checks == rep.checks[1:2]


def test_prop31_suite_counts_each_graph_once(monkeypatch):
    # each of the 64 graphs on 4 nodes is counted exactly once, in one
    # batched walk down the prefix tree
    from ktsbm import partitions

    batches = []
    walk = partitions.graph_cell_edges
    monkeypatch.setattr(partitions, "graph_cell_edges", lambda *args: batches.append(args[1:]) or walk(*args))
    assert prop31_suite(n_values=(4,), k_values=(2,)).ok
    [(edges, bits)] = batches
    assert np.array_equal(edges, np.argwhere(np.triu(np.ones((4, 4)), 1)))  # pair i is bit i
    codes = bits.astype(np.int64) @ (1 << np.arange(6))
    assert sorted(codes.tolist()) == list(range(64))


def test_prop31_suite_memory_follows_the_byte_budget(monkeypatch):
    # under a 64 KiB budget the 32 768 graphs on 6 nodes peak at about
    # 200 KiB traced, 3.2 times the budget: their edge bits alone take
    # 480 KiB, and the values of both terms for every graph 512 KiB
    import tracemalloc

    from ktsbm import Graph, partitions, verify_prop31

    budget = 64 << 10
    monkeypatch.setattr(partitions, "_STATS_BYTES", budget)
    verify_prop31(Graph.from_edges(6, []), 1)  # build the table and log-Gamma tables first
    tracemalloc.start()
    try:
        assert prop31_suite(n_values=(6,), k_values=(1,)).ok
        assert tracemalloc.get_traced_memory()[1] < 4 * budget
    finally:
        tracemalloc.stop()


def test_prop31_suite_certifies_every_graph_on_6_nodes():
    # 32 768 graphs in one batched pass per k, about 0.2 s
    rep = prop31_suite(n_values=(6,), k_values=(1, 2))
    assert rep.ok
    assert [d for _, _, d in rep.checks] == [
        "worst slack -1.6100 over 32768 graphs",
        "worst slack -7.0095 over 32768 graphs",
    ]


def test_lemma_a2_suite_passes():
    rep = lemma_a2_suite()
    assert rep.ok
    # the k=3 bound at n=4 is tiny, so the empirical rate must be zero
    label, ok, detail = rep.checks[1]
    assert "k_hat=3" in label and ok
