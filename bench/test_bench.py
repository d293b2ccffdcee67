"""Tests of the benchmark's own checks.

    PYTHONPATH=src python3 -m pytest -q bench

The exact-path checker is compared with a brute-force sum over all k**n
labelings, written here with math.lgamma (through workloads.log_kt_joint),
without ktsbm.partitions or ktsbm.kt.  Every output check must reject a
corrupted output.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads as wl  # noqa: E402
from ktsbm import experiments, kt, selection  # noqa: E402
from ktsbm.experiments import SuiteReport  # noqa: E402
from ktsbm.likelihood import FitResult  # noqa: E402


def brute_force_log_kt(n: int, edges, k: int) -> float:
    """log sum over all k**n labelings z of K(z) K(x|z)."""
    terms = [wl.log_kt_joint(z, edges, k) for z in itertools.product(range(k), repeat=n)]
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def estimate(graph, k_max=4):
    return selection.estimate_order(graph, selection.PenaltySpec(wl.EPSILON), k_max=k_max)


GRAPHS = [
    (n, rho, seed)
    for n in (5, 6, 7, 8)
    for rho, seed in ((1.0, 11), (n**-0.5, 12))
]


@pytest.mark.parametrize("n,rho,seed", GRAPHS)
def test_exact_checker_agrees_with_brute_force(n, rho, seed):
    labels, graph = wl.planted_graph(n, rho * np.asarray(wl.PLANTED), seed)
    edges = graph.edges()
    k_hat, table = estimate(graph)
    brute = {k: brute_force_log_kt(n, edges, k) for k in range(1, 5)}
    for row in table.rows:
        assert row.log_kt == pytest.approx(brute[row.k], abs=1e-9)
    assert wl.check_exact_table(table.rows, k_hat, labels, edges, n) == []
    # a table made from the brute-force sums passes the same checks
    rows = [dataclasses.replace(r, log_kt=brute[r.k], score=brute[r.k] - r.pen) for r in table.rows]
    best = wl.first_argmax([r.score for r in rows])
    assert wl.check_exact_table(rows, best, labels, edges, n) == []


@pytest.fixture(scope="module")
def exact_case():
    labels, graph = wl.planted_graph(8, wl.PLANTED, 21)
    k_hat, table = estimate(graph)
    return labels, graph.edges(), k_hat, table.rows


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exact_checker_rejects_shifted_score(exact_case, k):
    labels, edges, k_hat, rows = exact_case
    rows = list(rows)
    rows[k - 1] = dataclasses.replace(rows[k - 1], score=rows[k - 1].score + 1e-6)
    assert wl.check_exact_table(rows, k_hat, labels, edges, 8)


def test_exact_checker_rejects_shifted_log_k1(exact_case):
    labels, edges, k_hat, rows = exact_case
    rows = list(rows)
    rows[0] = dataclasses.replace(rows[0], log_kt=rows[0].log_kt + 1e-6, score=rows[0].score + 1e-6)
    assert wl.check_exact_table(rows, k_hat, labels, edges, 8)


@pytest.mark.parametrize("step", [-1, 1])
def test_exact_checker_rejects_k_hat_off_by_one(exact_case, step):
    labels, edges, k_hat, rows = exact_case
    rows = list(rows)
    assert wl.check_exact_table(rows, k_hat, labels, edges, 8) == []
    assert wl.check_exact_table(rows, k_hat + step, labels, edges, 8)


def test_exact_checker_rejects_value_below_planted_term(exact_case):
    labels, edges, k_hat, rows = exact_case
    rows = list(rows)
    bound = wl.planted_lower_bound(labels, edges, 2)
    low = bound - 1e-6
    rows[1] = dataclasses.replace(rows[1], log_kt=low, score=low - rows[1].pen)
    assert any("planted-label" in p for p in wl.check_exact_table(rows, k_hat, labels, edges, 8))


# --- consistency -------------------------------------------------------------


@pytest.fixture()
def consistency_run(tmp_path):
    config = experiments.ExperimentConfig(
        k0=2, pi0=(0.5, 0.5), P0=wl.PLANTED, regime="dense", n_grid=(6, 8), trials=3,
        epsilon=wl.EPSILON, k_max=4, kt_method="exact", master_seed=5, output_path=str(tmp_path),
    )
    records = experiments.run_consistency(config, threads=1, log=None)
    paths = experiments.write_outputs(config, records, tmp_path)

    def check():
        return wl.check_consistency_outputs(
            config, paths, lambda n, seed: experiments.sample_sbm(config.params_at(n), n, seed)[1]
        )

    return paths, check


def _edit_csv(path, row_index, column, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows[row_index][column] = edit(rows[row_index][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_consistency_outputs_pass(consistency_run):
    _, check = consistency_run
    assert check() == []


@pytest.mark.parametrize("column", ["score_1", "score_2"])
def test_consistency_rejects_shifted_score(consistency_run, column):
    paths, check = consistency_run
    # score_1 fails its closed form; score_2 is pushed above -pen(2, n)
    shift = 1e-6 if column == "score_1" else None
    with open(paths["trials"], newline="") as fh:
        first = next(csv.DictReader(fh))
    if shift is None:
        shift = -wl.penalty(2, int(first["n"])) - float(first["score_2"]) + 1e-6
    _edit_csv(paths["trials"], 0, column, lambda v: repr(float(v) + shift))
    assert check()


@pytest.mark.parametrize("step", [-1, 1])
def test_consistency_rejects_k_hat_off_by_one(consistency_run, step):
    paths, check = consistency_run
    _edit_csv(paths["trials"], 0, "k_hat", lambda v: str(int(v) + step))
    assert check()


@pytest.mark.parametrize("column", ["frac_correct", "frac_under", "frac_over"])
def test_consistency_rejects_changed_summary_rate(consistency_run, column):
    paths, check = consistency_run
    _edit_csv(paths["summary"], 0, column, lambda v: repr(abs(float(v) - 1.0 / 3.0)))
    assert check()


def test_consistency_rejects_missing_trial(consistency_run):
    paths, check = consistency_run
    lines = Path(paths["trials"]).read_text().splitlines(keepends=True)
    Path(paths["trials"]).write_text("".join(lines[:-1]))
    assert check()


# --- prop31 ---------------------------------------------------------------------


def test_prop31_checks():
    report = experiments.prop31_suite(n_values=(4,), k_values=(2,), seed=3, em_starts=2)
    assert wl.check_prop31_report(report) == []
    label, _, detail = report.checks[0]
    assert wl.check_prop31_report(SuiteReport("prop31", ((label, False, detail),)))
    assert wl.check_prop31_report(SuiteReport("prop31", ((label, True, detail.replace("64", "8")),)))


def _fit(history, estep="exact"):
    return FitResult(params=None, log_marginal=history[-1], iterations=len(history),
                     converged=True, estep=estep, history=tuple(history))


def test_em_history_check():
    assert wl.check_em_histories([_fit([-9.0, -8.0, -8.0]), _fit([-5.0, -6.0], estep="meanfield")]) == []
    assert wl.check_em_histories([_fit([-9.0, -8.0, -8.5])])


# --- Monte Carlo ----------------------------------------------------------------


@pytest.fixture(scope="module")
def mc_case():
    labels, graph = wl.planted_graph(10, wl.MC_PLANTED, wl.mix(30, 10))
    k_hat, table = selection.estimate_order(
        graph, selection.PenaltySpec(wl.EPSILON), k_max=3, kt_method="mc:20000", seed=wl.mix(31, 10)
    )
    exact = {k: kt.log_kt_marginal_exact(graph, k).log_value for k in (2, 3)}
    return labels, graph.edges(), k_hat, table.rows, exact


def test_mc_checker_passes_and_rejects_value_10_se_below_exact(mc_case):
    labels, edges, k_hat, rows, exact = mc_case
    rows = list(rows)
    assert wl.check_mc_table(rows, k_hat, labels, edges, 10, exact) == []
    row = rows[1]
    low = exact[2] - 10.0 * row.std_error
    rows[1] = dataclasses.replace(row, log_kt=low, score=low - row.pen)
    best = wl.first_argmax([r.score for r in rows])
    assert wl.check_mc_table(rows, best, labels, edges, 10, exact)


def test_mc_checker_rejects_value_under_lower_bound(mc_case):
    labels, edges, k_hat, rows, _ = mc_case
    rows = list(rows)
    assert wl.check_mc_table(rows, k_hat, labels, edges, 10, None) == []
    row = rows[2]
    low = wl.planted_lower_bound(labels, edges, 3) - 10.0 * row.std_error
    rows[2] = dataclasses.replace(row, log_kt=low, score=low - row.pen)
    best = wl.first_argmax([r.score for r in rows])
    assert wl.check_mc_table(rows, best, labels, edges, 10, None)


def test_mc_checker_rejects_shifted_k1(mc_case):
    labels, edges, k_hat, rows, exact = mc_case
    rows = list(rows)
    rows[0] = dataclasses.replace(rows[0], log_kt=rows[0].log_kt - 1e-6, score=rows[0].score - 1e-6)
    assert wl.check_mc_table(rows, k_hat, labels, edges, 10, exact)


# --- the command ----------------------------------------------------------------


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_kt", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


# --- the tracer -------------------------------------------------------------------


def test_tracer_counts_and_restores():
    from ktsbm import partitions
    from tracing import Tracer, set_partitions

    assert [set_partitions(n, 4) for n in (1, 4, 10, 12)] == [1, 15, 43947, 700075]
    original = selection.estimate_order
    tracer = Tracer()
    tracer.install()
    try:
        assert selection.estimate_order is not original
        tracer.set_phase("timed")
        _, graph = wl.planted_graph(7, wl.PLANTED, 3)
        estimate(graph, k_max=3)
        tracer.set_phase("check")
        metrics, absent = tracer.layer_metrics(items=1, setups=1)
    finally:
        tracer.uninstall()
    assert selection.estimate_order is original
    assert absent == []
    P = partitions.partition_count(7, 3)
    assert metrics["selection.estimate_order.cells_scored"]["value"] == P * 6
    assert metrics["partitions.graph_cell_edges.lookups"]["value"] == P * graph.edge_count
    assert metrics["selection.estimate_order.self_s"]["value"] > 0
    assert metrics["kt.log_kt_marginal_mc.self_s"]["value"] == 0
