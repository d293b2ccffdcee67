"""The benchmark's four workloads: seeded inputs, the timed call, and the
checks on its output.

Every reference value a check compares against is computed here with
``math.lgamma`` from the graph and the planted labels alone, except the
Monte Carlo reference at n <= 12, which comes from the program's exact
enumeration (an independent algorithm).  No check compares against a stored
copy of earlier output.

The program is called through its module objects (``selection.estimate_order``
rather than a name imported once), so the traced run's wrappers see every
call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ktsbm import experiments, kt, selection
from ktsbm.sbm import Graph

EPSILON = 1.0
LOG_PI = math.log(math.pi)
LG_HALF = math.lgamma(0.5)
TOL = 1e-9

# Planted two-block models, equal block weights: PLANTED for exact_n12 (whose
# sparse graphs scale it by n**-0.5) and consistency, MC_PLANTED for mc_kt.
PLANTED = ((0.9, 0.1), (0.1, 0.9))
MC_PLANTED = ((0.8, 0.2), (0.2, 0.8))
MC_SAMPLES = 50_000
MC_SIZES = (10, 12, 20, 30)
# n >= 20 items fail their check: there prior-sampling Monte Carlo KT lands
# far below a guaranteed lower bound while its standard error stays near 1.
MC_FAULT_MIN_N = 20


def mix(*parts: int) -> int:
    """A 63-bit seed from integer coordinates, independent of ktsbm.seeds."""
    return int(np.random.SeedSequence([p & (2**63 - 1) for p in parts]).generate_state(1, np.uint64)[0] >> 1)


def planted_graph(n: int, probs, seed: int, edges: int | None = None) -> tuple[np.ndarray, Graph]:
    """0-based labels drawn i.i.d. from (1/2, 1/2) and a graph with
    independent edges of probability probs[z_i][z_j].  With `edges` given,
    (labels, graph) is redrawn until the graph has exactly that many edges:
    the planted model conditioned on its edge count."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    while True:
        labels = rng.integers(0, 2, size=n)
        pairs = rng.random(iu.size) < np.asarray(probs)[labels[iu], labels[ju]]
        if edges is None or pairs.sum() == edges:
            return labels, Graph(n, pairs)


# --- closed forms, all in math.lgamma -------------------------------------


def log_beta_cell(edges: int, pairs: int) -> float:
    """Beta(1/2, 1/2) predictive of one cell with `pairs` node pairs and
    `edges` edges; an empty cell contributes 0."""
    if pairs == 0:
        return 0.0
    return math.lgamma(edges + 0.5) + math.lgamma(pairs - edges + 0.5) - math.lgamma(pairs + 1.0) - LOG_PI


def log_kt_one_block(n: int, m: int) -> float:
    """log K_1(x) for a graph with m edges on n nodes."""
    return log_beta_cell(m, n * (n - 1) // 2)


def log_kt_joint(labels, edges, k: int) -> float:
    """log K(z) + log K(x|z) for 0-based labels z with values below k."""
    labels = [int(v) for v in labels]
    n = len(labels)
    sizes = [0] * k
    for v in labels:
        sizes[v] += 1
    value = math.lgamma(k / 2.0) - k * LG_HALF - math.lgamma(n + k / 2.0)
    value += sum(math.lgamma(s + 0.5) for s in sizes)
    cell_edges: dict[tuple[int, int], int] = {}
    for i, j in edges:
        a, b = sorted((labels[i], labels[j]))
        cell_edges[a, b] = cell_edges.get((a, b), 0) + 1
    for a in range(k):
        for b in range(a, k):
            pairs = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            value += log_beta_cell(cell_edges.get((a, b), 0), pairs)
    return value


def planted_lower_bound(labels, edges, k: int) -> float:
    """log K_k(z) + log K(x|z) at the planted labels, every label above k
    mapped to k: one term of the sum K_k(x), so a lower bound on it."""
    return log_kt_joint(np.minimum(labels, k - 1), edges, k)


def penalty(k: int, n: int) -> float:
    """pen(k, n) in closed form."""
    coeff = k * (k - 1) * (2 * k - 1) / 12 + k * (k - 1) / 2 + (3 + EPSILON) * (k - 1) / 2
    return coeff * math.log(n)


def first_argmax(values) -> int:
    """1-based index of the first maximum (ties go to the smallest k)."""
    best = max(values)
    return next(i for i, v in enumerate(values) if v == best) + 1


# --- output checks: each returns a list of problems, empty when it holds ----


def check_rows(rows, k_hat: int, n: int, m: int) -> list[str]:
    """Checks every order table shares: rows k = 1..k_max, the k=1 closed
    form, the closed-form penalty, score = log_kt - pen, log K_k <= 0, and
    k_hat the smallest argmax."""
    problems = []
    if [r.k for r in rows] != list(range(1, len(rows) + 1)):
        return [f"rows are not k = 1..{len(rows)}"]
    closed = log_kt_one_block(n, m)
    if abs(rows[0].log_kt - closed) > TOL:
        problems.append(f"log K_1 = {rows[0].log_kt!r}, closed form {closed!r}")
    for r in rows:
        pen = penalty(r.k, n)
        if abs(r.pen - pen) > TOL:
            problems.append(f"pen({r.k}) = {r.pen!r}, closed form {pen!r}")
        if abs(r.score - (r.log_kt - pen)) > TOL:
            problems.append(f"score_{r.k} = {r.score!r} is not log_kt - pen = {r.log_kt - pen!r}")
        if r.log_kt > 0.0:
            problems.append(f"log K_{r.k} = {r.log_kt!r} > 0")
    best = first_argmax([r.log_kt - penalty(r.k, n) for r in rows])
    if k_hat != best:
        problems.append(f"k_hat = {k_hat}, smallest argmax is {best}")
    return problems


def check_exact_table(rows, k_hat: int, labels, edges, n: int) -> list[str]:
    problems = check_rows(rows, k_hat, n, len(edges))
    for r in rows:
        bound = planted_lower_bound(labels, edges, r.k)
        if r.log_kt < bound - TOL:
            problems.append(f"log K_{r.k} = {r.log_kt!r} below the planted-label term {bound!r}")
    return problems


def check_mc_table(rows, k_hat: int, labels, edges, n: int, exact: dict | None) -> list[str]:
    """Monte Carlo rows: within 4 se of `exact` (k -> log K_k) when given,
    else at or above the planted-label lower bound less 4 se."""
    problems = check_rows(rows, k_hat, n, len(edges))
    for r in rows[1:]:
        se = r.std_error
        if exact is not None:
            if abs(r.log_kt - exact[r.k]) > 4.0 * se:
                problems.append(f"k={r.k}: mc {r.log_kt:.4f} is {abs(r.log_kt - exact[r.k]) / se:.1f} se from exact {exact[r.k]:.4f}")
        else:
            bound = planted_lower_bound(labels, edges, r.k)
            if r.log_kt < bound - 4.0 * se:
                problems.append(f"k={r.k}: mc {r.log_kt:.4f} (se {se:.3f}) below the lower bound {bound:.4f}")
    return problems


def check_consistency_outputs(config, paths, regenerate) -> list[str]:
    """Check the written trials.csv and summary.csv of one experiment.
    `regenerate(n, seed)` returns the graph a trial ran on."""
    problems = []
    with open(paths["trials"], newline="") as fh:
        trials = list(csv.DictReader(fh))
    if len(trials) != len(config.n_grid) * config.trials:
        problems.append(f"trials.csv has {len(trials)} rows, expected {len(config.n_grid) * config.trials}")
    k_hats: dict[int, list[int]] = {n: [] for n in config.n_grid}
    for row in trials:
        n, k_hat = int(row["n"]), int(row["k_hat"])
        k_hats.setdefault(n, []).append(k_hat)
        scores = [float(row[f"score_{k}"]) for k in range(1, min(n, config.k_max) + 1)]
        graph = regenerate(n, int(row["seed"]))
        closed = log_kt_one_block(n, graph.edge_count)
        tag = f"n={n} trial {row['trial_index']}"
        if abs(scores[0] - closed) > TOL:
            problems.append(f"{tag}: score_1 = {scores[0]!r}, closed form {closed!r}")
        if k_hat != first_argmax(scores):
            problems.append(f"{tag}: k_hat = {k_hat}, smallest argmax is {first_argmax(scores)}")
        for k, s in enumerate(scores, start=1):
            if s > -penalty(k, n) + TOL:
                problems.append(f"{tag}: score_{k} = {s!r} above -pen = {-penalty(k, n)!r}")
    with open(paths["summary"], newline="") as fh:
        summary = list(csv.DictReader(fh))
    if [int(r["n"]) for r in summary] != list(config.n_grid):
        problems.append("summary.csv does not list the grid")
    for row in summary:
        n = int(row["n"])
        rates = [float(row[c]) for c in ("frac_correct", "frac_under", "frac_over")]
        if abs(sum(rates) - 1.0) > 1e-12:
            problems.append(f"n={n}: rates sum to {sum(rates)!r}")
        ks = k_hats.get(n, [])
        counted = [sum(k == config.k0 for k in ks), sum(k < config.k0 for k in ks), sum(k > config.k0 for k in ks)]
        if int(row["trials"]) != len(ks) or any(abs(r - c / max(len(ks), 1)) > 1e-12 for r, c in zip(rates, counted)):
            problems.append(f"n={n}: summary {row} disagrees with the trials")
    return problems


def check_prop31_report(report) -> list[str]:
    problems = []
    if not report.ok:
        problems.append("the Prop. 3.1 bound failed: " + "; ".join(report.lines()))
    if len(report.checks) != 1 or "over 64 graphs" not in report.checks[0][2]:
        problems.append(f"the report does not cover the 64 graphs on 4 nodes: {list(report.lines())}")
    return problems


def check_em_histories(fits) -> list[str]:
    """Exact-EM log-likelihood traces never decrease (to rounding)."""
    problems = []
    for fit in fits:
        if fit.estep != "exact":
            continue
        h = fit.history
        drops = [i for i in range(1, len(h)) if h[i] < h[i - 1] - 1e-9 * max(1.0, abs(h[i - 1]))]
        if drops:
            problems.append(f"exact-EM history drops at iteration {drops[0]}: {h[drops[0] - 1]!r} -> {h[drops[0]]!r}")
    return problems


# --- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    """One timed call: its inputs, and whether a known fault of the program makes it fail."""

    label: str
    graph: Graph | None = None
    labels: np.ndarray | None = None
    seed: int = 0
    config: object = None
    known_fault: bool = False


class ExactN12:
    """estimate_order on planted graphs at n=12, k_max=4 (700 075 canonical
    partitions).  A round is one dense, one sparse and one dense graph, each
    round drawn afresh from the seed.

    The work of a call grows with the edge count m (graph_cell_edges is
    P*m lookups), so each regime's graphs are drawn at a fixed m, near its
    mean: without that, a run's time and peak RSS follow the m of the
    graphs it drew as much as the program's speed."""

    name = "exact_n12"
    n = 12
    k_max = 4
    # (edge probability scale, edge count): dense, sparse (rho = n**-0.5), dense
    REGIMES = (("dense", 1.0, 33), ("sparse", n**-0.5, 10), ("dense", 1.0, 33))

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.relabeled = False

    def round(self, r: int) -> list[Item]:
        items = []
        for j, (regime, rho, m) in enumerate(self.REGIMES):
            labels, graph = planted_graph(self.n, rho * np.asarray(PLANTED), mix(self.seed, 12, r, j), edges=m)
            items.append(Item(label=f"{regime} m={m}", graph=graph, labels=labels))
        return items

    def call(self, item: Item):
        return selection.estimate_order(item.graph, selection.PenaltySpec(EPSILON), k_max=self.k_max)

    def check(self, item: Item, out, fits) -> list[str]:
        k_hat, table = out
        problems = check_exact_table(table.rows, k_hat, item.labels, item.graph.edges(), self.n)
        if not self.relabeled:
            self.relabeled = True
            problems += self.check_relabeled(item, table)
        return problems

    def check_relabeled(self, item: Item, table) -> list[str]:
        """Relabeling the nodes of the graph leaves the table unchanged."""
        perm = np.random.default_rng(mix(self.seed, 12, 0xA)).permutation(self.n)
        _, again = self.call(Item(label="relabeled", graph=Graph.from_edges(self.n, perm[item.graph.edges()])))
        return [
            f"relabeling changed log K_{a.k}: {a.log_kt!r} -> {b.log_kt!r}"
            for a, b in zip(table.rows, again.rows)
            if abs(a.log_kt - b.log_kt) > TOL
        ]


class Consistency:
    """run_consistency + write_outputs of a small dense experiment: k0=2,
    n_grid (8, 10), 6 trials per size, exact KT, k_max=4.

    Round r runs master seed r mod CYCLE of this seed.  A call's peak
    memory follows the largest edge count among its trials, so with a new
    master seed every round the peak RSS of a run would keep rising with
    the number of rounds, that is with the machine's speed; over a fixed
    cycle of experiments it is reached within the first cycle."""

    name = "consistency"
    trials = 6
    CYCLE = 8

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir / "consistency"

    def round(self, r: int) -> list[Item]:
        config = experiments.ExperimentConfig(
            k0=2, pi0=(0.5, 0.5), P0=PLANTED, regime="dense", n_grid=(8, 10), trials=self.trials,
            epsilon=EPSILON, k_max=4, kt_method="exact", master_seed=mix(self.seed, 8, r % self.CYCLE),
            output_path=str(self.out_dir),
        )
        return [Item(label=f"master_seed={config.master_seed}", config=config)]

    def call(self, item: Item):
        records = experiments.run_consistency(item.config, threads=1, log=None)
        return experiments.write_outputs(item.config, records, self.out_dir)

    def check(self, item: Item, paths, fits) -> list[str]:
        config = item.config

        def regenerate(n, seed):
            return experiments.sample_sbm(config.params_at(n), n, seed)[1]

        return check_consistency_outputs(config, paths, regenerate)


class Prop31Em:
    """One pass of prop31_suite over the 64 graphs on 4 nodes with k=2: a
    16-start exact EM fit per graph.  Every item repeats the same call."""

    name = "prop31_em"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def round(self, r: int) -> list[Item]:
        return [Item(label=f"suite seed={self.seed}", seed=self.seed)]

    def call(self, item: Item):
        return experiments.prop31_suite(n_values=(4,), k_values=(2,), seed=item.seed)

    def check(self, item: Item, report, fits) -> list[str]:
        problems = check_prop31_report(report)
        if fits is not None:
            problems += check_em_histories(fits)
        return problems


class McKt:
    """estimate_order with Monte Carlo KT (MC_SAMPLES prior draws per k) on
    planted graphs at n = 10, 12, 20 and 30, k_max=3.

    The inputs do not depend on the seed: the Monte Carlo check is
    statistical, so on seeded graphs and draws its outcome would vary from
    seed to seed.  Every round repeats the same four calls."""

    name = "mc_kt"
    k_max = 3

    def __init__(self, seed: int, out_dir: Path):
        self.items = []
        self.exact: dict[int, dict[int, float] | None] = {}
        for n in MC_SIZES:
            labels, graph = planted_graph(n, MC_PLANTED, mix(30, n))
            fault = n >= MC_FAULT_MIN_N
            self.items.append(Item(label=f"n={n} m={graph.edge_count}", graph=graph, labels=labels, seed=mix(31, n), known_fault=fault))

    def round(self, r: int) -> list[Item]:
        return self.items

    def call(self, item: Item):
        return selection.estimate_order(
            item.graph, selection.PenaltySpec(EPSILON), k_max=self.k_max, kt_method=f"mc:{MC_SAMPLES}", seed=item.seed
        )

    def check(self, item: Item, out, fits) -> list[str]:
        n = item.graph.n
        if n not in self.exact:
            self.exact[n] = None if n >= MC_FAULT_MIN_N else {
                k: kt.log_kt_marginal_exact(item.graph, k).log_value for k in range(2, self.k_max + 1)
            }
        k_hat, table = out
        return check_mc_table(table.rows, k_hat, item.labels, item.graph.edges(), n, self.exact[n])


WORKLOADS = {w.name: w for w in (ExactN12, Consistency, Prop31Em, McKt)}
