"""Seeded simulation harness and verification suites.

Consistency experiments sample graphs over a grid of sizes, run the order
estimator on each, and write per-trial and per-size summary CSVs.  Every
output byte is a pure function of (config, master_seed): trial seeds are
derived as mix(master_seed, n, trial_index), workers only parallelize
independent trials, and records are sorted before writing.  Wall-clock
timings are kept on the in-memory records and in stderr logs only, so CSVs
stay byte-identical across thread counts.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .kt import gamma_composition_inequality, log_kt_marginal_exact, verify_prop31
from .likelihood import fit_marginal_ml_batch
from .sbm import LabelVector, SbmParams, SparseSchedule, enumerate_graphs, realize_sparse, sample_sbm
from .selection import PenaltySpec, estimate_order, overestimation_bound, parse_kt_method
from .seeds import derive_seed, rng_from_seed

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "run_consistency",
    "write_trials_csv",
    "write_summary_csv",
    "normalization_suite",
    "prop31_suite",
    "gamma_suite",
    "lemma_a2_suite",
    "SuiteReport",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully explicit description of a consistency experiment.

    ``regime`` is "dense" (P0 used as-is at every n) or "sparse"
    (P0 interpreted as the base matrix S0, scaled by c * n**-alpha).
    """

    k0: int
    pi0: tuple[float, ...]
    P0: tuple[tuple[float, ...], ...]
    regime: str
    n_grid: tuple[int, ...]
    trials: int
    epsilon: float
    k_max: int
    kt_method: str
    master_seed: int
    c: float = 1.0
    alpha: float = 0.0
    output_path: str = "."

    def __post_init__(self):
        if self.regime not in ("dense", "sparse"):
            raise ValidationError(f"regime must be 'dense' or 'sparse', got {self.regime!r}")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValidationError("n_grid must be strictly increasing")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        parse_kt_method(self.kt_method)
        PenaltySpec(self.epsilon)
        object.__setattr__(self, "pi0", tuple(float(v) for v in self.pi0))
        object.__setattr__(self, "P0", tuple(tuple(float(v) for v in row) for row in self.P0))
        object.__setattr__(self, "n_grid", tuple(int(v) for v in self.n_grid))

    def params_at(self, n: int) -> SbmParams:
        pi = np.array(self.pi0)
        P = np.array(self.P0)
        if self.regime == "dense":
            return SbmParams(k=self.k0, pi=pi, P=P)
        return realize_sparse(pi, SparseSchedule(S0=P, c=self.c, alpha=self.alpha), n)

    def rho_at(self, n: int) -> float:
        if self.regime == "dense":
            return 1.0
        return SparseSchedule(S0=np.array(self.P0), c=self.c, alpha=self.alpha).rho(n)

    def to_dict(self) -> dict:
        return {
            "k0": self.k0,
            "pi0": list(self.pi0),
            "P0": [list(r) for r in self.P0],
            "regime": self.regime,
            "c": self.c,
            "alpha": self.alpha,
            "n_grid": list(self.n_grid),
            "trials": self.trials,
            "epsilon": self.epsilon,
            "k_max": self.k_max,
            "kt_method": self.kt_method,
            "master_seed": self.master_seed,
            "output_path": self.output_path,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValidationError(f"unknown config fields: {sorted(extra)}")
        d = dict(d)
        d["pi0"] = tuple(d["pi0"])
        d["P0"] = tuple(tuple(r) for r in d["P0"])
        d["n_grid"] = tuple(d["n_grid"])
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class TrialRecord:
    n: int
    trial_index: int
    seed: int
    k_hat: int
    scores: tuple[float, ...]
    kt_method: str
    std_errors: tuple[float, ...] | None
    wall_time: float


def _run_trial(config: ExperimentConfig, n: int, trial: int) -> TrialRecord:
    seed = derive_seed(config.master_seed, n, trial)
    t0 = time.perf_counter()
    params = config.params_at(n)
    _, graph = sample_sbm(params, n, seed)
    k_hat, table = estimate_order(
        graph,
        PenaltySpec(config.epsilon),
        k_max=min(n, config.k_max),
        kt_method=config.kt_method,
        seed=seed,
    )
    kind, _ = parse_kt_method(config.kt_method)
    std_errors = None
    if kind == "mc":
        std_errors = tuple(float(r.std_error) for r in table.rows)
    return TrialRecord(
        n=n,
        trial_index=trial,
        seed=seed,
        k_hat=k_hat,
        scores=tuple(r.score for r in table.rows),
        kt_method=config.kt_method,
        std_errors=std_errors,
        wall_time=time.perf_counter() - t0,
    )


def run_consistency(config: ExperimentConfig, threads: int = 1, log=sys.stderr) -> list[TrialRecord]:
    """Run all trials of the experiment; deterministic output regardless of
    the worker count."""
    jobs = [(n, t) for n in config.n_grid for t in range(config.trials)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(lambda nt: _run_trial(config, *nt), jobs))
    else:
        records = [_run_trial(config, n, t) for n, t in jobs]
    records.sort(key=lambda r: (r.n, r.trial_index))
    if log is not None:
        total = sum(r.wall_time for r in records)
        print(f"[consistency] {len(records)} trials in {total:.2f}s of work", file=log)
    return records


def _fmt(v: float) -> str:
    return repr(float(v))


def write_trials_csv(path, records: list[TrialRecord], k_max: int, mc: bool) -> None:
    """Per-trial CSV.  Column set is fixed by (k_max, kt kind):
    n,trial_index,seed,k_hat,kt_method,score_1..score_K[,stderr_1..stderr_K].
    Wall-clock time is deliberately not written (outputs must be
    reproducible byte-for-byte)."""
    cols = ["n", "trial_index", "seed", "k_hat", "kt_method"]
    cols += [f"score_{k}" for k in range(1, k_max + 1)]
    if mc:
        cols += [f"stderr_{k}" for k in range(1, k_max + 1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for r in records:
            row = [str(r.n), str(r.trial_index), str(r.seed), str(r.k_hat), r.kt_method]
            scores = list(r.scores) + [float("nan")] * (k_max - len(r.scores))
            row += [_fmt(s) for s in scores]
            if mc:
                errs = list(r.std_errors or ()) + [float("nan")] * (k_max - len(r.std_errors or ()))
                row += [_fmt(e) for e in errs]
            fh.write(",".join(row) + "\n")


def write_summary_csv(path, records: list[TrialRecord], config: ExperimentConfig) -> None:
    """Per-n summary: fraction correct, under- and over-estimation rates
    (the three rates sum to 1), plus rho_n for the sparse regime."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,rho_n,trials,frac_correct,frac_under,frac_over\n")
        for n in config.n_grid:
            rs = [r for r in records if r.n == n]
            t = len(rs)
            correct = sum(r.k_hat == config.k0 for r in rs) / t
            under = sum(r.k_hat < config.k0 for r in rs) / t
            over = sum(r.k_hat > config.k0 for r in rs) / t
            fh.write(
                f"{n},{_fmt(config.rho_at(n))},{t},{_fmt(correct)},{_fmt(under)},{_fmt(over)}\n"
            )


def write_outputs(config: ExperimentConfig, records: list[TrialRecord], out_dir) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind, _ = parse_kt_method(config.kt_method)
    paths = {
        "trials": out / "trials.csv",
        "summary": out / "summary.csv",
        "config": out / "resolved_config.json",
    }
    k_cols = min(max(config.n_grid), config.k_max)
    write_trials_csv(paths["trials"], records, k_cols, mc=kind == "mc")
    write_summary_csv(paths["summary"], records, config)
    with open(paths["config"], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


# ---------------------------------------------------------------------------
# verification suites


@dataclass(frozen=True)
class SuiteReport:
    name: str
    checks: tuple[tuple[str, bool, str], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self):
        for label, ok, detail in self.checks:
            yield f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"


def normalization_suite(tol: float = 1e-10) -> SuiteReport:
    """Exhaustive normalization checks of the three KT components:
    sum_z K(z) = 1 for n <= 6, sum_x K(x|z) = 1 and sum_x K(x) = 1 for
    n <= 4, all with k <= 3."""
    from itertools import product

    from .kt import log_kt_graph_given_labels, log_kt_labels

    checks = []
    for k in (1, 2, 3):
        for n in range(1, 7):
            total = 0.0
            for lab in product(range(1, k + 1), repeat=n):
                total += np.exp(log_kt_labels(LabelVector(lab, k), k))
            err = abs(total - 1.0)
            checks.append((f"sum_z K(z), n={n}, k={k}", err <= tol, f"|total-1|={err:.3e}"))
    for k in (1, 2, 3):
        for n in (2, 3, 4):
            graphs = list(enumerate_graphs(n))
            worst = 0.0
            for lab in product(range(1, k + 1), repeat=n):
                z = LabelVector(lab, k)
                total = sum(np.exp(log_kt_graph_given_labels(z, g, k)) for g in graphs)
                worst = max(worst, abs(total - 1.0))
            checks.append(
                (f"sum_x K(x|z) over all z, n={n}, k={k}", worst <= tol, f"worst |total-1|={worst:.3e}")
            )
            total = sum(np.exp(log_kt_marginal_exact(g, k).log_value) for g in graphs)
            err = abs(total - 1.0)
            checks.append((f"sum_x K(x), n={n}, k={k}", err <= tol, f"|total-1|={err:.3e}"))
    return SuiteReport("normalization", tuple(checks))


def prop31_suite(n_values=(4, 5), k_values=(1, 2), em_starts: int = 16, seed: int = 0) -> SuiteReport:
    """Check the likelihood/KT ratio bound over every graph of the given
    sizes; k = 1 uses the closed-form sup, larger k a multi-start EM lower
    bound (a necessary condition for the true sup), batched over the graphs
    of each size."""
    checks = []
    for n in n_values:
        graphs = list(enumerate_graphs(n))
        for k in k_values:
            seeds = [derive_seed(seed, n, k, idx) for idx in range(len(graphs))]
            fits = fit_marginal_ml_batch(graphs, k, seeds, starts=em_starts)
            worst = -np.inf
            violations = 0
            for g, fit in zip(graphs, fits):
                lhs, rhs, holds = verify_prop31(g, k, fit.log_marginal)
                worst = max(worst, lhs - rhs)
                violations += not holds
            checks.append(
                (
                    f"likelihood/KT bound, n={n}, k={k} ({'exact sup' if k == 1 else f'EM {em_starts} starts'})",
                    violations == 0,
                    f"worst slack {worst:.4f} over {len(graphs)} graphs",
                )
            )
    return SuiteReport("prop31", tuple(checks))


def gamma_suite(count: int = 1000, seed: int = 0, n_max: int = 200, j_max: int = 10) -> SuiteReport:
    """Random compositions through the Gamma composition inequality."""
    rng = rng_from_seed(derive_seed(seed, 0xA1))
    worst = -np.inf
    bad = 0
    for _ in range(count):
        j = int(rng.integers(1, j_max + 1))
        parts = rng.integers(1, max(n_max // j, 1) + 1, size=j)
        lhs, rhs, holds = gamma_composition_inequality(parts)
        worst = max(worst, lhs - rhs)
        bad += not holds
    return SuiteReport(
        "gamma_ineq",
        ((f"{count} random compositions (n<={n_max}, J<={j_max})", bad == 0, f"worst log slack {worst:.3e}"),),
    )


def lemma_a2_suite(epsilon: float = 1.0, over_ks=(2, 3)) -> SuiteReport:
    """Exact overestimation probability at n=4 under the one-block p=1/2 law
    versus the analytic bound."""
    n, k0, p = 4, 1, 0.5
    spec = PenaltySpec(epsilon)
    k_max = max(over_ks)
    weights_total = 0.0
    prob = {k: 0.0 for k in over_ks}
    for g in enumerate_graphs(n):
        w = p**g.edge_count * (1 - p) ** (n * (n - 1) // 2 - g.edge_count)
        weights_total += w
        k_hat, _ = estimate_order(g, spec, k_max=k_max)
        if k_hat in prob:
            prob[k_hat] += w
    checks = []
    for k in over_ks:
        bound = overestimation_bound(k0, k, n, spec)
        checks.append(
            (
                f"P(k_hat={k}) under k0=1, p=0.5, n=4",
                prob[k] <= bound + 1e-12,
                f"empirical {prob[k]:.6f} <= bound {bound:.6f}",
            )
        )
    checks.append(("true-law weights sum to 1", abs(weights_total - 1.0) < 1e-12, f"{weights_total}"))
    return SuiteReport("lemmaA2", tuple(checks))
