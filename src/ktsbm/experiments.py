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
import math
import numbers
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ValidationError, require_int
from .kt import gamma_composition_inequality, log_kt_exact_batch, verify_prop31_batch
from .sbm import LabelVector, SbmParams, SparseSchedule, enumerate_graphs, graph_pairs, realize_sparse, sample_sbm
from .selection import PenaltySpec, estimate_order, overestimation_bound, parse_kt_method, penalty
from .seeds import _MASK, derive_seed, rng_from_seed

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

_NORM_TOL = 1e-10  # a normalization check passes when its total is within this of 1
_N_MAX, _J_MAX = 200, 10  # Gamma suite: J <= _J_MAX parts, each at most _N_MAX // J
_OVER_KS = (2, 3)  # the orders k > k0 = 1 that lemma_a2_suite checks


def _require_real(name: str, value):
    try:
        finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return value


def _require_list(name: str, value):
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name} must be a list, got {value!r}")
    return value


def _floats(name: str, value) -> tuple[float, ...]:
    return tuple(float(_require_real(f"{name} entry", v)) for v in _require_list(name, value))


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
        for name in ("regime", "kt_method", "output_path"):
            if not isinstance(getattr(self, name), str):
                raise ValidationError(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.regime not in ("dense", "sparse"):
            raise ValidationError(f"regime must be 'dense' or 'sparse', got {self.regime!r}")
        for name in ("k0", "trials", "k_max"):
            object.__setattr__(self, name, require_int(name, getattr(self, name)))
        seed = require_int("master_seed", self.master_seed, low=0, high=_MASK)
        object.__setattr__(self, "master_seed", seed)
        for name in ("epsilon", "c", "alpha"):
            _require_real(name, getattr(self, name))
        n_grid = tuple(require_int("n_grid entry", v) for v in _require_list("n_grid", self.n_grid))
        if not n_grid or list(n_grid) != sorted(set(n_grid)):
            raise ValidationError("n_grid must be nonempty and strictly increasing")
        parse_kt_method(self.kt_method)
        PenaltySpec(self.epsilon)
        object.__setattr__(self, "pi0", _floats("pi0", self.pi0))
        object.__setattr__(self, "P0", tuple(_floats("P0 row", row) for row in _require_list("P0", self.P0)))
        object.__setattr__(self, "n_grid", n_grid)

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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if unknown or missing:
            raise ValidationError(f"config fields: unknown {unknown}, missing {missing}")
        return cls(**d)


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
    with ThreadPoolExecutor(max_workers=require_int("threads", threads)) as pool:
        records = list(pool.map(lambda nt: _run_trial(config, *nt), jobs))
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


def normalization_suite() -> SuiteReport:
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
            checks.append((f"sum_z K(z), n={n}, k={k}", err <= _NORM_TOL, f"|total-1|={err:.3e}"))
    for k in (1, 2, 3):
        for n in (2, 3, 4):
            graphs, pairs = list(enumerate_graphs(n)), np.concatenate(list(graph_pairs(n)))
            worst = 0.0
            for lab in product(range(1, k + 1), repeat=n):
                z = LabelVector(lab, k)
                total = sum(np.exp(log_kt_graph_given_labels(z, g, k)) for g in graphs)
                worst = max(worst, abs(total - 1.0))
            checks.append(
                (f"sum_x K(x|z) over all z, n={n}, k={k}", worst <= _NORM_TOL, f"worst |total-1|={worst:.3e}")
            )
            total = sum(np.exp(log_kt_exact_batch(n, pairs, [k])[:, 0]).tolist())
            err = abs(total - 1.0)
            checks.append((f"sum_x K(x), n={n}, k={k}", err <= _NORM_TOL, f"|total-1|={err:.3e}"))
    return SuiteReport("normalization", tuple(checks))


def prop31_suite(n_values=(4, 5), k_values=(1, 2), em_starts: int = 16, seed: int = 0) -> SuiteReport:
    """Certify the likelihood/KT ratio bound on every graph of the given
    sizes.  Each graph's sup log-likelihood is replaced by
    ``likelihood.sup_log_lik_upper_bound``, an upper bound (the sup itself
    at k = 1), so a pass is a proof for that graph.  ``em_starts`` and
    ``seed`` have no effect; they are kept so that existing callers run
    unchanged."""
    checks = []
    for n, k in [(n, k) for n in n_values for k in k_values]:
        worst, bad, graphs = -np.inf, 0, 0
        for pairs in graph_pairs(n):  # one chunk of graph codes up to n = 7
            lhs, rhs, holds = verify_prop31_batch(n, pairs, k)
            worst, bad, graphs = max(worst, (lhs - rhs).max()), bad + np.count_nonzero(~holds), graphs + len(pairs)
        label = f"likelihood/KT bound, n={n}, k={k} (certified)"
        checks.append((label, bad == 0, f"worst slack {worst:.4f} over {graphs} graphs"))
    return SuiteReport("prop31", tuple(checks))


def gamma_suite(count: int = 1000, seed: int = 0) -> SuiteReport:
    """Random compositions through the Gamma composition inequality."""
    require_int("count", count)
    require_int("seed", seed, low=0, high=_MASK)
    rng = rng_from_seed(derive_seed(seed, 0xA1))
    worst = -np.inf
    bad = 0
    for _ in range(count):
        j = int(rng.integers(1, _J_MAX + 1))
        parts = rng.integers(1, max(_N_MAX // j, 1) + 1, size=j)
        lhs, rhs, holds = gamma_composition_inequality(parts)
        worst = max(worst, lhs - rhs)
        bad += not holds
    return SuiteReport(
        "gamma_ineq",
        ((f"{count} random compositions (n<={_N_MAX}, J<={_J_MAX})", bad == 0, f"worst log slack {worst:.3e}"),),
    )


def lemma_a2_suite(epsilon: float = 1.0) -> SuiteReport:
    """Exact overestimation probability at n=4 under the one-block p=1/2 law
    versus the analytic bound: k_hat of ``estimate_order`` with exact KT and
    k_max = 3, for all 64 graphs from one batched pass."""
    n, k0, p = 4, 1, 0.5
    spec = PenaltySpec(epsilon)
    ks = range(1, max(_OVER_KS) + 1)
    pairs = np.concatenate(list(graph_pairs(n)))
    scores = log_kt_exact_batch(n, pairs, ks) - np.array([penalty(k, n, spec) for k in ks])
    k_hat = np.argmax(scores, axis=1) + 1  # argmax takes the first (smallest k) on ties
    w = [p**m * (1 - p) ** (n * (n - 1) // 2 - m) for m in pairs.sum(axis=1).tolist()]
    weights_total = sum(w)
    prob = {k: sum(wi for wi, kh in zip(w, k_hat.tolist()) if kh == k) for k in _OVER_KS}
    checks = []
    for k in _OVER_KS:
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
