"""Command-line front end.

Subcommands: sample, estimate, consistency, verify, gap.  Logs go to
stderr; file outputs are deterministic functions of (inputs, seed).  Exit
codes: 0 success, 2 validation/parse error, 3 infeasible size for the
requested exact computation, 4 property-suite violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import GraphFormatError, InfeasibleSizeError, ValidationError
from .experiments import (
    ExperimentConfig,
    gamma_suite,
    lemma_a2_suite,
    normalization_suite,
    prop31_suite,
    run_consistency,
    write_outputs,
)
from .graphio import read_graph_file, write_graph_file, write_labels_file
from .kt import KT_PARTITION_CAP
from .partitions import partition_count
from .sbm import SbmParams, sample_sbm
from .selection import PenaltySpec, dense_gap, estimate_order, identical_columns, sparse_gap

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_SUITE_FAILURE = 4


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"no such file: {path}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON ({e})") from None


def cmd_sample(args) -> int:
    cfg = _load_json(args.config)
    for fieldname in ("k", "pi", "P", "n"):
        if fieldname not in cfg:
            raise ValidationError(f"sample config missing field {fieldname!r}")
    params = SbmParams(k=int(cfg["k"]), pi=np.array(cfg["pi"]), P=np.array(cfg["P"]))
    n = int(cfg["n"])
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    labels, graph = sample_sbm(params, n, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_graph_file(out / "graph.txt", graph)
    write_labels_file(out / "labels.txt", labels)
    print(f"n={graph.n} edges={graph.edge_count} density={graph.density():.6f}")
    _log(f"[sample] wrote {out / 'graph.txt'} and {out / 'labels.txt'} (seed={seed})")
    return EXIT_OK


def _k_max_hint(n: int) -> str:
    """Point an infeasible exact request at the largest feasible k_max >= 2."""
    k = 1
    while k < n and partition_count(n, k + 1) <= KT_PARTITION_CAP:
        k += 1
    if k < 2:
        return f"exact KT is infeasible at n={n} for any k_max >= 2"
    return f"rerun with --k-max {k}, the largest k_max under the cap at n={n}"


def cmd_estimate(args) -> int:
    graph = read_graph_file(args.graph)
    spec = PenaltySpec(args.epsilon)
    k_max = args.k_max if args.k_max is not None else min(graph.n, 8)
    try:
        k_hat, table = estimate_order(graph, spec, k_max=k_max, kt_method=args.kt, seed=args.seed or 0)
    except InfeasibleSizeError as e:
        raise InfeasibleSizeError(f"{e}; {_k_max_hint(graph.n)}") from None
    header = f"{'k':>3} {'log_kt':>14} {'pen':>12} {'score':>14} method"
    print(header)
    for r in table.rows:
        extra = f" +-{r.std_error:.4f} ess={r.ess:.1f}" if r.std_error is not None else ""
        print(f"{r.k:>3} {r.log_kt:>14.6f} {r.pen:>12.6f} {r.score:>14.6f} {r.method}{extra}")
    print(f"k_hat={k_hat}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "n": graph.n,
            "epsilon": args.epsilon,
            "k_max": k_max,
            "k_hat": k_hat,
            "rows": [
                {
                    "k": r.k,
                    "log_kt": r.log_kt,
                    "pen": r.pen,
                    "score": r.score,
                    "method": r.method,
                    "std_error": r.std_error,
                    "ess": r.ess,
                }
                for r in table.rows
            ],
        }
        with open(out / "estimate.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def cmd_consistency(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    if args.k_max is not None:
        overrides["k_max"] = args.k_max
    if args.kt is not None:
        overrides["kt_method"] = args.kt
    if args.out is not None:
        overrides["output_path"] = str(args.out)
    if overrides:
        config = ExperimentConfig.from_dict({**config.to_dict(), **overrides})
    try:
        records = run_consistency(config, threads=args.threads)
    except InfeasibleSizeError as e:
        raise InfeasibleSizeError(f"{e}; {_k_max_hint(max(config.n_grid))}") from None
    paths = write_outputs(config, records, config.output_path)
    _log(f"[consistency] wrote {paths['trials']}, {paths['summary']}, {paths['config']}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite == "normalization":
        report = normalization_suite()
    elif args.suite == "prop31":
        n_values = args.n or [4, 5]
        k_values = args.k or [1, 2]
        report = prop31_suite(n_values=n_values, k_values=k_values, seed=args.seed or 0)
    elif args.suite == "gamma_ineq":
        report = gamma_suite(count=args.count, seed=args.seed or 0)
    elif args.suite == "lemmaA2":
        report = lemma_a2_suite(epsilon=args.epsilon)
    else:
        raise ValidationError(f"unknown suite {args.suite!r}")
    for line in report.lines():
        print(line)
    if not report.ok:
        _log(f"[verify] suite {report.name} FAILED")
        return EXIT_SUITE_FAILURE
    print(f"suite {report.name}: all checks passed")
    return EXIT_OK


def cmd_gap(args) -> int:
    cfg = _load_json(args.params)
    if "pi" not in cfg:
        raise ValidationError("params file must contain 'pi'")
    pi = np.array(cfg["pi"], dtype=float)
    reported = False
    for key, fn, label in (("P", dense_gap, "dense"), ("S0", sparse_gap, "sparse")):
        if key in cfg:
            M = np.array(cfg[key], dtype=float)
            dup = identical_columns(M)
            res = fn(pi, M)
            print(f"{label} gap: {res.gap:.9f}")
            print(f"  best merge pair: {res.best_pair}")
            print(f"  merged pi: {np.array2string(res.merged.pi_star, precision=6)}")
            print(f"  merged matrix:\n{np.array2string(res.merged.P_star, precision=6)}")
            if dup is not None:
                print(f"  warning: columns {dup} identical -> model reducible, gap is 0")
            reported = True
    if not reported:
        raise ValidationError("params file must contain 'P' (dense) and/or 'S0' (sparse)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ktsbm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample a block-model graph to files")
    sp.add_argument("--config", required=True, help="JSON with k, pi, P, n[, seed]")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=".", help="output directory")
    sp.set_defaults(func=cmd_sample)

    ep = sub.add_parser("estimate", help="estimate the number of communities from a graph file")
    ep.add_argument("graph", help="graph file in the canonical format")
    ep.add_argument("--epsilon", type=float, default=1.0)
    ep.add_argument("--k-max", dest="k_max", type=int, default=None)
    ep.add_argument("--kt", default="exact", help="exact | mc:SAMPLES")
    ep.add_argument("--seed", type=int, default=None)
    ep.add_argument("--out", default=None)
    ep.set_defaults(func=cmd_estimate)

    cp = sub.add_parser("consistency", help="run a seeded consistency experiment")
    cp.add_argument("--config", required=True)
    cp.add_argument("--seed", type=int, default=None)
    cp.add_argument("--epsilon", type=float, default=None)
    cp.add_argument("--k-max", dest="k_max", type=int, default=None)
    cp.add_argument("--kt", default=None)
    cp.add_argument("--threads", type=int, default=1)
    cp.add_argument("--out", default=None)
    cp.set_defaults(func=cmd_consistency)

    vp = sub.add_parser("verify", help="run a property suite")
    vp.add_argument("suite", choices=["prop31", "gamma_ineq", "normalization", "lemmaA2"])
    vp.add_argument("--n", type=int, nargs="*", default=None)
    vp.add_argument("--k", type=int, nargs="*", default=None)
    vp.add_argument("--count", type=int, default=1000)
    vp.add_argument("--seed", type=int, default=None)
    vp.add_argument("--epsilon", type=float, default=1.0)
    vp.set_defaults(func=cmd_verify)

    gp = sub.add_parser("gap", help="merge/gap analysis of a parameter file")
    gp.add_argument("params", help="JSON with pi and P and/or S0")
    gp.set_defaults(func=cmd_gap)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as e:
        _log(f"error: {e}")
        return EXIT_VALIDATION
    except ValidationError as e:
        _log(f"error: {e}")
        return EXIT_VALIDATION
    except InfeasibleSizeError as e:
        _log(f"error: {e}")
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
