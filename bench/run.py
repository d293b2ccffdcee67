"""Benchmark of ktsbm's exact, consistency, EM-verification and Monte Carlo
KT paths.

    python3 bench/run.py --workload exact_n12 --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: the program is imported from ./src,
never from an installed copy.  One process runs one workload on one thread.
Set-up (building the inputs plus one untimed warm-up call) is repeated
SETUP_REPS times, with the partition-table cache emptied before each, and
its median reported.  The timed phase then calls whole rounds of items
until --seconds of call time have passed; each output is checked between
calls, outside the timed region.  The last line of standard output is one
JSON object with the result.  With --trace 1 the layer functions are
wrapped and per-layer metrics are reported instead of end-to-end ones; the
trace is written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def use_source_tree() -> None:
    """Put ./src first on the import path; fail if it holds no ktsbm."""
    if not (SRC / "ktsbm" / "__init__.py").is_file():
        raise SystemExit(f"bench/run.py: no ktsbm package under {SRC}; run from the root of a source tree")
    sys.path.insert(0, str(SRC))


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload_cls, seed: int, seconds: float, tracer, clear_cache) -> dict:
    def phase(name):
        if tracer is not None:
            tracer.set_phase(name)

    setups = []
    for _ in range(SETUP_REPS):
        phase("setup")
        clear_cache()
        start = time.perf_counter()
        workload = workload_cls(seed, OUT)
        first = workload.round(0)
        workload.call(first[0])
        setups.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.take_fits()

    times, labels, unexpected = [], [], []
    attempted = failed = 0
    busy = 0.0
    r = 0
    while busy < seconds:
        for item in workload.round(r):
            phase("timed")
            start = time.perf_counter()
            try:
                out, raised = workload.call(item), None
            except Exception as exc:  # an item that raises counts as failed; the run goes on
                out, raised = None, f"raised {exc!r}"
            elapsed = time.perf_counter() - start
            busy += elapsed
            times.append(elapsed)
            labels.append(item.label)
            phase("check")
            fits = tracer.take_fits() if tracer is not None else None
            problems = [raised] if raised else workload.check(item, out, fits)
            attempted += 1
            if problems:
                failed += 1
                if not item.known_fault:
                    unexpected += [f"{item.label}: {p}" for p in problems]
        r += 1
    phase("check")
    return {
        "setups": setups,
        "times": times,
        "labels": labels,
        "busy": busy,
        "attempted": attempted,
        "failed": failed,
        "problems": unexpected,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def end_to_end(res: dict) -> dict:
    return {
        "setup_s": {"value": statistics.median(res["setups"]), "unit": "s"},
        "items_per_s": {"value": len(res["times"]) / res["busy"], "unit": "1/s"},
        "item_p50_s": {"value": statistics.median(res["times"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def traced_overhead(res: dict, untraced_path: Path, spans: int, span_s: float) -> dict:
    """Traced minus untraced call time over the items both runs made (the
    same items, since the inputs depend only on workload and seed), when an
    untraced run of this workload and seed left its file; and, free of the
    machine's run-to-run noise, the timed calls' spans times the measured
    cost of one."""
    overhead = {"spans": spans, "span_s": span_s, "computed_s": spans * span_s,
                "computed_share": spans * span_s / res["busy"]}
    if untraced_path.is_file():
        with open(untraced_path, encoding="utf-8") as fh:
            base = json.load(fh)["times"]
        common = min(len(base), len(res["times"]))
        traced, untraced = sum(res["times"][:common]), sum(base[:common])
        overhead.update(items=common, traced_s=traced, untraced_s=untraced, measured_s=traced - untraced,
                        measured_share=(traced - untraced) / untraced)
    return overhead


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    use_source_tree()
    args = parse_args(argv)

    from ktsbm import partitions
    from workloads import WORKLOADS

    # the partition-table cache is emptied before each set-up
    clear_cache = getattr(partitions.partition_table, "cache_clear", lambda: None)
    tracer = None
    if args.trace:
        from tracing import COMPUTED, Tracer

        tracer = Tracer()
        tracer.install()
        clear_cache = tracer.clear_cache
    try:
        res = run(WORKLOADS[args.workload], args.seed, args.seconds, tracer, clear_cache)
    finally:
        if tracer is not None:
            tracer.uninstall()

    stem = f"{args.workload}-seed{args.seed}"
    if tracer is None:
        metrics = end_to_end(res)
        write_json(OUT / f"run-{stem}.json", {**res, "metrics": metrics})
    else:
        metrics, absent = tracer.layer_metrics(len(res["times"]), SETUP_REPS)
        timed_spans = sum(span[1] == "timed" for span in tracer.spans)
        overhead = traced_overhead(res, OUT / f"run-{stem}.json", timed_spans, Tracer.span_cost())
        write_json(OUT / f"trace-{stem}.json", {
            **res, "metrics": metrics, "computed": list(COMPUTED), "absent": absent, "overhead": overhead,
            "calls": tracer.summary(), "span_fields": ["site", "phase", "start", "end", "parent"],
            "spans": tracer.spans,
        })
        for name in absent:
            print(f"[bench] {name}: absent (the function no longer exists)", file=sys.stderr)
        print(f"[bench] tracing overhead computed: {overhead['spans']} timed spans x {1e6 * overhead['span_s']:.2f} us "
              f"= {overhead['computed_s']:.4f} s ({100 * overhead['computed_share']:.3f} %)", file=sys.stderr)
        if "measured_s" in overhead:
            print(f"[bench] tracing overhead measured: {overhead['measured_s']:.3f} s over {overhead['items']} items "
                  f"({100 * overhead['measured_share']:.2f} %)", file=sys.stderr)
    for problem in res["problems"]:
        print(f"[bench] check failed: {problem}", file=sys.stderr)
    print(f"[bench] {args.workload}: {res['attempted']} items, {res['failed']} failed, "
          f"set-ups {', '.join(f'{s:.3f}' for s in res['setups'])} s", file=sys.stderr)
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
