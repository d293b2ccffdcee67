"""Spans around the public functions of ktsbm's layers, for the traced run.

Each public function of the six layer modules is wrapped under every name a
module binds it to, so ``selection.graph_cell_edges`` and
``kt.graph_cell_edges`` are separate call sites of
``partitions.graph_cell_edges``.  Spans (site, start, end, parent) stay in
memory; self time is a span's duration less its child spans.  A per-layer
metric is keyed by the function's home module, or by one call site where
that is the layer (``likelihood.labeling_stats``).  Generator functions are
not wrapped: their span would close before any work is done.
"""

from __future__ import annotations

import functools
import inspect
import time

from ktsbm import experiments, kt, likelihood, partitions, sbm, selection

LAYERS = (sbm, partitions, kt, likelihood, selection, experiments)
HOMES = {m.__name__: m.__name__.rsplit(".", 1)[1] for m in LAYERS}

# (metric, unit, better): the per-layer metrics the traced run reports.
LAYER_METRICS = (
    ("partitions.partition_table.self_s", "s", "lower"),
    ("partitions.partition_table.table_mb", "MB", "lower"),
    ("partitions.partition_table.cache_hits", "count", "higher"),
    ("partitions.partition_table.cache_misses", "count", "lower"),
    ("partitions.graph_cell_edges.self_s", "s", "lower"),
    ("partitions.graph_cell_edges.lookups", "count", "lower"),
    ("partitions.graph_cell_edges.temp_mb", "MB", "lower"),
    ("selection.estimate_order.self_s", "s", "lower"),
    ("selection.estimate_order.cells_scored", "count", "lower"),
    ("kt.log_kt_marginal_mc.self_s", "s", "lower"),
    ("kt.log_kt_marginal_mc.samples", "count", "lower"),
    ("kt.log_kt_marginal_mc.ess_ratio", "ratio", "higher"),
    ("kt.log_kt_marginal_exact.self_s", "s", "lower"),
    ("likelihood.fit_marginal_ml.self_s", "s", "lower"),
    ("likelihood.fit_marginal_ml.em_iterations", "count", "lower"),
    ("likelihood.fit_marginal_ml.s_per_iteration", "s", "lower"),
    ("likelihood.labeling_stats.self_s", "s", "lower"),
    ("sbm.sample_sbm.self_s", "s", "lower"),
    ("experiments.run_consistency.self_s", "s", "lower"),
    ("experiments.write_outputs.self_s", "s", "lower"),
    ("experiments.prop31_suite.self_s", "s", "lower"),
)

# metrics the benchmark computes from a call's arguments and results rather
# than reads from the program
COMPUTED = (
    "partitions.partition_table.table_mb",
    "partitions.graph_cell_edges.lookups",
    "partitions.graph_cell_edges.temp_mb",
    "selection.estimate_order.cells_scored",
    "kt.log_kt_marginal_mc.ess_ratio",
)

_MB = 1e6


def _traceable(obj) -> str | None:
    """Home name ("partitions.graph_cell_edges") of a public layer function."""
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return None
    home = HOMES.get(getattr(obj, "__module__", None))
    if home is None or inspect.isgeneratorfunction(inspect.unwrap(obj)):
        return None
    return f"{home}.{obj.__name__}"


class Tracer:
    """Installs the wrappers, records spans and the counts that go with them."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list[tuple[str, str, float, float, int]] = []  # site, phase, start, end, parent
        self.self_time: dict[tuple[str, str], float] = {}  # (phase, site) -> self seconds
        self.calls: dict[tuple[str, str], int] = {}
        self.counts: dict[tuple[str, str], float] = {}  # (phase, metric) -> sum
        self.peaks: dict[str, float] = {}  # metric -> largest value seen
        self.fits: list = []
        self.originals: dict[str, object] = {}
        self.homes: dict[str, str] = {}  # call site -> home
        self._undo: list[tuple[object, str, object]] = []
        self._open: list[list] = []  # [span index, child seconds]
        self._cache_seen = (0, 0)

    def install(self) -> None:
        for module in LAYERS:
            site_prefix = HOMES[module.__name__]
            for name, obj in list(vars(module).items()):
                home = None if name.startswith("_") else _traceable(obj)
                if home is None:
                    continue
                site = f"{site_prefix}.{name}"
                self.originals.setdefault(home, obj)
                self.homes[site] = home
                self._undo.append((module, name, obj))
                setattr(module, name, self._wrap(obj, site, home))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._undo):
            setattr(module, name, obj)
        self._undo.clear()

    def set_phase(self, phase: str) -> None:
        """Start a phase ("setup", "timed" or "check"), crediting the
        partition-table cache hits and misses since the last call to the
        phase that ends."""
        cache = self.originals.get("partitions.partition_table")
        if cache is not None:
            info = cache.cache_info()
            self.add("partitions.partition_table.cache_hits", info.hits - self._cache_seen[0])
            self.add("partitions.partition_table.cache_misses", info.misses - self._cache_seen[1])
            self._cache_seen = (info.hits, info.misses)
        self.phase = phase

    def clear_cache(self) -> None:
        """Empty the partition-table cache, keeping the counts so far."""
        cache = self.originals.get("partitions.partition_table")
        if cache is not None:
            self.set_phase(self.phase)
            cache.cache_clear()
            self._cache_seen = (0, 0)

    def take_fits(self) -> list:
        fits, self.fits = self.fits, []
        return fits

    def _wrap(self, fn, site: str, home: str):
        observe = _OBSERVERS.get(home)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[frame[0]] = (site, self.phase, start, end, parent)
                if self._open:
                    self._open[-1][1] += end - start
                key = (self.phase, site)
                self.self_time[key] = self.self_time.get(key, 0.0) + (end - start - frame[1])
                self.calls[key] = self.calls.get(key, 0) + 1
            if observe is not None:
                observe(self, fn, args, kwargs, result)
            return result

        return traced

    def add(self, metric: str, value: float) -> None:
        key = (self.phase, metric)
        self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, metric: str, value: float) -> None:
        if self.phase != "check":
            self.peaks[metric] = max(self.peaks.get(metric, 0.0), value)

    def layer_metrics(self, items: int, setups: int) -> tuple[dict, list[str]]:
        """Per-layer metrics, per timed item.  Those that matter at set-up
        (partition_table's self time and cache misses) are per set-up, since
        after set-up the table comes from the cache.  A metric is keyed by
        the function's home ("partitions.graph_cell_edges") or by one call
        site ("likelihood.labeling_stats").  Returns the metrics and the
        names whose function no longer exists."""

        def self_s(phase, key):
            return sum(t for (p, site), t in self.self_time.items()
                       if p == phase and key in (site, self.homes[site]))

        def count(phase, metric):
            return self.counts.get((phase, metric), 0.0)

        absent = []
        values = {}
        for metric, unit, _ in LAYER_METRICS:
            key, _, what = metric.rpartition(".")
            if key not in self.originals and key not in self.homes:
                absent.append(metric)
                values[metric] = {"value": 0.0, "unit": unit}
                continue
            if key == "partitions.partition_table" and what == "self_s":
                value = self_s("setup", key) / setups
            elif what == "self_s":
                value = self_s("timed", key) / items
            elif what == "cache_misses":
                value = count("setup", metric) / setups
            elif what in ("table_mb", "temp_mb"):
                value = self.peaks.get(metric, 0.0)
            elif what == "ess_ratio":
                drawn = count("timed", "kt.log_kt_marginal_mc.samples")
                value = count("timed", "kt.log_kt_marginal_mc.ess") / drawn if drawn else 0.0
            elif what == "s_per_iteration":
                iterations = count("timed", "likelihood.fit_marginal_ml.em_iterations")
                value = self_s("timed", key) / iterations if iterations else 0.0
            else:
                value = count("timed", metric) / items
            values[metric] = {"value": value, "unit": unit}
        return values, absent

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds one span adds to a call: a wrapped no-op timed against the
        bare one, on a tracer of its own."""

        def noop():
            return None

        wrapped = Tracer()._wrap(noop, "noop", "noop")
        timings = []
        for fn in (noop, wrapped):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            timings.append(time.perf_counter() - start)
        return (timings[1] - timings[0]) / calls

    def summary(self) -> dict:
        """Calls and self seconds per phase and call site, for the trace file."""
        return {
            f"{phase}:{site}": {"calls": self.calls[phase, site], "self_s": self.self_time[phase, site]}
            for phase, site in sorted(self.calls)
        }


# --- computed counts, from the arguments and results of a call ---------------


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _observe_partition_table(tracer, fn, args, kwargs, table):
    size = sum(v.nbytes for v in vars(table).values() if hasattr(v, "nbytes"))
    tracer.peak("partitions.partition_table.table_mb", size / _MB)


def _observe_graph_cell_edges(tracer, fn, args, kwargs, ho):
    table, edges = args[0], args[1]
    rows, cells, m = table.size, table.cell_a.size, len(edges)
    chunk = min(rows, getattr(partitions, "_CHUNK_ROWS", rows))
    tracer.add("partitions.graph_cell_edges.lookups", rows * m)
    # the (P, C) int64 result plus one chunk's int64 endpoint, cell and
    # flat-index arrays
    tracer.peak("partitions.graph_cell_edges.temp_mb", (rows * cells * 8 + 4 * chunk * m * 8) / _MB)


def set_partitions(n: int, blocks: int) -> int:
    """Set partitions of n items into at most `blocks` blocks, as a sum of
    Stirling numbers of the second kind."""
    row = [1] + [0] * blocks  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, blocks + 1)]
    return sum(row)


def _observe_estimate_order(tracer, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    if bound.get("kt_method", "exact") != "exact":
        return
    blocks = min(bound["k_max"], bound["x"].n)
    cells = blocks * (blocks + 1) // 2
    tracer.add("selection.estimate_order.cells_scored", set_partitions(bound["x"].n, blocks) * cells)


def _observe_mc(tracer, fn, args, kwargs, value):
    samples, se = value.samples, value.std_error
    tracer.add("kt.log_kt_marginal_mc.samples", samples)
    tracer.add("kt.log_kt_marginal_mc.ess", samples / (1.0 + se * se * (samples - 1)))


def _observe_fit(tracer, fn, args, kwargs, fit):
    tracer.add("likelihood.fit_marginal_ml.em_iterations", fit.iterations)
    tracer.fits.append(fit)


_OBSERVERS = {
    "partitions.partition_table": _observe_partition_table,
    "partitions.graph_cell_edges": _observe_graph_cell_edges,
    "selection.estimate_order": _observe_estimate_order,
    "kt.log_kt_marginal_mc": _observe_mc,
    "likelihood.fit_marginal_ml": _observe_fit,
}
