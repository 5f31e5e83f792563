"""Spans around the program's public functions, recorded from outside.

``install_layers`` and ``install_spark_layers`` replace each listed
function (module or class attribute) with a wrapper that records a span
``(name, start, end, parent, op)``; ``op`` is the index of the benchmark
operation (query, insert batch or Spark batch) that caused it, -1 during
set-up. ``Tracer.restore`` puts the originals back. Spans stay in memory
until ``write``. The per-pair similarity function that L2P
calls ~10^5 times per build is aggregated into a call count and a total
instead of one span per call.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

Span = Tuple[str, float, float, int, int]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.totals: Dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------
    def call(self, name: str, fn: Callable, args, kwargs, after=None):
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op))
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, self.spans[idx][3], self.op)
        if after is not None:
            after(self, args, out)
        return out

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        self._undo.append((owner, attr, raw, own))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*a, **kw):
                return self.call(name, fn, a, kw, after)
            return wrapper
        self._patch(owner, attr, make)

    def wrap_returned(self, owner, attr: str, name: str) -> None:
        """Wrap the function that ``owner.attr(...)`` returns, aggregating
        its calls into ``totals[name + "_s"]`` and ``totals[name + "_calls"]``."""
        totals = self.totals

        def make(factory):
            @functools.wraps(factory)
            def wrapped_factory(*a, **kw):
                f = factory(*a, **kw)

                def timed(*fa, **fkw):
                    t0 = time.perf_counter()
                    try:
                        return f(*fa, **fkw)
                    finally:
                        totals[name + "_s"] += time.perf_counter() - t0
                        totals[name + "_calls"] += 1
                return timed
            return wrapped_factory
        self._patch(owner, attr, make)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw, own = self._undo.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- reading -----------------------------------------------------------
    def durations(self, name: str, *, measured: bool | None = None) -> List[float]:
        """Durations of spans called ``name``; ``measured`` selects spans
        inside (True) or outside (False) benchmark operations."""
        return [
            t1 - t0
            for n, t0, t1, _, op in self.spans
            if n == name and (measured is None or (op >= 0) == measured)
        ]

    def total(self, name: str, **kw) -> float:
        return sum(self.durations(name, **kw))

    def self_time(self, names: Tuple[str, ...]) -> float:
        """Summed duration of spans in ``names`` minus their direct children."""
        own = 0.0
        for n, t0, t1, _, _ in self.spans:
            if n in names:
                own += t1 - t0
        for n, t0, t1, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] in names:
                own -= t1 - t0
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "totals": dict(self.totals)}, f)


def _count_models(tracer: Tracer, args, result) -> None:
    tracer.totals["l2p.models"] += result.n_models


def install_layers(tracer: Tracer) -> None:
    """Wrap every numpy-side layer the benchmark reports."""
    from repro.core import l2p
    from repro.core.packed import PackedSets
    from repro.core.search import LocalLES3, SparkLES3
    from repro.core.siamese import SiameseMLP
    from repro.core.tgm import TGM
    from repro.experiments import common

    tracer.wrap(common, "represent", "ptr.represent")
    tracer.wrap(common, "l2p_partition", "l2p.partition", after=_count_models)
    tracer.wrap_returned(l2p, "sim_fn", "l2p.pair_sim")
    tracer.wrap(SiameseMLP, "train", "siamese.train")
    tracer.wrap(SiameseMLP, "assign", "siamese.assign")
    tracer.wrap(TGM, "upper_bounds", "tgm.ub")
    tracer.wrap(PackedSets, "__init__", "packed.build")
    tracer.wrap(PackedSets, "sims_subset", "packed.verify")
    tracer.wrap(LocalLES3, "__init__", "search.init")
    tracer.wrap(LocalLES3, "knn", "search.knn")
    tracer.wrap(LocalLES3, "range", "search.range")
    tracer.wrap(SparkLES3, "range_batch", "spark.range_batch")
    tracer.wrap(SparkLES3, "knn_batch", "spark.knn_batch")

    def counting_new_tokens(fn):
        @functools.wraps(fn)
        def wrapper(tgm, *a, **kw):
            before = tgm.n_tokens
            out = tracer.call("tgm.insert", fn, (tgm,) + a, kw)
            tracer.totals["tgm.new_tokens"] += tgm.n_tokens - before
            return out
        return wrapper

    def with_alloc_peak(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            tracemalloc.start()
            try:
                return tracer.call("tgm.from_partition", fn, a, kw)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.totals["tgm.build_alloc_mb"] = max(
                    tracer.totals["tgm.build_alloc_mb"], peak / 2**20)
        return wrapper

    tracer._patch(TGM, "insert", counting_new_tokens)
    tracer._patch(TGM, "from_partition", with_alloc_peak)


def install_spark_layers(tracer: Tracer, spark, df) -> None:
    """Wrap the Spark driver calls SparkLES3 makes per batch."""
    tracer.wrap(type(spark), "createDataFrame", "spark.create_df")
    tracer.wrap(type(df), "toPandas", "spark.collect")
