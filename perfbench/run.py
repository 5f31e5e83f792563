"""LES³ benchmark: one workload per run, answers checked against an
independent oracle.

    python3 perfbench/run.py --workload kosarak-knn --seed 1 --seconds 2 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run sets up once with every layer wrapped, measures an untraced phase and
then a traced phase, writes the spans to ``.perfbench/`` and prints the
per-layer metrics plus the tracing overhead. See perfbench/README.md.
"""
import os
import time

T_START = time.perf_counter()
# One BLAS/OpenMP thread, set before numpy loads: the program's numpy code
# is single-threaded by design, and the Spark workers inherit this too.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "queries_per_s": "1/s",
    "candidates_per_query": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ptr.represent_s": "s",
    "l2p.partition_s": "s",
    "l2p.pair_sim_s": "s",
    "l2p.pair_sim_calls": "count",
    "l2p.models": "count",
    "siamese.train_s": "s",
    "siamese.assign_s": "s",
    "tgm.build_s": "s",
    "tgm.build_alloc_mb": "MB",
    "tgm.ub_ms_per_query": "ms",
    "tgm.index_elems_per_query": "count",
    "tgm.insert_ms_per_set": "ms",
    "tgm.new_tokens": "count",
    "packed.build_s": "s",
    "packed.verify_ms_per_query": "ms",
    "search.self_ms_per_query": "ms",
    "search.groups_verified_per_query": "count",
    "search.refresh_s": "s",
    "inserts_per_s": "1/s",
    "spark.ub_s": "s",
    "spark.create_df_s": "s",
    "spark.collect_s": "s",
    "spark.jobs_per_batch": "count",
    "spark.tasks_per_batch": "count",
    "spark.rows_verified_per_batch": "count",
    "brute.ms_per_query": "ms",
    "trace.overhead_pct": "%",
}


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def measure(wl, ph, slices, seconds: float):
    """Run the given slices of a round, repeating them until ``seconds``
    have passed; the time is added to ``ph.wall``."""
    gc.collect()  # start with no pending garbage from set-up or checks
    t0 = time.perf_counter()
    while True:
        for i in slices:
            wl.run_slice(ph, i)
        if time.perf_counter() - t0 >= seconds:
            break
    ph.wall += time.perf_counter() - t0


def end_to_end(ph, setups, builds, once_s: float, rss_mb: float) -> dict:
    import numpy as np

    lat_ms = np.array(ph.query_lat) * 1e3
    p50 = float(np.median(lat_ms))
    # a tail needs >= 10 samples beyond it; below 1000 queries report the median
    p99 = float(np.percentile(lat_ms, 99)) if len(lat_ms) >= 1000 else p50
    return {
        "setup_s": once_s + statistics.median(setups),
        "build_s": statistics.median(builds),
        "query_p50_ms": p50,
        "query_p99_ms": p99,
        "queries_per_s": len(lat_ms) / ph.wall,
        "candidates_per_query": _mean([s.n_candidates for s in ph.stats]),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, ph, base, brute_ms: float) -> dict:
    """Per-layer metrics of the traced phase ``ph``; ``base`` is the
    untraced phase run just before it on the same engine."""
    t = tracer.totals
    nq = max(len(ph.query_lat), 1)
    nb = max(len(ph.batch_lat), 1)
    ni = max(ph.inserted, 1)
    search = ("search.knn", "search.range")
    in_search = {i for i, s in enumerate(tracer.spans) if s[0] in search}
    in_spark = {i for i, s in enumerate(tracer.spans)
                if s[0] in ("spark.knn_batch", "spark.range_batch")}

    def under(name, parents):
        return sum(e - s for n, s, e, p, _ in tracer.spans if n == name and p in parents)

    ub_spark = under("tgm.ub", in_spark)
    return {
        "ptr.represent_s": tracer.total("ptr.represent"),
        "l2p.partition_s": tracer.total("l2p.partition"),
        "l2p.pair_sim_s": t["l2p.pair_sim_s"],
        "l2p.pair_sim_calls": t["l2p.pair_sim_calls"],
        "l2p.models": t["l2p.models"],
        "siamese.train_s": tracer.total("siamese.train"),
        "siamese.assign_s": tracer.total("siamese.assign"),
        "tgm.build_s": tracer.total("tgm.from_partition"),
        "tgm.build_alloc_mb": t["tgm.build_alloc_mb"],
        "tgm.ub_ms_per_query": (under("tgm.ub", in_search) + ub_spark) * 1e3 / nq,
        "tgm.index_elems_per_query": _mean([s.index_elems for s in ph.stats]),
        "tgm.insert_ms_per_set": tracer.total("tgm.insert", measured=True) * 1e3 / ni,
        "tgm.new_tokens": t["tgm.new_tokens"] / ni,
        "packed.build_s": tracer.total("packed.build", measured=False),
        "packed.verify_ms_per_query": under("packed.verify", in_search) * 1e3 / nq,
        "search.self_ms_per_query": tracer.self_time(search) * 1e3 / nq,
        "search.groups_verified_per_query": _mean([s.n_groups_verified for s in ph.stats]),
        "search.refresh_s": _mean(tracer.durations("search.init", measured=True)),
        "inserts_per_s": ph.inserted / ph.insert_s if ph.insert_s else 0.0,
        "spark.ub_s": ub_spark / nb,
        "spark.create_df_s": tracer.total("spark.create_df", measured=True) / nb,
        "spark.collect_s": tracer.total("spark.collect", measured=True) / nb,
        "spark.jobs_per_batch": _mean([b["jobs"] for b in ph.batches]),
        "spark.tasks_per_batch": _mean([b["tasks"] for b in ph.batches]),
        "spark.rows_verified_per_batch": (
            sum(s.n_candidates for s in ph.stats) / nb if ph.batch_lat else 0.0),
        "brute.ms_per_query": brute_ms,
        "trace.overhead_pct": 100.0 * ((ph.wall / nq) / (base.wall / max(len(base.query_lat), 1)) - 1.0),
    }


def brute_reference(wl, n: int = 100) -> float:
    """LocalBrute on the workload's first ``n`` queries at each of its
    parameters, in ms per query; 0 for the Spark workload."""
    from repro.baselines.brute import LocalBrute

    if wl.op is None:
        return 0.0
    brute = getattr(LocalBrute(wl.sets), wl.op)
    calls = [(q, p) for p, _ in wl.mix for q in wl.queries[:n]]
    t0 = time.perf_counter()
    for q, p in calls:
        brute(q, p)
    return (time.perf_counter() - t0) * 1e3 / len(calls)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs" / "_common.py").is_file():
        print(f"perfbench: {ROOT} is not a checkout of the repository "
              "(src/repro or jobs/_common.py missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)

    import selftest
    import tracing
    from workloads import WORKLOADS, Phase, SparkBatch

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, WORK)
    attempted, failed, errors = 0, 0, []

    def check():
        nonlocal attempted, failed
        a, f, e = wl.check()
        attempted, failed = attempted + a, failed + f
        errors.extend(e)

    try:
        if isinstance(wl, SparkBatch):
            wl.start_spark()
        once_s = time.perf_counter() - T_START  # imports and Spark start, paid once
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install_layers(tracer)
            wl.setup()
            tracer.restore()
            base = Phase()
            measure(wl, base, range(wl.slices), args.seconds / 2)
            check()
            tracing.install_layers(tracer)
            if isinstance(wl, SparkBatch):
                tracing.install_spark_layers(tracer, wl.spark, wl.data)
            ph = Phase(tracer=tracer)
            measure(wl, ph, range(wl.slices), args.seconds / 2)
            tracer.restore()
            check()
            metrics = per_layer(tracer, ph, base, brute_reference(wl))
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.json")
            units = PER_LAYER
        else:
            setups, builds, ph, rss_mb = [], [], Phase(), None
            for i in range(wl.setups):
                t0 = time.perf_counter()
                builds.append(wl.setup())
                setups.append(time.perf_counter() - t0)
                part = i - (wl.setups - wl.slices)
                if part >= 0:
                    measure(wl, ph, [part], args.seconds / wl.slices)
                    if rss_mb is None:  # before the oracle's own memory counts
                        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                    check()
            metrics = end_to_end(ph, setups, builds, once_s, rss_mb)
            units = END_TO_END
        errors += selftest.perturbed_answers_rejected(wl.probes)
    finally:
        wl.close()
    for e in errors[:20]:
        print(f"perfbench: wrong answer: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
