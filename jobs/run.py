"""Print the table(s) one paper artifact reproduces.

    python jobs/run.py <experiment> [--seed N] [--out DIR]

``<experiment>`` names a harness ``repro.experiments.exp_<experiment>``;
``--seed`` overrides the harness's default seed and ``--out`` also
writes one CSV per table. ``baselines_memory`` adds the Spark batch
comparison, in its own Spark session.
"""
from __future__ import annotations

import argparse
import importlib
from pathlib import Path

import pandas as pd
from _common import get_spark

# experiment -> the tables it prints, in order
TABLES = {
    "datasets": ["t2_datasets"],
    "training": ["fig7a_learning_curves", "fig7b_training_cost"],
    "representation": ["fig8_representation"],
    "partitioning": ["fig9_partitioning"],
    "sensitivity": ["fig10_sensitivity"],
    "index_cost": ["fig11_index_cost"],
    "baselines_memory": ["fig12_memory", "fig12_spark_batch"],
    "baselines_disk": ["fig13_disk"],
    "htgm": ["fig14_htgm"],
    "updates": ["fig15_updates"],
}


def tables(experiment: str, **kw):
    """``(name, DataFrame)`` for each table of ``experiment``."""
    mod = importlib.import_module(f"repro.experiments.exp_{experiment}")
    if experiment == "training":
        out = mod.run(**kw)
        yield from zip(TABLES[experiment], (out["curves"], out["cost"]))
        return
    yield TABLES[experiment][0], mod.run(**kw)
    if experiment == "baselines_memory":
        spark = get_spark()
        try:
            yield TABLES[experiment][1], mod.run_spark(spark, **kw)
        finally:
            spark.stop()


def emit(name: str, df: pd.DataFrame, out_dir: str | None) -> None:
    pd.set_option("display.width", 220)
    print(f"\n== {name} ==")
    print(df.to_string(index=False))
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        df.to_csv(Path(out_dir) / f"{name}.csv", index=False)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("experiment", choices=list(TABLES))
    p.add_argument("--seed", type=int, default=None, help="seed (default: the harness's own)")
    p.add_argument("--out", default=None, help="directory for CSV output")
    args = p.parse_args()
    kw = {} if args.seed is None else {"seed": args.seed}
    for name, df in tables(args.experiment, **kw):
        emit(name, df, args.out)


if __name__ == "__main__":
    main()
