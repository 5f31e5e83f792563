"""Shared plumbing for the spark-submit experiment entrypoints.

Each job is `python jobs/<name>.py` (or spark-submit) and prints the
table(s) its experiment reproduces; pass --out to also write CSVs.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def get_spark():
    """The one SparkSession builder (local master, no UI), shared by the
    jobs, the test fixture and the benchmark.

    Broadcast joins are disabled so join algorithms exercise the shuffle
    path at small scale; a query that wants a broadcast join asks for it.
    ``SPARK_SHUFFLE_PARTITIONS`` sets the shuffle partitions (default 64).
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("les3-repro")
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def emit(name: str, df: pd.DataFrame, out_dir: str | None) -> None:
    pd.set_option("display.width", 220)
    print(f"\n== {name} ==")
    print(df.to_string(index=False))
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        df.to_csv(Path(out_dir) / f"{name}.csv", index=False)


def parse_args(description: str) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--out", default=None, help="directory for CSV output")
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args()
