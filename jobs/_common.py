"""The Spark session of ``jobs/run.py``; importing this module also puts
``src/`` on the path."""
from __future__ import annotations

import os
import sys
from pathlib import Path

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
