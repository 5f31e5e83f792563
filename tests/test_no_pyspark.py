"""The numpy core loads without pyspark: only ``repro.spark_backend``
needs it."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CORE = [
    "repro.core.similarity",
    "repro.core.packed",
    "repro.core.tgm",
    "repro.core.ptr",
    "repro.core.gpo",
    "repro.core.siamese",
    "repro.core.l2p",
    "repro.core.search",
    "repro.baselines.brute",
    "repro.baselines.invidx",
    "repro.baselines.dualtrans",
    "repro.baselines.rtree",
    "repro.synth_data",
    "repro.experiments.common",
]

# blocks pyspark (an import of it raises), imports the core, and prints
# every pyspark module that got loaded anyway
PROBE = f"""
import importlib, sys
sys.modules["pyspark"] = None
for name in {CORE!r}:
    importlib.import_module(name)
print(sorted(m for m, mod in sys.modules.items() if m.startswith("pyspark") and mod is not None))
"""


def test_core_imports_without_pyspark():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
