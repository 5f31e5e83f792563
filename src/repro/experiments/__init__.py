"""Experiment harnesses reproducing the paper's evaluation (§7.2-§7.8).

Each module exposes a `run(...)` returning a pandas DataFrame with the
numbers behind the corresponding paper table/figure; `jobs/run.py
<experiment>` prints them and EXPERIMENTS.md records paper-vs-measured values.
"""
