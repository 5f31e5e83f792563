"""§7.3 (Figure 8) — PTR vs representation baselines."""
import math
import time

from benchmarks._util import run_once

from repro.experiments import exp_representation
from repro.synth_data import dataset

# two row samples of kosarak-lite over the same token universe (4× the sets)
GROWTH_SCALES = (0.0004, 0.0016)


def embed_growth(method: str, repeats: int = 3) -> float:
    """Exponent ``e`` of embed time ~ |D|^e between the two samples
    (best of ``repeats`` timings at each size)."""
    points = []
    for scale in GROWTH_SCALES:
        db = dataset("kosarak", scale=scale, token_scale=0.02, seed=0)
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            exp_representation.embed(db, method)
            best = min(best, time.perf_counter() - t0)
        points.append((len(db.sets), best))
    (n1, t1), (n2, t2) = points
    return math.log(t2 / t1) / math.log(n2 / n1)


def test_fig8_representation(benchmark):
    df = run_once(benchmark, exp_representation.run)
    benchmark.extra_info["table"] = df.to_dict("records")
    r = df.set_index("method")
    # headline shapes: PTR embeds orders of magnitude faster than PCA/MDS
    assert r.loc["pca", "embed_seconds"] > 5 * r.loc["ptr", "embed_seconds"]
    # the paper's 10–20,000× gap at full scale comes from MDS's growth:
    # an O(|D|²) distance matrix and an O(|D|³) eigendecomposition, where
    # PTR makes one pass over the tokens
    growth = {m: embed_growth(m) for m in ("ptr", "mds")}
    benchmark.extra_info["embed_growth_exponent"] = growth
    assert growth["mds"] > 1.5 and growth["ptr"] < 1.3, growth
    # and PTR prunes better than the token-oblivious Binary Encoding
    assert r.loc["ptr", "knn_pe"] > r.loc["binary", "knn_pe"]
