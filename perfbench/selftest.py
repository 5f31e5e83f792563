"""Self-test of the answer checker: perturbed answers must be rejected.

Every benchmark run calls ``perturbed_answers_rejected`` on answers the
checker accepted in that run, so a run whose checks were vacuous reports
``correct: false``. Run standalone for the same test on a small database
under Jaccard and Dice:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

from checker import Checker, knn_expectations, py_sim, range_expectations

Answer = List[Tuple[int, float]]
# judge(answer) -> errors, plus the answer it accepted, its query, the sets, the measure
Probe = Tuple[Callable[[Answer], List[str]], Answer, Sequence[int], Sequence, str]


def pick_probe(records, judge, query_of, sets, measure: str) -> Probe | None:
    """First accepted answer with two or more results, one of them with a
    similarity strictly between 0 and 1 (so a change of measure shows)."""
    for key, answer in records:
        if len(answer) >= 2 and any(0.0 < v < 1.0 for _, v in answer) and not judge(key, answer):
            return (lambda a, key=key: judge(key, a)), answer, query_of(key), sets, measure
    return None


def perturbations(answer: Answer, q, sets, measure: str):
    yield "dropped sid", answer[1:]
    returned = {s for s, _ in answer}
    swap = next(s for s in range(len(sets))
                if s not in returned and abs(py_sim(q, sets[s], measure) - answer[0][1]) > 1e-6)
    yield "swapped neighbour", [(swap, answer[0][1])] + answer[1:]
    other = "dice" if measure != "dice" else "jaccard"
    yield f"{other} value reported as {measure}", [(s, py_sim(q, sets[s], other)) for s, _ in answer]


def perturbed_answers_rejected(probes: List[Probe]) -> List[str]:
    """Errors for every perturbation of ``probes`` the checker accepted."""
    errors = []
    if not probes:
        return ["no accepted answer to perturb: the checks cannot be shown to bite"]
    for judge, answer, q, sets, measure in probes:
        for what, bad in perturbations(answer, q, sets, measure):
            if not judge(bad):
                errors.append(f"checker accepted a perturbed answer ({what}, {measure})")
    return errors


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.core.search import LocalLES3
    from repro.experiments.common import build_les3
    from repro.synth_data import dataset, sample_queries

    db = dataset("kosarak", scale=0.001, seed=3)
    queries = sample_queries(db, n=20, seed=4)
    b = build_les3(db, seed=3)
    groups = [0] * len(db.sets)
    for g, members in enumerate(b.tgm.group_members):
        for s in members:
            groups[s] = g

    probes: List[Probe] = []
    failures = 0
    for measure in ("jaccard", "dice"):
        eng = LocalLES3(db.sets, b.tgm, measure)
        chk = Checker(db.sets, measure, b.tgm, groups)
        top = knn_expectations(db.sets, queries, measure, 10)
        rng = range_expectations(db.sets, queries, measure, 0.5)
        knn = [((i,), eng.knn(q, 10)[0]) for i, q in enumerate(queries)]
        rge = [((i,), eng.range(q, 0.5)[0]) for i, q in enumerate(queries)]
        judges = [  # defaults bind this measure's checker into the probes kept
            (knn, lambda key, a, chk=chk, top=top: chk.knn(key[0], queries[key[0]], a, 10, top[key[0]])),
            (rge, lambda key, a, chk=chk, rng=rng: chk.range(key[0], queries[key[0]], a, 0.5, rng[key[0]])),
        ]
        for records, judge in judges:
            wrong = [e for key, a in records for e in judge(key, a)]
            failures += len(wrong)
            for e in wrong:
                print(f"{measure}: correct answer rejected: {e}")
            p = pick_probe(records, judge, lambda key: queries[key[0]], db.sets, measure)
            if p is None:
                print(f"{measure}: no answer to perturb")
                failures += 1
            else:
                probes.append(p)
    for e in perturbed_answers_rejected(probes):
        print(e)
        failures += 1
    print("selftest:", "FAILED" if failures else f"ok ({len(probes)} probes x 3 perturbations rejected)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
