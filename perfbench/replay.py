"""Step-replay oracle for the celtibero aggregator's per-layer verdict.

The simulator merges clusters incrementally, updating one linkage entry per
surviving cluster after each merge. The oracle here instead re-derives every
cluster-to-cluster linkage from the original distance matrix at every step,
so agreement between the two checks the incremental bookkeeping. It follows
the documented contract only: clusters are represented by their smallest
member, equal linkage values go to the lexicographically smallest
(representative, representative) pair, cluster 1 holds client 0, and the
cluster with the strictly smaller ``size * mean pairwise distance`` is
poisoned (cluster 2 on a tie).
"""

from __future__ import annotations

import numpy as np

__all__ = ["replay_two_clusters", "replay_verdict", "verdict_mismatches"]

_REDUCE = {"average": np.add, "single": np.minimum, "complete": np.maximum}


def replay_two_clusters(dist, linkage: str) -> tuple[list[int], list[int]]:
    """Agglomerate singletons until two clusters remain; return them as
    sorted member lists, the one holding client 0 first."""
    reduce = _REDUCE[linkage]
    dist = np.asarray(dist, dtype=np.float64)
    clusters = [[i] for i in range(dist.shape[0])]
    while len(clusters) > 2:
        order = np.concatenate(clusters)
        sizes = np.array([len(c) for c in clusters])
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        block = dist[np.ix_(order, order)]
        link = reduce.reduceat(reduce.reduceat(block, starts, axis=0), starts, axis=1)
        if linkage == "average":
            link = link / np.outer(sizes, sizes)
        # Clusters stay sorted by representative, so the first minimum of the
        # row-major upper triangle is the smallest (rep_a, rep_b) pair.
        rows, cols = np.triu_indices(len(clusters), 1)
        pick = int(np.argmin(link[rows, cols]))
        a, b = int(rows[pick]), int(cols[pick])
        clusters[a] = sorted(clusters[a] + clusters[b])
        del clusters[b]
    return clusters[0], clusters[1]


def _score(dist: np.ndarray, members: list[int]) -> float:
    k = len(members)
    if k == 1:
        return 0.0
    return k * float(dist[np.ix_(members, members)].sum() / (k * (k - 1)))


def replay_verdict(dist, linkage: str) -> dict:
    """The verdict the aggregator should reach on ``dist``: benign and
    poisoned member tuples plus both cluster scores."""
    dist = np.asarray(dist, dtype=np.float64)
    first, second = replay_two_clusters(dist, linkage)
    score_1, score_2 = _score(dist, first), _score(dist, second)
    poisoned, benign = (first, second) if score_1 < score_2 else (second, first)
    return {
        "benign": tuple(benign),
        "poisoned": tuple(poisoned),
        "score_1": score_1,
        "score_2": score_2,
    }


def verdict_mismatches(matrices, layers: list[dict], linkage: str) -> list[str]:
    """Compare the per-layer verdicts recorded in ``summary.json`` with the
    oracle's replay of each layer's distance matrix; return the differences."""
    problems = []
    if len(matrices) != len(layers):
        return [f"{len(matrices)} distance matrices for {len(layers)} layer verdicts"]
    for k, (dist, recorded) in enumerate(zip(matrices, layers)):
        expected = replay_verdict(dist, linkage)
        for key in ("benign", "poisoned"):
            if tuple(recorded[key]) != expected[key]:
                problems.append(
                    f"layer {k}: {key} {tuple(recorded[key])} != replay {expected[key]}"
                )
        for key in ("score_1", "score_2"):
            if not np.isclose(recorded[key], expected[key], rtol=1e-9, atol=1e-12):
                problems.append(f"layer {k}: {key} {recorded[key]} != replay {expected[key]}")
    return problems
