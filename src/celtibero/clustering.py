"""Two-cluster agglomerative clustering over pairwise cosine distances.

Each client's per-layer update is characterized by its direction only. The
cosine kernel of the ``model`` module fills the pairwise distance matrix a
row at a time, taking each norm once. Bottom-up merges on n x n NumPy
arrays, updated in the merged row and column only by the Lance-Williams rule
(Lance & Williams 1967), run until exactly two clusters remain, and the cluster
with the smaller ``size * mean pairwise distance`` score is labeled poisoned: a
small, tightly packed group of updates is treated as coordinated manipulation,
while the larger or more naturally dispersed group is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _cosine_distances

__all__ = [
    "LINKAGES",
    "DistanceMatrix",
    "ClusterAssignment",
    "ClusterVerdict",
    "pairwise_cosine_matrix",
    "agglomerative_two_clusters",
    "cluster_density",
    "label_clusters",
]

LINKAGES = ("average", "single", "complete")
# Lance-Williams update of the cross-cluster statistic when two clusters
# merge: average linkage carries the *sum* of member-pair distances (divided
# by the size product when compared), single/complete the min/max directly.
_MERGE = dict(zip(LINKAGES, (np.add, np.minimum, np.maximum)))


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise distances with a zero diagonal and entries in [0, 2]."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("distance matrix must cover at least one client")
        if not np.all(np.isfinite(arr)):
            raise ValueError("distance matrix entries must be finite")
        if not np.array_equal(arr, arr.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(arr) != 0.0):
            raise ValueError("distance matrix diagonal must be zero")
        if np.any(arr < 0.0) or np.any(arr > 2.0):
            raise ValueError("distance matrix entries must lie in [0, 2]")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ClusterAssignment:
    """Partition of client indices 0..n-1 into clusters labeled 1 and 2."""

    cluster_of: np.ndarray

    def __post_init__(self) -> None:
        labels = np.array(self.cluster_of, dtype=np.int64, copy=True)
        if labels.ndim != 1 or labels.size < 2:
            raise ValueError("assignment needs at least 2 clients")
        if not np.all(np.isin(labels, (1, 2))):
            raise ValueError("cluster labels must be 1 or 2")
        if not (np.any(labels == 1) and np.any(labels == 2)):
            raise ValueError("both clusters must be nonempty")
        labels.flags.writeable = False
        object.__setattr__(self, "cluster_of", labels)

    @property
    def n(self) -> int:
        return self.cluster_of.size

    def members(self, label: int) -> np.ndarray:
        if label not in (1, 2):
            raise ValueError(f"cluster label must be 1 or 2, got {label}")
        return np.flatnonzero(self.cluster_of == label)


@dataclass(frozen=True)
class ClusterVerdict:
    """Outcome of scoring one layer's two clusters.

    ``benign`` is never empty: exactly one cluster is discarded, so at least
    one client survives every layer.
    """

    benign: tuple[int, ...]
    poisoned: tuple[int, ...]
    score_1: float
    score_2: float

    def __post_init__(self) -> None:
        benign = tuple(int(i) for i in self.benign)
        poisoned = tuple(int(i) for i in self.poisoned)
        object.__setattr__(self, "benign", benign)
        object.__setattr__(self, "poisoned", poisoned)
        if not benign:
            raise ValueError("benign set must be nonempty")
        n = len(benign) + len(poisoned)
        if sorted(benign + poisoned) != list(range(n)):
            raise ValueError("benign and poisoned sets must partition 0..n-1")


def pairwise_cosine_matrix(updates) -> DistanceMatrix:
    """Cosine-distance matrix over a list of equal-length flat vectors.

    Entry (i, j) is ``1 - cos`` of updates i and j, clamped to [0, 2], with
    the cosine kernel's scaling, NaN/Inf check and zero-norm conventions.
    """
    entries = _cosine_distances(updates)
    if entries.shape[0] < 2:
        raise ValueError("need at least 2 update vectors")
    return DistanceMatrix(entries)


def agglomerative_two_clusters(matrix: DistanceMatrix, linkage: str = "average") -> ClusterAssignment:
    """Merge singleton clusters bottom-up until exactly two remain.

    ``linkage`` picks how cluster-to-cluster distance is derived from member
    pairs: mean (``average``, the default), minimum (``single``), or maximum
    (``complete``). Merging is deterministic: a cluster is represented by its
    smallest member index, and equal linkage values are broken in favor of
    the lexicographically smallest (min representative, max representative)
    pair. Cluster 1 is the final cluster containing client 0. Each merge
    recomputes only the merged cluster's row and column of the linkage matrix.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    n = matrix.n
    if n < 2:
        raise ValueError("clustering requires at least 2 clients")
    merge = _MERGE[linkage]
    # stat[a, b]: statistic between the clusters represented by a and b;
    # rows and columns of merged-away clusters, and the diagonal, hold inf.
    stat = np.array(matrix.entries)
    np.fill_diagonal(stat, np.inf)
    size = np.ones(n)
    rep = np.arange(n)
    link = stat.copy() if linkage == "average" else stat
    for _ in range(n - 2):
        # link is symmetric, so the first minimum in row-major order is the
        # lexicographically smallest (rep_a, rep_b) pair, and a < b.
        a, b = divmod(int(np.argmin(link)), n)
        stat[a] = stat[:, a] = merge(stat[a], stat[b])
        stat[a, a] = stat[b] = stat[:, b] = np.inf
        size[a] += size[b]
        rep[rep == b] = a
        if linkage == "average":
            link[a] = link[:, a] = stat[a] / (size[a] * size)
            link[b] = link[:, b] = np.inf
    return ClusterAssignment(np.where(rep == 0, 1, 2))


def cluster_density(matrix: DistanceMatrix, members) -> float:
    """Mean pairwise distance inside ``members``; singletons have density 0."""
    idx = np.asarray(members, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        raise ValueError("cluster must be nonempty")
    if np.any(idx < 0) or np.any(idx >= matrix.n):
        raise ValueError("cluster member index out of range")
    if np.unique(idx).size != idx.size:
        raise ValueError("cluster members must be distinct")
    k = idx.size
    if k == 1:
        return 0.0
    sub = matrix.entries[np.ix_(idx, idx)]
    # The full submatrix counts each unordered pair twice and the zero
    # diagonal not at all, so this is the mean over unordered pairs.
    return float(sub.sum() / (k * (k - 1)))


def label_clusters(matrix: DistanceMatrix, assignment: ClusterAssignment) -> ClusterVerdict:
    """Score both clusters as ``size * density`` and discard the smaller score.

    A strictly smaller score for cluster 1 marks it poisoned; otherwise
    (including exact ties) cluster 2 is poisoned.
    """
    if assignment.n != matrix.n:
        raise ValueError(
            f"assignment covers {assignment.n} clients, matrix has {matrix.n}"
        )
    cluster_1 = assignment.members(1)
    cluster_2 = assignment.members(2)
    score_1 = cluster_1.size * cluster_density(matrix, cluster_1)
    score_2 = cluster_2.size * cluster_density(matrix, cluster_2)
    if score_1 < score_2:
        poisoned, benign = cluster_1, cluster_2
    else:
        poisoned, benign = cluster_2, cluster_1
    return ClusterVerdict(
        benign=tuple(int(i) for i in benign),
        poisoned=tuple(int(i) for i in poisoned),
        score_1=float(score_1),
        score_2=float(score_2),
    )
