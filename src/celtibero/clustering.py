"""One layer's verdict: pairwise cosine distances, two-cluster agglomerative
clustering, and the size x density score that discards one cluster.

Each client's per-layer update is characterized by its direction only. The
cosine kernel, ``pairwise_cosine_matrix``, fills the pairwise distance
matrix 16 rows at a time, taking each norm once, and may scale its input
in place. Bottom-up merges on n x n NumPy arrays, updated in the merged
row and column only by the Lance-Williams rule (Lance & Williams 1967),
run until exactly two clusters remain, and the cluster with the smaller
``size * mean pairwise distance`` score is labeled poisoned: a small,
tightly packed group of updates is treated as coordinated manipulation,
while the larger or more naturally dispersed group is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LINKAGES",
    "DistanceMatrix",
    "ClusterAssignment",
    "ClusterVerdict",
    "pairwise_cosine_matrix",
    "agglomerative_two_clusters",
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
    """Labels 1 and 2 of client indices 0..n-1 as an int array; unchecked:
    ``label_clusters`` checks the assignment it is handed."""

    cluster_of: np.ndarray

    @property
    def n(self) -> int:
        return self.cluster_of.size

    def members(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.cluster_of == label)


@dataclass(frozen=True)
class ClusterVerdict:
    """Outcome of scoring one layer's two clusters: ``benign`` and
    ``poisoned`` partition 0..n-1 as sorted tuples of ints.

    ``benign`` is never empty: exactly one cluster is discarded, so at least
    one client survives every layer.
    """

    benign: tuple[int, ...]
    poisoned: tuple[int, ...]
    score_1: float
    score_2: float


# Rows of the distance matrix that one batched ``_dots`` call fills.
_BLOCK_ROWS = 16


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a[k], b[k])`` for every row k (a 1-D ``a`` or ``b`` stands for
    itself in every row), bit for bit: one batched ``np.matmul`` of C-contiguous
    ``(1, w) @ (w, 1)`` blocks runs the vector dot ``np.dot`` runs."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _peak(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """``max |x|`` along ``axis`` (of every entry by default), 0 where empty,
    without an ``|x|`` temporary: the magnitude whose power of two scales
    rows for the cosine kernel and models for Krum."""
    return np.maximum(
        np.maximum.reduce(x, axis=axis, initial=0.0), -np.minimum.reduce(x, axis=axis, initial=0.0)
    )


def pairwise_cosine_matrix(updates, *, overwrite_input: bool = False) -> DistanceMatrix:
    """The cosine kernel: ``1 - cos`` between every pair of rows of an
    ``(n, w)`` matrix of update vectors, clamped to [0, 2].

    ``updates`` is a 2-D array or a sequence of equal-length 1-D vectors.
    Ragged rows fail in ``np.array`` with ``ValueError`` (a generator with
    ``TypeError``); then any other shape, NaN or Inf (naming the first such
    row), and fewer than two rows raise ``ValueError``. Each row is scaled
    by the power of two that brings its largest magnitude into [0.5, 1):
    exact, so normal-range cosines are unchanged, while huge norms no longer
    overflow. The matrix is filled ``_BLOCK_ROWS`` rows at a time, each
    block of rows against every later row by one ``_dots`` call. Zero-norm
    convention: 1.0 when exactly one vector is all-zero (a zero vector
    carries no direction, so it sits at the neutral distance), 0.0 when
    both are.

    Every distance is bit for bit the per-pair ``np.dot``, so permuted rows
    give the permuted matrix and identical rows identical distance rows,
    exactly: rounding never scores colluding clients apart. One Gram product
    ``scaled @ scaled.T`` is faster but kept these for only 1,622 of 1,946
    identical rows and 133 of 300 row sets.

    As in ``np.median``, ``overwrite_input=True`` permits, and does not
    require, the kernel to work in its input: a writable float64 2-D array
    whose rows are contiguous is scaled in place and holds the scaled rows
    afterwards (unless the input is rejected, which leaves it untouched).
    Any other input is copied, in C order: ``_dots`` needs contiguous rows.
    """
    if (
        overwrite_input
        and isinstance(updates, np.ndarray)
        and updates.ndim == 2
        and updates.dtype == np.float64
        and updates.flags.writeable
        and updates.strides[1] == updates.itemsize
    ):
        scaled = updates
    else:
        # ndmin: an empty list or one 1-D vector becomes one row.
        scaled = np.array(updates, dtype=np.float64, order="C", ndmin=2)
        if scaled.ndim != 2:
            raise ValueError(f"updates must be an (n, w) matrix, got shape {scaled.shape}")
    n = scaled.shape[0]
    peak = _peak(scaled, axis=1)
    if not np.isfinite(peak).all():
        raise ValueError(f"vector {int(np.argmin(np.isfinite(peak)))} contains NaN or Inf")
    if n < 2:
        raise ValueError("need at least 2 update vectors")
    np.ldexp(scaled, -np.frexp(peak)[1][:, None], out=scaled)
    norms = np.sqrt(_dots(scaled, scaled))
    zero = norms == 0.0
    norms[zero] = 1.0  # a zero row's cosines are then 0, its distances 1
    # Rows i0:i1 against rows i0+1:, of which ``np.triu`` keeps each row's
    # pairs with the rows after it; ``out += out.T`` mirrors them.
    out = np.zeros((n, n))
    for i0 in range(0, n - 1, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, n - 1)
        cos = _dots(scaled[i0:i1, None, :], scaled[None, i0 + 1 :, :])
        cos /= norms[i0:i1, None] * norms[i0 + 1 :]
        out[i0:i1, i0 + 1 :] = np.triu(np.clip(1.0 - cos, 0.0, 2.0))
    out += out.T
    out[np.ix_(zero, zero)] = 0.0
    return DistanceMatrix(out)


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
        a, b = divmod(int(link.argmin()), n)
        stat[a] = stat[:, a] = merge(stat[a], stat[b])
        stat[a, a] = stat[b] = stat[:, b] = np.inf
        size[a] += size[b]
        rep[rep == b] = a
        if linkage == "average":
            link[a] = link[:, a] = stat[a] / (size[a] * size)
            link[b] = link[:, b] = np.inf
    return ClusterAssignment(np.where(rep == 0, 1, 2))


def label_clusters(matrix: DistanceMatrix, assignment: ClusterAssignment) -> ClusterVerdict:
    """Score both clusters as ``size * density`` and discard the smaller score.

    A cluster's density is the mean pairwise distance between its members;
    a singleton's is 0. A strictly smaller score for cluster 1 marks it
    poisoned; otherwise (including exact ties) cluster 2 is poisoned. The
    assignment must hold one label, 1 or 2, per client of ``matrix``, and
    both labels.
    """
    if assignment.cluster_of.ndim != 1:
        raise ValueError(f"assignment must be 1-D, got shape {assignment.cluster_of.shape}")
    if assignment.n != matrix.n:
        raise ValueError(
            f"assignment covers {assignment.n} clients, matrix has {matrix.n}"
        )
    clusters = assignment.members(1), assignment.members(2)
    if clusters[0].size + clusters[1].size != matrix.n:
        raise ValueError("cluster labels must be 1 or 2")
    if not (clusters[0].size and clusters[1].size):
        raise ValueError("both clusters must be nonempty")
    scores = []
    for members in clusters:
        k = members.size
        # The full submatrix counts each unordered pair twice and the zero
        # diagonal not at all: sum / (k * (k - 1)) is the mean pair distance.
        sub = matrix.entries[np.ix_(members, members)]
        scores.append(float(k * (sub.sum() / (k * (k - 1)))) if k > 1 else 0.0)
    benign, poisoned = clusters[::-1] if scores[0] < scores[1] else clusters
    # Python ints, as ``summary.json`` writes them.
    return ClusterVerdict(tuple(benign.tolist()), tuple(poisoned.tolist()), *scores)
