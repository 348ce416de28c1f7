"""Aggregation strategies for combining local models into a new global model.

``celtibero_aggregate`` is the layered robust rule this package is built
around: per layer it clusters update directions into two groups, drops the
group scored as coordinated manipulation, and advances the global layer by
the coordinate-wise median of the surviving updates. The remaining
strategies (``fedavg``, ``coordinate_median``, ``krum``, ``median_krum``)
serve as baselines under the same interface. Local models, updates and the
result are all :class:`~celtibero.model.ModelWeights`. Each strategy lines
rows up in ``(rows, parameters)`` matrices and works on their columns, a
layer at a time where the rule is per layer (``ModelWeights.slices``):
celtibero fills one update matrix and lets the cosine kernel scale each
layer's columns in place, then rebuilds the kept rows for the median from
the local models; median-Krum stacks all models (``model.stack``) and then
the kept ones. ``aggregate`` picks the strategy for a parsed
:class:`~celtibero.config.AggregatorConfig` from ``_RULES``, the kind table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .clustering import (
    ClusterVerdict,
    agglomerative_two_clusters,
    label_clusters,
    pairwise_cosine_matrix,
)
from .model import ModelWeights, diff, stack

if TYPE_CHECKING:
    from .config import AggregatorConfig

__all__ = [
    "AGGREGATOR_NAMES",
    "aggregate",
    "celtibero_aggregate",
    "fedavg",
    "coordinate_median",
    "krum",
    "median_krum",
]

# Each kind's call: (global model, local models, config) -> (new global model,
# verdicts or None). Rows name their rule at call time: rebinding it rebinds the row.
_RULES = {
    "celtibero": lambda g, models, cfg: celtibero_aggregate(g, models, cfg.linkage),
    "fedavg": lambda g, models, cfg: (fedavg(models), None),
    "coord_median": lambda g, models, cfg: (coordinate_median(models), None),
    "krum": lambda g, models, cfg: (krum(models, cfg.krum_f), None),
    "median_krum": lambda g, models, cfg: (median_krum(models, cfg.krum_f), None),
}
AGGREGATOR_NAMES = tuple(_RULES)
# The most bytes of kept update rows that celtibero's median rebuilds at
# once: a block of a layer's columns.
_MEDIAN_BYTES = 1 << 17
# Krum pairs whose squared distance from the Gram matrix is at most this
# share of ``G_ii + G_jj`` are recomputed from the difference of the two
# models: there ``G_ii + G_jj - 2 G_ij`` cancels too many bits, and
# identical models must stay at distance exactly 0.
_EXACT_SHARE = 1e-3


def celtibero_aggregate(
    global_model: ModelWeights,
    local_models: list[ModelWeights],
    linkage: str = "average",
) -> tuple[ModelWeights, tuple[ClusterVerdict, ...]]:
    """Layer-wise robust aggregation with per-layer cluster verdicts.

    For every layer independently: compute each client's update against the
    global model, cluster the update directions into two groups by cosine
    distance, label the lower-scoring group poisoned, and add the
    coordinate-wise median of the surviving updates onto the global layer.
    A client may be kept in one layer and discarded in another. Besides its
    inputs the round holds one update matrix, ``len(local_models)`` rows of
    the model's size.

    Returns the new global model together with one verdict per layer for
    auditing which clients were kept where.
    """
    if len(local_models) < 2:
        raise ValueError("celtibero requires at least 2 local models")
    base = global_model.flat
    updates = np.empty((len(local_models), base.size))
    for row, local in zip(updates, local_models):
        row[:] = diff(local, global_model).flat
    new = np.empty_like(base)
    verdicts = []
    for sl in global_model.slices():
        matrix = pairwise_cosine_matrix(updates[:, sl], overwrite_input=True)
        verdict = label_clusters(matrix, agglomerative_two_clusters(matrix, linkage))
        # The kernel scaled these columns of ``updates`` in place, so the
        # kept rows are rebuilt from the local models (the bits of ``diff``),
        # a block of columns at a time.
        kept = [local_models[i].flat for i in verdict.benign]
        cols = max(1, _MEDIAN_BYTES // (updates.itemsize * len(kept)))
        for c in range(sl.start, sl.stop, cols):
            e = min(c + cols, sl.stop)
            block = np.array([flat[c:e] for flat in kept])
            block -= base[c:e]
            np.add(base[c:e], _median_rows(block), out=new[c:e])
        verdicts.append(verdict)
    return ModelWeights._owning(global_model, new), tuple(verdicts)


def fedavg(local_models: list[ModelWeights]) -> ModelWeights:
    """Unweighted per-coordinate mean of the local models, taken one layer's
    columns at a time: NumPy sums a one-column block pairwise but a wider one
    row by row, so a whole-matrix mean would change width-1 layers' bits."""
    if len(local_models) < 1:
        raise ValueError("fedavg requires at least 1 local model")
    stacked = stack(local_models)
    mean = np.empty(stacked.shape[1])
    for sl in local_models[0].slices():
        mean[sl] = stacked[:, sl].mean(axis=0)
    return ModelWeights._owning(local_models[0], mean)


def coordinate_median(local_models: list[ModelWeights]) -> ModelWeights:
    """Per-coordinate median of the local models.

    Even counts take the midpoint of the two central order statistics.
    """
    if len(local_models) < 1:
        raise ValueError("coordinate median requires at least 1 local model")
    return ModelWeights._owning(local_models[0], _median_rows(stack(local_models)))


def _median_rows(rows: np.ndarray) -> np.ndarray:
    """``np.median(rows, axis=0)`` bit for bit on finite rows, from one
    partition: ``np.median`` also partitions at the last row, only to move
    NaN to the end. The ``np.add.reduce`` and the division repeat
    ``np.mean`` of the central rows, which a bare ``part[k]`` or ``(a + b)
    / 2`` does not on signed zeros."""
    k = rows.shape[0] // 2
    part = np.partition(rows, k, axis=0)
    if rows.shape[0] % 2:
        return np.add.reduce(part[k : k + 1], axis=0) / 1.0
    return np.add.reduce(np.stack([part[:k].max(axis=0), part[k]]), axis=0) / 2.0


def _krum_scores(local_models: list[ModelWeights], f: int) -> np.ndarray:
    n = len(local_models)
    if f < 0:
        raise ValueError(f"f must be >= 0, got {f}")
    if n < 2 * f + 3:
        raise ValueError(f"krum requires n >= 2f + 3, got n={n}, f={f}")
    # Squared distances ||a||^2 + ||b||^2 - 2<a, b> from one Gram matrix of
    # the rows centred on their mean, which keeps the norms near the distances.
    # The rows are first scaled by the power of two that brings their largest
    # magnitude into [0.5, 1), as the cosine kernel scales each row: exact on
    # normal-range models, while huge ones score inf instead of NaN.
    centred = stack(local_models)
    peak = max(
        np.maximum.reduce(centred, axis=None, initial=0.0),
        -np.minimum.reduce(centred, axis=None, initial=0.0),
    )
    shift = int(np.frexp(peak)[1])
    np.ldexp(centred, -shift, out=centred)
    centred -= centred.mean(axis=0)
    gram = centred @ centred.T
    norm2 = np.diag(gram)
    bound = norm2[:, None] + norm2
    squared = np.maximum(bound - 2.0 * gram, 0.0)
    bound *= _EXACT_SHARE
    for i, j in zip(*np.nonzero(np.triu(squared <= bound, 1))):
        d = np.ldexp(local_models[i].flat, -shift)
        d -= np.ldexp(local_models[j].flat, -shift)
        squared[i, j] = squared[j, i] = np.dot(d, d)
    # An inf diagonal sorts last, so no row counts a model against itself.
    np.fill_diagonal(squared, np.inf)
    scores = np.sort(squared, axis=1)[:, : n - f - 2].sum(axis=1)
    with np.errstate(over="ignore"):  # a score past the float range reads inf
        return np.ldexp(scores, 2 * shift)


def krum(local_models: list[ModelWeights], f: int) -> ModelWeights:
    """Return the input model whose summed squared distance to its
    ``n - f - 2`` nearest peers is smallest, the lowest index on a tie.
    Squared distances come from a Gram matrix, so identical models can score
    a few ulps apart: the result is then equal to all of them, but need not
    be the one with the lowest index."""
    scores = _krum_scores(local_models, f)
    return local_models[int(np.argmin(scores))]


def median_krum(local_models: list[ModelWeights], f: int) -> ModelWeights:
    """Coordinate-wise median over the ``n - f`` models with the best Krum
    scores (score ties resolved toward lower client indices)."""
    scores = _krum_scores(local_models, f)
    order = np.argsort(scores, kind="stable")
    candidates = [local_models[int(i)] for i in order[: len(local_models) - f]]
    return coordinate_median(candidates)


def aggregate(
    cfg: AggregatorConfig,
    global_model: ModelWeights,
    local_models: list[ModelWeights],
) -> tuple[ModelWeights, tuple[ClusterVerdict, ...] | None]:
    """Apply the configured strategy; verdicts are returned for celtibero only."""
    if cfg.kind not in _RULES:
        raise ValueError(f"aggregator must be one of {AGGREGATOR_NAMES}, got {cfg.kind!r}")
    return _RULES[cfg.kind](global_model, local_models, cfg)
