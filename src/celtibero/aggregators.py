"""Aggregation strategies for combining local models into a new global model.

``celtibero_aggregate`` is the layered robust rule this package is built
around: per layer it clusters update directions into two groups, drops the
group scored as coordinated manipulation, and advances the global layer by
the coordinate-wise median of the surviving updates. The remaining
strategies (``fedavg``, ``coordinate_median``, ``krum``, ``median_krum``)
serve as baselines under the same interface. Local models, updates and the
result are all :class:`~celtibero.model.ModelWeights`. Every baseline reads
the models through one walker, ``_column_blocks``: it checks their shapes
once, then walks each layer's columns (``ModelWeights.slices``) in turn,
gathering every model's share of a block into one reused buffer of at most
``_BLOCK_BYTES``, so no baseline copies the whole round. Celtibero works in
its one update matrix: the cosine kernel scales a layer's columns in place,
and the median reads the kept updates written back over their first rows.
``aggregate`` picks the strategy for a parsed
:class:`~celtibero.config.AggregatorConfig` from ``_RULES``, the kind table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .clustering import (
    ClusterVerdict,
    _peak,
    agglomerative_two_clusters,
    label_clusters,
    pairwise_cosine_matrix,
)
from .model import ModelWeights, check_shapes, diff

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
# The most bytes of model columns that a baseline rule gathers at once
# (``_column_blocks``); narrower blocks make Krum's Gram products slower.
_BLOCK_BYTES = 1 << 21
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
        # kept updates are written over their first rows (the bits of ``diff``).
        kept = updates[: len(verdict.benign), sl]
        np.concatenate([local_models[i].flat[None, sl] for i in verdict.benign], out=kept)
        kept -= base[sl]
        _median_rows(kept, out=new[sl])
        new[sl] += base[sl]
        verdicts.append(verdict)
    return ModelWeights._owning(global_model, new), tuple(verdicts)


def fedavg(local_models: list[ModelWeights]) -> ModelWeights:
    """Unweighted per-coordinate mean of the local models."""
    if len(local_models) < 1:
        raise ValueError("fedavg requires at least 1 local model")
    mean = np.empty(local_models[0].flat.size)
    for c, e, block in _column_blocks(local_models):
        block.mean(axis=0, out=mean[c:e])
    return ModelWeights._owning(local_models[0], mean)


def coordinate_median(local_models: list[ModelWeights]) -> ModelWeights:
    """Per-coordinate median of the local models.

    Even counts take the midpoint of the two central order statistics.
    """
    if len(local_models) < 1:
        raise ValueError("coordinate median requires at least 1 local model")
    median = np.empty(local_models[0].flat.size)
    for c, e, block in _column_blocks(local_models):
        _median_rows(block, out=median[c:e])
    return ModelWeights._owning(local_models[0], median)


def _column_blocks(models: list[ModelWeights]):
    """Check the models' shapes, then yield ``(c, e, block)`` for consecutive
    ranges ``[c, e)`` covering each layer's columns in turn, ``block``
    holding ``flat[c:e]`` of every model: a C-ordered view of one buffer,
    reused for the next block, so the caller may overwrite it. A block holds
    at most ``_BLOCK_BYTES`` (but at least two columns), and a layer's last
    one a column more where that spares a one-column block. NumPy sums a
    one-column block pairwise but a wider one row by row, so a layer of two
    or more columns is never cut into a one-column block, and no block spans
    two layers, which would change a width-1 layer's mean."""
    check_shapes(models)
    flats = [m.flat for m in models]
    n = len(flats)
    width = max(2, _BLOCK_BYTES // (8 * n))
    buf = np.empty(n * min(width + 1, flats[0].size))
    for layer in models[0].slices():
        c, stop = layer.start, layer.stop
        while c < stop:
            e = c + width if stop - c - width >= 2 else stop
            block = np.concatenate([flat[c:e] for flat in flats], out=buf[: n * (e - c)])
            yield c, e, block.reshape(n, e - c)
            c = e


def _median_rows(rows: np.ndarray, out: np.ndarray) -> None:
    """Write ``np.median(rows, axis=0)`` into ``out`` bit for bit on finite
    rows, from one partition of ``rows`` in place, which reorders each
    column: ``np.median`` partitions a copy the same way, and also at the
    last row, only to move NaN to the end. Like ``np.mean`` of the central
    rows, the sum starts from +0.0, which a bare ``rows[k]`` or ``(a + b) /
    2`` does not on signed zeros."""
    k = rows.shape[0] // 2
    rows.partition(k, axis=0)
    if rows.shape[0] % 2:
        np.add(rows[k], 0.0, out=out)
        return
    np.maximum.reduce(rows[:k], axis=0, out=out)
    out += 0.0
    out += rows[k]
    out /= 2.0


def _krum_scores(local_models: list[ModelWeights], f: int) -> np.ndarray:
    n = len(local_models)
    if f < 0:
        raise ValueError(f"f must be >= 0, got {f}")
    if n < 2 * f + 3:
        raise ValueError(f"krum requires n >= 2f + 3, got n={n}, f={f}")
    # Squared distances ||a||^2 + ||b||^2 - 2<a, b> from one Gram matrix of
    # the rows centred on their mean, which keeps the norms near the distances,
    # summed over each layer's blocks of columns. The rows are first scaled by
    # the power of two that brings their largest magnitude into [0.5, 1), as
    # the cosine kernel scales each row, and the distances scaled back: exact
    # on normal-range models, while huge ones score inf instead of NaN. Near
    # pairs are recomputed unscaled, where honest models beside huge
    # attackers would underflow to 0.
    shift = int(np.frexp(max(_peak(m.flat) for m in local_models))[1])
    gram = np.zeros((n, n))
    for _, _, block in _column_blocks(local_models):
        np.ldexp(block, -shift, out=block)
        block -= block.mean(axis=0)
        gram += block @ block.T
    norm2 = np.diag(gram)
    bound = norm2[:, None] + norm2
    squared = np.maximum(bound - 2.0 * gram, 0.0)
    near = np.nonzero(np.triu(squared <= _EXACT_SHARE * bound, 1))
    with np.errstate(over="ignore"):  # a distance past the float range reads inf
        squared = np.ldexp(squared, 2 * shift)
        for i, j in zip(*near):
            d = local_models[i].flat - local_models[j].flat
            squared[i, j] = squared[j, i] = np.dot(d, d)
        # An inf diagonal sorts last, so no row counts a model against itself.
        np.fill_diagonal(squared, np.inf)
        return np.sort(squared, axis=1)[:, : n - f - 2].sum(axis=1)


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
