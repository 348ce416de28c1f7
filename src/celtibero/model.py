"""Layered weight containers and the vector arithmetic built on top of them.

Weights travel between clients and server as an ordered sequence of flat
float64 vectors, one per registered layer; each weight matrix and each bias
vector counts as its own layer. Updates (a local model minus the global model
it started from), gradients and attack masks use the same container, in the
shapes of the model they were taken against. Every operation here is pure:
inputs are never mutated and the containers are immutable once constructed,
so they are safe to share between concurrently training clients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeMismatchError

__all__ = [
    "LayerShape",
    "ModelWeights",
    "diff",
    "add_update",
    "cosine_distance",
]


def _readonly_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LayerShape:
    """Logical tensor shape of one layer; the flat vector length is ``size``."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"layer dims must be positive integers, got {self.dims!r}")
        object.__setattr__(self, "dims", dims)

    @property
    def size(self) -> int:
        return math.prod(self.dims)


class ModelWeights:
    """Ordered per-layer weights; the unit exchanged between clients and server.

    ``layers`` is a tuple of ``(LayerShape, vector)`` pairs where each vector
    is a read-only flat float64 array whose length matches the shape. All
    values must be finite.
    """

    __slots__ = ("layers",)

    def __init__(self, layers: Iterable[tuple[LayerShape, Sequence[float]]]):
        checked = []
        for k, (shape, vec) in enumerate(layers):
            arr = _readonly_vector(vec)
            if arr.size != shape.size:
                raise ShapeMismatchError(
                    f"layer {k}: vector length {arr.size} does not match shape size {shape.size}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"layer {k}: weights contain NaN or Inf")
            checked.append((shape, arr))
        self.layers: tuple[tuple[LayerShape, np.ndarray], ...] = tuple(checked)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def total_size(self) -> int:
        return sum(s.size for s, _ in self.layers)

    def shapes(self) -> tuple[LayerShape, ...]:
        return tuple(s for s, _ in self.layers)

    def vectors(self) -> tuple[np.ndarray, ...]:
        return tuple(v for _, v in self.layers)

    def concat(self) -> np.ndarray:
        """All layers joined into a single flat vector, in layer order."""
        if not self.layers:
            return np.zeros(0)
        return np.concatenate([v for _, v in self.layers])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelWeights):
            return NotImplemented
        return self.shapes() == other.shapes() and all(
            np.array_equal(a, b) for a, b in zip(self.vectors(), other.vectors())
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        dims = ", ".join("x".join(map(str, s.dims)) for s, _ in self.layers)
        return f"ModelWeights([{dims}])"


def _aligned_layers(a: ModelWeights, b: ModelWeights):
    if a.num_layers != b.num_layers:
        raise ShapeMismatchError(
            f"layer count mismatch: {a.num_layers} vs {b.num_layers}"
        )
    for k, ((shape_a, vec_a), (_, vec_b)) in enumerate(zip(a.layers, b.layers)):
        if vec_a.size != vec_b.size:
            raise ShapeMismatchError(
                f"layer {k}: vector length {vec_a.size} vs {vec_b.size}"
            )
        yield k, shape_a, vec_a, vec_b


def diff(local: ModelWeights, global_model: ModelWeights) -> ModelWeights:
    """Per-layer, per-coordinate ``local - global``, in the global model's shapes."""
    return ModelWeights(
        (shape, vl - vg) for _, shape, vg, vl in _aligned_layers(global_model, local)
    )


def add_update(global_model: ModelWeights, update: ModelWeights) -> ModelWeights:
    """Apply an update layer-wise; the result keeps the global model's shapes."""
    return ModelWeights(
        (shape, vg + delta) for _, shape, vg, delta in _aligned_layers(global_model, update)
    )


def _cosine_distances(vectors) -> np.ndarray:
    """The cosine kernel: ``1 - cos`` between every pair of equal-length
    vectors, clamped to [0, 2], as a symmetric matrix with a zero diagonal.

    Each vector is converted, checked and scaled once. Scaling by the power
    of two that brings its largest magnitude into [0.5, 1) is exact, so the
    cosine of normal-range vectors is unchanged, while the norms of huge
    vectors no longer overflow. NaN or Inf input raises ``ValueError``.
    Zero-norm convention: 1.0 when exactly one vector is all-zero (a zero
    vector carries no direction, so it sits at the neutral distance), 0.0
    when both are.
    """
    scaled = []
    for k, vec in enumerate(vectors):
        arr = np.asarray(vec, dtype=np.float64).reshape(-1)
        if scaled and arr.size != scaled[0].size:
            raise ShapeMismatchError(f"vector {k}: length {arr.size} vs {scaled[0].size}")
        peak = float(np.max(np.abs(arr), initial=0.0))
        if not math.isfinite(peak):
            raise ValueError(f"vector {k} contains NaN or Inf")
        scaled.append(np.ldexp(arr, -math.frexp(peak)[1]))
    norms = [float(np.linalg.norm(s)) for s in scaled]
    n = len(scaled)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if norms[i] == 0.0 or norms[j] == 0.0:
                dist = 0.0 if norms[i] == norms[j] else 1.0
            else:
                cos = float(np.dot(scaled[i], scaled[j])) / (norms[i] * norms[j])
                dist = min(2.0, max(0.0, 1.0 - cos))
            out[i, j] = out[j, i] = dist
    return out


def cosine_distance(u, v) -> float:
    """``1 - cos(u, v)``, clamped to [0, 2]: the two-vector case of the cosine
    kernel, with its scaling, NaN/Inf check and zero-norm convention."""
    return float(_cosine_distances((u, v))[0, 1])
