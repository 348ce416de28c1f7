"""Weight containers and the vector arithmetic built on top of them.

A model is one flat read-only float64 vector plus the ordered
:class:`LayerShape` of its layers (each weight matrix and each bias vector
is its own layer), every layer a fixed range of the vector. Only this module
computes those ranges: ``ModelWeights.slices()`` hands them out, and
``stack`` lines models up as the rows of one matrix whose columns the
aggregators slice per layer. Updates (a local model minus the global model
it started from), gradients and attack masks use the same container.
Every operation here is pure: inputs are never mutated and containers are
immutable, so they are safe to share between concurrently training clients.
"""

from __future__ import annotations

import itertools
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
    """Ordered layer weights in one flat vector; the unit exchanged between
    clients and server.

    ``flat`` is a read-only float64 copy of the given values holding every
    layer back to back, in the order of ``shapes``; layer ``k`` is the view
    ``flat[slices()[k]]``. Its length must equal the layers' total size, and
    all values must be finite.
    """

    __slots__ = ("flat", "_shapes", "_slices")

    def __init__(self, shapes: Iterable[LayerShape], flat: Sequence[float]):
        arr = np.array(flat, dtype=np.float64).reshape(-1)
        self._shapes = tuple(shapes)
        slices, start = [], 0
        for k, shape in enumerate(self._shapes):
            stop = start + shape.size
            if stop > arr.size:
                raise ShapeMismatchError(
                    f"layer {k}: needs entries [{start}, {stop}) of a {arr.size}-entry vector"
                )
            slices.append(slice(start, stop))
            start = stop
        if start != arr.size:
            raise ShapeMismatchError(
                f"vector length {arr.size} exceeds the layers' total size {start}"
            )
        self._slices = tuple(slices)
        finite = np.isfinite(arr)
        if not finite.all():
            first = int(np.argmin(finite))
            k = next(k for k, sl in enumerate(self._slices) if first < sl.stop)
            raise ValueError(f"layer {k}: weights contain NaN or Inf")
        arr.flags.writeable = False
        self.flat: np.ndarray = arr

    def shapes(self) -> tuple[LayerShape, ...]:
        return self._shapes

    def slices(self) -> tuple[slice, ...]:
        """Each layer's range of entries in ``flat``, in layer order."""
        return self._slices

    def vectors(self) -> tuple[np.ndarray, ...]:
        """Each layer as a read-only flat view into ``flat``."""
        return tuple(self.flat[sl] for sl in self._slices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelWeights):
            return NotImplemented
        return self._shapes == other._shapes and np.array_equal(self.flat, other.flat)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        dims = ", ".join("x".join(map(str, s.dims)) for s in self._shapes)
        return f"ModelWeights([{dims}])"


def check_shapes(models: Sequence[ModelWeights]) -> None:
    """Raise ``ShapeMismatchError`` unless every model has the layer shapes
    of the first, naming the first layer that differs."""
    first = models[0].shapes()
    for model in models[1:]:
        if model.shapes() != first:
            for k, (a, b) in enumerate(itertools.zip_longest(first, model.shapes())):
                if a != b:
                    raise ShapeMismatchError(f"layer {k}: {a} vs {b}")


def stack(models: Sequence[ModelWeights]) -> np.ndarray:
    """The flat vectors of equally shaped models as the rows of one
    ``(len(models), size)`` matrix; ``slices()`` of any of them picks a
    layer's columns."""
    check_shapes(models)
    return np.stack([m.flat for m in models])


def diff(local: ModelWeights, global_model: ModelWeights) -> ModelWeights:
    """Per-coordinate ``local - global``, in the global model's shapes."""
    check_shapes((global_model, local))
    return ModelWeights(global_model.shapes(), local.flat - global_model.flat)


def add_update(global_model: ModelWeights, update: ModelWeights) -> ModelWeights:
    """Apply an update coordinate-wise; the result keeps the global model's shapes."""
    check_shapes((global_model, update))
    return ModelWeights(global_model.shapes(), global_model.flat + update.flat)


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
