"""Weight containers and the vector arithmetic built on top of them.

A model is one flat read-only float64 vector plus the dims tuple of each
of its layers, in order (each weight matrix, ``(fan_in, fan_out)``, and
each bias vector, ``(fan_out,)``, is its own layer), every layer a fixed
range of the vector. Only this module checks the dims and computes those
ranges: ``ModelWeights.slices()`` hands them out, the baseline aggregators
read them from many models' vectors a block of columns at a time, and
celtibero from its one update matrix. Updates (a local model
minus the global model it started from), gradients and attack masks use the
same container. Every operation here is pure: inputs are never mutated and
containers are immutable, so they are safe to share between concurrently
training clients.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeMismatchError

__all__ = [
    "ModelWeights",
    "diff",
    "add_update",
]


class ModelWeights:
    """Ordered layer weights in one flat vector; the unit exchanged between
    clients and server.

    ``shapes`` holds each layer's dims, a non-empty sequence of positive
    integers, kept as a tuple of ints. ``flat`` is a read-only float64 copy
    of the given values holding every layer back to back, in the order of
    ``shapes``; layer ``k`` is the view ``flat[slices()[k]]``. Its length
    must equal the layers' total size, and all values must be finite. A
    vector the package has just computed is adopted through ``_owning``
    instead of copied.
    """

    __slots__ = ("flat", "_shapes", "_slices")

    def __init__(self, shapes: Iterable[Sequence[int]], flat: Sequence[float]):
        checked, slices, start = [], [], 0
        for given in shapes:
            dims = tuple(int(d) for d in given)
            if not dims or any(d < 1 for d in dims):
                raise ValueError(f"layer dims must be positive integers, got {given!r}")
            checked.append(dims)
            slices.append(slice(start, start + math.prod(dims)))
            start = slices[-1].stop
        self._shapes, self._slices = tuple(checked), tuple(slices)
        self._adopt(np.array(flat, dtype=np.float64).reshape(-1))

    @classmethod
    def _owning(cls, like: ModelWeights, flat: np.ndarray) -> ModelWeights:
        """A model in ``like``'s shapes that keeps ``flat`` itself instead of
        a copy, for a 1-D float64 vector its caller has just computed and
        hands over; the checks are those of ``__init__``. Saves one copy of
        the vector per container."""
        weights = cls.__new__(cls)
        weights._shapes, weights._slices = like._shapes, like._slices
        weights._adopt(flat)
        return weights

    def _adopt(self, arr: np.ndarray) -> None:
        total = self._slices[-1].stop if self._slices else 0
        if arr.size != total:
            for k, sl in enumerate(self._slices):
                if sl.stop > arr.size:
                    raise ShapeMismatchError(
                        f"layer {k}: needs entries [{sl.start}, {sl.stop}) "
                        f"of a {arr.size}-entry vector"
                    )
            raise ShapeMismatchError(
                f"vector length {arr.size} exceeds the layers' total size {total}"
            )
        finite = np.isfinite(arr)
        if not finite.all():
            first = int(np.argmin(finite))
            k = next(k for k, sl in enumerate(self._slices) if first < sl.stop)
            raise ValueError(f"layer {k}: weights contain NaN or Inf")
        arr.flags.writeable = False
        self.flat: np.ndarray = arr

    def shapes(self) -> tuple[tuple[int, ...], ...]:
        """Each layer's dims, in layer order."""
        return self._shapes

    def slices(self) -> tuple[slice, ...]:
        """Each layer's range of entries in ``flat``, in layer order."""
        return self._slices

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelWeights):
            return NotImplemented
        return self._shapes == other._shapes and np.array_equal(self.flat, other.flat)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        dims = ", ".join("x".join(map(str, dims)) for dims in self._shapes)
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


def diff(local: ModelWeights, global_model: ModelWeights) -> ModelWeights:
    """Per-coordinate ``local - global``, in the global model's shapes."""
    check_shapes((global_model, local))
    return ModelWeights._owning(global_model, local.flat - global_model.flat)


def add_update(global_model: ModelWeights, update: ModelWeights) -> ModelWeights:
    """Apply an update coordinate-wise; the result keeps the global model's shapes."""
    check_shapes((global_model, update))
    return ModelWeights._owning(global_model, global_model.flat + update.flat)
