"""Dataset container, IDX ingestion, synthetic blobs, and client partitioning."""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IdxFormatError

__all__ = [
    "LabeledDataset",
    "Partition",
    "load_idx",
    "gen_synthetic",
    "partition_iid",
    "partition_dirichlet",
]

_IMAGES_MAGIC = 0x00000803
_LABELS_MAGIC = 0x00000801


class LabeledDataset:
    """``n x d`` float64 features in [0, 1] plus integer labels in [0, num_classes)."""

    __slots__ = ("features", "labels", "num_classes")

    def __init__(self, features, labels, num_classes: int):
        self._adopt(
            np.array(features, dtype=np.float64, copy=True),
            np.array(labels, dtype=np.int64, copy=True),
            num_classes,
        )

    @classmethod
    def _owning(cls, features: np.ndarray, labels: np.ndarray, num_classes: int):
        """A dataset that keeps ``features`` and ``labels`` themselves instead
        of copies: arrays its caller has just built and hands over, or another
        dataset's read-only arrays that it shares (a label flip keeps its
        input's features). The checks are those of ``__init__``. Saves one
        ``n x d`` matrix at the peak."""
        data = cls.__new__(cls)
        data._adopt(
            np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64), num_classes
        )
        return data

    def _adopt(self, feats: np.ndarray, labs: np.ndarray, num_classes: int) -> None:
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if labs.ndim != 1 or labs.size != feats.shape[0]:
            raise ValueError(
                f"labels must be 1-D with one entry per row: {labs.shape} vs {feats.shape}"
            )
        if feats.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        num_classes = int(num_classes)
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        if labs.min() < 0 or labs.max() >= num_classes:
            raise ValueError(f"labels must lie in [0, {num_classes})")
        # One reduction per bound; min and max propagate NaN, which fails both.
        if not (np.min(feats, initial=np.inf) >= 0.0 and np.max(feats, initial=-np.inf) <= 1.0):
            raise ValueError("feature values must lie in [0, 1]")
        feats.flags.writeable = False
        labs.flags.writeable = False
        self.features = feats
        self.labels = labs
        self.num_classes = num_classes

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset._owning(self.features[idx], self.labels[idx], self.num_classes)

    def __repr__(self) -> str:
        return f"LabeledDataset(n={self.n}, d={self.d}, classes={self.num_classes})"


@dataclass(frozen=True)
class Partition:
    """Nonempty, disjoint client index sets covering a dataset exactly once."""

    assignments: tuple[np.ndarray, ...]
    total: int

    def __post_init__(self) -> None:
        cleaned = []
        for k, a in enumerate(self.assignments):
            arr = np.array(a, dtype=np.int64, copy=True)
            if arr.size == 0:
                raise ValueError(f"client {k} has an empty share")
            arr.flags.writeable = False
            cleaned.append(arr)
        object.__setattr__(self, "assignments", tuple(cleaned))
        joined = np.sort(np.concatenate(cleaned))
        if not np.array_equal(joined, np.arange(self.total)):
            raise ValueError("assignments must cover every index exactly once")


def _read_idx_header(data: bytes, path, magic: int, header_len: int, what: str) -> tuple[int, ...]:
    if len(data) < header_len:
        raise IdxFormatError(f"{path}: truncated {what} header ({len(data)} bytes)")
    fields = struct.unpack(f">{header_len // 4}I", data[:header_len])
    if fields[0] != magic:
        raise IdxFormatError(f"{path}: bad {what} magic 0x{fields[0]:08x}")
    return fields[1:]


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Read a big-endian IDX image/label file pair.

    Pixels are scaled from [0, 255] into [0, 1] and images are flattened
    row-major. Any truncation, magic mismatch, or image/label count mismatch
    fails closed with :class:`IdxFormatError`.
    """
    image_bytes = Path(images_path).read_bytes()
    count, rows, cols = _read_idx_header(image_bytes, images_path, _IMAGES_MAGIC, 16, "image")
    expected = count * rows * cols
    if len(image_bytes) - 16 != expected:
        raise IdxFormatError(
            f"{images_path}: payload holds {len(image_bytes) - 16} bytes, header promises {expected}"
        )
    label_bytes = Path(labels_path).read_bytes()
    (label_count,) = _read_idx_header(label_bytes, labels_path, _LABELS_MAGIC, 8, "label")
    if len(label_bytes) - 8 != label_count:
        raise IdxFormatError(
            f"{labels_path}: payload holds {len(label_bytes) - 8} bytes, header promises {label_count}"
        )
    if count != label_count:
        raise IdxFormatError(f"image/label count mismatch: {count} images vs {label_count} labels")
    pixels = np.frombuffer(image_bytes, dtype=np.uint8, offset=16)
    features = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(label_bytes, dtype=np.uint8, offset=8).astype(np.int64)
    if labels.size and labels.max() > 9:
        raise IdxFormatError(f"{labels_path}: labels must lie in 0-9, found {labels.max()}")
    return LabeledDataset._owning(features, labels, 10)


_BLOB_LOW = 0.2
_BLOB_HIGH = 0.8


def gen_synthetic(
    num_classes: int,
    num_samples: int,
    num_features: int,
    separation: float,
    rng: np.random.Generator,
) -> LabeledDataset:
    """Axis-aligned Gaussian blobs, one per class, clamped to [0, 1].

    Class ``c`` peaks feature ``c`` at 0.8 over a 0.2 baseline; the noise
    scale is ``(0.8 - 0.2) / separation``, so larger separation gives cleaner
    blobs. Class counts are balanced to within one sample and sample order is
    shuffled.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if num_features < num_classes:
        raise ValueError(
            f"need one feature axis per class: {num_features} features < {num_classes} classes"
        )
    if num_samples < 1:
        raise ValueError(f"need at least 1 sample, got {num_samples}")
    if not separation > 0:
        raise ValueError(f"separation must be positive, got {separation}")
    base, remainder = divmod(num_samples, num_classes)
    counts = [base + (1 if c < remainder else 0) for c in range(num_classes)]
    labels = np.repeat(np.arange(num_classes), counts)
    sigma = (_BLOB_HIGH - _BLOB_LOW) / separation
    features = rng.normal(0.0, sigma, (num_samples, num_features))
    # Every sample's centroid, added in place: the baseline everywhere, the
    # peak on its class's axis (each sum is the noise plus one of the two).
    rows = np.arange(num_samples)
    peaks = features[rows, labels] + _BLOB_HIGH
    features += _BLOB_LOW
    features[rows, labels] = peaks
    np.clip(features, 0.0, 1.0, out=features)
    # Shuffle the samples in place: the rows as one 1-D array of row-sized
    # items, which takes the Fisher-Yates swaps of ``rng.permutation``, and
    # the labels by the same swaps from a copy of the generator.
    copy.deepcopy(rng).shuffle(labels)
    rng.shuffle(features.view(np.dtype((np.void, features.strides[0]))).reshape(num_samples))
    return LabeledDataset._owning(features, labels, num_classes)


def partition_iid(data: LabeledDataset, num_clients: int, rng: np.random.Generator) -> Partition:
    """Shuffle each class and deal round-robin across clients.

    The shuffled classes are dealt as one sequence, client ``k`` taking every
    ``num_clients``-th sample from position ``k``, so client sizes stay
    within one sample of each other and nobody ends up empty as long as
    ``data.n >= num_clients``.
    """
    if num_clients < 1:
        raise ValueError(f"need at least 1 client, got {num_clients}")
    if data.n < num_clients:
        raise ValueError(f"cannot split {data.n} samples across {num_clients} clients")
    shuffled = []
    for cls in range(data.num_classes):
        idx = np.flatnonzero(data.labels == cls)
        rng.shuffle(idx)
        shuffled.append(idx)
    dealt = np.concatenate(shuffled)
    assignments = tuple(np.sort(dealt[k::num_clients]) for k in range(num_clients))
    return Partition(assignments, data.n)


def partition_dirichlet(
    data: LabeledDataset,
    num_clients: int,
    alpha: float,
    rng: np.random.Generator,
) -> Partition:
    """Class-wise Dirichlet(alpha) shares across clients.

    For each class a proportion vector is drawn from a symmetric
    Dirichlet(alpha) and the shuffled class indices are split at the
    cumulative shares. Small alpha concentrates classes on few clients; any
    client left empty is repaired by taking one sample from the currently
    largest client.
    """
    if num_clients < 1:
        raise ValueError(f"need at least 1 client, got {num_clients}")
    if data.n < num_clients:
        raise ValueError(f"cannot split {data.n} samples across {num_clients} clients")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    buckets: list[list[int]] = [[] for _ in range(num_clients)]
    for cls in range(data.num_classes):
        idx = np.flatnonzero(data.labels == cls)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(num_clients, float(alpha)))
        bounds = np.floor(np.cumsum(proportions) * idx.size).astype(np.int64)[:-1]
        for client, chunk in enumerate(np.split(idx, bounds)):
            buckets[client].extend(int(s) for s in chunk)
    sizes = [len(b) for b in buckets]
    while min(sizes) == 0:
        donor = int(np.argmax(sizes))
        empty = sizes.index(0)
        buckets[empty].append(buckets[donor].pop())
        sizes[donor] -= 1
        sizes[empty] += 1
    assignments = tuple(np.sort(np.array(b, dtype=np.int64)) for b in buckets)
    return Partition(assignments, data.n)
