"""Dataset container, IDX ingestion, synthetic blobs, and client partitioning.

The synthetic blobs' stream contract: the generator draws every sample's
noise row by row (row-major, in the class-sorted order the samples are made
in), then ``rng.permutation(n)``, which orders labels and rows alike. The
matrix is made in row blocks of at most ``_ROW_BYTES``, and the block
size never changes a bit of the result.

Rows are range-checked where they enter the program: ``LabeledDataset``'s
constructor checks rows from outside, and the synthetic draw checks each
block as it makes it. Every other dataset the package builds adopts rows
that passed one of those checks (perhaps with trigger values stamped in,
which ``embed_trigger`` checks), or IDX bytes scaled into [0, 1].
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import IdxFormatError

__all__ = [
    "LabeledDataset",
    "load_idx",
    "gen_synthetic",
    "partition_iid",
    "partition_dirichlet",
]

_IMAGES_MAGIC = 0x00000803
_LABELS_MAGIC = 0x00000801
_MNIST_SIDE = 28
_MNIST_FEATURES = _MNIST_SIDE * _MNIST_SIDE
_MNIST_CLASSES = 10
# The most bytes of rows gathered or made at once: here, in ``train_local``
# and in ``backdoor_success_rate``. A matrix no larger moves in one block.
_ROW_BYTES = 1 << 20


def _rows_per_block(row_bytes: int) -> int:
    """Rows of ``row_bytes`` in one block of at most ``_ROW_BYTES``, at least one."""
    return max(1, _ROW_BYTES // row_bytes)


def _check_unit_range(features: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry of ``features`` lies in [0, 1]."""
    # One reduction per bound; min and max propagate NaN, which fails both.
    # The ufuncs' own reduce skips the wrapper of np.min and np.max.
    low = np.minimum.reduce(features, axis=None, initial=np.inf)
    high = np.maximum.reduce(features, axis=None, initial=-np.inf)
    if not (low >= 0.0 and high <= 1.0):
        raise ValueError("feature values must lie in [0, 1]")


class LabeledDataset:
    """``n x d`` float64 features in [0, 1] plus integer labels in [0, num_classes)."""

    __slots__ = ("features", "labels", "num_classes")

    def __init__(self, features, labels, num_classes: int):
        self._adopt(
            np.array(features, dtype=np.float64, copy=True),
            np.array(labels, dtype=np.int64, copy=True),
            num_classes,
        )
        _check_unit_range(self.features)

    @classmethod
    def _owning(cls, features: np.ndarray, labels: np.ndarray, num_classes: int):
        """A dataset that keeps ``features`` and ``labels`` themselves instead
        of copies: arrays its caller has just built and hands over, or another
        dataset's read-only arrays that it shares (a label flip keeps its
        input's features). Saves one ``n x d`` matrix at the peak. The checks
        are those of ``__init__`` but the [0, 1] and NaN scan, which runs
        where rows enter the program (``__init__`` and the synthetic draw's
        blocks): the features handed over are rows that passed it, or values
        their maker keeps in [0, 1]."""
        data = cls.__new__(cls)
        data._adopt(
            np.asarray(features, dtype=np.float64),
            np.asarray(labels, dtype=np.int64),
            num_classes,
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

    def __repr__(self) -> str:
        return f"LabeledDataset(n={self.n}, d={self.d}, classes={self.num_classes})"


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
    features = pixels.reshape(count, rows * cols).astype(np.float64)
    features /= 255.0  # in place: one float matrix at the peak
    labels = np.frombuffer(label_bytes, dtype=np.uint8, offset=8).astype(np.int64)
    if labels.size and labels.max() >= _MNIST_CLASSES:
        raise IdxFormatError(
            f"{labels_path}: labels must lie in 0-{_MNIST_CLASSES - 1}, found {labels.max()}"
        )
    return LabeledDataset._owning(features, labels, _MNIST_CLASSES)


def _reorder_rows(matrix: np.ndarray, order: np.ndarray) -> None:
    """``matrix[:] = matrix[order]`` in place, for a C-contiguous ``matrix``
    with at least one column and a permutation ``order`` of its rows,
    holding at most ``_ROW_BYTES`` of rows besides the matrix.

    Every cycle of ``order`` shifts its rows one step: laid end to end, the
    cycles give ``slots``, the rows in cycle order, and row ``slots[t]``
    takes row ``slots[t + 1]`` (the last of a cycle takes its first). The
    slots move a block at a time, each block gathered before it is written.
    A cycle that began in an earlier block closes on a row already
    overwritten, so its first row is copied aside before it is.
    """
    n = order.size
    # Pointer doubling: after the round with span 2^k, each row's key holds
    # the least row among its first 2^(k+1) steps along ``order`` (above bit
    # ``shift``) and the steps to its first visit (below); once the span
    # reaches n, that is the least row of the row's whole cycle.
    shift = (2 * n).bit_length()
    step, key, span = order, np.arange(n, dtype=np.int64) << shift, 1
    while span < n:
        np.minimum(key, key[step] + span, out=key)
        step = step[step]
        span *= 2
    least = key >> shift
    key &= (1 << shift) - 1
    sizes = np.bincount(least, minlength=n)
    ends = np.cumsum(sizes)
    # A cycle's slots end with its least row's.
    slots = np.empty(n, dtype=np.int64)
    slots[ends[least] - 1 - key] = np.arange(n)
    found = sizes > 0
    ends = ends[found]
    starts = ends - sizes[found]
    del step, key, least, sizes, found
    # Each row as one item, so that a gather or a scatter moves whole rows.
    rows = matrix.view(np.dtype((np.void, matrix.strides[0]))).reshape(n)
    per_block = _rows_per_block(matrix.strides[0])
    first = None  # the first row of the cycle that runs on past the block
    for a in range(0, n, per_block):
        b = min(a + per_block, n)
        block = rows[order[slots[a:b]]]
        c = np.searchsorted(starts, a, "right") - 1  # the cycle at slot a
        if starts[c] < a and ends[c] <= b:  # began before the block, ends in it
            block[ends[c] - 1 - a] = first
        c = np.searchsorted(starts, b - 1, "right") - 1  # the cycle at slot b - 1
        if starts[c] >= a and ends[c] > b:  # begins in the block, runs past it
            first = rows[slots[starts[c]]].copy()
        rows[slots[a:b]] = block
        del block  # before the next block is gathered


_BLOB_LOW = 0.2
_BLOB_HIGH = 0.8


def _draw_synthetic(
    num_classes: int,
    num_samples: int,
    num_features: int,
    separation: float,
    rng: np.random.Generator,
) -> tuple[LabeledDataset, np.ndarray]:
    """``gen_synthetic``'s blobs in the order they are drawn, labels sorted by
    class, and ``order``, the ``rng.permutation(num_samples)`` drawn next:
    row ``order[i]`` is sample ``i`` of ``gen_synthetic``'s result.

    The matrix is made one block of at most ``_ROW_BYTES`` of rows at a
    time: the block's noise (``standard_normal`` into it, then scaled, the
    bits of one ``rng.normal(0, sigma, shape)`` call), its centroids, the
    clip to [0, 1], and the [0, 1] and NaN check while the block is in cache.
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
    features = np.empty((num_samples, num_features))
    per_block = _rows_per_block(features.strides[0])
    for a in range(0, num_samples, per_block):
        block = features[a : a + per_block]
        rng.standard_normal(out=block)
        block *= sigma
        # Each sample's centroid, added in place: the baseline everywhere, the
        # peak on its class's axis (each sum is the noise plus one of the two).
        rows, axes = np.arange(block.shape[0]), labels[a : a + per_block]
        peaks = block[rows, axes] + _BLOB_HIGH
        block += _BLOB_LOW
        block[rows, axes] = peaks
        np.clip(block, 0.0, 1.0, out=block)
        _check_unit_range(block)
    return LabeledDataset._owning(features, labels, num_classes), rng.permutation(num_samples)


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
    shuffled. It draws from ``rng`` by the stream contract of this module.
    """
    drawn, order = _draw_synthetic(num_classes, num_samples, num_features, separation, rng)
    drawn.features.flags.writeable = True
    _reorder_rows(drawn.features, order)
    return LabeledDataset._owning(drawn.features, drawn.labels[order], num_classes)


def _check_partition(labels: np.ndarray, num_classes: int, num_clients: int) -> None:
    if num_clients < 1:
        raise ValueError(f"need at least 1 client, got {num_clients}")
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size < num_clients:
        raise ValueError(f"cannot split {labels.size} samples across {num_clients} clients")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")


def partition_iid(
    labels, num_classes: int, num_clients: int, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Shuffle each class of ``labels`` and deal round-robin across clients;
    client ``k``'s share is the ``k``-th sorted index array (indices into
    ``labels``) of the returned tuple.

    The shuffled classes are dealt as one sequence, client ``k`` taking every
    ``num_clients``-th sample from position ``k``, so client sizes stay
    within one sample of each other and nobody ends up empty as long as
    there are at least ``num_clients`` labels.
    """
    labels = np.asarray(labels)
    _check_partition(labels, num_classes, num_clients)
    shuffled = []
    for cls in range(num_classes):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        shuffled.append(idx)
    dealt = np.concatenate(shuffled)
    return tuple(np.sort(dealt[k::num_clients]) for k in range(num_clients))


def partition_dirichlet(
    labels,
    num_classes: int,
    num_clients: int,
    alpha: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ...]:
    """Class-wise Dirichlet(alpha) shares of ``labels`` across clients, as one
    sorted index array (indices into ``labels``) per client.

    For each class a proportion vector is drawn from a symmetric
    Dirichlet(alpha) and the shuffled class indices are split at the
    cumulative shares. Small alpha concentrates classes on few clients; any
    client left empty is repaired by taking one sample from the currently
    largest client: the last of its indices in class order.
    """
    labels = np.asarray(labels)
    _check_partition(labels, num_classes, num_clients)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    chunks: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for cls in range(num_classes):
        idx = np.flatnonzero(labels == cls)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(num_clients, float(alpha)))
        bounds = np.floor(np.cumsum(proportions) * idx.size).astype(np.int64)[:-1]
        for client, chunk in enumerate(np.split(idx, bounds)):
            chunks[client].append(chunk)
    buckets = [np.concatenate(parts) for parts in chunks]
    sizes = np.array([bucket.size for bucket in buckets])
    # While a client is empty the largest holds at least two samples, so a
    # donor never gives away the one sample a repair handed it.
    while not sizes.all():
        donor, empty = int(np.argmax(sizes)), int(np.argmin(sizes))
        buckets[empty], buckets[donor] = buckets[donor][-1:], buckets[donor][:-1]
        sizes[donor] -= 1
        sizes[empty] = 1
    return tuple(np.sort(bucket) for bucket in buckets)
