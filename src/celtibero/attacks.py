"""Poisoning attacks: label manipulation, backdoor triggers, and model-level
update manipulation.

Data-level attacks consume and produce :class:`~celtibero.data.LabeledDataset`
instances without mutating their inputs, so the same clean dataset can back a
poisoned run and its reference run. A label flip shares its input's
read-only feature matrix; a trigger stamps a copy. Model-level attacks
(boosting, masked updates) act on weight containers after local training.
The tables below say once what each attack kind does, given its parsed
:class:`~celtibero.config.AttackSpec`; the orchestrator looks a kind up in
them and names none itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .errors import ShapeMismatchError
from .model import ModelWeights, add_update, check_shapes, diff

__all__ = [
    "ATTACK_KINDS",
    "REFERENCE_KINDS",
    "TriggerPattern",
    "make_default_trigger",
    "flip_labels_untargeted",
    "flip_labels_targeted",
    "embed_trigger",
    "split_trigger",
    "boost_update",
    "neurotoxin_mask",
]

# Rows name their functions at call time: rebinding a name rebinds the rows.
# Each kind's data attack: (clean share, spec, attacker rank, rng) -> poisoned share.
_SHARE_RULES = {
    "none": lambda data, spec, rank, rng: data,
    "ulfa": lambda data, spec, rank, rng: flip_labels_untargeted(data, spec.flip_fraction, rng),
    "tlfa": lambda data, spec, rank, rng: flip_labels_targeted(
        data, spec.source_class, spec.target_class
    ),
    "mra": lambda data, spec, rank, rng: embed_trigger(
        data, spec.trigger, spec.poison_fraction, rng
    ),
    "dba": lambda data, spec, rank, rng: embed_trigger(
        data,
        split_trigger(spec.trigger, spec.dba_fragments)[rank % spec.dba_fragments],
        spec.poison_fraction,
        rng,
    ),
    "neurotoxin": lambda data, spec, rank, rng: embed_trigger(
        data, spec.trigger, spec.poison_fraction, rng
    ),
}
# The model-level attacks: (local model, global model, the last realized global
# update, spec, participant count) -> the model an attacker sends.
_MODEL_RULES = {
    "mra": lambda local, g, last, spec, n: boost_update(
        local, g, float(n) if spec.boost_factor is None else spec.boost_factor
    ),
    "neurotoxin": lambda local, g, last, spec, n: add_update(
        g, neurotoxin_mask(diff(local, g), last, spec.mask_ratio)
    ),
}
# The kinds scored against a clean reference federation: (accuracy, per-class
# accuracies, spec) -> the accuracy whose relative decay is the kind's ASR.
_DECAYS = {
    "ulfa": lambda accuracy, per_class, spec: accuracy,
    "tlfa": lambda accuracy, per_class, spec: per_class.get(spec.source_class, 0.0),
}
ATTACK_KINDS = tuple(_SHARE_RULES)
REFERENCE_KINDS = tuple(_DECAYS)


@dataclass(frozen=True)
class TriggerPattern:
    """Fixed feature positions and values in [0, 1] stamped into poisoned
    samples, plus the class those samples are relabeled to."""

    positions: tuple[int, ...]
    values: tuple[float, ...]
    target_class: int

    def __post_init__(self) -> None:
        positions = tuple(int(p) for p in self.positions)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "values", values)
        if not positions:
            raise ValueError("trigger needs at least one position")
        if len(set(positions)) != len(positions):
            raise ValueError("trigger positions must be distinct")
        if len(values) != len(positions):
            raise ValueError(
                f"trigger has {len(positions)} positions but {len(values)} values"
            )
        if any(p < 0 for p in positions):
            raise ValueError(f"trigger positions must be nonnegative, got {positions}")
        if not all(0.0 <= v <= 1.0 for v in values):  # NaN fails both bounds
            raise ValueError(f"trigger values must lie in [0, 1], got {values}")
        if self.target_class < 0:
            raise ValueError(f"target class must be nonnegative, got {self.target_class}")


# The default trigger's square side (its length on plain vectors) and value.
_TRIGGER_PATCH = 3
_TRIGGER_VALUE = 1.0


def make_default_trigger(
    num_features: int, target_class: int, image_side: int | None = None
) -> TriggerPattern:
    """Built-in reproducible trigger.

    Image data (``image_side`` given) gets a 3 x 3 square of maximum
    intensity in the top-left corner of the row-major layout; plain feature
    vectors get their first 3 features set to the top of the normalized
    range.
    """
    if image_side is not None:
        if image_side * image_side != num_features:
            raise ValueError(
                f"image_side {image_side} does not square to {num_features} features"
            )
        if _TRIGGER_PATCH > image_side:
            raise ValueError(f"patch {_TRIGGER_PATCH} exceeds image side {image_side}")
        positions = tuple(
            r * image_side + c for r in range(_TRIGGER_PATCH) for c in range(_TRIGGER_PATCH)
        )
    else:
        positions = tuple(range(min(_TRIGGER_PATCH, num_features)))
    return TriggerPattern(positions, (_TRIGGER_VALUE,) * len(positions), target_class)


# A count taken from a fraction forgives this much float error in the
# product, so that a product the decimals make whole or half (0.145 * 100
# is 14.499999999999998 in floats) counts as that number.
_COUNT_TOLERANCE = 1e-9


def _round_half_up(fraction: float, n: int) -> int:
    return int(math.floor(fraction * n + 0.5 + _COUNT_TOLERANCE))


def flip_labels_untargeted(
    data: LabeledDataset, fraction: float, rng: np.random.Generator
) -> LabeledDataset:
    """Relabel a uniformly chosen ``fraction`` share of samples, each to a
    uniformly random *different* class."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    count = _round_half_up(fraction, data.n)
    if count == 0:
        return data
    chosen = rng.choice(data.n, size=count, replace=False)
    labels = data.labels.copy()
    offsets = rng.integers(1, data.num_classes, size=count)
    labels[chosen] = (labels[chosen] + offsets) % data.num_classes
    return LabeledDataset._owning(data.features, labels, data.num_classes)


def flip_labels_targeted(data: LabeledDataset, source: int, target: int) -> LabeledDataset:
    """Relabel every ``source``-class sample to ``target``. Idempotent."""
    if source == target:
        raise ValueError(f"source and target classes must differ, both are {source}")
    for name, cls in (("source", source), ("target", target)):
        if not 0 <= cls < data.num_classes:
            raise ValueError(f"{name} class {cls} outside [0, {data.num_classes})")
    labels = data.labels.copy()
    labels[labels == source] = target
    return LabeledDataset._owning(data.features, labels, data.num_classes)


def _check_fits(trigger: TriggerPattern, data: LabeledDataset) -> None:
    """Reject a trigger that ``data`` cannot take: a position outside its
    feature width, or a target class outside its classes."""
    if max(trigger.positions) >= data.d:
        raise ShapeMismatchError(
            f"trigger position {max(trigger.positions)} outside feature dimension {data.d}"
        )
    if not 0 <= trigger.target_class < data.num_classes:
        raise ValueError(
            f"trigger target class {trigger.target_class} outside [0, {data.num_classes})"
        )


def embed_trigger(
    data: LabeledDataset,
    trigger: TriggerPattern,
    fraction: float,
    rng: np.random.Generator,
) -> LabeledDataset:
    """Stamp the trigger into a ``fraction`` share of samples and relabel
    them to the trigger's target class.

    ``rng`` picks which samples are poisoned, at every fraction that poisons
    any; the poisoned rows differ from the originals exactly at the trigger
    positions.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    _check_fits(trigger, data)
    count = _round_half_up(fraction, data.n)
    if count == 0:
        return data
    chosen = rng.choice(data.n, size=count, replace=False)
    features = data.features.copy()
    labels = data.labels.copy()
    features[np.ix_(chosen, np.array(trigger.positions))] = np.array(trigger.values)
    labels[chosen] = trigger.target_class
    return LabeledDataset._owning(features, labels, data.num_classes)


def split_trigger(trigger: TriggerPattern, fragments: int) -> tuple[TriggerPattern, ...]:
    """Split a trigger into ``fragments`` nonempty chunks, contiguous in
    position-index order, that reassemble to the original."""
    if not 1 <= fragments <= len(trigger.positions):
        raise ValueError(
            f"fragments must lie in [1, {len(trigger.positions)}], got {fragments}"
        )
    order = np.argsort(np.array(trigger.positions, dtype=np.int64), kind="stable")
    positions = np.array(trigger.positions, dtype=np.int64)[order]
    values = np.array(trigger.values)[order]
    pieces = []
    for chunk in np.array_split(np.arange(positions.size), fragments):
        pieces.append(
            TriggerPattern(
                tuple(int(p) for p in positions[chunk]),
                tuple(float(v) for v in values[chunk]),
                trigger.target_class,
            )
        )
    return tuple(pieces)


def boost_update(
    local: ModelWeights, global_model: ModelWeights, gamma: float
) -> ModelWeights:
    """Scale a local model's update away from the global model:
    ``global + gamma * (local - global)`` per coordinate."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    check_shapes((global_model, local))
    boosted = global_model.flat + gamma * (local.flat - global_model.flat)
    return ModelWeights._owning(global_model, boosted)


def neurotoxin_mask(
    update: ModelWeights, reference: ModelWeights, mask_ratio: float
) -> ModelWeights:
    """Zero the update coordinates the aggregate moved most recently.

    Per layer the ``ceil(mask_ratio * size)`` coordinates (at least one,
    with ``_COUNT_TOLERANCE`` forgiven in the product) with the largest
    ``|reference|`` magnitude are zeroed (magnitude ties go to the lower
    index); the rest pass through unchanged. Keeping the attack out of
    heavily-updated coordinates makes it harder for later rounds to
    overwrite.

    The cut is found by one ``np.partition`` per layer, not a sort: every
    coordinate above the ``count``-th largest magnitude is zeroed, then the
    lowest-index coordinates at that magnitude until ``count`` are. When
    ``count`` is the whole layer, the cut is its minimum and all of it goes.
    """
    if not 0.0 < mask_ratio < 1.0:
        raise ValueError(f"mask_ratio must lie in (0, 1), got {mask_ratio}")
    check_shapes((update, reference))
    masked = update.flat.copy()
    magnitude = np.abs(reference.flat)
    for sl in update.slices():
        layer, mag = masked[sl], magnitude[sl]
        count = max(1, math.ceil(mask_ratio * mag.size - _COUNT_TOLERANCE))
        floor = np.partition(mag, mag.size - count)[mag.size - count]
        above = mag > floor
        layer[above] = 0.0
        layer[np.flatnonzero(mag == floor)[: count - np.count_nonzero(above)]] = 0.0
    return ModelWeights._owning(update, masked)
