"""Experiment configuration: a strict YAML schema with exhaustive validation.

The frozen dataclasses below (with :class:`~celtibero.attacks.AttackSpec`)
declare each block's keys and defaults; the parser here makes every check on
their values. ``parse_config`` refuses unknown keys, reports *every*
violation it finds in one shot, and materializes the defaults into the
returned config so an emitted report fully describes the run. Keys that do
not apply to the selected dataset, partition, or attack kind are accepted
but reset to their defaults, which keeps ``config_from_dict(config_to_dict(cfg))``
an exact round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import yaml

from .aggregators import AGGREGATOR_NAMES
from .attacks import ATTACK_KINDS, AttackSpec, TriggerPattern, make_default_trigger
from .clustering import LINKAGES
from .errors import ConfigError
from .training import ACTIVATIONS

__all__ = [
    "DatasetConfig",
    "PartitionConfig",
    "AggregatorConfig",
    "ArchitectureConfig",
    "TrainingConfig",
    "ExperimentConfig",
    "parse_config",
    "config_from_dict",
    "config_to_dict",
    "malicious_count",
]

_MNIST_SIDE = 28
_MNIST_FEATURES = _MNIST_SIDE * _MNIST_SIDE
_MNIST_CLASSES = 10


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "synthetic"
    classes: int = 4
    samples: int = 4000
    features: int = 20
    separation: float = 4.0
    test_samples: int = 1000
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    train_subset: int | None = None
    test_subset: int | None = None


@dataclass(frozen=True)
class PartitionConfig:
    kind: str = "iid"
    alpha: float = 0.5


@dataclass(frozen=True)
class AggregatorConfig:
    kind: str = "fedavg"
    krum_f: int = 1
    linkage: str = "average"


@dataclass(frozen=True)
class ArchitectureConfig:
    hidden: tuple[int, ...] = (16,)
    activation: str = "relu"


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.05
    batch_size: int = 32


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    clients: int = 20
    malicious_fraction: float = 0.0
    attack: AttackSpec = field(default_factory=lambda: AttackSpec(kind="none"))
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    rounds: int = 50
    local_epochs: int = 3
    participation: tuple[float, float] = (0.6, 0.9)
    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    seed: int = 0
    output_dir: str | None = None


def malicious_count(cfg: ExperimentConfig) -> int:
    """Number of malicious clients: floor(malicious_fraction * clients), with
    a small epsilon so exact products are not lost to float representation."""
    return _malicious_count(cfg.malicious_fraction, cfg.clients)


def _malicious_count(fraction: float, clients: int) -> int:
    return int(math.floor(fraction * clients + 1e-9))


def _participant_count(fraction: float, clients: int) -> int:
    """Participants in a round drawn at ``fraction``: rounded half up, at
    least 2, at most all clients."""
    return max(2, min(clients, int(math.floor(fraction * clients + 0.5))))


# The default instance: every key the parser reads falls back to its value here.
_DEFAULTS = ExperimentConfig()
_MNIST_LEARNING_RATE = 0.1

# Keys ``config_to_dict`` writes for a block, in order. A block with a
# ``kind`` maps each kind to its keys (a kind not listed, such as attack
# "none", writes only ``kind``); a block not listed writes every field.
_WRITTEN_KEYS = {
    DatasetConfig: {
        "synthetic": ("kind", "classes", "samples", "features", "separation", "test_samples"),
        "mnist_idx": (
            "kind", "train_images", "train_labels", "test_images", "test_labels",
            "train_subset", "test_subset",
        ),
    },
    PartitionConfig: {"dirichlet": ("kind", "alpha")},
    AttackSpec: {
        "ulfa": ("kind", "flip_fraction"),
        "tlfa": ("kind", "source_class", "target_class"),
        "mra": ("kind", "target_class", "poison_fraction", "trigger", "boost_factor"),
        "dba": ("kind", "target_class", "poison_fraction", "trigger", "dba_fragments"),
        "neurotoxin": ("kind", "target_class", "poison_fraction", "trigger", "mask_ratio"),
    },
    AggregatorConfig: {
        "krum": ("kind", "krum_f"),
        "median_krum": ("kind", "krum_f"),
        "celtibero": ("kind", "linkage"),
    },
    # The trigger's target class is the attack's, so it is neither written nor read.
    TriggerPattern: ("positions", "values"),
}


class _Violations(list):
    """Violation messages, plus the fields whose given value was rejected
    (and so replaced by a default, or dropped). A cross-field check runs
    only while the fields it reads are ``valid``: else it checks a stand-in."""

    def __init__(self):
        super().__init__()
        self.rejected: set[str] = set()

    def reject(self, field: str, problem: str) -> None:
        self.append(f"{field}: {problem}")
        self.rejected.add(field.removeprefix("top level."))

    def valid(self, *fields: str) -> bool:
        """False when a field, its block or a part of it was rejected."""
        return not any(
            f == r or f.startswith(r + ".") or r.startswith(f + ".")
            for f in fields
            for r in self.rejected
        )


class _Reader:
    """Pulls typed values out of one mapping block, collecting violations.

    A key that is missing or null, or whose value is rejected, takes its
    value from ``defaults``, the block's default instance, whose field names
    are also the allowed keys unless ``allowed`` names them.
    """

    def __init__(self, raw, where: str, errors: _Violations, defaults=None, allowed=None):
        self.raw = raw if isinstance(raw, dict) else {}
        self.where = where
        self.errors = errors
        self.defaults = defaults
        if raw is not None and not isinstance(raw, dict):
            errors.reject(where, f"expected a mapping, got {type(raw).__name__}")
        if allowed is None:
            allowed = {f.name for f in fields(defaults)}
        for key in self.raw:
            if key not in allowed:
                errors.append(f"{where}: unknown key {key!r}")

    def int_(self, key: str, minimum=None):
        default = getattr(self.defaults, key)
        value = self.raw.get(key)
        if value is None:
            return default
        if isinstance(value, bool) or not isinstance(value, int):
            self.errors.reject(f"{self.where}.{key}", f"expected an integer, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.errors.reject(f"{self.where}.{key}", f"must be >= {minimum}, got {value}")
            return default
        return int(value)

    def float_(self, key: str):
        default = getattr(self.defaults, key)
        value = self.raw.get(key)
        if value is None:
            return default
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.errors.reject(f"{self.where}.{key}", f"expected a number, got {value!r}")
            return default
        return float(value)

    def str_(self, key: str, choices=None):
        default = getattr(self.defaults, key)
        value = self.raw.get(key)
        if value is None:
            return default
        if not isinstance(value, str):
            self.errors.reject(f"{self.where}.{key}", f"expected a string, got {value!r}")
            return default
        if choices is not None and value not in choices:
            self.errors.reject(
                f"{self.where}.{key}", f"must be one of {tuple(choices)}, got {value!r}"
            )
            return default
        return value

    def block(self, key: str) -> dict:
        value = self.raw.get(key)
        if value is None:
            return {}
        if not isinstance(value, dict):
            self.errors.reject(f"{self.where}.{key}", f"expected a mapping, got {value!r}")
            return {}
        return value


def _parse_dataset(raw: dict, errors: _Violations) -> DatasetConfig:
    reader = _Reader(raw, "dataset", errors, _DEFAULTS.dataset)
    kind = reader.str_("kind", choices=("synthetic", "mnist_idx"))
    if kind == "synthetic":
        classes = reader.int_("classes", minimum=2)
        features = reader.int_("features", minimum=1)
        if features < classes and errors.valid("dataset.classes", "dataset.features"):
            errors.append(
                f"dataset: features ({features}) must be >= classes ({classes})"
            )
        separation = reader.float_("separation")
        if not separation > 0:
            errors.append(f"dataset.separation: must be positive, got {separation}")
        return DatasetConfig(
            kind="synthetic",
            classes=classes,
            samples=reader.int_("samples", minimum=1),
            features=features,
            separation=separation,
            test_samples=reader.int_("test_samples", minimum=1),
        )
    paths = {}
    for key in ("train_images", "train_labels", "test_images", "test_labels"):
        value = reader.str_(key)
        if value is None and errors.valid(f"dataset.{key}"):
            errors.append(f"dataset.{key}: required for mnist_idx")
        paths[key] = value or ""
    return DatasetConfig(
        kind="mnist_idx",
        **paths,
        train_subset=reader.int_("train_subset", minimum=1),
        test_subset=reader.int_("test_subset", minimum=1),
    )


def _parse_partition(raw: dict, errors: _Violations) -> PartitionConfig:
    reader = _Reader(raw, "partition", errors, _DEFAULTS.partition)
    kind = reader.str_("kind", choices=("iid", "dirichlet"))
    if kind != "dirichlet":
        return PartitionConfig(kind=kind)
    alpha = reader.float_("alpha")
    if not alpha > 0:
        errors.append(f"partition.alpha: must be positive, got {alpha}")
    return PartitionConfig(kind="dirichlet", alpha=alpha)


def _parse_trigger(raw, num_features: int, target_class: int, errors: _Violations):
    reader = _Reader(raw, "attack.trigger", errors, allowed=_WRITTEN_KEYS[TriggerPattern])
    positions = reader.raw.get("positions")
    values = reader.raw.get("values")
    if not isinstance(positions, list) or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in positions
    ):
        errors.reject("attack.trigger.positions", "expected a list of integers")
        return None
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        errors.reject("attack.trigger.values", "expected a list of numbers")
        return None
    if len(positions) != len(values):
        errors.reject("attack.trigger", f"{len(positions)} positions but {len(values)} values")
        return None
    if not positions:
        errors.reject("attack.trigger.positions", "expected at least one position")
        return None
    if errors.valid("dataset.kind", "dataset.features") and any(
        p < 0 or p >= num_features for p in positions
    ):
        errors.reject(
            "attack.trigger.positions", f"every position must lie in [0, {num_features})"
        )
        return None
    if len(set(positions)) != len(positions):
        errors.reject("attack.trigger.positions", "positions must be distinct")
        return None
    if any(not 0.0 <= float(v) <= 1.0 for v in values):
        errors.reject("attack.trigger.values", "values must lie in [0, 1]")
        return None
    return TriggerPattern(tuple(positions), tuple(float(v) for v in values), target_class)


def _parse_attack(
    raw: dict, dataset: DatasetConfig, attackers: int, errors: _Violations
) -> AttackSpec:
    reader = _Reader(raw, "attack", errors, _DEFAULTS.attack)
    kind = reader.str_("kind", choices=ATTACK_KINDS)
    mnist = dataset.kind == "mnist_idx"
    classes = _MNIST_CLASSES if mnist else dataset.classes
    features = _MNIST_FEATURES if mnist else dataset.features
    if kind == "none":
        return AttackSpec(kind="none")
    if kind == "ulfa":
        fraction = reader.float_("flip_fraction")
        if not 0.0 <= fraction <= 1.0:
            errors.append(f"attack.flip_fraction: must lie in [0, 1], got {fraction}")
        return AttackSpec(kind="ulfa", flip_fraction=fraction)
    if kind == "tlfa":
        source = reader.int_("source_class", minimum=0)
        target = reader.int_("target_class", minimum=0)
        if source == target and errors.valid("attack.source_class", "attack.target_class"):
            errors.append(f"attack: tlfa source and target classes must differ, both are {source}")
        for name, cls in (("source_class", source), ("target_class", target)):
            if cls >= classes and errors.valid("dataset.kind", "dataset.classes"):
                errors.append(f"attack.{name}: class {cls} outside [0, {classes})")
        return AttackSpec(kind="tlfa", source_class=source, target_class=target)

    # Backdoor family: mra, dba, neurotoxin.
    target = reader.int_("target_class", minimum=0)
    if target >= classes and errors.valid("dataset.kind", "dataset.classes"):
        errors.append(f"attack.target_class: class {target} outside [0, {classes})")
    poison_fraction = reader.float_("poison_fraction")
    if not 0.0 < poison_fraction <= 1.0:
        errors.append(
            f"attack.poison_fraction: must lie in (0, 1], got {poison_fraction}"
        )
    trigger = None
    if reader.raw.get("trigger") is not None:
        trigger = _parse_trigger(reader.raw["trigger"], features, target, errors)
    if trigger is None:
        side = _MNIST_SIDE if mnist else None
        trigger = make_default_trigger(features, target, image_side=side)
    spec = AttackSpec(
        kind=kind, target_class=target, poison_fraction=poison_fraction, trigger=trigger
    )
    if kind == "mra":
        boost = reader.float_("boost_factor")
        if boost is not None and not boost > 0:
            errors.append(f"attack.boost_factor: must be positive, got {boost}")
        return replace(spec, boost_factor=boost)
    if kind == "dba":
        fragments = reader.int_("dba_fragments", minimum=1)
        explicit = fragments is not None
        if fragments is None:
            if attackers < 1 and errors.valid(
                "clients", "malicious_fraction", "attack.dba_fragments"
            ):
                errors.append(
                    "attack: dba needs at least one malicious client to assign fragments to"
                )
            fragments = min(4, attackers)
        if fragments > len(trigger.positions):
            # A derived count is clamped to what the trigger can supply; only
            # an explicit request for more fragments than positions is an error.
            if explicit and errors.valid("attack.trigger"):
                errors.append(
                    f"attack.dba_fragments: {fragments} fragments exceed "
                    f"{len(trigger.positions)} trigger positions"
                )
            fragments = len(trigger.positions)
        return replace(spec, dba_fragments=fragments)
    mask_ratio = reader.float_("mask_ratio")
    if not 0.0 < mask_ratio < 1.0:
        errors.append(f"attack.mask_ratio: must lie in (0, 1), got {mask_ratio}")
    return replace(spec, mask_ratio=mask_ratio)


def _parse_aggregator(raw: dict, errors: _Violations) -> AggregatorConfig:
    reader = _Reader(raw, "aggregator", errors, _DEFAULTS.aggregator)
    kind = reader.str_("kind", choices=AGGREGATOR_NAMES)
    if kind in ("krum", "median_krum"):
        return AggregatorConfig(kind=kind, krum_f=reader.int_("krum_f", minimum=0))
    if kind == "celtibero":
        return AggregatorConfig(kind=kind, linkage=reader.str_("linkage", choices=LINKAGES))
    return AggregatorConfig(kind=kind)


def _parse_architecture(raw: dict, errors: _Violations) -> ArchitectureConfig:
    reader = _Reader(raw, "architecture", errors, _DEFAULTS.architecture)
    hidden = reader.defaults.hidden
    hidden_raw = reader.raw.get("hidden")
    if hidden_raw is not None:
        if (
            not isinstance(hidden_raw, list)
            or not hidden_raw
            or not all(
                isinstance(h, int) and not isinstance(h, bool) and h >= 1 for h in hidden_raw
            )
        ):
            errors.append("architecture.hidden: expected a nonempty list of positive integers")
        else:
            hidden = tuple(int(h) for h in hidden_raw)
    return ArchitectureConfig(
        hidden=hidden, activation=reader.str_("activation", choices=ACTIVATIONS)
    )


def _parse_training(raw: dict, dataset: DatasetConfig, errors: _Violations) -> TrainingConfig:
    defaults = _DEFAULTS.training
    if dataset.kind == "mnist_idx":
        defaults = replace(defaults, learning_rate=_MNIST_LEARNING_RATE)
    reader = _Reader(raw, "training", errors, defaults)
    lr = reader.float_("learning_rate")
    if not lr > 0:
        errors.append(f"training.learning_rate: must be positive, got {lr}")
    return TrainingConfig(learning_rate=lr, batch_size=reader.int_("batch_size", minimum=1))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping and materialize all defaults.

    Raises :class:`ConfigError` carrying *every* violation found.
    """
    errors = _Violations()
    if not isinstance(raw, dict):
        raise ConfigError([f"top level: expected a mapping, got {type(raw).__name__}"])
    top = _Reader(raw, "top level", errors, _DEFAULTS)

    dataset = _parse_dataset(top.block("dataset"), errors)
    partition = _parse_partition(top.block("partition"), errors)
    clients = top.int_("clients", minimum=2)
    size_key = "samples" if dataset.kind == "synthetic" else "train_subset"
    size = getattr(dataset, size_key)
    read = ("dataset.kind", f"dataset.{size_key}", "clients")
    if size is not None and size < clients and errors.valid(*read):
        # Every client needs at least one training sample.
        errors.append(
            f"dataset.{size_key}: {size} training samples cannot be split across "
            f"{clients} clients"
        )
    malicious_fraction = top.float_("malicious_fraction")
    if not 0.0 <= malicious_fraction < 0.5:
        errors.reject(
            "malicious_fraction",
            "must lie in [0, 0.5) so honest clients hold a strict majority, "
            f"got {malicious_fraction}",
        )
        attackers = 0
    else:
        attackers = _malicious_count(malicious_fraction, clients)
        if attackers * 2 >= clients and errors.valid("clients"):
            # malicious_count's epsilon can round a fraction just under 0.5 up to half.
            errors.reject(
                "malicious_fraction",
                f"{malicious_fraction} of {clients} clients gives "
                f"{attackers} malicious, which leaves no strict honest majority",
            )
    attack = _parse_attack(top.block("attack"), dataset, attackers, errors)
    aggregator = _parse_aggregator(top.block("aggregator"), errors)
    rounds = top.int_("rounds", minimum=0)
    local_epochs = top.int_("local_epochs", minimum=1)

    participation = top.defaults.participation
    participation_raw = raw.get("participation")
    if participation_raw is not None:
        if (
            not isinstance(participation_raw, list)
            or len(participation_raw) != 2
            or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in participation_raw
            )
        ):
            errors.reject("participation", "expected [low, high] with two numbers")
        else:
            bounds = (float(participation_raw[0]), float(participation_raw[1]))
            if 0.0 < bounds[0] <= bounds[1] <= 1.0:
                participation = bounds
            else:
                errors.reject(
                    "participation", f"bounds must satisfy 0 < low <= high <= 1, got {bounds}"
                )

    if aggregator.kind in ("krum", "median_krum"):
        # Smallest round that sample_participants can draw: the low bound's count.
        fewest = _participant_count(participation[0], clients)
        needed = 2 * aggregator.krum_f + 3
        if fewest < needed and errors.valid("clients", "participation", "aggregator.krum_f"):
            errors.append(
                f"aggregator.krum_f: {aggregator.kind} with krum_f={aggregator.krum_f} needs "
                f">= {needed} participants per round (2*krum_f + 3), but a round of "
                f"{clients} clients at participation {participation[0]} can have {fewest}"
            )

    architecture = _parse_architecture(top.block("architecture"), errors)
    training = _parse_training(top.block("training"), dataset, errors)
    seed = top.int_("seed", minimum=0)
    output_dir = top.str_("output_dir")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        dataset=dataset,
        partition=partition,
        clients=clients,
        malicious_fraction=malicious_fraction,
        attack=attack,
        aggregator=aggregator,
        rounds=rounds,
        local_epochs=local_epochs,
        participation=participation,
        architecture=architecture,
        training=training,
        seed=seed,
        output_dir=output_dir,
    )


def parse_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment config from ``path``."""
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None) or str(exc)
        if mark is not None:
            raise ConfigError([f"syntax error at line {mark.line + 1}: {problem}"]) from exc
        raise ConfigError([f"syntax error: {problem}"]) from exc
    if raw is None:
        raw = {}
    return config_from_dict(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Resolved config as a plain mapping; parsing it back gives ``cfg``, or
    for a backdoor attack without a trigger, ``cfg`` with the default one."""
    return _plain(cfg)


def _plain(value):
    """``value`` as YAML-ready data: a config block as a mapping of its
    ``_WRITTEN_KEYS``, a tuple as a list, anything else unchanged."""
    if isinstance(value, tuple):
        return list(value)
    if not is_dataclass(value):
        return value
    keys = _WRITTEN_KEYS.get(type(value), [f.name for f in fields(value)])
    if isinstance(keys, dict):
        keys = keys.get(value.kind, ("kind",))
    out = {}
    for key in keys:
        item = getattr(value, key)
        if item is not None or key != "trigger":
            out[key] = _plain(item)
    return out
