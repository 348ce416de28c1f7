"""Experiment configuration: a strict YAML schema with exhaustive validation.

``parse_config`` refuses unknown keys, reports *every* violation it finds in
one shot, and materializes documented defaults into the returned config so an
emitted report fully describes the run. Keys that do not apply to the
selected dataset, partition, or attack kind are accepted but reset to their
canonical defaults, which keeps ``config_from_dict(config_to_dict(cfg))``
an exact round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .aggregators import AGGREGATOR_NAMES
from .attacks import (
    ATTACK_KINDS,
    BACKDOOR_KINDS,
    AttackSpec,
    TriggerPattern,
    make_default_trigger,
)
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
    return int(math.floor(cfg.malicious_fraction * cfg.clients + 1e-9))


class _Reader:
    """Pulls typed values out of one mapping block, collecting violations."""

    def __init__(self, raw: dict, where: str, errors: list[str]):
        self.raw = raw if isinstance(raw, dict) else {}
        self.where = where
        self.errors = errors
        if raw is not None and not isinstance(raw, dict):
            errors.append(f"{where}: expected a mapping, got {type(raw).__name__}")

    def reject_unknown(self, allowed) -> None:
        for key in self.raw:
            if key not in allowed:
                self.errors.append(f"{self.where}: unknown key {key!r}")

    def int_(self, key: str, default, minimum=None, allow_none=False):
        value = self.raw.get(key, default)
        if value is None:
            if allow_none:
                return None
            value = default
        if isinstance(value, bool) or not isinstance(value, int):
            self.errors.append(f"{self.where}.{key}: expected an integer, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.errors.append(f"{self.where}.{key}: must be >= {minimum}, got {value}")
            return default
        return int(value)

    def float_(self, key: str, default, allow_none=False):
        value = self.raw.get(key, default)
        if value is None:
            if allow_none:
                return None
            value = default
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.errors.append(f"{self.where}.{key}: expected a number, got {value!r}")
            return default
        return float(value)

    def str_(self, key: str, default, choices=None, allow_none=False):
        value = self.raw.get(key, default)
        if value is None:
            if allow_none:
                return None
            value = default
        if not isinstance(value, str):
            self.errors.append(f"{self.where}.{key}: expected a string, got {value!r}")
            return default
        if choices is not None and value not in choices:
            self.errors.append(
                f"{self.where}.{key}: must be one of {tuple(choices)}, got {value!r}"
            )
            return default
        return value

    def block(self, key: str) -> dict:
        value = self.raw.get(key)
        if value is None:
            return {}
        if not isinstance(value, dict):
            self.errors.append(f"{self.where}.{key}: expected a mapping, got {value!r}")
            return {}
        return value


def _parse_dataset(raw: dict, errors: list[str]) -> DatasetConfig:
    reader = _Reader(raw, "dataset", errors)
    reader.reject_unknown(
        {
            "kind", "classes", "samples", "features", "separation", "test_samples",
            "train_images", "train_labels", "test_images", "test_labels",
            "train_subset", "test_subset",
        }
    )
    kind = reader.str_("kind", "synthetic", choices=("synthetic", "mnist_idx"))
    if kind == "synthetic":
        classes = reader.int_("classes", 4, minimum=2)
        features = reader.int_("features", 20, minimum=1)
        if features < classes:
            errors.append(
                f"dataset: features ({features}) must be >= classes ({classes})"
            )
        separation = reader.float_("separation", 4.0)
        if not separation > 0:
            errors.append(f"dataset.separation: must be positive, got {separation}")
        return DatasetConfig(
            kind="synthetic",
            classes=classes,
            samples=reader.int_("samples", 4000, minimum=1),
            features=features,
            separation=separation,
            test_samples=reader.int_("test_samples", 1000, minimum=1),
        )
    paths = {}
    for key in ("train_images", "train_labels", "test_images", "test_labels"):
        value = reader.str_(key, None, allow_none=True)
        if value is None:
            errors.append(f"dataset.{key}: required for mnist_idx")
        paths[key] = value or ""
    return DatasetConfig(
        kind="mnist_idx",
        train_images=paths["train_images"],
        train_labels=paths["train_labels"],
        test_images=paths["test_images"],
        test_labels=paths["test_labels"],
        train_subset=reader.int_("train_subset", None, minimum=1, allow_none=True),
        test_subset=reader.int_("test_subset", None, minimum=1, allow_none=True),
    )


def _parse_partition(raw: dict, errors: list[str]) -> PartitionConfig:
    reader = _Reader(raw, "partition", errors)
    reader.reject_unknown({"kind", "alpha"})
    kind = reader.str_("kind", "iid", choices=("iid", "dirichlet"))
    if kind != "dirichlet":
        return PartitionConfig(kind=kind)
    alpha = reader.float_("alpha", 0.5)
    if not alpha > 0:
        errors.append(f"partition.alpha: must be positive, got {alpha}")
    return PartitionConfig(kind="dirichlet", alpha=alpha)


def _dataset_feature_count(dataset: DatasetConfig) -> int:
    return _MNIST_FEATURES if dataset.kind == "mnist_idx" else dataset.features


def _dataset_class_count(dataset: DatasetConfig) -> int:
    return _MNIST_CLASSES if dataset.kind == "mnist_idx" else dataset.classes


def _parse_trigger(raw, num_features: int, target_class: int, errors: list[str]):
    reader = _Reader(raw, "attack.trigger", errors)
    reader.reject_unknown({"positions", "values"})
    positions = reader.raw.get("positions")
    values = reader.raw.get("values")
    if not isinstance(positions, list) or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in positions
    ):
        errors.append("attack.trigger.positions: expected a list of integers")
        return None
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        errors.append("attack.trigger.values: expected a list of numbers")
        return None
    if len(positions) != len(values):
        errors.append(
            f"attack.trigger: {len(positions)} positions but {len(values)} values"
        )
        return None
    if any(p < 0 or p >= num_features for p in positions):
        errors.append(
            f"attack.trigger.positions: every position must lie in [0, {num_features})"
        )
        return None
    if len(set(positions)) != len(positions):
        errors.append("attack.trigger.positions: positions must be distinct")
        return None
    if any(not 0.0 <= float(v) <= 1.0 for v in values):
        errors.append("attack.trigger.values: values must lie in [0, 1]")
        return None
    return TriggerPattern(tuple(positions), tuple(float(v) for v in values), target_class)


def _parse_attack(
    raw: dict, dataset: DatasetConfig, attackers: int, errors: list[str]
) -> AttackSpec:
    reader = _Reader(raw, "attack", errors)
    reader.reject_unknown(
        {
            "kind", "source_class", "target_class", "flip_fraction",
            "poison_fraction", "boost_factor", "mask_ratio", "dba_fragments",
            "trigger",
        }
    )
    kind = reader.str_("kind", "none", choices=ATTACK_KINDS)
    classes = _dataset_class_count(dataset)
    features = _dataset_feature_count(dataset)
    if kind == "none":
        return AttackSpec(kind="none")
    if kind == "ulfa":
        fraction = reader.float_("flip_fraction", 1.0)
        if not 0.0 <= fraction <= 1.0:
            errors.append(f"attack.flip_fraction: must lie in [0, 1], got {fraction}")
            fraction = 1.0
        return AttackSpec(kind="ulfa", flip_fraction=fraction)
    if kind == "tlfa":
        source = reader.int_("source_class", 1, minimum=0)
        target = reader.int_("target_class", 0, minimum=0)
        if source == target:
            errors.append(f"attack: tlfa source and target classes must differ, both are {source}")
            source, target = 1, 0
        for name, cls in (("source_class", source), ("target_class", target)):
            if cls >= classes:
                errors.append(f"attack.{name}: class {cls} outside [0, {classes})")
        return AttackSpec(kind="tlfa", source_class=source, target_class=target)

    # Backdoor family: mra, dba, neurotoxin.
    target = reader.int_("target_class", 0, minimum=0)
    if target >= classes:
        errors.append(f"attack.target_class: class {target} outside [0, {classes})")
    poison_fraction = reader.float_("poison_fraction", 0.5)
    if not 0.0 < poison_fraction <= 1.0:
        errors.append(
            f"attack.poison_fraction: must lie in (0, 1], got {poison_fraction}"
        )
        poison_fraction = 0.5
    if "trigger" in reader.raw and reader.raw["trigger"] is not None:
        trigger = _parse_trigger(reader.raw["trigger"], features, target, errors)
    else:
        trigger = None
    if trigger is None:
        side = _MNIST_SIDE if dataset.kind == "mnist_idx" else None
        trigger = make_default_trigger(features, target, image_side=side)
    fields = dict(
        kind=kind,
        target_class=target,
        poison_fraction=poison_fraction,
        trigger=trigger,
    )
    if kind == "mra":
        boost = reader.float_("boost_factor", None, allow_none=True)
        if boost is not None and not boost > 0:
            errors.append(f"attack.boost_factor: must be positive, got {boost}")
            boost = None
        fields["boost_factor"] = boost
    if kind == "dba":
        fragments = reader.int_("dba_fragments", None, minimum=1, allow_none=True)
        explicit = fragments is not None
        if fragments is None:
            if attackers < 1:
                errors.append(
                    "attack: dba needs at least one malicious client to assign fragments to"
                )
                fragments = 1
            else:
                fragments = min(4, attackers)
        if fragments > len(trigger.positions):
            # A derived count is clamped to what the trigger can supply; only
            # an explicit request for more fragments than positions is an error.
            if explicit:
                errors.append(
                    f"attack.dba_fragments: {fragments} fragments exceed "
                    f"{len(trigger.positions)} trigger positions"
                )
            fragments = len(trigger.positions)
        fields["dba_fragments"] = fragments
    if kind == "neurotoxin":
        mask_ratio = reader.float_("mask_ratio", 0.05)
        if not 0.0 < mask_ratio < 1.0:
            errors.append(f"attack.mask_ratio: must lie in (0, 1), got {mask_ratio}")
            mask_ratio = 0.05
        fields["mask_ratio"] = mask_ratio
    return AttackSpec(**fields)


def _parse_aggregator(raw: dict, errors: list[str]) -> AggregatorConfig:
    reader = _Reader(raw, "aggregator", errors)
    reader.reject_unknown({"kind", "krum_f", "linkage"})
    kind = reader.str_("kind", "fedavg", choices=AGGREGATOR_NAMES)
    out = AggregatorConfig(kind=kind)
    if kind in ("krum", "median_krum"):
        out = AggregatorConfig(kind=kind, krum_f=reader.int_("krum_f", 1, minimum=0))
    if kind == "celtibero":
        out = AggregatorConfig(
            kind=kind, linkage=reader.str_("linkage", "average", choices=LINKAGES)
        )
    return out


def _parse_architecture(raw: dict, errors: list[str]) -> ArchitectureConfig:
    reader = _Reader(raw, "architecture", errors)
    reader.reject_unknown({"hidden", "activation"})
    hidden_raw = reader.raw.get("hidden", [16])
    if hidden_raw is None:
        hidden_raw = [16]
    if (
        not isinstance(hidden_raw, list)
        or not hidden_raw
        or not all(
            isinstance(h, int) and not isinstance(h, bool) and h >= 1 for h in hidden_raw
        )
    ):
        errors.append("architecture.hidden: expected a nonempty list of positive integers")
        hidden_raw = [16]
    return ArchitectureConfig(
        hidden=tuple(int(h) for h in hidden_raw),
        activation=reader.str_("activation", "relu", choices=ACTIVATIONS),
    )


def _parse_training(raw: dict, dataset: DatasetConfig, errors: list[str]) -> TrainingConfig:
    reader = _Reader(raw, "training", errors)
    reader.reject_unknown({"learning_rate", "batch_size"})
    default_lr = 0.1 if dataset.kind == "mnist_idx" else 0.05
    lr = reader.float_("learning_rate", default_lr)
    if not lr > 0:
        errors.append(f"training.learning_rate: must be positive, got {lr}")
        lr = default_lr
    return TrainingConfig(
        learning_rate=lr, batch_size=reader.int_("batch_size", 32, minimum=1)
    )


_TOP_KEYS = {
    "dataset", "partition", "clients", "malicious_fraction", "attack",
    "aggregator", "rounds", "local_epochs", "participation", "architecture",
    "training", "seed", "output_dir",
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping and materialize all defaults.

    Raises :class:`ConfigError` carrying *every* violation found.
    """
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError([f"top level: expected a mapping, got {type(raw).__name__}"])
    top = _Reader(raw, "top level", errors)
    top.reject_unknown(_TOP_KEYS)

    dataset = _parse_dataset(top.block("dataset"), errors)
    partition = _parse_partition(top.block("partition"), errors)
    clients = top.int_("clients", 20, minimum=2)
    malicious_fraction = top.float_("malicious_fraction", 0.0)
    if not 0.0 <= malicious_fraction < 0.5:
        errors.append(
            "malicious_fraction: must lie in [0, 0.5) so honest clients hold a "
            f"strict majority, got {malicious_fraction}"
        )
        malicious_fraction = 0.0
    attackers = int(math.floor(malicious_fraction * clients + 1e-9))
    if attackers * 2 >= clients:
        # malicious_count's epsilon can round a fraction just under 0.5 up to half.
        errors.append(
            f"malicious_fraction: {malicious_fraction} of {clients} clients gives "
            f"{attackers} malicious, which leaves no strict honest majority"
        )
        malicious_fraction, attackers = 0.0, 0
    attack = _parse_attack(top.block("attack"), dataset, attackers, errors)
    aggregator = _parse_aggregator(top.block("aggregator"), errors)
    rounds = top.int_("rounds", 50, minimum=0)
    local_epochs = top.int_("local_epochs", 3, minimum=1)

    participation_raw = raw.get("participation", [0.6, 0.9])
    if participation_raw is None:
        participation_raw = [0.6, 0.9]
    if (
        not isinstance(participation_raw, list)
        or len(participation_raw) != 2
        or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in participation_raw
        )
    ):
        errors.append("participation: expected [low, high] with two numbers")
        participation = (0.6, 0.9)
    else:
        participation = (float(participation_raw[0]), float(participation_raw[1]))
        low, high = participation
        if not 0.0 < low <= high <= 1.0:
            errors.append(
                f"participation: bounds must satisfy 0 < low <= high <= 1, got {participation}"
            )
            participation = (0.6, 0.9)

    if aggregator.kind in ("krum", "median_krum"):
        # Smallest round that sample_participants can draw: the low bound's count.
        fewest = max(2, min(clients, int(math.floor(participation[0] * clients + 0.5))))
        needed = 2 * aggregator.krum_f + 3
        if fewest < needed:
            errors.append(
                f"aggregator.krum_f: {aggregator.kind} with krum_f={aggregator.krum_f} needs "
                f">= {needed} participants per round (2*krum_f + 3), but a round of "
                f"{clients} clients at participation {participation[0]} can have {fewest}"
            )

    architecture = _parse_architecture(top.block("architecture"), errors)
    training = _parse_training(top.block("training"), dataset, errors)
    seed = top.int_("seed", 0, minimum=0)
    output_dir = top.str_("output_dir", None, allow_none=True)

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
    if cfg.dataset.kind == "synthetic":
        dataset = {
            "kind": "synthetic",
            "classes": cfg.dataset.classes,
            "samples": cfg.dataset.samples,
            "features": cfg.dataset.features,
            "separation": cfg.dataset.separation,
            "test_samples": cfg.dataset.test_samples,
        }
    else:
        dataset = {
            "kind": "mnist_idx",
            "train_images": cfg.dataset.train_images,
            "train_labels": cfg.dataset.train_labels,
            "test_images": cfg.dataset.test_images,
            "test_labels": cfg.dataset.test_labels,
            "train_subset": cfg.dataset.train_subset,
            "test_subset": cfg.dataset.test_subset,
        }
    partition = {"kind": cfg.partition.kind}
    if cfg.partition.kind == "dirichlet":
        partition["alpha"] = cfg.partition.alpha

    attack: dict = {"kind": cfg.attack.kind}
    if cfg.attack.kind == "ulfa":
        attack["flip_fraction"] = cfg.attack.flip_fraction
    elif cfg.attack.kind == "tlfa":
        attack["source_class"] = cfg.attack.source_class
        attack["target_class"] = cfg.attack.target_class
    elif cfg.attack.kind in BACKDOOR_KINDS:
        attack["target_class"] = cfg.attack.target_class
        attack["poison_fraction"] = cfg.attack.poison_fraction
        if cfg.attack.trigger is not None:
            attack["trigger"] = {
                "positions": list(cfg.attack.trigger.positions),
                "values": list(cfg.attack.trigger.values),
            }
        if cfg.attack.kind == "mra":
            attack["boost_factor"] = cfg.attack.boost_factor
        if cfg.attack.kind == "dba":
            attack["dba_fragments"] = cfg.attack.dba_fragments
        if cfg.attack.kind == "neurotoxin":
            attack["mask_ratio"] = cfg.attack.mask_ratio

    aggregator: dict = {"kind": cfg.aggregator.kind}
    if cfg.aggregator.kind in ("krum", "median_krum"):
        aggregator["krum_f"] = cfg.aggregator.krum_f
    if cfg.aggregator.kind == "celtibero":
        aggregator["linkage"] = cfg.aggregator.linkage

    return {
        "dataset": dataset,
        "partition": partition,
        "clients": cfg.clients,
        "malicious_fraction": cfg.malicious_fraction,
        "attack": attack,
        "aggregator": aggregator,
        "rounds": cfg.rounds,
        "local_epochs": cfg.local_epochs,
        "participation": list(cfg.participation),
        "architecture": {
            "hidden": list(cfg.architecture.hidden),
            "activation": cfg.architecture.activation,
        },
        "training": {
            "learning_rate": cfg.training.learning_rate,
            "batch_size": cfg.training.batch_size,
        },
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
    }
