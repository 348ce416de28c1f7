"""Experiment configuration: a strict YAML schema with exhaustive validation.

The frozen dataclasses below (with :class:`~celtibero.attacks.AttackSpec`)
declare each block's keys and defaults; the parser here makes every check on
their values. One table, ``_WRITTEN_KEYS``, names the keys that apply to each
block kind, for the parser and ``config_to_dict`` alike, and ``_KEY_RULES``
gives each key's type and accepted range; numbers must be finite.
``parse_config`` refuses unknown keys, reports *every* violation it finds in
one shot, and materializes the defaults into the returned config so an
emitted report fully describes the run. Keys that do not apply to the
selected dataset, partition, attack or aggregator kind are accepted but
neither read nor checked: they reset to their defaults, which keeps
``config_from_dict(config_to_dict(cfg))`` an exact round trip.
"""

from __future__ import annotations

import math
import operator
import sys
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
_MNIST_PATHS = ("train_images", "train_labels", "test_images", "test_labels")


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

# Keys of a block, in order: ``config_to_dict`` writes them and the parser
# reads them, both through ``_written_keys``. A block with a ``kind`` maps
# each kind to its keys (a kind not listed, such as attack "none", has only
# ``kind``); a block not listed has every field.
_WRITTEN_KEYS = {
    DatasetConfig: {
        "synthetic": ("kind", "classes", "samples", "features", "separation", "test_samples"),
        "mnist_idx": ("kind", *_MNIST_PATHS, "train_subset", "test_subset"),
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


def _written_keys(block: type, kind: str | None) -> tuple[str, ...]:
    keys = _WRITTEN_KEYS.get(block)
    if keys is None:
        return tuple(f.name for f in fields(block))
    return keys.get(kind, ("kind",)) if isinstance(keys, dict) else keys


def _at_least(minimum: int):
    return int, lambda v: v >= minimum, f"must be >= {minimum}"


def _one_of(*choices: str):
    return str, lambda v: v in choices, f"must be one of {choices}"


def _within(interval: str):
    """A number in ``interval``, written like "[0, 1]" or "(0, 1]"."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = operator.lt if interval[0] == "(" else operator.le
    below = operator.lt if interval[-1] == ")" else operator.le
    return float, lambda v: above(low, v) and below(v, high), f"must lie in {interval}"


_NUMBER = (float, None, None)
_POSITIVE = (float, lambda v: v > 0, "must be positive")
_STRING = (str, None, None)
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}

# How ``_Reader.read`` reads each key: (type, test of an accepted value or
# None, the rule a rejected value broke). Keys not listed (the trigger,
# hidden widths, participation and the blocks) are parsed by hand.
_KEY_RULES = {
    ExperimentConfig: {
        "clients": _at_least(2), "malicious_fraction": _NUMBER, "rounds": _at_least(0),
        "local_epochs": _at_least(1), "seed": _at_least(0), "output_dir": _STRING,
    },
    DatasetConfig: {
        "kind": _one_of("synthetic", "mnist_idx"),
        "classes": _at_least(2), "samples": _at_least(1), "features": _at_least(1),
        "separation": _POSITIVE, "test_samples": _at_least(1),
        **dict.fromkeys(_MNIST_PATHS, _STRING),
        "train_subset": _at_least(1), "test_subset": _at_least(1),
    },
    PartitionConfig: {"kind": _one_of("iid", "dirichlet"), "alpha": _POSITIVE},
    AttackSpec: {
        "kind": _one_of(*ATTACK_KINDS),
        "flip_fraction": _within("[0, 1]"),
        "source_class": _at_least(0), "target_class": _at_least(0),
        "poison_fraction": _within("(0, 1]"),
        "boost_factor": _POSITIVE, "dba_fragments": _at_least(1), "mask_ratio": _within("(0, 1)"),
    },
    AggregatorConfig: {
        "kind": _one_of(*AGGREGATOR_NAMES), "krum_f": _at_least(0), "linkage": _one_of(*LINKAGES),
    },
    ArchitectureConfig: {"activation": _one_of(*ACTIVATIONS)},
    TrainingConfig: {"learning_rate": _POSITIVE, "batch_size": _at_least(1)},
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

    def read(self, key: str):
        """``key``'s value, checked by its rule in ``_KEY_RULES``."""
        type_, ok, rule = _KEY_RULES[type(self.defaults)][key]
        value = self.raw.get(key)
        if value is None:
            return getattr(self.defaults, key)
        accepted = (int, float) if type_ is float else type_
        if isinstance(value, bool) or not isinstance(value, accepted):
            problem = f"expected {_TYPE_NAMES[type_]}, got {value!r}"
        elif type_ is float and not abs(value) <= sys.float_info.max:
            # NaN fails every comparison; an int past the float range has no finite float.
            problem = f"expected a finite number, got {value!r}"
        elif ok is None or ok(type_(value)):
            return type_(value)
        else:
            problem = f"{rule}, got {type_(value)!r}"
        self.errors.reject(f"{self.where}.{key}", problem)
        return getattr(self.defaults, key)

    def read_all(self) -> dict:
        """The block's ``kind`` (if it has one), then every other key written
        for that kind that has a rule, as a mapping of field values."""
        rules = _KEY_RULES[type(self.defaults)]
        values = {"kind": self.read("kind")} if "kind" in rules else {}
        for key in _written_keys(type(self.defaults), values.get("kind")):
            if key in rules and key not in values:
                values[key] = self.read(key)
        return values

    def block(self, key: str, defaults=None) -> _Reader:
        """A reader of the mapping under ``key``; its defaults are ``defaults``
        if given, else this block's default for ``key``."""
        value = self.raw.get(key)
        if value is not None and not isinstance(value, dict):
            self.errors.reject(f"{self.where}.{key}", f"expected a mapping, got {value!r}")
            value = None
        return _Reader(value, key, self.errors, defaults or getattr(self.defaults, key))


def _parse_dataset(reader: _Reader, errors: _Violations) -> DatasetConfig:
    values = reader.read_all()
    if values["kind"] == "synthetic":
        classes, features = values["classes"], values["features"]
        if features < classes and errors.valid("dataset.classes", "dataset.features"):
            errors.append(f"dataset: features ({features}) must be >= classes ({classes})")
    else:
        for key in _MNIST_PATHS:
            if values[key] is None and errors.valid(f"dataset.{key}"):
                errors.append(f"dataset.{key}: required for mnist_idx")
    return DatasetConfig(**values)


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
    reader: _Reader, dataset: DatasetConfig, attackers: int, errors: _Violations
) -> AttackSpec:
    values = reader.read_all()
    kind = values["kind"]
    mnist = dataset.kind == "mnist_idx"
    classes = _MNIST_CLASSES if mnist else dataset.classes
    features = _MNIST_FEATURES if mnist else dataset.features
    if kind == "tlfa":
        source, target = values["source_class"], values["target_class"]
        if source == target and errors.valid("attack.source_class", "attack.target_class"):
            errors.append(f"attack: tlfa source and target classes must differ, both are {source}")
    for name in ("source_class", "target_class"):
        cls = values.get(name)
        if cls is not None and cls >= classes and errors.valid("dataset.kind", "dataset.classes"):
            errors.append(f"attack.{name}: class {cls} outside [0, {classes})")
    if "trigger" not in _written_keys(AttackSpec, kind):
        return AttackSpec(**values)

    target = values["target_class"]
    trigger = None
    if reader.raw.get("trigger") is not None:
        trigger = _parse_trigger(reader.raw["trigger"], features, target, errors)
    if trigger is None:
        side = _MNIST_SIDE if mnist else None
        trigger = make_default_trigger(features, target, image_side=side)
    if kind == "dba":
        fragments = values["dba_fragments"]
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
        values["dba_fragments"] = fragments
    return AttackSpec(**values, trigger=trigger)


def _parse_architecture(reader: _Reader, errors: _Violations) -> ArchitectureConfig:
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
    return ArchitectureConfig(hidden=hidden, **reader.read_all())


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping and materialize all defaults.

    Raises :class:`ConfigError` carrying *every* violation found.
    """
    errors = _Violations()
    if not isinstance(raw, dict):
        raise ConfigError([f"top level: expected a mapping, got {type(raw).__name__}"])
    top = _Reader(raw, "top level", errors, _DEFAULTS)

    dataset = _parse_dataset(top.block("dataset"), errors)
    partition = PartitionConfig(**top.block("partition").read_all())
    clients = top.read("clients")
    size_key = "samples" if dataset.kind == "synthetic" else "train_subset"
    size = getattr(dataset, size_key)
    read = ("dataset.kind", f"dataset.{size_key}", "clients")
    if size is not None and size < clients and errors.valid(*read):
        # Every client needs at least one training sample.
        errors.append(
            f"dataset.{size_key}: {size} training samples cannot be split across "
            f"{clients} clients"
        )
    malicious_fraction = top.read("malicious_fraction")
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
    aggregator = AggregatorConfig(**top.block("aggregator").read_all())
    rounds = top.read("rounds")
    local_epochs = top.read("local_epochs")

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
    training_defaults = _DEFAULTS.training
    if dataset.kind == "mnist_idx":
        training_defaults = replace(training_defaults, learning_rate=_MNIST_LEARNING_RATE)
    training = TrainingConfig(**top.block("training", training_defaults).read_all())
    seed = top.read("seed")
    output_dir = top.read("output_dir")

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


class _UniqueKeyLoader(yaml.SafeLoader):
    """The safe loader, noting each key repeated within one mapping (plain
    loading keeps its last value) as a (line, violation) pair."""

    def __init__(self, stream):
        super().__init__(stream)
        self.repeats: list[tuple[int, str]] = []

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    line = key_node.start_mark.line + 1
                    self.repeats.append((line, f"line {line}: duplicate key {key!r}"))
                seen.add(key)
        return super().construct_mapping(node, deep)


def parse_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment config from ``path``. A key
    repeated within one mapping is a violation."""
    loader = _UniqueKeyLoader(Path(path).read_text())
    try:
        raw = loader.get_single_data()
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None) or str(exc)
        if mark is not None:
            raise ConfigError([f"syntax error at line {mark.line + 1}: {problem}"]) from exc
        raise ConfigError([f"syntax error: {problem}"]) from exc
    if loader.repeats:
        raise ConfigError(violation for _, violation in sorted(loader.repeats))
    if raw is None:
        raw = {}
    return config_from_dict(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Resolved config as a plain mapping; parsing it back gives ``cfg``, or
    for a backdoor attack without a trigger, ``cfg`` with the default one."""
    return _plain(cfg)


def _plain(value):
    """``value`` as YAML-ready data: a config block as a mapping of its
    ``_written_keys``, a tuple as a list, anything else unchanged."""
    if isinstance(value, tuple):
        return list(value)
    if not is_dataclass(value):
        return value
    out = {}
    for key in _written_keys(type(value), getattr(value, "kind", None)):
        item = getattr(value, key)
        if item is not None or key != "trigger":
            out[key] = _plain(item)
    return out
