"""Experiment configuration: a strict YAML schema with exhaustive validation.

The frozen dataclasses below declare each block's keys, ``AttackSpec``'s
among them. Each key's field, made by ``_key``, carries its default, its
rule (its type, a list key's item type, and accepted range) and, in a block
with a ``kind``, the kinds that read it; the parser and ``config_to_dict``
read all three from the fields, and the parser makes every check on their
values. Numbers must be finite, and integers at most 2**63 - 1.
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
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path

import yaml

from .aggregators import AGGREGATOR_NAMES
from .attacks import (
    _COUNT_TOLERANCE,
    ATTACK_KINDS,
    TriggerPattern,
    _round_half_up,
    make_default_trigger,
)
from .clustering import LINKAGES
from .data import _MNIST_CLASSES, _MNIST_FEATURES, _MNIST_SIDE
from .errors import ConfigError
from .training import ACTIVATIONS

__all__ = [
    "DatasetConfig",
    "PartitionConfig",
    "AttackSpec",
    "AggregatorConfig",
    "ArchitectureConfig",
    "TrainingConfig",
    "ExperimentConfig",
    "parse_config",
    "config_from_dict",
    "config_to_dict",
    "malicious_count",
]

_MNIST_PATHS = ("train_images", "train_labels", "test_images", "test_labels")
# The attack kinds that read a trigger: the backdoors.
_TRIGGER_KINDS = ("mra", "dba", "neurotoxin")


def _key(default, rule, *kinds: str):
    """A config field: its ``default`` (``MISSING`` for none), the ``rule``
    ``_Reader.read`` checks it by, and in a block with a ``kind``, the
    ``kinds`` that read and write it (none named: every kind). A rule is
    (type, test of an accepted value or None, the rule a rejected value
    broke); a tuple default takes a list of that type, tested as a tuple."""
    return field(default=default, metadata={"key": (rule, kinds)})


def _at_least(minimum: int):
    return int, lambda v: v >= minimum, f"must be >= {minimum}"


def _one_of(*choices: str):
    return str, lambda v: v in choices, f"must be one of {choices}"


def _within(interval: str, why: str = ""):
    """A number in ``interval``, written like "[0, 1]" or "(0, 1]"."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = operator.lt if interval[0] == "(" else operator.le
    below = operator.lt if interval[-1] == ")" else operator.le
    return float, lambda v: above(low, v) and below(v, high), f"must lie in {interval}{why}"


_POSITIVE = (float, lambda v: v > 0, "must be positive")
_STRING = (str, None, None)


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = _key("synthetic", _one_of("synthetic", "mnist_idx"))
    classes: int = _key(4, _at_least(2), "synthetic")
    samples: int = _key(4000, _at_least(1), "synthetic")
    features: int = _key(20, _at_least(1), "synthetic")
    separation: float = _key(4.0, _POSITIVE, "synthetic")
    test_samples: int = _key(1000, _at_least(1), "synthetic")
    train_images: str | None = _key(None, _STRING, "mnist_idx")
    train_labels: str | None = _key(None, _STRING, "mnist_idx")
    test_images: str | None = _key(None, _STRING, "mnist_idx")
    test_labels: str | None = _key(None, _STRING, "mnist_idx")
    train_subset: int | None = _key(None, _at_least(1), "mnist_idx")
    test_subset: int | None = _key(None, _at_least(1), "mnist_idx")


@dataclass(frozen=True)
class PartitionConfig:
    kind: str = _key("iid", _one_of("iid", "dirichlet"))
    alpha: float = _key(0.5, _POSITIVE, "dirichlet")


@dataclass(frozen=True)
class AttackSpec:
    """Which attack a malicious client runs, with its parameters.

    ``boost_factor=None`` means "use the number of clients selected in the
    round"; ``dba_fragments=None`` means "min(4, attacker count)", capped at
    the trigger's size. A backdoor is an attack with a ``trigger``: parsing
    gives one exactly to the kinds in ``_TRIGGER_KINDS``, which read
    ``trigger`` (the default trigger if none is given), and ``None`` to
    every other kind. Values are checked where a config is parsed
    (``config_from_dict``, and ``Experiment`` for a hand-built config), not
    here; the attacks themselves live in ``celtibero.attacks``.
    """

    kind: str = _key(MISSING, _one_of(*ATTACK_KINDS))
    source_class: int = _key(1, _at_least(0), "tlfa")
    target_class: int = _key(0, _at_least(0), "tlfa", *_TRIGGER_KINDS)
    flip_fraction: float = _key(1.0, _within("[0, 1]"), "ulfa")
    poison_fraction: float = _key(0.5, _within("(0, 1]"), *_TRIGGER_KINDS)
    trigger: TriggerPattern | None = _key(None, None, *_TRIGGER_KINDS)
    boost_factor: float | None = _key(None, _POSITIVE, "mra")
    mask_ratio: float = _key(0.05, _within("(0, 1)"), "neurotoxin")
    dba_fragments: int | None = _key(None, _at_least(1), "dba")


@dataclass(frozen=True)
class AggregatorConfig:
    kind: str = _key("fedavg", _one_of(*AGGREGATOR_NAMES))
    krum_f: int = _key(1, _at_least(0), "krum", "median_krum")
    linkage: str = _key("average", _one_of(*LINKAGES), "celtibero")


@dataclass(frozen=True)
class ArchitectureConfig:
    hidden: tuple[int, ...] = _key(
        (16,), (int, lambda v: min(v, default=0) >= 1, "must be a nonempty list of widths >= 1")
    )
    activation: str = _key("relu", _one_of(*ACTIVATIONS))


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = _key(0.05, _POSITIVE)
    batch_size: int = _key(32, _at_least(1))


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    clients: int = _key(20, _at_least(2))
    malicious_fraction: float = _key(
        0.0, _within("[0, 0.5)", " so honest clients hold a strict majority")
    )
    attack: AttackSpec = field(default_factory=lambda: AttackSpec(kind="none"))
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    rounds: int = _key(50, _at_least(0))
    local_epochs: int = _key(3, _at_least(1))
    participation: tuple[float, float] = _key((0.6, 0.9), (
        float, lambda v: len(v) == 2 and 0 < v[0] <= v[1] <= 1,
        "bounds must satisfy 0 < low <= high <= 1",
    ))
    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    seed: int = _key(0, _at_least(0))
    output_dir: str | None = _key(None, _STRING)


def malicious_count(fraction: float, clients: int) -> int:
    """Number of malicious clients among ``clients`` at ``fraction``:
    floor(fraction * clients), with ``_COUNT_TOLERANCE`` so exact products
    are not lost to float representation."""
    return int(math.floor(fraction * clients + _COUNT_TOLERANCE))


def _participant_count(fraction: float, clients: int) -> int:
    """Participants in a round drawn at ``fraction``: rounded half up, at
    least 2, at most all clients."""
    return max(2, min(clients, _round_half_up(fraction, clients)))


# The default instance: every key the parser reads falls back to its value here.
_DEFAULTS = ExperimentConfig()
_MNIST_LEARNING_RATE = 0.1


@cache
def _keys(block: type) -> dict[str, tuple]:
    """Each key of ``block``, in field order, with its (rule, kinds) from
    ``_key``: a block field has neither, the attack's trigger no rule."""
    if block is TriggerPattern:
        return _TRIGGER_KEYS
    return {f.name: f.metadata.get("key", (None, ())) for f in fields(block)}


def _written_keys(block: type, kind: str | None) -> tuple[str, ...]:
    """The keys of ``block`` that ``kind`` reads, in field order, which
    ``config_to_dict`` writes: those naming ``kind`` or no kind (so attack
    "none" has only ``kind``)."""
    return tuple(key for key, (_, kinds) in _keys(block).items() if not kinds or kind in kinds)


# What a rejected value should have been: one value, or a list of them.
_EXPECTED = {
    int: ("an integer", "a list of integers"),
    float: ("a number", "a list of numbers"),
    str: ("a string", "a list of strings"),
    "finite": ("a finite number", "a list of finite numbers"),
    "int64": ("an integer <= 2**63 - 1", "a list of integers <= 2**63 - 1"),
}
# The largest int a key accepts: every size, count and seed fits in 64 bits.
_INT_MAX = 2**63 - 1


def _shown(value) -> str:
    """``repr(value)``; a value holding an int too long for ``repr`` (past
    ``sys.get_int_max_str_digits()``) is described by its size instead."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            return f"a {type(value).__name__} holding an integer too long to print"
        digits = int(abs(value).bit_length() * math.log10(2))  # the count, or one less
        return f"an integer of {digits + (abs(value) >= 10**digits)} digits"


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
    value from ``defaults``, the block's default instance. The allowed keys
    are the block's ``_keys``: every field, whichever kinds read it (a
    trigger's target class is not one of them).
    """

    def __init__(self, raw: dict | None, where: str, errors: _Violations, defaults):
        self.raw = raw or {}
        self.where = where
        self.errors = errors
        self.defaults = defaults
        for key in self.raw:
            if key not in _keys(type(defaults)):
                errors.append(f"{where}: unknown key {_shown(key)}")

    def read(self, key: str):
        """``key``'s value, checked by the rule its field declares: one value,
        or for a key whose default is a tuple, a list of them as a tuple."""
        (type_, ok, rule), _ = _keys(type(self.defaults))[key]
        default = getattr(self.defaults, key)
        value = self.raw.get(key)
        if value is None:
            return default
        listed = isinstance(default, tuple)
        items = value if isinstance(value, list) else [value]
        accepted = (int, float) if type_ is float else type_
        if listed != isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, accepted) for v in items
        ):
            problem = f"expected {_EXPECTED[type_][listed]}, got {_shown(value)}"
        elif type_ is float and not all(abs(v) <= sys.float_info.max for v in items):
            # NaN fails every comparison; an int past the float range has no finite float.
            problem = f"expected {_EXPECTED['finite'][listed]}, got {_shown(value)}"
        elif type_ is int and not all(v <= _INT_MAX for v in items):
            problem = f"expected {_EXPECTED['int64'][listed]}, got {_shown(value)}"
        else:
            value = tuple(map(type_, items)) if listed else type_(value)
            if ok is None or ok(value):
                return value
            problem = f"{rule}, got {_shown(value)}"
        self.errors.reject(f"{self.where}.{key}", problem)
        return default

    def read_all(self) -> dict:
        """The block's ``kind`` (if it has one), then every other key written
        for that kind that has a rule, as a mapping of field values."""
        keys = _keys(type(self.defaults))
        values = {"kind": self.read("kind")} if "kind" in keys else {}
        for key in _written_keys(type(self.defaults), values.get("kind")):
            rule, _ = keys[key]
            if rule is not None and key not in values:
                values[key] = self.read(key)
        return values

    def block(self, key: str, defaults=None) -> _Reader:
        """A reader of the mapping under ``key``; its defaults are ``defaults``
        if given, else this block's default for ``key``."""
        value = self.raw.get(key)
        if value is not None and not isinstance(value, dict):
            self.errors.reject(f"{self.where}.{key}", f"expected a mapping, got {_shown(value)}")
            value = None
        where = f"{self.where}.{key}".removeprefix("top level.")
        return _Reader(value, where, self.errors, defaults or getattr(self.defaults, key))


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


# A trigger block's keys and their types: ``TriggerPattern`` is public on its
# own, declares no rules and checks its own values. The trigger's target
# class is the attack's, so it is neither written nor read.
_TRIGGER_KEYS = {
    "positions": ((int, None, None), ()),
    "values": ((float, None, None), ()),
}


def _parse_trigger(reader: _Reader, num_features: int, errors: _Violations):
    """The trigger that ``reader``'s block gives, or None if it is rejected.
    The block's rules check each value's type and ``TriggerPattern`` the
    rest; this checks the positions against the feature count."""
    trigger, where = reader.read_all(), reader.where
    if not errors.valid(where):
        return None
    try:
        pattern = replace(reader.defaults, **trigger)
    except ValueError as exc:
        errors.reject(where, str(exc))
        return None
    if errors.valid("dataset.kind", "dataset.features") and max(pattern.positions) >= num_features:
        errors.reject(f"{where}.positions", f"every position must lie in [0, {num_features})")
        return None
    return pattern


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
    if kind not in _TRIGGER_KINDS:
        return AttackSpec(**values)

    side = _MNIST_SIDE if mnist else None
    default = make_default_trigger(features, values["target_class"], image_side=side)
    trigger = _parse_trigger(reader.block("trigger", default), features, errors) or default
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


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping and materialize all defaults.

    Raises :class:`ConfigError` carrying *every* violation found.
    """
    errors = _Violations()
    if not isinstance(raw, dict):
        raise ConfigError([f"top level: expected a mapping, got {type(raw).__name__}"])
    top = _Reader(raw, "top level", errors, _DEFAULTS)
    values = top.read_all()
    clients, participation = values["clients"], values["participation"]
    attackers = malicious_count(values["malicious_fraction"], clients)
    if attackers * 2 >= clients and errors.valid("clients"):
        # malicious_count's epsilon can round a fraction just under 0.5 up to half.
        errors.reject(
            "top level.malicious_fraction",
            f"{values['malicious_fraction']} of {clients} clients gives "
            f"{attackers} malicious, which leaves no strict honest majority",
        )

    dataset = _parse_dataset(top.block("dataset"), errors)
    size_key = "samples" if dataset.kind == "synthetic" else "train_subset"
    size = getattr(dataset, size_key)
    read = ("dataset.kind", f"dataset.{size_key}", "clients")
    if size is not None and size < clients and errors.valid(*read):
        # Every client needs at least one training sample.
        errors.append(
            f"dataset.{size_key}: {size} training samples cannot be split across "
            f"{clients} clients"
        )
    partition = PartitionConfig(**top.block("partition").read_all())
    attack = _parse_attack(top.block("attack"), dataset, attackers, errors)
    aggregator = AggregatorConfig(**top.block("aggregator").read_all())
    if "krum_f" in _written_keys(AggregatorConfig, aggregator.kind):
        # Smallest round that sample_participants can draw: the low bound's count.
        fewest = _participant_count(participation[0], clients)
        needed = 2 * aggregator.krum_f + 3
        if fewest < needed and errors.valid("clients", "participation", "aggregator.krum_f"):
            errors.append(
                f"aggregator.krum_f: {aggregator.kind} with krum_f={aggregator.krum_f} needs "
                f">= {needed} participants per round (2*krum_f + 3), but a round of "
                f"{clients} clients at participation {participation[0]} can have {fewest}"
            )
    architecture = ArchitectureConfig(**top.block("architecture").read_all())
    training_defaults = _DEFAULTS.training
    if dataset.kind == "mnist_idx":
        training_defaults = replace(training_defaults, learning_rate=_MNIST_LEARNING_RATE)
    training = TrainingConfig(**top.block("training", training_defaults).read_all())

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        **values,
        dataset=dataset,
        partition=partition,
        attack=attack,
        aggregator=aggregator,
        architecture=architecture,
        training=training,
    )


class _UniqueKeyLoader(yaml.SafeLoader):
    """The safe loader, building only the plain types and noting each key
    repeated within one mapping (plain loading keeps its last value) as a
    (line, violation) pair."""

    # Any other tag, explicit or a timestamp's implicit one, reaches the
    # undefined-tag constructor (key None), a syntax error at its node.
    yaml_constructors = {
        tag: yaml.SafeLoader.yaml_constructors[tag]
        for tag in [None] + [
            f"tag:yaml.org,2002:{kind}"
            for kind in ("str", "int", "float", "bool", "null", "seq", "map")
        ]
    }

    def __init__(self, stream):
        super().__init__(stream)
        self.repeats: list[tuple[int, str]] = []

    def construct_object(self, node, deep=False):
        """A value the loader cannot build (an int past
        ``sys.get_int_max_str_digits()``) is a syntax error at its node."""
        try:
            return super().construct_object(node, deep)
        except ValueError as exc:
            raise yaml.constructor.ConstructorError(None, None, str(exc), node.start_mark) from exc

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    line = key_node.start_mark.line + 1
                    self.repeats.append((line, f"line {line}: duplicate key {_shown(key)}"))
                seen.add(key)
        return super().construct_mapping(node, deep)


def parse_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment config from ``path``. A key
    repeated within one mapping is a violation."""
    try:
        # YAML decodes the bytes itself (UTF-8 or UTF-16), whatever the locale.
        loader = _UniqueKeyLoader(Path(path).read_bytes())
        raw = loader.get_single_data()
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        # A decoding error has no problem text; its message spans two lines.
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        if mark is not None:
            raise ConfigError([f"syntax error at line {mark.line + 1}: {problem}"]) from exc
        raise ConfigError([f"syntax error: {problem}"]) from exc
    if loader.repeats:
        raise ConfigError(violation for _, violation in sorted(loader.repeats))
    if raw is None:
        raw = {}
    return config_from_dict(raw)


def config_to_dict(value):
    """``value`` as YAML-ready data: a config block as a mapping of its
    ``_written_keys``, a tuple as a list, anything else unchanged. Parsing
    ``config_to_dict(cfg)`` gives ``cfg`` back, except that an attack kind
    that reads a trigger but has none gets the default one, and any other
    kind loses its trigger."""
    if isinstance(value, tuple):
        return list(value)
    if not is_dataclass(value):
        return value
    out = {}
    for key in _written_keys(type(value), getattr(value, "kind", None)):
        item = getattr(value, key)
        if item is not None or key != "trigger":
            out[key] = config_to_dict(item)
    return out
