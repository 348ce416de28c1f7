"""Config schema: defaults, strictness, violation batching, and round trips."""

from dataclasses import MISSING, fields, replace

import pytest

from celtibero import (
    ATTACK_KINDS,
    REFERENCE_KINDS,
    AggregatorConfig,
    AttackSpec,
    ConfigError,
    Experiment,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    make_default_trigger,
    malicious_count,
    parse_config,
    run_experiment,
)
from celtibero.attacks import _MODEL_RULES
from celtibero.config import _keys, _participant_count

INF = float("inf")

MNIST_PATHS = {
    "train_images": "data/train-images-idx3-ubyte",
    "train_labels": "data/train-labels-idx1-ubyte",
    "test_images": "data/t10k-images-idx3-ubyte",
    "test_labels": "data/t10k-labels-idx1-ubyte",
}


def violations_of(raw):
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(raw)
    return excinfo.value.violations


class TestDefaults:
    def test_empty_config_materializes_documented_defaults(self):
        cfg = config_from_dict({})
        assert cfg.clients == 20
        assert cfg.malicious_fraction == 0.0
        assert cfg.rounds == 50
        assert cfg.local_epochs == 3
        assert cfg.participation == (0.6, 0.9)
        assert cfg.seed == 0
        assert cfg.output_dir is None
        assert cfg.dataset.kind == "synthetic"
        assert (cfg.dataset.classes, cfg.dataset.samples) == (4, 4000)
        assert (cfg.dataset.features, cfg.dataset.separation) == (20, 4.0)
        assert cfg.dataset.test_samples == 1000
        assert cfg.partition.kind == "iid"
        assert cfg.attack.kind == "none"
        assert cfg.aggregator.kind == "fedavg"
        assert cfg.architecture.hidden == (16,)
        assert cfg.architecture.activation == "relu"
        assert cfg.training.learning_rate == 0.05
        assert cfg.training.batch_size == 32

    def test_learning_rate_default_tracks_dataset_kind(self):
        assert config_from_dict({}).training.learning_rate == 0.05
        mnist = config_from_dict({"dataset": {"kind": "mnist_idx", **MNIST_PATHS}})
        assert mnist.training.learning_rate == 0.1


class TestUnknownKeysAreFatal:
    @pytest.mark.parametrize(
        "raw, where",
        [
            ({"sneaky": 1}, "top level"),
            ({"dataset": {"sneaky": 1}}, "dataset"),
            ({"partition": {"sneaky": 1}}, "partition"),
            ({"attack": {"kind": "ulfa", "sneaky": 1}}, "attack"),
            (
                {
                    "attack": {
                        "kind": "mra",
                        "trigger": {"positions": [0], "values": [1.0], "sneaky": 1},
                    },
                    "malicious_fraction": 0.2,
                },
                "attack.trigger",
            ),
            ({"aggregator": {"kind": "krum", "sneaky": 1}}, "aggregator"),
            ({"architecture": {"sneaky": 1}}, "architecture"),
            ({"training": {"sneaky": 1}}, "training"),
        ],
    )
    def test_unknown_key_reported_with_location(self, raw, where):
        assert any(
            v.startswith(where) and "unknown key 'sneaky'" in v for v in violations_of(raw)
        )


class TestViolationBatching:
    def test_all_violations_reported_in_one_error(self):
        violations = violations_of(
            {"clients": 1, "rounds": -2, "local_epochs": 0, "seed": -1}
        )
        assert len(violations) == 4
        joined = "\n".join(violations)
        for key in ("clients", "rounds", "local_epochs", "seed"):
            assert key in joined

    def test_top_level_violations_come_before_block_violations(self):
        raw = {
            "dataset": {"classes": 1, "features": 3},
            "training": {"batch_size": 0},
            "output_dir": 5,
            "rounds": -1,
        }
        assert violations_of(raw) == [
            "top level.rounds: must be >= 0, got -1",
            "top level.output_dir: expected a string, got 5",
            "dataset.classes: must be >= 2, got 1",
            "training.batch_size: must be >= 1, got 0",
        ]

    def test_honest_majority_message(self):
        violations = violations_of({"malicious_fraction": 0.5})
        assert violations == [
            "top level.malicious_fraction: must lie in [0, 0.5) so honest clients "
            "hold a strict majority, got 0.5"
        ]


class TestValueViolations:
    @pytest.mark.parametrize(
        "raw, fragment",
        [
            ({"dataset": {"kind": "imagenet"}}, "dataset.kind"),
            ({"dataset": {"classes": 1}}, "dataset.classes"),
            ({"dataset": {"classes": 8, "features": 4}}, "features (4) must be >= classes (8)"),
            ({"dataset": {"separation": 0}}, "dataset.separation"),
            ({"dataset": {"kind": "mnist_idx"}}, "dataset.train_images: required"),
            ({"partition": {"kind": "dirichlet", "alpha": 0}}, "partition.alpha"),
            ({"clients": "many"}, "clients: expected an integer"),
            ({"participation": [0.5]}, "participation"),
            ({"participation": [0.9, 0.5]}, "participation"),
            ({"participation": [0.0, 0.5]}, "participation"),
            ({"attack": {"kind": "ddos"}}, "attack.kind"),
            ({"attack": {"kind": "ulfa", "flip_fraction": 2}}, "attack.flip_fraction"),
            (
                {"attack": {"kind": "tlfa", "source_class": 2, "target_class": 2}},
                "source and target classes must differ",
            ),
            ({"attack": {"kind": "tlfa", "source_class": 9}}, "attack.source_class"),
            ({"attack": {"kind": "mra", "target_class": 9}}, "attack.target_class"),
            ({"attack": {"kind": "mra", "poison_fraction": 0}}, "attack.poison_fraction"),
            ({"attack": {"kind": "mra", "boost_factor": -1}}, "attack.boost_factor"),
            (
                {"attack": {"kind": "neurotoxin", "mask_ratio": 1}},
                "attack.mask_ratio",
            ),
            ({"attack": {"kind": "dba"}}, "dba needs at least one malicious client"),
            ({"aggregator": {"kind": "mean"}}, "aggregator.kind"),
            ({"aggregator": {"kind": "krum", "krum_f": -1}}, "aggregator.krum_f"),
            (
                {"aggregator": {"kind": "celtibero", "linkage": "ward"}},
                "aggregator.linkage",
            ),
            ({"architecture": {"hidden": []}}, "architecture.hidden"),
            ({"architecture": {"hidden": [16, 0]}}, "architecture.hidden"),
            ({"architecture": {"activation": "gelu"}}, "architecture.activation"),
            ({"training": {"learning_rate": 0}}, "training.learning_rate"),
            ({"training": {"batch_size": 0}}, "training.batch_size"),
            (
                {"clients": 2, "malicious_fraction": 0.4999999999999},
                "1 malicious, which leaves no strict honest majority",
            ),
            (
                {"dataset": {"samples": 10}, "clients": 20},
                "dataset.samples: 10 training samples cannot be split across 20 clients",
            ),
            (
                {"dataset": {"kind": "mnist_idx", **MNIST_PATHS, "train_subset": 19}},
                "dataset.train_subset: 19 training samples cannot be split across 20 clients",
            ),
            (
                {"training": {"learning_rate": INF}},
                "training.learning_rate: expected a finite number, got inf",
            ),
            (
                {"training": {"learning_rate": -INF}},
                "training.learning_rate: expected a finite number, got -inf",
            ),
            ({"training": {"learning_rate": 10**400}}, "learning_rate: expected a finite number"),
            ({"seed": 2**63}, "top level.seed: expected an integer <= 2**63 - 1"),
            (
                {"attack": {"kind": "mra", "boost_factor": INF}},
                "attack.boost_factor: expected a finite number, got inf",
            ),
            (
                {"attack": {"kind": "mra", "boost_factor": -INF}},
                "attack.boost_factor: expected a finite number, got -inf",
            ),
            (
                {"partition": {"kind": "dirichlet", "alpha": INF}},
                "partition.alpha: expected a finite number, got inf",
            ),
            (
                {"partition": {"kind": "dirichlet", "alpha": -INF}},
                "partition.alpha: expected a finite number, got -inf",
            ),
            (
                {"partition": {"kind": "dirichlet", "alpha": float("nan")}},
                "partition.alpha: expected a finite number, got nan",
            ),
            ({"dataset": {"separation": INF}}, "separation: expected a finite number, got inf"),
            ({"dataset": {"separation": -INF}}, "separation: expected a finite number, got -inf"),
            (
                {"attack": {"kind": "neurotoxin", "mask_ratio": INF}},
                "attack.mask_ratio: expected a finite number, got inf",
            ),
            (
                {"attack": {"kind": "neurotoxin", "mask_ratio": -INF}},
                "attack.mask_ratio: expected a finite number, got -inf",
            ),
        ],
    )
    def test_violation_mentions_offending_key(self, raw, fragment):
        assert any(fragment in v for v in violations_of(raw))

    @pytest.mark.parametrize(
        "raw, expected",
        [
            (
                {"clients": 1, "dataset": {"samples": 10}},
                ["top level.clients: must be >= 2, got 1"],
            ),
            (
                {"clients": "x", "participation": [0.2, 1.0], "aggregator": {"kind": "krum"}},
                ["top level.clients: expected an integer, got 'x'"],
            ),
            (
                {"clients": 5, "participation": [0.0, 1.0], "aggregator": {"kind": "krum"}},
                [
                    "top level.participation: bounds must satisfy 0 < low <= high <= 1, "
                    "got (0.0, 1.0)"
                ],
            ),
            (
                {"aggregator": {"kind": "krum", "krum_f": -1}, "clients": 5},
                ["aggregator.krum_f: must be >= 0, got -1"],
            ),
            ({"dataset": 5, "clients": 5000}, ["top level.dataset: expected a mapping, got 5"]),
            ({"dataset": {"classes": 1, "features": 3}}, ["dataset.classes: must be >= 2, got 1"]),
            (
                {"dataset": {"classes": 1}, "attack": {"kind": "tlfa", "source_class": 5}},
                ["dataset.classes: must be >= 2, got 1"],
            ),
            (
                {
                    "dataset": {"features": "wide"},
                    "malicious_fraction": 0.2,
                    "attack": {"kind": "mra", "trigger": {"positions": [30], "values": [1.0]}},
                },
                ["dataset.features: expected an integer, got 'wide'"],
            ),
            (
                {"malicious_fraction": 0.7, "attack": {"kind": "dba"}},
                [
                    "top level.malicious_fraction: must lie in [0, 0.5) so honest clients "
                    "hold a strict majority, got 0.7"
                ],
            ),
            (
                {"attack": {"kind": "dba", "dba_fragments": 0}},
                ["attack.dba_fragments: must be >= 1, got 0"],
            ),
            (
                {
                    "malicious_fraction": 0.4,
                    "attack": {
                        "kind": "dba",
                        "dba_fragments": 5,
                        "trigger": {"positions": [0, 1, 2, 3, 4, 5], "values": [1.0]},
                    },
                },
                ["attack.trigger: trigger has 6 positions but 1 values"],
            ),
            (
                {"dataset": {"kind": "mnist_idx", **MNIST_PATHS, "train_images": 5}},
                ["dataset.train_images: expected a string, got 5"],
            ),
        ],
    )
    def test_cross_field_check_skipped_after_its_field_was_rejected(self, raw, expected):
        """A rejected value is replaced by its default; no check may then
        report on that default, which the config never gave."""
        assert violations_of(raw) == expected

    @pytest.mark.parametrize(
        "trigger, fragment",
        [
            ({"positions": [0, 25], "values": [1.0]}, "1 values"),
            ({"positions": [0, 99], "values": [1.0, 1.0]}, "lie in [0, 20)"),
            ({"positions": [0, 0], "values": [1.0, 1.0]}, "distinct"),
            (
                {"positions": [0, 1], "values": [1.0, 2.0]},
                "attack.trigger: trigger values must lie in [0, 1], got (1.0, 2.0)",
            ),
            ({"positions": "corner", "values": [1.0]}, "list of integers"),
            ({"positions": [0], "values": "bright"}, "list of numbers"),
        ],
    )
    def test_trigger_violations(self, trigger, fragment):
        raw = {"attack": {"kind": "mra", "trigger": trigger}, "malicious_fraction": 0.2}
        assert any(fragment in v for v in violations_of(raw))


class TestParserOwnsEveryCheck:
    def test_empty_trigger_is_listed_with_other_violations(self):
        raw = {
            "attack": {"kind": "mra", "trigger": {"positions": [], "values": []}},
            "malicious_fraction": 0.2,
            "clients": -3,
        }
        assert violations_of(raw) == [
            "top level.clients: must be >= 2, got -3",
            "attack.trigger: trigger needs at least one position",
        ]

    @pytest.mark.parametrize(
        "raw, expected",
        [
            (
                {"participation": [0.5, 10**400]},
                [
                    "top level.participation: expected a list of finite numbers, "
                    f"got {[0.5, 10**400]!r}"
                ],
            ),
            (
                {
                    "attack": {"kind": "mra", "trigger": {"positions": [0], "values": [10**400]}},
                    "malicious_fraction": 0.2,
                },
                [f"attack.trigger.values: expected a list of finite numbers, got {[10**400]!r}"],
            ),
            (
                {
                    "dataset": {"features": "wide"},
                    "attack": {"kind": "mra", "trigger": {"positions": [-1], "values": [1.0]}},
                    "malicious_fraction": 0.2,
                },
                [
                    "dataset.features: expected an integer, got 'wide'",
                    "attack.trigger: trigger positions must be nonnegative, got (-1,)",
                ],
            ),
            (
                {"architecture": {"hidden": [8, True]}, "participation": 0.5},
                [
                    "top level.participation: expected a list of numbers, got 0.5",
                    "architecture.hidden: expected a list of integers, got [8, True]",
                ],
            ),
        ],
    )
    def test_list_values_are_read_like_scalars(self, raw, expected):
        """A list key's items are type- and finite-checked like a scalar, and
        a bad item is listed with the other violations, never raised."""
        assert violations_of(raw) == expected

    def test_ints_past_64_bits_are_violations(self):
        """A size past 64 bits can never be allocated; before this check each
        of these passed the parser and failed in set-up."""
        big = 10**400
        raw = {
            "architecture": {"hidden": [big]},
            "dataset": {"features": big, "samples": big, "test_samples": big},
        }
        assert violations_of(raw) == [
            f"dataset.samples: expected an integer <= 2**63 - 1, got {big!r}",
            f"dataset.features: expected an integer <= 2**63 - 1, got {big!r}",
            f"dataset.test_samples: expected an integer <= 2**63 - 1, got {big!r}",
            f"architecture.hidden: expected a list of integers <= 2**63 - 1, got {[big]!r}",
        ]
        assert config_from_dict({"seed": 2**63 - 1}).seed == 2**63 - 1

    def test_ints_too_long_to_print_are_violations(self):
        """An int past ``sys.get_int_max_str_digits()`` has no ``repr``; its
        violation gives its number of digits instead."""
        raw = {
            "seed": 10**5000,
            "clients": 1,
            "rounds": -(10**5000),
            "dataset": {"samples": 10**5000 - 1},
            "architecture": {"hidden": [10**5000]},
            "partition": 10**5000,
            10**5000: 1,
        }
        assert violations_of(raw) == [
            "top level: unknown key an integer of 5001 digits",
            "top level.clients: must be >= 2, got 1",
            "top level.rounds: must be >= 0, got an integer of 5001 digits",
            "top level.seed: expected an integer <= 2**63 - 1, got an integer of 5001 digits",
            "dataset.samples: expected an integer <= 2**63 - 1, got an integer of 5000 digits",
            "top level.partition: expected a mapping, got an integer of 5001 digits",
            "architecture.hidden: expected a list of integers <= 2**63 - 1, "
            "got a list holding an integer too long to print",
        ]

    def test_one_sample_per_client_is_enough(self):
        assert config_from_dict({"dataset": {"samples": 20}, "clients": 20}).clients == 20
        raw = {"dataset": {"kind": "mnist_idx", **MNIST_PATHS, "train_subset": 20}}
        assert config_from_dict(raw).dataset.train_subset == 20


class TestTriggerMaterialization:
    def test_synthetic_default_trigger(self):
        cfg = config_from_dict({"attack": {"kind": "mra"}, "malicious_fraction": 0.2})
        assert cfg.attack.trigger.positions == (0, 1, 2)
        assert cfg.attack.trigger.values == (1.0, 1.0, 1.0)
        assert cfg.attack.trigger.target_class == 0

    def test_mnist_default_trigger_is_corner_patch(self):
        cfg = config_from_dict(
            {
                "dataset": {"kind": "mnist_idx", **MNIST_PATHS},
                "attack": {"kind": "mra"},
                "malicious_fraction": 0.2,
            }
        )
        expected = tuple(r * 28 + c for r in range(3) for c in range(3))
        assert cfg.attack.trigger.positions == expected

    def test_explicit_trigger_parsed(self):
        cfg = config_from_dict(
            {
                "attack": {
                    "kind": "mra",
                    "target_class": 2,
                    "trigger": {"positions": [16, 17, 18], "values": [1, 1, 0.5]},
                },
                "malicious_fraction": 0.2,
            }
        )
        assert cfg.attack.trigger.positions == (16, 17, 18)
        assert cfg.attack.trigger.values == (1.0, 1.0, 0.5)
        assert cfg.attack.trigger.target_class == 2

    def test_dba_fragment_default_follows_attacker_count(self):
        wide = {"positions": [0, 1, 2, 3, 4, 5], "values": [1.0] * 6}
        cfg = config_from_dict(
            {
                "attack": {"kind": "dba", "trigger": wide},
                "malicious_fraction": 0.4,
                "clients": 20,
            }
        )
        assert cfg.attack.dba_fragments == 4
        few = config_from_dict(
            {
                "attack": {"kind": "dba", "trigger": wide},
                "malicious_fraction": 0.26,
                "clients": 8,
            }
        )
        assert few.attack.dba_fragments == 2

    def test_dba_derived_fragments_clamp_to_trigger_size(self):
        cfg = config_from_dict({"attack": {"kind": "dba"}, "malicious_fraction": 0.4})
        assert len(cfg.attack.trigger.positions) == 3
        assert cfg.attack.dba_fragments == 3

    def test_dba_explicit_fragment_overflow_is_an_error(self):
        raw = {
            "attack": {"kind": "dba", "dba_fragments": 5},
            "malicious_fraction": 0.4,
        }
        assert any("5 fragments exceed 3" in v for v in violations_of(raw))


class TestKrumParticipants:
    """Krum needs n >= 2*krum_f + 3 inputs; the parser checks the smallest
    round that participant sampling can draw."""

    TINY = {
        "dataset": {"kind": "synthetic", "classes": 3, "samples": 130, "features": 6,
                    "test_samples": 60},
        "rounds": 1,
        "local_epochs": 1,
        "architecture": {"hidden": [5]},
    }

    def test_krum_precondition_rejected_at_parse_time(self):
        for kind in ("krum", "median_krum"):
            raw = {
                "clients": 6,
                "participation": [1.0, 1.0],
                "aggregator": {"kind": kind, "krum_f": 2},
                "rounds": -1,
            }
            violations = violations_of(raw)
            assert len(violations) == 2
            assert any(
                v.startswith("aggregator.krum_f:") and "needs >= 7 participants" in v
                and "can have 6" in v
                for v in violations
            )

    def test_exact_boundary(self):
        # 0.5 * 13 rounds half up to 7 participants, exactly 2*2 + 3.
        raw = dict(self.TINY, clients=13, participation=[0.5, 0.5])
        raw["aggregator"] = {"kind": "krum", "krum_f": 2}
        result = run_experiment(config_from_dict(raw))
        assert [len(r.participants) for r in result.reports] == [7]
        raw["aggregator"] = {"kind": "krum", "krum_f": 3}
        assert any("needs >= 9 participants" in v for v in violations_of(raw))

    def test_two_participant_floor(self):
        raw = {"clients": 10, "participation": [0.1, 1.0],
               "aggregator": {"kind": "median_krum", "krum_f": 0}}
        assert any("can have 2" in v for v in violations_of(raw))

    def test_check_follows_the_kinds_that_read_krum_f(self, monkeypatch):
        raw = {"clients": 4, "participation": [1.0, 1.0],
               "aggregator": {"kind": "fedavg", "krum_f": 2}}
        assert config_from_dict(raw).aggregator.kind == "fedavg"
        rule, kinds = _keys(AggregatorConfig)["krum_f"]
        monkeypatch.setitem(_keys(AggregatorConfig), "krum_f", (rule, (*kinds, "fedavg")))
        assert any("fedavg with krum_f=2 needs >= 7" in v for v in violations_of(raw))


class TestKeyTables:
    """The rule and kinds on each field, which the parser reads: a misspelt
    kind would silently read only ``kind``, a key without a rule would
    silently keep its default, and a default its rule rejects would be
    written into every ``summary.json`` and fail ``Experiment``'s re-parse."""

    BLOCKS = (ExperimentConfig, *(
        type(f.default_factory()) for f in fields(ExperimentConfig)
        if f.default_factory is not MISSING
    ))

    def test_every_kind_exists(self):
        for block in self.BLOCKS:
            named = {kind for _, kinds in _keys(block).values() for kind in kinds}
            if named:
                (_, accepts, _), _ = _keys(block)["kind"]
                assert all(accepts(kind) for kind in named), (block.__name__, named)

    def test_every_written_key_has_a_rule(self):
        for block in self.BLOCKS:
            for f in fields(block):
                rule, _ = _keys(block)[f.name]
                nested = f.default_factory is not MISSING
                assert rule is not None or nested or f.name == "trigger", (block.__name__, f.name)

    def test_every_default_passes_its_rule(self):
        for block in self.BLOCKS:
            for f in fields(block):
                rule, _ = _keys(block)[f.name]
                if rule is None or f.default is None or f.default is MISSING:
                    continue
                type_, ok, _ = rule
                items = f.default if isinstance(f.default, tuple) else (f.default,)
                assert all(type(v) is type_ for v in items), (block.__name__, f.name)
                assert ok is None or ok(f.default), (block.__name__, f.name)

    def test_attack_kind_sets_agree(self):
        # A backdoor is an attack with a trigger: the orchestrator stamps and
        # scores by it, so a parsed config, or a hand-built one that
        # ``Experiment`` re-parses, has one exactly for the kinds that read one.
        reads_trigger = set(_keys(AttackSpec)["trigger"][1])
        base = config_from_dict({
            "dataset": {"samples": 40, "features": 6, "test_samples": 20},
            "clients": 4, "malicious_fraction": 0.25, "rounds": 0,
        })
        trigger = make_default_trigger(6, 0)
        for kind in ATTACK_KINDS:
            parsed = config_from_dict({**config_to_dict(base), "attack": {"kind": kind}}).attack
            built = Experiment(replace(base, attack=AttackSpec(kind))).cfg.attack
            given = Experiment(replace(base, attack=AttackSpec(kind, trigger=trigger))).cfg.attack
            for attack in (parsed, built, given):
                assert (attack.trigger is not None) == (kind in reads_trigger), (kind, attack)
        assert set(REFERENCE_KINDS) <= set(ATTACK_KINDS)
        assert set(_MODEL_RULES) <= set(ATTACK_KINDS)
        assert not set(REFERENCE_KINDS) & reads_trigger

    def test_attack_kinds_keep_their_order(self):
        kinds = ("none", "ulfa", "tlfa", "mra", "dba", "neurotoxin")
        assert ATTACK_KINDS == kinds
        assert violations_of({"attack": {"kind": "minmax"}}) == [
            f"attack.kind: must be one of {kinds}, got 'minmax'"
        ]


class TestCanonicalization:
    def test_irrelevant_keys_reset_to_defaults(self):
        cfg = config_from_dict({"aggregator": {"kind": "fedavg", "krum_f": 7}})
        assert cfg.aggregator.krum_f == 1
        cfg = config_from_dict({"partition": {"kind": "iid", "alpha": 9.9}})
        assert cfg.partition.alpha == 0.5
        cfg = config_from_dict({"attack": {"kind": "none", "flip_fraction": 0.5}})
        assert cfg.attack.flip_fraction == 1.0
        cfg = config_from_dict(
            {"aggregator": {"kind": "celtibero", "krum_f": 7, "linkage": "single"}}
        )
        assert cfg.aggregator.krum_f == 1
        assert cfg.aggregator.linkage == "single"
        # A key that does not apply to the kind is neither read nor checked.
        cfg = config_from_dict({"attack": {"kind": "ulfa", "mask_ratio": "x"}})
        assert cfg.attack.mask_ratio == 0.05
        cfg = config_from_dict({"aggregator": {"kind": "fedavg", "krum_f": -3}})
        assert cfg.aggregator.krum_f == 1
        cfg = config_from_dict({"partition": {"kind": "iid", "alpha": INF}})
        assert cfg.partition.alpha == 0.5
        cfg = config_from_dict({"dataset": {"kind": "synthetic", "train_subset": 0}})
        assert cfg.dataset.train_subset is None
        cfg = config_from_dict({"attack": {"kind": "none", "boost_factor": INF}})
        assert cfg.attack.boost_factor is None


class TestRoundTrip:
    @pytest.mark.parametrize(
        "raw",
        [
            {},
            {"attack": {"kind": "ulfa", "flip_fraction": 0.8}, "malicious_fraction": 0.3},
            {
                "attack": {"kind": "tlfa", "source_class": 2, "target_class": 1},
                "malicious_fraction": 0.3,
            },
            {
                "attack": {
                    "kind": "mra",
                    "boost_factor": 3.0,
                    "poison_fraction": 1.0,
                    "trigger": {"positions": [16, 17, 18], "values": [1, 1, 1]},
                },
                "malicious_fraction": 0.4,
            },
            {"attack": {"kind": "dba"}, "malicious_fraction": 0.4},
            {
                "attack": {"kind": "neurotoxin", "mask_ratio": 0.5, "poison_fraction": 1.0},
                "malicious_fraction": 0.4,
            },
            {"aggregator": {"kind": "celtibero", "linkage": "single"}},
            {"aggregator": {"kind": "median_krum", "krum_f": 4}},
            {"partition": {"kind": "dirichlet", "alpha": 0.5}},
            {
                "dataset": {"kind": "mnist_idx", **MNIST_PATHS, "train_subset": 2000},
                "output_dir": "results/run1",
                "seed": 11,
            },
            {
                "clients": 12,
                "malicious_fraction": 0.25,
                "rounds": 7,
                "local_epochs": 2,
                "participation": [0.5, 1.0],
                "seed": 5,
                "output_dir": "results/run2",
            },
        ],
    )
    def test_config_dict_round_trip_is_exact(self, raw):
        cfg = config_from_dict(raw)
        assert config_from_dict(config_to_dict(cfg)) == cfg


class TestMaliciousCount:
    def test_floor_semantics(self):
        assert malicious_count(0.4, 20) == 8
        assert malicious_count(0.49, 10) == 4

    def test_exact_products_not_lost_to_float_representation(self):
        assert malicious_count(0.3, 10) == 3

    def test_participants_round_a_decimal_half_up(self):
        # 0.145 * 100 is 14.499999999999998 in floats.
        assert _participant_count(0.145, 100) == 15


class TestParseConfig:
    def test_valid_yaml_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("clients: 8\nrounds: 3\naggregator:\n  kind: celtibero\n")
        cfg = parse_config(path)
        assert cfg.clients == 8
        assert cfg.rounds == 3
        assert cfg.aggregator.kind == "celtibero"

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert parse_config(path) == config_from_dict({})

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("clients: 5\nrounds: [1, 2\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        assert excinfo.value.violations[0].startswith("syntax error at line")

    def test_repeated_keys_are_all_rejected(self, tmp_path):
        path = tmp_path / "repeats.yaml"
        path.write_text(
            "rounds: 5\n"
            "aggregator: {kind: krum, kind: fedavg}\n"
            "clients: 8\n"
            "rounds: 50\n"
            "attack:\n"
            "  kind: mra\n"
            "  target_class: 0\n"
            "  kind: none\n"
        )
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        assert excinfo.value.violations == [
            "line 2: duplicate key 'kind'",
            "line 4: duplicate key 'rounds'",
            "line 8: duplicate key 'kind'",
        ]

    def test_merged_and_reused_key_names_are_not_repeats(self, tmp_path):
        # A key may name one entry in each mapping, and may override a key
        # merged in with ``<<``.
        path = tmp_path / "merge.yaml"
        path.write_text(
            "aggregator:\n  kind: krum\n"
            "attack:\n  <<: {kind: mra, target_class: 0}\n  target_class: 1\n"
        )
        cfg = parse_config(path)
        assert cfg.aggregator.kind == "krum"
        assert (cfg.attack.kind, cfg.attack.target_class) == ("mra", 1)

    def test_non_mapping_document_rejected(self, tmp_path):
        path = tmp_path / "scalar.yaml"
        path.write_text("just a string\n")
        with pytest.raises(ConfigError, match="expected a mapping"):
            parse_config(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_config(tmp_path / "nope.yaml")