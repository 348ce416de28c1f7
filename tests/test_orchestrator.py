"""Round loop, participant sampling, attack metrics, and experiment drivers."""

import logging
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from celtibero import (
    ATTACK_KINDS,
    AttackSpec,
    ConfigError,
    Experiment,
    FederationState,
    IdxFormatError,
    LabeledDataset,
    NetworkArchitecture,
    RoundError,
    RoundReport,
    ShapeMismatchError,
    backdoor_success_rate,
    config_from_dict,
    config_to_dict,
    derive_rng,
    derive_seed,
    diff,
    emit_reports,
    evaluate,
    gen_synthetic,
    init_model,
    load_idx,
    make_default_trigger,
    partition_dirichlet,
    partition_iid,
    run_experiment,
    sample_participants,
    TriggerPattern,
)
from celtibero import attacks, orchestrator
from celtibero import data as data_module
from celtibero.data import _ROW_BYTES
from .oracles import stamped_backdoor_rate
from .test_data import write_idx_pair
from .test_training import dense_model


# The functions of ``celtibero.attacks`` that each attack kind's rows call.
ROW_FUNCTIONS = {
    "ulfa": ("flip_labels_untargeted",),
    "tlfa": ("flip_labels_targeted",),
    "mra": ("embed_trigger", "boost_update"),
    "dba": ("split_trigger", "embed_trigger"),
    "neurotoxin": ("embed_trigger", "diff", "neurotoxin_mask", "add_update"),
}


def tiny_config(**overrides):
    raw = {
        "dataset": {
            "kind": "synthetic",
            "classes": 3,
            "samples": 120,
            "features": 6,
            "separation": 3.0,
            "test_samples": 60,
        },
        "clients": 6,
        "malicious_fraction": 0.34,
        "attack": {"kind": "none"},
        "aggregator": {"kind": "fedavg"},
        "rounds": 2,
        "local_epochs": 1,
        "participation": [1.0, 1.0],
        "architecture": {"hidden": [5]},
        "training": {"learning_rate": 0.05, "batch_size": 16},
        "seed": 3,
    }
    raw.update(overrides)
    return config_from_dict(raw)


class TestDeriveStreams:
    def test_deterministic(self):
        assert derive_rng(7, "train", 0, 3).uniform() == derive_rng(7, "train", 0, 3).uniform()
        assert derive_seed(7, "init") == derive_seed(7, "init")

    def test_distinct_across_paths_and_seeds(self):
        draws = {
            derive_rng(7, "train", 0, 3).uniform(),
            derive_rng(7, "train", 0, 4).uniform(),
            derive_rng(7, "train", 1, 3).uniform(),
            derive_rng(7, "participants", 0, 3).uniform(),
            derive_rng(8, "train", 0, 3).uniform(),
        }
        assert len(draws) == 5

    def test_seed_path_sensitivity(self):
        assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)
        assert derive_seed(7, "a") != derive_seed(7, "b")


class TestSampleParticipants:
    def test_full_participation_selects_everyone(self):
        chosen = sample_participants(9, (1.0, 1.0), np.random.default_rng(0))
        assert np.array_equal(chosen, np.arange(9))

    def test_minimum_of_two_participants(self):
        chosen = sample_participants(20, (0.01, 0.01), np.random.default_rng(1))
        assert chosen.size == 2

    def test_sorted_distinct_and_in_range(self):
        for seed in range(5):
            chosen = sample_participants(15, (0.4, 0.9), np.random.default_rng(seed))
            assert np.array_equal(chosen, np.unique(chosen))
            assert chosen.min() >= 0 and chosen.max() < 15

    def test_deterministic_given_seed(self):
        a = sample_participants(12, (0.5, 0.8), np.random.default_rng(9))
        b = sample_participants(12, (0.5, 0.8), np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_rejections(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_participants(10, (0.0, 0.5), rng)
        with pytest.raises(ValueError):
            sample_participants(10, (0.5, 1.5), rng)
        with pytest.raises(ValueError):
            sample_participants(10, (0.9, 0.5), rng)
        with pytest.raises(ValueError):
            sample_participants(1, (1.0, 1.0), rng)


ULFA = {"kind": "ulfa"}
TLFA = {"kind": "tlfa", "source_class": 1, "target_class": 0}
BACKDOORS = [
    {"kind": "mra", "target_class": 0, "poison_fraction": 1.0},
    {"kind": "dba", "target_class": 0, "poison_fraction": 1.0},
    {"kind": "neurotoxin", "target_class": 0, "poison_fraction": 1.0},
]


def constant_model(cls):
    """A model of ``tiny_config``'s (6, 5, 3) network that predicts ``cls``
    for every input."""
    bias = np.zeros(3)
    bias[cls] = 1.0
    return dense_model(np.zeros((6, 5)), np.zeros(5), np.zeros((5, 3)), bias)


def reference_round(mta, per_class=None):
    return RoundReport(0, (0, 1), mta, per_class or {}, 0.0, None, 0.0)


class TestScore:
    """``Experiment._score``: the one rule that gives each round its MTA and
    ASR, for every attack kind."""

    def test_none_kind_is_zero_even_against_a_reference(self):
        experiment = Experiment(tiny_config())
        model = experiment.initial_model
        metrics, asr = experiment._score(model, reference_round(1.0, {0: 1.0, 1: 1.0}))
        assert metrics == evaluate(model, experiment.test_data)
        assert asr == 0.0

    @pytest.mark.parametrize("attack", BACKDOORS, ids=lambda a: a["kind"])
    def test_backdoor_rate_passes_through(self, attack):
        experiment = Experiment(tiny_config(attack=attack))
        trigger = experiment.cfg.attack.trigger
        for model, expected in (
            (constant_model(0), 1.0),  # always the target class
            (constant_model(1), 0.0),
            (experiment.initial_model, None),
        ):
            _, asr = experiment._score(model, reference_round(1.0))
            assert asr == backdoor_success_rate(model, experiment.test_data, trigger)
            assert expected is None or asr == expected

    def test_untargeted_relative_accuracy_decay(self):
        experiment = Experiment(tiny_config(attack=ULFA))
        accuracy = float(np.mean(experiment.test_data.labels == 0))
        metrics, asr = experiment._score(constant_model(0), reference_round(0.973))
        assert metrics.accuracy == accuracy
        assert 0.0 < asr < 1.0
        assert asr == pytest.approx((0.973 - accuracy) / 0.973, abs=1e-12)

    @pytest.mark.parametrize("attack", [ULFA, TLFA], ids=["ulfa", "tlfa"])
    def test_improvement_clamps_to_zero(self, attack):
        experiment = Experiment(tiny_config(attack=attack))
        metrics, asr = experiment._score(constant_model(1), reference_round(0.1, {1: 0.5}))
        assert metrics.accuracy > 0.1 and metrics.per_class[1] == 1.0
        assert asr == 0.0

    @pytest.mark.parametrize("attack", [ULFA, TLFA], ids=["ulfa", "tlfa"])
    def test_zero_reference_warns_and_returns_zero(self, attack, caplog):
        experiment = Experiment(tiny_config(attack=attack))
        reference = replace(reference_round(0.0, {1: 0.0}), round_index=4)
        with caplog.at_level(logging.WARNING, logger="celtibero.orchestrator"):
            _, asr = experiment._score(constant_model(2), reference)
        assert asr == 0.0
        assert f"round 4: reference accuracy is zero for {attack['kind']}" in caplog.text

    def test_targeted_uses_source_class_accuracy(self):
        experiment = Experiment(tiny_config(attack=TLFA))
        model = experiment.initial_model
        metrics = evaluate(model, experiment.test_data)
        # Overall accuracy matches the reference; only the source class counts.
        _, asr = experiment._score(model, reference_round(metrics.accuracy, {0: 0.2, 1: 1.0}))
        assert asr == pytest.approx(1.0 - metrics.per_class[1], abs=1e-12)
        _, asr = experiment._score(constant_model(0), reference_round(0.0, {0: 1.0, 1: 0.9}))
        assert asr == 1.0
        _, asr = experiment._score(constant_model(1), reference_round(1.0, {0: 1.0, 1: 0.9}))
        assert asr == 0.0

    @pytest.mark.parametrize("name, source", [("ulfa-iid", None), ("tlfa-iid", 1)])
    def test_rounds_are_scored_against_the_matching_reference_round(self, name, source):
        result = run_experiment(label_flip_config(name))
        for report, ref in zip(result.reports, result.reference_reports, strict=True):
            if source is None:
                ref_value, value = ref.mta, report.mta
            else:
                ref_value, value = ref.per_class[source], report.per_class[source]
            expected = max(0.0, (ref_value - value) / ref_value) if ref_value else 0.0
            assert report.asr == expected


class TestBackdoorSuccessRate:
    trigger = TriggerPattern((2,), (1.0,), 0)
    data = LabeledDataset(
        [[0.0, 0.5, 0.0], [1.0, 0.5, 0.0], [0.0, 0.2, 0.0], [0.5, 0.5, 0.5]],
        [1, 2, 1, 0],
        3,
    )

    def test_partial_success_counts_non_target_samples(self):
        # trigger coordinate pulls class 0; a strong first feature overrides it
        model = dense_model(
            [[0.0, 60.0, 0.0], [0.0, 0.0, 0.0], [50.0, 0.0, 0.0]], [0.0, 0.0, 0.0]
        )
        rate = backdoor_success_rate(model, self.data, self.trigger)
        assert rate == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_full_success(self):
        model = dense_model(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [50.0, 0.0, 0.0]], [0.0, 0.0, 0.0]
        )
        assert backdoor_success_rate(model, self.data, self.trigger) == 1.0

    def test_all_target_class_data_warns_and_returns_zero(self, caplog):
        model = dense_model(np.zeros((3, 3)), np.zeros(3))
        target_only = LabeledDataset([[0.1, 0.2, 0.3]], [0], 3)
        with caplog.at_level(logging.WARNING, logger="celtibero.orchestrator"):
            rate = backdoor_success_rate(model, target_only, self.trigger)
        assert rate == 0.0
        assert "target class" in caplog.text

    def test_trigger_position_outside_the_features_is_rejected(self):
        # Even when no row would be stamped: every row is of the target class.
        model = dense_model(np.zeros((3, 3)), np.zeros(3))
        target_only = LabeledDataset([[0.1, 0.2, 0.3]], [0], 3)
        trigger = TriggerPattern((1, 5), (1.0, 1.0), 0)
        with pytest.raises(ShapeMismatchError, match="position 5 outside feature dimension 3"):
            backdoor_success_rate(model, target_only, trigger)

    def test_target_class_outside_the_classes_is_rejected(self):
        model = dense_model(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(ValueError, match=re.escape("trigger target class 3 outside [0, 3)")):
            backdoor_success_rate(model, self.data, TriggerPattern((2,), (1.0,), 3))

    @pytest.mark.parametrize("budget", [1, 4 * 3 * 8, 4 * 3 * 8 + 20, 10**6])
    def test_blocks_give_the_one_shot_rate(self, monkeypatch, budget):
        # 11 rows of 24 bytes: a budget below one row scores a row at a time;
        # 96 and 116 bytes make blocks of 4, 4 and 3 rows, whose second block
        # holds only target-class rows; a large budget makes one block.
        monkeypatch.setattr(data_module, "_ROW_BYTES", budget)
        rng = np.random.default_rng(9)
        labels = [1, 2, 0, 1, 0, 0, 0, 0, 2, 1, 2]
        data = LabeledDataset(rng.uniform(size=(11, 3)), labels, 3)
        trigger = TriggerPattern((2, 0), (1.0, 0.25), 0)
        for activation in ("relu", "tanh"):
            for _ in range(8):
                model = dense_model(
                    rng.normal(size=(3, 5)), rng.normal(size=5),
                    rng.normal(size=(5, 3)), rng.normal(size=3),
                )
                rate = backdoor_success_rate(model, data, trigger, activation)
                assert rate == stamped_backdoor_rate(model, data, trigger, activation)

    def test_scoring_holds_one_block_of_stamped_rows(self):
        # 1 400 x 784 float64 features (8.8 MB); a stamped copy of the
        # non-target rows alone would be about 6.6 MB.
        rng = np.random.default_rng(3)
        data = LabeledDataset._owning(
            rng.uniform(size=(1400, 784)), rng.integers(0, 4, size=1400), 4
        )
        assert data.features.nbytes >= 8_000_000
        model = init_model(NetworkArchitecture((784, 16, 4), seed=1))
        trigger = TriggerPattern((780, 781, 782, 783), (1.0, 1.0, 1.0, 1.0), 0)
        backdoor_success_rate(model, data, trigger)  # first, so lazy imports are not counted
        tracemalloc.start()
        try:
            backdoor_success_rate(model, data, trigger)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestStateAndReportValidation:
    def test_round_report_bounds(self):
        with pytest.raises(ValueError):
            RoundReport(0, (0, 1), mta=1.2, per_class={}, asr=0.0, verdicts=None, wall_ms=1.0)
        with pytest.raises(ValueError):
            RoundReport(0, (0, 1), mta=0.5, per_class={}, asr=-0.1, verdicts=None, wall_ms=1.0)


class TestExperiment:
    def test_poisoning_happens_at_construction(self):
        cfg = tiny_config(attack={"kind": "tlfa", "source_class": 1, "target_class": 0})
        experiment = Experiment(cfg)
        assert isinstance(experiment.malicious, frozenset)
        assert isinstance(experiment.shares, tuple) and len(experiment.shares) == 6
        malicious = [s for k, s in enumerate(experiment.shares) if k in experiment.malicious]
        benign = [s for k, s in enumerate(experiment.shares) if k not in experiment.malicious]
        assert len(malicious) == 2
        for share in malicious:
            assert int(np.sum(share.labels == 1)) == 0
        assert any(int(np.sum(share.labels == 1)) > 0 for share in benign)

    def test_roster_independent_of_aggregator(self):
        ids = []
        for kind in ("fedavg", "celtibero"):
            experiment = Experiment(tiny_config(aggregator={"kind": kind}))
            ids.append(sorted(experiment.malicious))
        assert ids[0] == ids[1]

    def test_participant_schedule_independent_of_aggregator(self):
        schedules = []
        for kind in ("fedavg", "coord_median"):
            reports = Experiment(tiny_config(aggregator={"kind": kind})).run()
            schedules.append([r.participants for r in reports])
        assert schedules[0] == schedules[1]

    def test_bit_identical_rerun(self):
        cfg = tiny_config(rounds=3)
        a = Experiment(cfg).run()
        b = Experiment(cfg).run()
        assert [r.mta for r in a] == [r.mta for r in b]
        assert [r.asr for r in a] == [r.asr for r in b]
        assert [r.participants for r in a] == [r.participants for r in b]

    def test_flip_attacks_require_reference_rounds(self, monkeypatch):
        cfg = tiny_config(attack={"kind": "ulfa", "flip_fraction": 1.0})

        def no_training(*args, **kwargs):
            raise AssertionError("a client trained")

        # The misuse fails before any client trains.
        monkeypatch.setattr(orchestrator, "train_local", no_training)
        with pytest.raises(RoundError, match="round 0: ulfa needs the matching reference round"):
            Experiment(cfg).run()

    @pytest.mark.parametrize(
        "kind, name", [(kind, name) for kind, names in ROW_FUNCTIONS.items() for name in names]
    )
    def test_attack_rows_are_looked_up_when_called(self, kind, name, monkeypatch):
        # A probe that rebinds a function's name in ``celtibero.attacks``
        # must see the calls an attack row makes, so no row may hold the
        # function itself.
        assert set(ROW_FUNCTIONS) == set(ATTACK_KINDS) - {"none"}
        original, calls = getattr(attacks, name), []

        def record(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(attacks, name, record)
        experiment = Experiment(tiny_config(attack={"kind": kind}))
        if kind in attacks._MODEL_RULES:  # model rows act in a round
            experiment.run_round(experiment.initial_state())
        assert calls

    @pytest.mark.parametrize("split", [("data", "train"), ("data", "test")], ids=["train", "test"])
    @pytest.mark.parametrize("poisoned_block", [None, 0, 3])
    def test_nan_drawn_into_one_block_fails_at_construction(
        self, poisoned_block, split, monkeypatch
    ):
        # A NaN in a split's noise survives the clip, and only the block's own
        # check can reject it: the datasets built from those rows skip the scan.
        derive = orchestrator.derive_rng

        class NaNDraw:
            def __init__(self, rng):
                self.rng, self.blocks = rng, 0

            def standard_normal(self, out):
                self.rng.standard_normal(out=out)
                if self.blocks == poisoned_block:
                    out[-1, 0] = np.nan
                self.blocks += 1

            def __getattr__(self, name):
                return getattr(self.rng, name)

        def derive_with_nan(master, *path):
            rng = derive(master, *path)
            return NaNDraw(rng) if path == split else rng

        monkeypatch.setattr(orchestrator, "derive_rng", derive_with_nan)
        cfg = tiny_config()
        # Blocks of 10 rows, so that each split is made in several.
        monkeypatch.setattr(data_module, "_ROW_BYTES", 10 * cfg.dataset.features * 8)
        assert min(cfg.dataset.samples, cfg.dataset.test_samples) > 40
        if poisoned_block is None:
            Experiment(cfg)
            return
        with pytest.raises(ValueError, match=r"feature values must lie in \[0, 1\]"):
            Experiment(cfg)

    def test_hand_built_config_gets_the_parse_time_check(self):
        cfg = tiny_config()
        for changes in ({"malicious_fraction": 0.6}, {"rounds": -1}):
            raw = config_to_dict(cfg)
            raw.update(changes)
            with pytest.raises(ConfigError) as parsed:
                config_from_dict(raw)
            with pytest.raises(ConfigError) as built:
                Experiment(replace(cfg, **changes))
            assert built.value.violations == parsed.value.violations
        with pytest.raises(ConfigError) as both:
            Experiment(replace(cfg, malicious_fraction=0.6, rounds=-1))
        assert len(both.value.violations) == 2

    def test_hand_built_backdoor_without_trigger_gets_the_default(self):
        cfg = replace(tiny_config(), attack=AttackSpec(kind="mra"))
        experiment = Experiment(cfg)
        assert experiment.cfg.attack.trigger == make_default_trigger(6, 0)
        assert len(experiment.run()) == 2

    @pytest.mark.parametrize(
        "boost_factor, learning_rate, client",
        [
            (1e308, 50.0, 4),  # the boost overflows
            (3.0, 1e300, 0),  # local training diverges
        ],
    )
    def test_client_failure_names_round_and_client(self, boost_factor, learning_rate, client):
        cfg = config_from_dict(
            {
                "dataset": {"kind": "synthetic", "classes": 3, "features": 6, "samples": 240, "test_samples": 60},
                "clients": 6,
                "malicious_fraction": 0.34,
                "participation": [1.0, 1.0],
                "attack": {"kind": "mra", "target_class": 0, "boost_factor": boost_factor},
                "training": {"learning_rate": learning_rate},
                "aggregator": {"kind": "celtibero", "linkage": "average"},
                "rounds": 2,
                "local_epochs": 1,
                "seed": 3,
            }
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RoundError) as failure:
                Experiment(cfg).run()
        assert str(failure.value) == (
            f"round 0: client {client} failed: layer 0: weights contain NaN or Inf"
        )
        assert isinstance(failure.value.__cause__, ValueError)

    def test_zero_rounds(self):
        reports = Experiment(tiny_config(rounds=0)).run()
        assert reports == ()

    def test_round_indices_and_metric_ranges(self):
        reports = Experiment(tiny_config(rounds=3)).run()
        assert [r.round_index for r in reports] == [0, 1, 2]
        for r in reports:
            assert 0.0 <= r.mta <= 1.0
            assert 0.0 <= r.asr <= 1.0
            assert r.wall_ms >= 0.0


def write_idx_split(directory, rng, count, side=28):
    """``count`` random ``side`` x ``side`` images with digit labels, as an
    IDX pair in ``directory``."""
    directory.mkdir()
    pixels = rng.integers(0, 256, size=count * side * side).tolist()
    labels = rng.integers(0, 10, size=count).tolist()
    return write_idx_pair(directory, pixels, labels, rows=side, cols=side)


class TestIdxExperiment:
    @pytest.mark.parametrize("train_side, test_side", [(28, 20), (32, 32)])
    def test_images_other_than_28_by_28_fail_at_set_up(self, tmp_path, train_side, test_side):
        rng = np.random.default_rng(1)
        train_images, train_labels = write_idx_split(tmp_path / "train", rng, 12, train_side)
        test_images, test_labels = write_idx_split(tmp_path / "test", rng, 6, test_side)
        dataset = {
            "kind": "mnist_idx",
            "train_images": str(train_images),
            "train_labels": str(train_labels),
            "test_images": str(test_images),
            "test_labels": str(test_labels),
        }
        cfg = tiny_config(dataset=dataset, clients=3, aggregator={"kind": "celtibero"})
        # The first split that is not 28 x 28 is named, with its width.
        bad, side = (train_images, train_side) if train_side != 28 else (test_images, test_side)
        with pytest.raises(IdxFormatError, match=re.escape(f"{bad}: feature width {side * side},")):
            Experiment(cfg)

    def test_subsets_shares_and_rerun(self, tmp_path):
        rng = np.random.default_rng(0)
        train_images, train_labels = write_idx_split(tmp_path / "train", rng, 40)
        test_images, test_labels = write_idx_split(tmp_path / "test", rng, 20)
        dataset = {
            "kind": "mnist_idx",
            "train_images": str(train_images),
            "train_labels": str(train_labels),
            "test_images": str(test_images),
            "test_labels": str(test_labels),
            "train_subset": 30,
            "test_subset": 12,
        }
        cfg = tiny_config(dataset=dataset, clients=3, aggregator={"kind": "celtibero"})
        experiment = Experiment(cfg)
        rows = np.sort(derive_rng(cfg.seed, "data", "test_subset").choice(20, 12, replace=False))
        whole = load_idx(test_images, test_labels)
        assert np.array_equal(experiment.test_data.features, whole.features[rows])
        assert np.array_equal(experiment.test_data.labels, whole.labels[rows])
        assert sum(share.n for share in experiment.shares) == 30
        first = run_experiment(cfg)
        assert first.summary["rounds_completed"] == 2
        assert run_experiment(cfg).summary == first.summary


LAYOUT_PARTITIONS = {"iid": {"kind": "iid"}, "dirichlet": {"kind": "dirichlet", "alpha": 0.5}}
LAYOUT_ATTACKS = {
    "none": {"kind": "none"},
    "ulfa": {"kind": "ulfa", "flip_fraction": 0.5},
    "mra": {"kind": "mra"},
    "dba": {"kind": "dba", "poison_fraction": 1.0},
}


def layout_config(partition, attack):
    dataset = {"kind": "synthetic", "classes": 3, "samples": 300, "features": 12,
               "separation": 3.0, "test_samples": 60}
    return tiny_config(dataset=dataset, clients=10, malicious_fraction=0.3,
                       partition=LAYOUT_PARTITIONS[partition], attack=LAYOUT_ATTACKS[attack])


def cut_shares(cfg, malicious):
    """Each client's share as the rows ``partition[k]`` of a training set
    built by the public ``gen_synthetic``, poisoned in client order by the
    attack kind's ``_SHARE_RULES`` row where the client is in ``malicious``:
    the per-client cut of the shuffled training set that the one reorder of
    the drawn matrix into client order replaced."""
    dataset = cfg.dataset
    train = gen_synthetic(dataset.classes, dataset.samples, dataset.features,
                          dataset.separation, derive_rng(cfg.seed, "data", "train"))
    rng = derive_rng(cfg.seed, "partition")
    if cfg.partition.kind == "iid":
        partition = partition_iid(train.labels, train.num_classes, cfg.clients, rng)
    else:
        partition = partition_dirichlet(
            train.labels, train.num_classes, cfg.clients, cfg.partition.alpha, rng
        )
    shares, rank = [], 0
    for k, indices in enumerate(partition):
        share = LabeledDataset(train.features[indices], train.labels[indices], train.num_classes)
        if k in malicious:
            poison = attacks._SHARE_RULES[cfg.attack.kind]
            share = poison(share, cfg.attack, rank, derive_rng(cfg.seed, "attack", k))
            rank += 1
        shares.append(share)
    return shares


@pytest.mark.parametrize("attack", list(LAYOUT_ATTACKS))
@pytest.mark.parametrize("partition", list(LAYOUT_PARTITIONS))
class TestShareLayout:
    def test_shares_tile_one_read_only_matrix(self, partition, attack):
        cfg = layout_config(partition, attack)
        experiment = Experiment(cfg)
        base = experiment.shares[0].features.base
        assert base.shape == (cfg.dataset.samples, cfg.dataset.features)
        assert not base.flags.writeable
        start = base.__array_interface__["data"][0]
        row = 0
        for share in experiment.shares:
            assert share.features.base is base
            assert share.features.__array_interface__["data"][0] == start + row * base.strides[0]
            row += share.n
        assert row == cfg.dataset.samples
        for k, clean in experiment._clean_shares.items():
            assert clean.features is experiment.shares[k].features

    def test_shares_equal_the_per_client_cut(self, partition, attack):
        cfg = layout_config(partition, attack)
        experiment = Experiment(cfg)
        cut = cut_shares(cfg, experiment.malicious)
        assert len(cut) == len(experiment.shares)
        poisoned = 0
        for share, want, clean in zip(experiment.shares, cut, cut_shares(cfg, ())):
            assert share.features.tobytes() == want.features.tobytes()
            assert share.labels.tobytes() == want.labels.tobytes()
            poisoned += not (
                np.array_equal(share.features, clean.features)
                and np.array_equal(share.labels, clean.labels)
            )
        assert poisoned == (0 if attack == "none" else len(experiment.malicious))


LABEL_FLIP_CONFIGS = {
    "ulfa-iid": {"attack": {"kind": "ulfa", "flip_fraction": 1.0}},
    "tlfa-iid": {
        "attack": {"kind": "tlfa", "source_class": 1, "target_class": 0},
        "aggregator": {"kind": "celtibero"},
    },
    "ulfa-dirichlet": {
        "attack": {"kind": "ulfa", "flip_fraction": 0.5},
        "partition": {"kind": "dirichlet", "alpha": 0.5},
        "aggregator": {"kind": "coord_median"},
    },
}


def label_flip_config(name):
    dataset = {"kind": "synthetic", "classes": 3, "samples": 300, "features": 6,
               "separation": 3.0, "test_samples": 60}
    return tiny_config(dataset=dataset, clients=10, malicious_fraction=0.3, rounds=3,
                       participation=[0.6, 1.0], **LABEL_FLIP_CONFIGS[name])


class TestCleanReference:
    @pytest.mark.parametrize("name", list(LABEL_FLIP_CONFIGS))
    def test_reports_match_a_reference_built_from_scratch(self, name):
        cfg = label_flip_config(name)
        shared = run_experiment(cfg).reference_reports
        scratch = Experiment(replace(cfg, attack=AttackSpec(kind="none"))).run()
        assert len(shared) == cfg.rounds
        assert [replace(r, wall_ms=0.0) for r in shared] == [
            replace(r, wall_ms=0.0) for r in scratch
        ]

    @pytest.mark.parametrize("aggregator", ["celtibero", "median_krum"])
    @pytest.mark.parametrize(
        "partition", [{"kind": "iid"}, {"kind": "dirichlet", "alpha": 0.5}], ids=["iid", "dir"]
    )
    def test_reports_equal_the_no_attack_run_at_each_malicious_fraction(
        self, partition, aggregator
    ):
        # One ``attack: none`` run serves as the reference of the ulfa and tlfa
        # runs of the same seed, partition and aggregator at every malicious
        # fraction, so a grid of runs need not repeat it.
        dataset = {"kind": "synthetic", "classes": 3, "samples": 300, "features": 6,
                   "separation": 3.0, "test_samples": 60}

        def reports(attack, fraction, reference):
            cfg = tiny_config(dataset=dataset, clients=10, malicious_fraction=fraction, rounds=4,
                              participation=[0.6, 0.9], partition=partition,
                              aggregator={"kind": aggregator}, attack=attack)
            run = run_experiment(cfg)
            got = run.reference_reports if reference else run.reports
            return [replace(r, wall_ms=0.0) for r in got]

        none = reports({"kind": "none"}, 0.2, reference=False)
        assert len(none) == 4
        for fraction in (0.2, 0.4):
            for attack in (ULFA, TLFA):
                assert reports(attack, fraction, reference=True) == none, (attack, fraction)

    @pytest.mark.parametrize("name", list(LABEL_FLIP_CONFIGS))
    def test_clients_hold_the_clean_shares(self, name):
        cfg = label_flip_config(name)
        experiment = Experiment(cfg)
        reference = experiment._clean_reference()
        scratch = Experiment(replace(cfg, attack=AttackSpec(kind="none")))
        assert reference.cfg == scratch.cfg
        assert reference.test_data is experiment.test_data
        assert reference.initial_model is experiment.initial_model
        assert reference.malicious == scratch.malicious == experiment.malicious
        assert len(reference.shares) == len(scratch.shares) == len(experiment.shares)
        poisoned = 0
        for k, (attacked, ref, clean) in enumerate(
            zip(experiment.shares, reference.shares, scratch.shares)
        ):
            assert np.array_equal(ref.labels, clean.labels)
            assert np.array_equal(ref.features, clean.features)
            if k in experiment.malicious:
                poisoned += not np.array_equal(attacked.labels, ref.labels)
            else:
                assert ref is attacked
        assert poisoned == 3

    def test_label_flip_run_peaks_under_three_training_matrices(self):
        dataset = {"kind": "synthetic", "classes": 4, "samples": 2000, "features": 100,
                   "separation": 3.0, "test_samples": 100}
        cfg = tiny_config(dataset=dataset, clients=8, malicious_fraction=0.25, rounds=1,
                          attack={"kind": "ulfa"})
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (2000 * 100 * 8)

    def test_backdoor_setup_peaks_under_two_and_a_sixth_training_matrices(self):
        # Each share is cut and poisoned in turn (about 2.09 training matrices
        # at the peak here); cutting every clean share before poisoning any
        # holds the attackers' clean and poisoned copies at once (2.2 or more).
        dataset = {"kind": "synthetic", "classes": 4, "samples": 2000, "features": 100,
                   "separation": 3.0, "test_samples": 100}
        cfg = tiny_config(dataset=dataset, clients=8, malicious_fraction=0.25, seed=1,
                          attack={"kind": "mra", "poison_fraction": 1.0})
        Experiment(cfg)  # first, so that modules it imports lazily are not counted
        tracemalloc.start()
        try:
            Experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.16 * (2000 * 100 * 8)

    def test_backdoor_setup_peaks_under_one_and_a_quarter_training_matrices(self):
        # The matrix is laid out in client order in place, at most
        # _ROW_BYTES of rows at a time, and each attacker's stamped copy
        # of its share goes back into its block (about 1.16 matrices at the
        # peak here); cutting each share out of the matrix peaked at about 2.03.
        samples, features = 6000, 200
        assert samples * features * 8 >= 8 * _ROW_BYTES
        dataset = {"kind": "synthetic", "classes": 4, "samples": samples, "features": features,
                   "separation": 3.0, "test_samples": 100}
        cfg = tiny_config(dataset=dataset, clients=8, malicious_fraction=0.25, seed=1,
                          attack={"kind": "mra", "poison_fraction": 1.0})
        Experiment(cfg)  # first, so that modules it imports lazily are not counted
        tracemalloc.start()
        try:
            Experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (samples * features * 8)


class TestRunExperiment:
    def test_flip_attack_gets_matched_reference_run(self):
        cfg = tiny_config(attack={"kind": "ulfa", "flip_fraction": 1.0}, rounds=2)
        result = run_experiment(cfg)
        assert result.reference_reports is not None
        assert len(result.reference_reports) == 2
        assert "reference" in result.summary
        assert len(result.summary["reference"]["mta_series"]) == 2

    def test_backdoor_summary_records_trigger(self):
        cfg = tiny_config(
            attack={"kind": "mra", "target_class": 0, "poison_fraction": 1.0},
            rounds=1,
        )
        result = run_experiment(cfg)
        assert result.reference_reports is None
        trigger = result.summary["trigger"]
        assert trigger["target_class"] == 0
        assert len(trigger["positions"]) == len(trigger["values"])

    def test_celtibero_summary_records_verdict_history(self):
        cfg = tiny_config(aggregator={"kind": "celtibero"}, rounds=2)
        result = run_experiment(cfg)
        history = result.summary["verdict_history"]
        assert len(history) == 2
        for round_entry, report in zip(history, result.reports):
            assert report.verdicts is not None
            for layer in round_entry["layers"]:
                joined = sorted(layer["benign"] + layer["poisoned"])
                assert joined == list(range(len(report.participants)))

    def test_non_celtibero_reports_carry_no_verdicts(self):
        result = run_experiment(tiny_config(rounds=1))
        assert all(r.verdicts is None for r in result.reports)

    @pytest.mark.parametrize("aggregator", ["fedavg", "celtibero"])
    def test_one_unit_hidden_layer_end_to_end(self, aggregator):
        cfg = tiny_config(
            clients=10,
            malicious_fraction=0.3,
            rounds=3,
            architecture={"hidden": [1]},
            attack={"kind": "mra", "target_class": 0, "boost_factor": 3.0},
            aggregator={"kind": aggregator},
        )
        result = run_experiment(cfg)
        assert [r.round_index for r in result.reports] == [0, 1, 2]
        for r in result.reports:
            assert 0.0 <= r.mta <= 1.0
            assert 0.0 <= r.asr <= 1.0
            if aggregator == "celtibero":
                assert len(r.verdicts) == 4  # the 1-wide bias is layer 1
                assert all(v.benign for v in r.verdicts)
        assert run_experiment(cfg).summary == result.summary

    def test_row_budget_never_changes_the_summary(self, monkeypatch, tmp_path):
        # About 10 rows a block under the one row budget, which only the data
        # module binds: the synthetic draw and reorder, the training gathers
        # (a batch a block) and the backdoor scoring all run in several blocks.
        cfg = tiny_config(
            partition={"kind": "dirichlet", "alpha": 0.5},
            attack=BACKDOORS[1],
            aggregator={"kind": "celtibero"},
            rounds=3,
        )
        bindings = [
            module
            for name, module in sys.modules.items()
            if name.startswith("celtibero.") and hasattr(module, "_ROW_BYTES")
        ]
        assert [m.__name__ for m in bindings] == ["celtibero.data"]
        written = []
        for budget in (None, 10 * cfg.dataset.features * 8):
            for module in bindings if budget else ():
                monkeypatch.setattr(module, "_ROW_BYTES", budget)
            result = run_experiment(cfg)
            _, path = emit_reports(result.reports, result.summary, tmp_path / str(budget))
            written.append(path.read_bytes())
        assert written[0] == written[1]

    def test_summary_core_fields(self):
        cfg = tiny_config(rounds=2)
        result = run_experiment(cfg)
        summary = result.summary
        assert summary["rounds_completed"] == 2
        assert summary["final_mta"] == result.reports[-1].mta
        assert summary["malicious_clients"] == sorted(summary["malicious_clients"])
        assert len(summary["malicious_clients"]) == 2
        assert summary["config"]["clients"] == 6

    @pytest.mark.parametrize(
        "attack", [{"kind": "none"}, BACKDOORS[0], ULFA, TLFA], ids=lambda a: a["kind"]
    )
    def test_zero_round_summary_falls_back_to_initial_model(self, attack):
        cfg = tiny_config(rounds=0, attack=attack)
        result = run_experiment(cfg)
        summary = result.summary
        assert result.reports == ()
        assert summary["rounds_completed"] == 0
        assert summary["final_mta"] == summary["initial_mta"]
        if attack["kind"] == "mra":
            experiment = Experiment(cfg)
            assert summary["final_asr"] == backdoor_success_rate(
                experiment.initial_model, experiment.test_data, experiment.cfg.attack.trigger
            )
        else:
            assert summary["final_asr"] == 0.0
        if attack["kind"] in ("ulfa", "tlfa"):
            assert result.reference_reports == ()
            assert summary["reference"]["final_mta"] == summary["initial_mta"]

    def test_neurotoxin_round_zero_uses_zero_reference(self, monkeypatch):
        cfg = tiny_config(
            attack={"kind": "neurotoxin", "target_class": 0, "mask_ratio": 0.5,
                    "poison_fraction": 1.0},
            rounds=2,
        )
        result = run_experiment(cfg)
        assert len(result.reports) == 2
        assert all(0.0 <= r.asr <= 1.0 for r in result.reports)

        mask = attacks.neurotoxin_mask
        references = []

        def capture(update, reference, mask_ratio):
            references.append(reference)
            return mask(update, reference, mask_ratio)

        monkeypatch.setattr(attacks, "neurotoxin_mask", capture)
        experiment = Experiment(cfg)
        first = experiment.run_round(experiment.initial_state())
        assert isinstance(first, tuple) and len(first) == 2
        state, report = first
        assert isinstance(state, FederationState) and isinstance(report, RoundReport)
        zero_round = len(references)
        assert zero_round == 2  # both attackers take part in every round
        for reference in references:
            assert reference.shapes() == experiment.initial_model.shapes()
            assert np.all(reference.flat == 0.0)
        realized = diff(state.global_model, experiment.initial_model)
        assert state.last_update == realized
        assert np.any(realized.flat != 0.0)
        following, report = experiment.run_round(state)
        assert len(references) == 2 * zero_round
        assert all(reference == realized for reference in references[zero_round:])
        assert following.last_update == diff(following.global_model, state.global_model)
        assert report.mta == result.reports[1].mta and report.asr == result.reports[1].asr
