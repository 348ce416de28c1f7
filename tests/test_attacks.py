"""Label flipping, backdoor triggers, update boosting, and masked updates."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from celtibero import (
    AttackSpec,
    ConfigError,
    Experiment,
    LabeledDataset,
    ModelWeights,
    ShapeMismatchError,
    TriggerPattern,
    boost_update,
    config_from_dict,
    config_to_dict,
    embed_trigger,
    fedavg,
    flip_labels_targeted,
    flip_labels_untargeted,
    make_default_trigger,
    neurotoxin_mask,
    split_trigger,
)
from celtibero.attacks import _SHARE_RULES, REFERENCE_KINDS
from .conftest import layers_of, make_weights
from .oracles import argsort_neurotoxin_mask, top_mask_indices


def make_dataset(n=10, d=6, num_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.uniform(0.0, 1.0, size=(n, d))
    labels = rng.integers(0, num_classes, size=n)
    return LabeledDataset(features, labels, num_classes)


class TestTriggerPattern:
    def test_valid(self):
        t = TriggerPattern((3, 1), (0.5, 1.0), 2)
        assert t.positions == (3, 1)
        assert t.values == (0.5, 1.0)
        assert t.target_class == 2

    def test_rejections(self):
        with pytest.raises(ValueError):
            TriggerPattern((), (), 0)
        with pytest.raises(ValueError):
            TriggerPattern((1, 1), (0.5, 0.5), 0)
        with pytest.raises(ValueError):
            TriggerPattern((1, 2), (0.5,), 0)
        with pytest.raises(ValueError):
            TriggerPattern((-1,), (0.5,), 0)
        with pytest.raises(ValueError):
            TriggerPattern((1,), (0.5,), -1)

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
    @pytest.mark.parametrize("values", [(None,), (0.9, None), (None, 0.1)])
    def test_values_outside_unit_range_raise(self, bad, values):
        # Stamped rows are never rescanned, so the trigger checks its values.
        values = tuple(bad if v is None else v for v in values)
        message = f"trigger values must lie in [0, 1], got {values}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TriggerPattern(tuple(range(1, len(values) + 1)), values, 2)


class TestAttackSpec:
    def test_defaults(self):
        spec = AttackSpec("mra")
        assert spec.poison_fraction == 0.5
        assert spec.boost_factor is None
        assert spec.mask_ratio == 0.05

    def test_rejections(self):
        # AttackSpec itself checks nothing; a run built from it gets the parser's checks.
        base = config_from_dict({"malicious_fraction": 0.2})
        rejected = [
            (AttackSpec("gradient_inversion"), "attack.kind: must be one of"),
            (
                AttackSpec("tlfa", source_class=2, target_class=2),
                "attack: tlfa source and target classes must differ",
            ),
            (AttackSpec("ulfa", flip_fraction=1.5), "attack.flip_fraction: must lie in [0, 1]"),
            (AttackSpec("mra", poison_fraction=0.0), "attack.poison_fraction: must lie in (0, 1]"),
            (AttackSpec("mra", boost_factor=0.0), "attack.boost_factor: must be positive"),
            (AttackSpec("neurotoxin", mask_ratio=1.0), "attack.mask_ratio: must lie in (0, 1)"),
            (AttackSpec("dba", dba_fragments=0), "attack.dba_fragments: must be >= 1"),
        ]
        for spec, message in rejected:
            cfg = replace(base, attack=spec)
            with pytest.raises(ConfigError) as built:
                Experiment(cfg)
            with pytest.raises(ConfigError) as parsed:
                config_from_dict(config_to_dict(cfg))
            assert built.value.violations == parsed.value.violations
            assert len(built.value.violations) == 1
            assert built.value.violations[0].startswith(message)


class TestMakeDefaultTrigger:
    def test_image_patch_top_left(self):
        t = make_default_trigger(784, target_class=0, image_side=28)
        expected = tuple(r * 28 + c for r in range(3) for c in range(3))
        assert t.positions == expected
        assert t.values == (1.0,) * 9
        assert t.target_class == 0

    def test_vector_prefix(self):
        t = make_default_trigger(20, target_class=1)
        assert t.positions == (0, 1, 2)
        assert t.values == (1.0, 1.0, 1.0)

    def test_short_vector_clamps_patch(self):
        assert make_default_trigger(2, target_class=0).positions == (0, 1)

    def test_rejections(self):
        with pytest.raises(ValueError):
            make_default_trigger(10, target_class=0, image_side=3)
        with pytest.raises(ValueError, match="patch 3 exceeds image side 2"):
            make_default_trigger(4, target_class=0, image_side=2)


class TestFlipLabelsUntargeted:
    def test_flip_count_rounds_half_up(self):
        rng = np.random.default_rng(7)
        # The last three products lie just below their halves in floats:
        # 0.145 * 100 is 14.499999999999998.
        for n, fraction, count in (
            (10, 0.25, 3), (10, 0.24, 2), (10, 0.05, 1), (10, 1.0, 10),
            (100, 0.145, 15), (100, 0.285, 29), (50, 0.29, 15),
        ):
            data = make_dataset(n=n)
            flipped = flip_labels_untargeted(data, fraction, rng)
            assert int(np.sum(flipped.labels != data.labels)) == count

    def test_flipped_labels_differ_and_stay_in_range(self):
        data = make_dataset(n=40, num_classes=4, seed=1)
        flipped = flip_labels_untargeted(data, 1.0, np.random.default_rng(3))
        assert np.all(flipped.labels != data.labels)
        assert np.all((flipped.labels >= 0) & (flipped.labels < 4))

    def test_zero_fraction_returns_input(self):
        data = make_dataset()
        assert flip_labels_untargeted(data, 0.0, np.random.default_rng(0)) is data

    def test_deterministic_given_seed(self):
        data = make_dataset(n=30, seed=2)
        a = flip_labels_untargeted(data, 0.5, np.random.default_rng(11))
        b = flip_labels_untargeted(data, 0.5, np.random.default_rng(11))
        assert np.array_equal(a.labels, b.labels)

    def test_features_untouched(self):
        data = make_dataset()
        flipped = flip_labels_untargeted(data, 1.0, np.random.default_rng(5))
        assert np.array_equal(flipped.features, data.features)

    def test_rejections(self):
        data = make_dataset()
        with pytest.raises(ValueError):
            flip_labels_untargeted(data, 1.1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            flip_labels_untargeted(data, -0.1, np.random.default_rng(0))


class TestFlipLabelsTargeted:
    def test_rewrites_exactly_source_class(self):
        data = make_dataset(n=60, num_classes=3, seed=4)
        flipped = flip_labels_targeted(data, source=1, target=0)
        source_rows = data.labels == 1
        assert np.all(flipped.labels[source_rows] == 0)
        assert np.array_equal(flipped.labels[~source_rows], data.labels[~source_rows])
        assert not np.any(flipped.labels == 1)

    def test_idempotent(self):
        data = make_dataset(n=60, num_classes=3, seed=4)
        once = flip_labels_targeted(data, 1, 0)
        twice = flip_labels_targeted(once, 1, 0)
        assert np.array_equal(once.labels, twice.labels)

    def test_rejections(self):
        data = make_dataset()
        with pytest.raises(ValueError):
            flip_labels_targeted(data, 1, 1)
        with pytest.raises(ValueError):
            flip_labels_targeted(data, 3, 0)
        with pytest.raises(ValueError):
            flip_labels_targeted(data, 0, -1)


class TestEmbedTrigger:
    trigger = TriggerPattern((1, 4), (0.9, 0.1), 2)

    def test_full_fraction_stamps_every_row(self):
        data = make_dataset(n=12, d=6, seed=6)
        poisoned = embed_trigger(data, self.trigger, 1.0, np.random.default_rng(9))
        assert np.all(poisoned.features[:, 1] == 0.9)
        assert np.all(poisoned.features[:, 4] == 0.1)
        assert np.all(poisoned.labels == 2)

    def test_rows_differ_only_at_trigger_positions(self):
        data = make_dataset(n=12, d=6, seed=6)
        poisoned = embed_trigger(data, self.trigger, 1.0, np.random.default_rng(9))
        untouched = [c for c in range(6) if c not in self.trigger.positions]
        assert np.array_equal(poisoned.features[:, untouched], data.features[:, untouched])

    def test_partial_fraction_stamps_expected_count(self):
        data = make_dataset(n=20, d=6, seed=7)
        poisoned = embed_trigger(data, self.trigger, 0.5, np.random.default_rng(9))
        stamped = (poisoned.features[:, 1] == 0.9) & (poisoned.features[:, 4] == 0.1)
        assert int(stamped.sum()) == 10
        assert np.all(poisoned.labels[stamped] == 2)
        changed = np.any(poisoned.features != data.features, axis=1)
        assert int(changed.sum()) == 10

    @pytest.mark.parametrize(
        "n, fraction, count", [(100, 0.145, 15), (100, 0.285, 29), (50, 0.29, 15)]
    )
    def test_a_decimal_half_rounds_up(self, n, fraction, count):
        data = make_dataset(n=n, d=6, seed=7)
        poisoned = embed_trigger(data, self.trigger, fraction, np.random.default_rng(9))
        assert int(np.any(poisoned.features != data.features, axis=1).sum()) == count

    def test_zero_fraction_returns_input(self):
        data = make_dataset()
        assert embed_trigger(data, self.trigger, 0.0, np.random.default_rng(9)) is data

    def test_full_fraction_is_the_same_under_any_rng(self):
        # Every row gets the same stamp and label, so the draw's order is moot.
        data = make_dataset(n=12, d=6, seed=6)
        first, second = (
            embed_trigger(data, self.trigger, 1.0, np.random.default_rng(seed)) for seed in (1, 2)
        )
        assert first.features.tobytes() == second.features.tobytes()
        assert first.labels.tobytes() == second.labels.tobytes()

    def test_input_not_mutated(self):
        data = make_dataset(n=12, d=6, seed=6)
        before = data.features.copy()
        embed_trigger(data, self.trigger, 1.0, np.random.default_rng(9))
        assert np.array_equal(data.features, before)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, np.nan])
    def test_rejects_a_fraction_outside_the_unit_interval(self, fraction):
        message = f"fraction must lie in [0, 1], got {fraction}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            embed_trigger(make_dataset(), self.trigger, fraction, np.random.default_rng(0))

    def test_rejections(self):
        data = make_dataset(d=4)
        with pytest.raises(ShapeMismatchError):
            embed_trigger(data, self.trigger, 1.0, np.random.default_rng(0))  # d=4 has no 4
        bad_target = TriggerPattern((0,), (1.0,), 7)
        with pytest.raises(ValueError):
            embed_trigger(make_dataset(num_classes=3), bad_target, 1.0, np.random.default_rng(0))


class TestPoisoningOwnership:
    trigger = TriggerPattern((1, 4), (0.9, 0.1), 2)

    def test_label_flips_share_the_read_only_features(self):
        data = make_dataset(n=30, d=6, seed=3)
        for flipped in (
            flip_labels_untargeted(data, 0.5, np.random.default_rng(1)),
            flip_labels_targeted(data, 1, 0),
        ):
            assert np.shares_memory(flipped.features, data.features)
            assert not flipped.features.flags.writeable
            assert not np.shares_memory(flipped.labels, data.labels)
            assert not flipped.labels.flags.writeable

    @pytest.mark.parametrize("kind", REFERENCE_KINDS)
    def test_reference_kinds_keep_the_input_features(self, kind):
        # An Experiment keeps a reference kind's clean and poisoned share as
        # one view of the training matrix, so these rows must not copy it.
        data = make_dataset(n=30, d=6, seed=4)
        spec = AttackSpec(kind=kind, flip_fraction=0.5)
        poisoned = _SHARE_RULES[kind](data, spec, 0, np.random.default_rng(5))
        assert poisoned.features is data.features
        assert not np.array_equal(poisoned.labels, data.labels)

    def test_trigger_stamps_its_own_copy(self):
        data = make_dataset(n=12, d=6, seed=6)
        features, labels = data.features.copy(), data.labels.copy()
        for fraction in (1.0, 0.5):
            poisoned = embed_trigger(data, self.trigger, fraction, np.random.default_rng(2))
            assert not np.shares_memory(poisoned.features, data.features)
            assert not poisoned.features.flags.writeable
            assert not poisoned.labels.flags.writeable
        assert np.array_equal(data.features, features)
        assert np.array_equal(data.labels, labels)


class TestSplitTrigger:
    trigger = TriggerPattern((8, 2, 5, 11, 0), (0.8, 0.2, 0.5, 0.9, 0.0), 1)

    def test_single_fragment_is_whole_trigger(self):
        (piece,) = split_trigger(self.trigger, 1)
        assert piece.positions == (0, 2, 5, 8, 11)
        assert dict(zip(piece.positions, piece.values)) == dict(
            zip(self.trigger.positions, self.trigger.values)
        )

    def test_max_fragments_are_singletons(self):
        pieces = split_trigger(self.trigger, 5)
        assert all(len(p.positions) == 1 for p in pieces)

    def test_fragments_partition_the_trigger(self):
        for fragments in (2, 3, 4):
            pieces = split_trigger(self.trigger, fragments)
            assert len(pieces) == fragments
            assert all(p.positions for p in pieces)
            assert all(p.target_class == 1 for p in pieces)
            mapping = {}
            for p in pieces:
                for pos, val in zip(p.positions, p.values):
                    assert pos not in mapping
                    mapping[pos] = val
            assert mapping == dict(zip(self.trigger.positions, self.trigger.values))

    def test_fragments_contiguous_in_sorted_order(self):
        pieces = split_trigger(self.trigger, 3)
        flattened = [pos for p in pieces for pos in p.positions]
        assert flattened == sorted(self.trigger.positions)

    def test_rejections(self):
        with pytest.raises(ValueError):
            split_trigger(self.trigger, 0)
        with pytest.raises(ValueError):
            split_trigger(self.trigger, 6)


class TestBoostUpdate:
    def test_gamma_one_is_identity(self):
        global_model = make_weights([0.5, -0.5], [2.0])
        local = make_weights([1.5, 0.0], [1.0])
        assert boost_update(local, global_model, 1.0) == local

    def test_gamma_two_doubles_delta(self):
        global_model = make_weights([0.0, 0.0])
        local = make_weights([1.0, 1.0])
        boosted = boost_update(local, global_model, 2.0)
        assert np.array_equal(layers_of(boosted)[0], [2.0, 2.0])

    def test_composes_multiplicatively(self):
        rng = np.random.default_rng(73)
        global_model = make_weights(rng.normal(size=5))
        local = make_weights(rng.normal(size=5))
        twice = boost_update(boost_update(local, global_model, 2.0), global_model, 3.0)
        once = boost_update(local, global_model, 6.0)
        assert np.allclose(layers_of(twice)[0], layers_of(once)[0], atol=1e-12)

    def test_boost_by_cohort_size_survives_averaging(self):
        # boosting by the cohort size makes the attacker's delta enter the
        # fedavg result at full strength: mean delta = delta_mal + mean(benign)
        global_model = make_weights([1.0, -1.0])
        benign_delta = np.array([0.2, 0.4])
        mal_delta = np.array([-3.0, 5.0])
        benign = [make_weights(layers_of(global_model)[0] + benign_delta) for _ in range(3)]
        attacker = boost_update(
            make_weights(layers_of(global_model)[0] + mal_delta), global_model, 4.0
        )
        merged = fedavg(benign + [attacker])
        expected = layers_of(global_model)[0] + mal_delta + 0.75 * benign_delta
        assert np.allclose(layers_of(merged)[0], expected, atol=1e-12)

    def test_rejections(self):
        m = make_weights([1.0])
        with pytest.raises(ValueError):
            boost_update(m, m, 0.0)
        with pytest.raises(ShapeMismatchError):
            boost_update(make_weights([1.0, 2.0]), make_weights([1.0]), 2.0)


class TestNeurotoxinMask:
    def test_matches_index_oracle(self):
        rng = np.random.default_rng(79)
        for _ in range(25):
            size = int(rng.integers(3, 30))
            ratio = float(rng.uniform(0.05, 0.95))
            vec = rng.normal(size=size)
            ref = rng.normal(size=size)
            masked = neurotoxin_mask(
                make_weights(vec), make_weights(ref), ratio
            )
            expected_zero = top_mask_indices(ref.tolist(), ratio)
            for i in range(size):
                if i in expected_zero:
                    assert layers_of(masked)[0][i] == 0.0
                else:
                    assert layers_of(masked)[0][i] == vec[i]

    def test_zero_reference_masks_lowest_indices(self):
        vec = np.arange(1.0, 9.0)
        masked = neurotoxin_mask(make_weights(vec), make_weights(np.zeros(8)), 0.25)
        assert np.array_equal(layers_of(masked)[0], [0.0, 0.0] + list(vec[2:]))

    def test_exact_zero_count_per_layer(self):
        rng = np.random.default_rng(83)
        vecs = [rng.uniform(0.5, 1.0, size=s) for s in (10, 7)]
        refs = [rng.normal(size=s) for s in (10, 7)]
        masked = neurotoxin_mask(make_weights(*vecs), make_weights(*refs), 0.3)
        assert int(np.sum(layers_of(masked)[0] == 0.0)) == 3  # ceil(0.3 * 10)
        assert int(np.sum(layers_of(masked)[1] == 0.0)) == 3  # ceil(0.3 * 7)

    @pytest.mark.parametrize("ratio, count", [(0.07, 7), (0.55, 55), (0.3, 30)])
    def test_an_exact_decimal_count_is_not_rounded_up(self, ratio, count):
        # 0.07 * 100 is 7.000000000000001 and 0.55 * 100 is 55.00000000000001.
        rng = np.random.default_rng(97)
        vec, ref = rng.uniform(0.5, 1.0, size=100), rng.normal(size=100)
        masked = neurotoxin_mask(make_weights(vec), make_weights(ref), ratio)
        assert int(np.sum(layers_of(masked)[0] == 0.0)) == count
        assert len(top_mask_indices(ref.tolist(), ratio)) == count

    @pytest.mark.parametrize("ratio", [5e-324, 1e-12, 0.001])
    def test_any_ratio_masks_at_least_one_entry(self, ratio):
        masked = neurotoxin_mask(make_weights([2.0, 3.0]), make_weights([1.0, -4.0]), ratio)
        assert layers_of(masked)[0].tolist() == [2.0, 0.0]

    def test_layerwise_independence(self):
        vec = np.ones(4)
        ref_hot_last = np.array([0.0, 0.0, 0.0, 9.0])
        masked = neurotoxin_mask(
            make_weights(vec, vec),
            make_weights(ref_hot_last, ref_hot_last[::-1].copy()),
            0.25,
        )
        assert np.array_equal(layers_of(masked)[0], [1.0, 1.0, 1.0, 0.0])
        assert np.array_equal(layers_of(masked)[1], [0.0, 1.0, 1.0, 1.0])

    @given(
        width=st.integers(1, 1000),
        ratio=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        reference=st.sampled_from(["normal", "quarter", "zero", "straddle"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(width=3, ratio=0.9, reference="normal", seed=0)  # count == size
    @example(width=1, ratio=0.01, reference="zero", seed=0)
    @example(width=7, ratio=0.99, reference="quarter", seed=1)  # count == size, ties
    @example(width=1000, ratio=0.05, reference="straddle", seed=2)
    @example(width=1000, ratio=0.5, reference="zero", seed=3)
    @settings(max_examples=80, deadline=None)
    def test_matches_argsort_kernel_bytewise(self, width, ratio, reference, seed):
        rng = np.random.default_rng(seed)
        count = math.ceil(ratio * width)
        if reference == "normal":
            ref = rng.normal(size=width)
        elif reference == "quarter":  # magnitudes 0, 0.25, ..., 1: many ties
            ref = rng.integers(-4, 5, size=width) / 4.0
        elif reference == "zero":
            ref = np.zeros(width)
        else:  # one magnitude on both sides of the cut, larger ones above it
            ref = np.full(width, 0.5) * rng.choice([-1.0, 1.0], size=width)
            ref[rng.permutation(width)[: count // 2]] = 2.0
        # a layer of the reference's width between two others
        vec = rng.normal(size=width + 5)
        refs = np.concatenate([rng.normal(size=2), ref, rng.integers(-1, 2, size=3) / 2.0])
        update = make_weights(vec[:2], vec[2:-3], vec[-3:])
        masked = neurotoxin_mask(update, make_weights(refs[:2], refs[2:-3], refs[-3:]), ratio)
        expected = argsort_neurotoxin_mask(
            update, make_weights(refs[:2], refs[2:-3], refs[-3:]), ratio
        )
        assert masked.flat.tobytes() == expected.tobytes()
        zeroed = {i for i in range(width) if layers_of(masked)[1][i] == 0.0}
        assert zeroed == top_mask_indices(ref.tolist(), ratio)

    def test_matches_argsort_kernel_on_a_wide_layer(self):
        rng = np.random.default_rng(89)
        size = 784 * 64
        update = ModelWeights([(784, 64)], rng.normal(size=size))
        coarse = rng.integers(-50, 51, size=size) / 64.0  # ~500 entries per magnitude
        for ref in (rng.normal(size=size), coarse):
            reference = ModelWeights([(784, 64)], ref)
            for ratio in (0.05, 0.5):
                masked = neurotoxin_mask(update, reference, ratio)
                expected = argsort_neurotoxin_mask(update, reference, ratio)
                assert masked.flat.tobytes() == expected.tobytes()
                assert int(np.sum(masked.flat == 0.0)) == math.ceil(ratio * size)

    def test_rejections(self):
        u = make_weights(np.ones(3))
        with pytest.raises(ValueError):
            neurotoxin_mask(u, u, 0.0)
        with pytest.raises(ValueError):
            neurotoxin_mask(u, u, 1.0)
        with pytest.raises(ShapeMismatchError):
            neurotoxin_mask(u, make_weights(np.ones(3), np.ones(2)), 0.5)
        with pytest.raises(ShapeMismatchError):
            neurotoxin_mask(u, make_weights(np.ones(4)), 0.5)
