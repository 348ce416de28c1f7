"""Aggregation rules: the layered defense and the four baselines."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from celtibero import (
    AGGREGATOR_NAMES,
    AggregatorConfig,
    ModelWeights,
    ShapeMismatchError,
    aggregate,
    celtibero_aggregate,
    coordinate_median,
    fedavg,
    init_model,
    krum,
    median_krum,
)
from .conftest import layers_of, make_weights
from celtibero import aggregators
from celtibero.aggregators import _krum_scores, _median_rows
from .oracles import (
    krum_scores,
    per_layer_celtibero,
    per_layer_coordinate_median,
    per_layer_fedavg,
    per_layer_krum_scores,
    sorted_median,
)

GLOBAL_VEC = np.array([0.5, -0.25, 1.0])

BENIGN_DELTAS = [
    [1.00, 1.01, 0.99],
    [1.02, 0.98, 1.00],
    [0.97, 1.00, 1.03],
    [1.01, 1.02, 0.98],
    [0.99, 0.97, 1.01],
    [1.03, 1.00, 1.02],
]
POISONED_DELTA = [-1.0, -1.0, -1.0]


def detection_scenario():
    """Six benign clients near delta (+1,+1,+1) with distinct noise and three
    coordinated clients at exactly (-1,-1,-1)."""
    global_model = make_weights(GLOBAL_VEC)
    locals_ = [make_weights(GLOBAL_VEC + np.asarray(d)) for d in BENIGN_DELTAS]
    locals_ += [make_weights(GLOBAL_VEC + np.asarray(POISONED_DELTA)) for _ in range(3)]
    return global_model, locals_


class TestCeltiberoAggregate:
    def test_hand_computed_detection_scenario(self):
        global_model, locals_ = detection_scenario()
        out, verdicts = celtibero_aggregate(global_model, locals_)
        # per-coordinate medians of the six benign deltas are 1.005, 1.0, 1.005
        expected = np.array([1.505, 0.75, 2.005])
        assert np.max(np.abs(layers_of(out)[0] - expected)) <= 1e-9
        (verdict,) = verdicts
        assert verdict.benign == (0, 1, 2, 3, 4, 5)
        assert verdict.poisoned == (6, 7, 8)
        assert verdict.score_2 == 0.0
        assert verdict.score_1 > 0.0

    def test_layerwise_independence(self):
        # layer 0 poisons clients 6..8, layer 1 poisons clients 0..2
        layer0 = BENIGN_DELTAS + [POISONED_DELTA] * 3
        layer1 = [POISONED_DELTA] * 3 + BENIGN_DELTAS
        global_model = make_weights(GLOBAL_VEC, GLOBAL_VEC)
        locals_ = [
            make_weights(GLOBAL_VEC + np.asarray(a), GLOBAL_VEC + np.asarray(b))
            for a, b in zip(layer0, layer1)
        ]
        out, verdicts = celtibero_aggregate(global_model, locals_)
        assert verdicts[0].poisoned == (6, 7, 8)
        assert verdicts[1].poisoned == (0, 1, 2)
        expected0 = np.array([1.505, 0.75, 2.005])
        medians1 = [
            sorted_median([layer1[i][c] for i in range(3, 9)]) for c in range(3)
        ]
        assert np.allclose(layers_of(out)[0], expected0, atol=1e-9)
        assert np.allclose(layers_of(out)[1], GLOBAL_VEC + np.asarray(medians1), atol=1e-9)

    def test_permutation_invariance(self):
        global_model, locals_ = detection_scenario()
        base, _ = celtibero_aggregate(global_model, locals_)
        rng = np.random.default_rng(2)
        for _ in range(5):
            order = rng.permutation(len(locals_))
            permuted, _ = celtibero_aggregate(global_model, [locals_[i] for i in order])
            assert permuted == base

    def test_joint_delta_scaling_keeps_verdict(self):
        global_model, locals_ = detection_scenario()
        _, verdicts = celtibero_aggregate(global_model, locals_)
        scaled = [
            make_weights(GLOBAL_VEC + 7.5 * (layers_of(m)[0] - GLOBAL_VEC))
            for m in locals_
        ]
        out_scaled, verdicts_scaled = celtibero_aggregate(global_model, scaled)
        assert [v.poisoned for v in verdicts] == [v.poisoned for v in verdicts_scaled]
        expected = GLOBAL_VEC + 7.5 * (np.array([1.505, 0.75, 2.005]) - GLOBAL_VEC)
        assert np.allclose(layers_of(out_scaled)[0], expected, atol=1e-9)

    def test_output_within_benign_envelope(self):
        rng = np.random.default_rng(13)
        global_model = make_weights(rng.normal(size=4), rng.normal(size=2))
        locals_ = [
            make_weights(
                layers_of(global_model)[0] + rng.normal(size=4),
                layers_of(global_model)[1] + rng.normal(size=2),
            )
            for _ in range(7)
        ]
        out, verdicts = celtibero_aggregate(global_model, locals_)
        for k, vec in enumerate(layers_of(out)):
            kept = [layers_of(locals_[i])[k] for i in verdicts[k].benign]
            assert np.all(vec >= np.min(kept, axis=0) - 1e-12)
            assert np.all(vec <= np.max(kept, axis=0) + 1e-12)

    def test_single_opposite_adversary_always_flagged(self):
        rng = np.random.default_rng(41)
        delta = np.array([0.5, -1.0, 0.25, 2.0])
        global_model = make_weights(rng.normal(size=4), rng.normal(size=3))
        locals_ = []
        for i in range(5):
            noise = rng.normal(scale=1e-3, size=4)
            locals_.append(
                make_weights(
                    layers_of(global_model)[0] + delta + noise,
                    layers_of(global_model)[1] + delta[:3] + noise[:3],
                )
            )
        adversary = make_weights(
            layers_of(global_model)[0] - delta,
            layers_of(global_model)[1] - delta[:3],
        )
        locals_.append(adversary)
        _, verdicts = celtibero_aggregate(global_model, locals_)
        for verdict in verdicts:
            assert 5 in verdict.poisoned

    @pytest.mark.parametrize(
        "m, sizes", [(24, (200, 64, 10)), (9, (784, 64, 10))], ids=["m24", "m9-mnist-width"]
    )
    def test_round_holds_one_update_matrix(self, m, sizes):
        # Besides its inputs a round holds one m x P update matrix, in which
        # the median also works; a list of updates and their stack, plus the
        # kernel's copy of layer 0, held about 2.9. At m = 9 a median that
        # made layer-wide temporaries would break the bound.
        global_model = init_model(sizes, np.random.default_rng(0))
        rng = np.random.default_rng(m)
        shift = rng.normal(size=global_model.flat.size)
        local_models = []
        for k in range(m):
            flat = global_model.flat + rng.normal(size=shift.size)
            if k < m // 3:  # a third of the clients share one shift
                flat += 3.0 * shift
            local_models.append(ModelWeights._owning(global_model, flat))
        celtibero_aggregate(global_model, local_models)  # lazy imports first
        tracemalloc.start()
        try:
            celtibero_aggregate(global_model, local_models)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * m * global_model.flat.nbytes

    def test_requires_two_locals(self):
        global_model, locals_ = detection_scenario()
        with pytest.raises(ValueError):
            celtibero_aggregate(global_model, locals_[:1])


class TestFedavg:
    def test_two_point_mean(self):
        out = fedavg([make_weights([0.0]), make_weights([2.0])])
        assert np.array_equal(layers_of(out)[0], [1.0])

    def test_identical_inputs_identity(self):
        m = make_weights([1.0, -2.0], [0.5])
        assert fedavg([m, m, m]) == m

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(19)
        locals_ = [make_weights(rng.normal(size=5), rng.normal(size=3)) for _ in range(9)]
        out = fedavg(locals_)
        for k in range(2):
            vecs = [layers_of(m)[k] for m in locals_]
            for c in range(vecs[0].size):
                expected = math.fsum(v[c] for v in vecs) / len(vecs)
                assert abs(layers_of(out)[k][c] - expected) <= 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fedavg([])


class TestCoordinateMedian:
    def test_odd_count(self):
        out = coordinate_median([make_weights([1.0]), make_weights([9.0]), make_weights([2.0])])
        assert layers_of(out)[0][0] == 2.0

    def test_even_count_midpoint(self):
        out = coordinate_median([make_weights([1.0]), make_weights([3.0])])
        assert layers_of(out)[0][0] == 2.0

    def test_matches_sort_oracle_exhaustively(self):
        grid = [-2.0, -1.0, 0.0, 1.0, 2.0]
        for n in range(1, 8):
            rng = np.random.default_rng(n)
            for _ in range(40):
                values = rng.choice(grid, size=n)
                out = coordinate_median([make_weights([v]) for v in values])
                assert layers_of(out)[0][0] == sorted_median(values.tolist())

    def test_breakdown_envelope_by_construction(self):
        rng = np.random.default_rng(43)
        for n in range(3, 8):
            adversaries = math.ceil(n / 2) - 1
            benign = [make_weights(rng.normal(size=4)) for _ in range(n - adversaries)]
            hostile = [make_weights(np.full(4, 1e9 * (-1) ** i)) for i in range(adversaries)]
            out = coordinate_median(benign + hostile)
            stack = np.array([layers_of(m)[0] for m in benign])
            assert np.all(layers_of(out)[0] >= stack.min(axis=0))
            assert np.all(layers_of(out)[0] <= stack.max(axis=0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            coordinate_median([])


class TestKrum:
    def make_locals(self, rng, n, spread=1.0):
        return [make_weights(rng.normal(scale=spread, size=6)) for _ in range(n)]

    def test_outlier_never_selected(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            clustered = [make_weights(rng.normal(scale=0.01, size=4) + 1.0) for _ in range(5)]
            outlier = make_weights(np.full(4, 50.0))
            chosen = krum(clustered + [outlier], f=1)
            assert any(chosen is m for m in clustered)

    def test_identical_models_pick_first(self):
        models = [make_weights([1.0, 2.0]) for _ in range(5)]
        assert krum(models, f=1) is models[0]

    def test_selection_matches_bruteforce_scores(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            n = int(rng.integers(5, 9))
            f = int(rng.integers(0, (n - 3) // 2 + 1))
            locals_ = self.make_locals(rng, n)
            chosen = krum(locals_, f=f)
            scores = krum_scores([m.flat.tolist() for m in locals_], f)
            best = min(range(n), key=lambda i: (scores[i], i))
            assert chosen is locals_[best]

    def test_output_is_an_input(self):
        rng = np.random.default_rng(59)
        locals_ = self.make_locals(rng, 6)
        assert any(krum(locals_, f=1) is m for m in locals_)

    def test_too_few_models_rejected(self):
        rng = np.random.default_rng(61)
        with pytest.raises(ValueError):
            krum(self.make_locals(rng, 4), f=1)
        with pytest.raises(ValueError):
            krum(self.make_locals(rng, 6), f=2)


class TestMedianKrum:
    def test_identical_models_unchanged(self):
        m = make_weights([0.5, 1.5])
        assert median_krum([m] * 5, f=1) == m

    def test_outlier_excluded_from_median_set(self):
        rng = np.random.default_rng(67)
        clustered = [make_weights(rng.normal(scale=0.01, size=3) + 2.0) for _ in range(5)]
        outlier = make_weights(np.full(3, -100.0))
        out = median_krum(clustered + [outlier], f=1)
        stack = np.array([layers_of(m)[0] for m in clustered])
        assert np.all(layers_of(out)[0] >= stack.min(axis=0))
        assert np.all(layers_of(out)[0] <= stack.max(axis=0))

    def test_matches_score_sorted_median_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            n = int(rng.integers(5, 9))
            f = int(rng.integers(0, (n - 3) // 2 + 1))
            locals_ = [make_weights(rng.normal(size=4)) for _ in range(n)]
            out = median_krum(locals_, f=f)
            scores = krum_scores([m.flat.tolist() for m in locals_], f)
            order = sorted(range(n), key=lambda i: (scores[i], i))[: n - f]
            for c in range(4):
                expected = sorted_median([layers_of(locals_[i])[0][c] for i in order])
                assert layers_of(out)[0][c] == pytest.approx(expected, abs=1e-12)


# The module-level rule each aggregator kind calls.
RULE_NAMES = {
    "celtibero": "celtibero_aggregate",
    "fedavg": "fedavg",
    "coord_median": "coordinate_median",
    "krum": "krum",
    "median_krum": "median_krum",
}


class TestAggregateDispatcher:
    def test_kind_validation(self):
        global_model, locals_ = detection_scenario()
        with pytest.raises(ValueError, match="aggregator must be one of"):
            aggregate(AggregatorConfig("trimmed_mean"), global_model, locals_)
        for bad in (
            AggregatorConfig("krum", krum_f=-1),
            AggregatorConfig("celtibero", linkage="ward"),
        ):
            with pytest.raises(ValueError):
                aggregate(bad, global_model, locals_)

    def test_verdicts_only_for_celtibero(self):
        global_model, locals_ = detection_scenario()
        out, verdicts = aggregate(AggregatorConfig("celtibero"), global_model, locals_)
        assert verdicts is not None and len(verdicts) == 1
        for name in AGGREGATOR_NAMES:
            if name != "celtibero":
                cfg = AggregatorConfig(name, krum_f=2)
                _, verdicts = aggregate(cfg, global_model, locals_)
                assert verdicts is None

    @pytest.mark.parametrize("kind", AGGREGATOR_NAMES)
    def test_rules_are_looked_up_when_called(self, kind, monkeypatch):
        # A probe that rebinds a rule's module-level name must see the
        # calls ``aggregate`` makes, so no row may hold the function itself.
        assert set(RULE_NAMES) == set(AGGREGATOR_NAMES)
        global_model, locals_ = detection_scenario()
        calls = []
        result = make_weights(GLOBAL_VEC)

        def stub(*args, **kwargs):
            calls.append(args)
            return (result, ()) if kind == "celtibero" else result

        monkeypatch.setattr(aggregators, RULE_NAMES[kind], stub)
        out, _ = aggregate(AggregatorConfig(kind, krum_f=2), global_model, locals_)
        assert out is result
        (args,) = calls
        if kind == "celtibero":
            assert args[0] is global_model and args[1] is locals_
        else:
            assert args[0] is locals_

    def test_dispatch_matches_direct_calls(self):
        global_model, locals_ = detection_scenario()
        assert aggregate(AggregatorConfig("fedavg"), global_model, locals_)[0] == fedavg(locals_)
        assert aggregate(AggregatorConfig("coord_median"), global_model, locals_)[0] == (
            coordinate_median(locals_)
        )
        assert aggregate(AggregatorConfig("krum", krum_f=2), global_model, locals_)[0] == (
            krum(locals_, f=2)
        )
        assert aggregate(AggregatorConfig("median_krum", krum_f=2), global_model, locals_)[0] == (
            median_krum(locals_, f=2)
        )

    @pytest.mark.parametrize("kind", AGGREGATOR_NAMES)
    def test_rejects_models_of_other_shapes(self, kind):
        global_model, locals_ = detection_scenario()
        reshaped = ModelWeights([(1, 3)], locals_[-1].flat)
        with pytest.raises(ShapeMismatchError, match="layer 0"):
            aggregate(AggregatorConfig(kind, krum_f=2), global_model, locals_[:-1] + [reshaped])


def random_layers(rng, widths, scale, dyadic):
    """One model's per-layer vectors: quarter steps with many ties when
    ``dyadic``, else Gaussian, at the given scale."""
    if dyadic:
        return [rng.integers(-4, 5, size=w) / 4.0 * scale for w in widths]
    return [rng.normal(size=w) * scale for w in widths]


def as_model(widths, layers):
    return ModelWeights([(w,) for w in widths], np.concatenate(layers))


class TestPerLayerReference:
    """The aggregators give bit for bit what one ``np.stack`` per layer gave
    (``oracles.per_layer_*``), width-1 layers included, at every block
    budget; Krum's scores, from a Gram matrix summed over each layer's
    column blocks, only to within their last bits."""

    @pytest.mark.parametrize("m", [2, 7, 8, 9, 40])
    def test_bit_identical_to_per_layer_stacks(self, m):
        rng = np.random.default_rng(500 + m)
        for draw in range(9):
            widths = [1, int(rng.integers(1, 40)), 1, int(rng.integers(2, 12))]
            scale = float(10.0 ** rng.uniform(-8, 8))
            dyadic = draw % 2 == 0
            layers = [random_layers(rng, widths, scale, dyadic) for _ in range(m)]
            if draw == 8:
                # Colluding clients: every odd-indexed client sends client 0's model.
                layers[1::2] = [layers[0]] * len(layers[1::2])
            global_layers = random_layers(rng, widths, scale, dyadic)
            models = [as_model(widths, ls) for ls in layers]
            linkage = ("average", "single", "complete")[draw % 3]
            want_celtibero = per_layer_celtibero(global_layers, layers, linkage)
            krum_fs = sorted({0, (m - 3) // 2}) if m >= 3 else []
            want_scores = {f: per_layer_krum_scores(layers, f) for f in krum_fs}
            # The baselines read the models a block of columns at a time: at
            # the default budget, in blocks of two or three columns, and in
            # blocks that cut the layers unevenly.
            for budget in (None, 1, 200):
                with mock.patch.object(
                    aggregators, "_BLOCK_BYTES", budget or aggregators._BLOCK_BYTES
                ):
                    fedavg_out = fedavg(models)
                    median_out = coordinate_median(models)
                    out, verdicts = celtibero_aggregate(
                        as_model(widths, global_layers), models, linkage
                    )
                    krum_outs = {
                        f: (_krum_scores(models, f), krum(models, f), median_krum(models, f))
                        for f in want_scores
                    }
                for got, want in (
                    (fedavg_out, per_layer_fedavg(layers)),
                    (median_out, per_layer_coordinate_median(layers)),
                ):
                    assert all(g.tobytes() == w.tobytes() for g, w in zip(layers_of(got), want))
                want, want_verdicts = want_celtibero
                assert verdicts == want_verdicts
                assert all(np.array_equal(g, w) for g, w in zip(layers_of(out), want))
                for f, (scores, chosen_model, merged) in krum_outs.items():
                    # Krum's scores come from a Gram matrix, so only their
                    # last bits may differ from the per-pair differences'.
                    want_f = want_scores[f]
                    np.testing.assert_allclose(scores, want_f, rtol=1e-12, atol=0)
                    assert chosen_model is models[int(np.argmin(want_f))]
                    chosen = np.argsort(want_f, kind="stable")[: m - f]
                    want = per_layer_coordinate_median([layers[i] for i in chosen])
                    assert all(
                        g.tobytes() == w.tobytes() for g, w in zip(layers_of(merged), want)
                    )


class TestBaselineMemory:
    """The baselines read the local models a block of columns at a time:
    besides their inputs and result they hold one block of at most
    ``_BLOCK_BYTES`` (2 MiB), never a copy of the round."""

    @pytest.mark.parametrize(
        "rule",
        [fedavg, coordinate_median, lambda ms: krum(ms, 25), lambda ms: median_krum(ms, 25)],
        ids=["fedavg", "coordinate_median", "krum", "median_krum"],
    )
    def test_holds_a_few_mib_beside_a_9_mib_round(self, rule):
        # 90 models of the ulfa-mkrum-n100 architecture, 13 124 parameters
        # each: one stack of them alone is 9.4 MB.
        global_model = init_model((200, 64, 4), np.random.default_rng(0))
        rng = np.random.default_rng(90)
        models = [
            ModelWeights._owning(global_model, global_model.flat + rng.normal(size=13124))
            for _ in range(90)
        ]
        rule(models)  # lazy imports first
        tracemalloc.start()
        try:
            rule(models)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20


class TestKrumGramMatrix:
    """Krum's squared distances come from one Gram matrix; the pairs too
    close for it to resolve are recomputed from the models' difference."""

    @pytest.mark.parametrize("width", [10, 13124])
    @pytest.mark.parametrize("n", [5, 23, 60, 90, 120])
    def test_duplicates_score_exactly_zero_at_every_row_position(self, n, width):
        rng = np.random.default_rng(n + width)
        f = (n - 3) // 2
        # Each copy's n - f - 2 nearest peers are the other copies.
        copies = n - f - 1
        base = rng.normal(size=(n, width))
        # Windows of copies wrapping past the last row, which a GEMM edge tile
        # computes; on the wide models every row lies in two windows.
        starts = range(n) if width < 100 else range(0, n, copies // 2)
        for start in starts:
            members = (start + np.arange(copies)) % n
            rows = base.copy()
            rows[members] = base[start]
            scores = _krum_scores([as_model([width], [r]) for r in rows], f)
            assert np.all(scores[members] == 0.0)
            assert np.all(np.delete(scores, members) > 0.0)

    def test_pairs_inside_the_exact_band_keep_the_difference_bits(self):
        rng = np.random.default_rng(89)
        for n in (5, 12, 31):
            for width in (3, 40, 1000):
                f = (n - 3) // 2
                close = n - f - 1
                rows = rng.normal(size=(n, width))
                # A tight cluster far from the rest: its pairs fall in the band,
                # and each member's nearest n - f - 2 peers are in the cluster.
                rows[:close] = 50.0 + rng.normal(scale=1e-4, size=(close, width))
                layers = [[r] for r in rows]
                scores = _krum_scores([as_model([width], ls) for ls in layers], f)
                want = per_layer_krum_scores(layers, f)
                assert scores[:close].tobytes() == want[:close].tobytes()

    @pytest.mark.parametrize("boost", [1e155, 1e200, 1e300])
    def test_huge_attackers_neither_overflow_nor_win(self, boost):
        # Squared norms of these rows pass the float range: unscaled, every
        # score would be NaN or inf, and Krum would fall back to index order.
        # Scaled by one common power of two, the honest distances would
        # underflow to 0 beside the attackers, and the honest models would
        # rank by index instead of by their distances.
        rng = np.random.default_rng(101)
        honest = rng.normal(size=(7, 50))
        attackers = boost * rng.normal(size=(2, 50))
        models = [make_weights(row) for row in np.vstack([attackers, honest])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chosen = krum(models, f=2)
            merged = median_krum(models, f=2)
        # Each honest model's n - f - 2 = 5 nearest peers are the other honest ones.
        assert chosen is models[2 + int(np.argmin(krum_scores(honest, 0)))]
        want = coordinate_median([make_weights(row) for row in honest])
        assert merged.flat.tobytes() == want.flat.tobytes()

    def test_scores_do_not_depend_on_the_blas_thread_count(self):
        script = (
            "import hashlib, numpy as np\n"
            "from celtibero import ModelWeights\n"
            "from celtibero.aggregators import _krum_scores\n"
            "rng = np.random.default_rng(97)\n"
            "models = [ModelWeights([(13124,)], rng.normal(size=13124))"
            " for _ in range(100)]\n"
            "print(hashlib.sha256(_krum_scores(models, 25).tobytes()).hexdigest())\n"
        )
        src = str(Path(aggregators.__file__).resolve().parent.parent)
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            child = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            digests.add(child.stdout)
        assert len(digests) == 1


class TestMedianRows:
    """``_median_rows`` writes ``np.median(rows, axis=0)`` byte for byte on
    finite rows, signed zeros included, both on a matrix of its own and on
    the first rows of some columns of a wider one, the view of the update
    matrix that celtibero passes."""

    def test_byte_equal_to_np_median(self):
        rng = np.random.default_rng(101)
        big = np.finfo(np.float64).max
        specials = np.array([0.0, -0.0, 1.0, -1.0, big, -big, 5e-324])
        cases = 0
        for m in range(1, 81):
            for width in rng.integers(1, 61, size=8):
                half = rng.normal(size=((m + 2) // 3, width))
                signed_copies = np.concatenate([half, -half, half])[:m]
                for rows in (
                    rng.integers(-4, 5, size=(m, width)) / 4.0,
                    rng.normal(size=(m, width)) * 1e300,
                    rng.normal(size=(m, width)) * 1e-300,
                    rng.permutation(signed_copies),
                    rng.choice(specials, size=(m, width)),
                ):
                    wider = np.full((m + 3, width + 5), 7.0)
                    wider[:m, 2 : 2 + width] = rows
                    with np.errstate(over="ignore"):
                        want = np.median(rows, axis=0)
                        for view in (rows, wider[:m, 2 : 2 + width]):
                            got = np.full(width, np.nan)
                            _median_rows(view, out=got)
                            assert got.tobytes() == want.tobytes(), (m, width)
                    cases += 1
        assert cases == 80 * 8 * 5
