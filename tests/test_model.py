"""Weight containers, deltas, and the cosine distance."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celtibero import (
    ModelWeights,
    ShapeMismatchError,
    TrainConfig,
    add_update,
    boost_update,
    celtibero_aggregate,
    coordinate_median,
    diff,
    fedavg,
    gen_synthetic,
    init_model,
    neurotoxin_mask,
    pairwise_cosine_matrix,
    train_local,
)
from .conftest import layers_of, make_weights
from .oracles import cosine_distance, loss_and_grad, per_pair_cosine_distances


class TestModelWeights:
    def test_layer_size_is_product_of_dims(self):
        model = ModelWeights([[28, 28], np.array([16])], np.zeros(800))
        assert model.shapes() == ((28, 28), (16,))
        assert all(type(d) is int for dims in model.shapes() for d in dims)
        assert model.slices() == (slice(0, 784), slice(784, 800))

    @pytest.mark.parametrize("dims", [(), (0,), (-1, 3), (2, 0)])
    def test_rejects_non_positive_dims(self, dims):
        with pytest.raises(
            ValueError, match=re.escape(f"layer dims must be positive integers, got {dims!r}")
        ):
            ModelWeights([(2,), dims], np.zeros(2))

    def test_vectors_are_flat_float64_and_read_only(self):
        m = make_weights([[1, 2], [3, 4]], [5, 6])
        for vec in layers_of(m):
            assert vec.dtype == np.float64
            assert vec.ndim == 1
            with pytest.raises(ValueError):
                vec[0] = 0.0

    def test_total_size_and_concat_order(self):
        m = make_weights([1.0, 2.0], [3.0])
        assert len(m.shapes()) == 2
        assert m.flat.size == 3
        assert np.array_equal(m.flat, [1.0, 2.0, 3.0])

    def test_length_mismatch_names_the_layer(self):
        with pytest.raises(ShapeMismatchError, match="layer 1"):
            ModelWeights(((2,), (3,)), np.zeros(4))
        with pytest.raises(ShapeMismatchError, match="total size 2"):
            ModelWeights(((2,),), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="layer 0"):
            make_weights([1.0, bad])
        with pytest.raises(ValueError, match="layer 1"):
            make_weights([1.0], [2.0, bad], [3.0])

    def test_equality_is_exact(self):
        a = make_weights([1.0, 2.0])
        assert a == make_weights([1.0, 2.0])
        assert a != make_weights([1.0, 2.0 + 1e-12])
        assert a != make_weights([1.0], [2.0])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(make_weights([1.0]))


class TestOwnedVectors:
    """Fresh vectors the package computes are handed to their container
    without a copy, keeping every check of ``__init__``."""

    def test_owning_keeps_the_vector_and_every_check(self):
        like = make_weights([1.0, 2.0], [3.0])
        vec = np.array([4.0, 5.0, 6.0])
        owned = ModelWeights._owning(like, vec)
        assert owned.flat is vec and not vec.flags.writeable
        assert owned.shapes() == like.shapes() and owned.slices() == like.slices()
        with pytest.raises(ShapeMismatchError, match="layer 1"):
            ModelWeights._owning(like, np.zeros(2))
        with pytest.raises(ShapeMismatchError, match="total size 3"):
            ModelWeights._owning(like, np.zeros(4))
        with pytest.raises(ValueError, match="layer 1: weights contain NaN or Inf"):
            ModelWeights._owning(like, np.array([0.0, 0.0, np.inf]))

    def test_results_are_read_only(self):
        rng = np.random.default_rng(31)
        base = init_model((4, 3, 2), seed=1)
        data = gen_synthetic(2, 12, 4, 3.0, rng)
        local = train_local(base, data, TrainConfig(0.1, 4, epochs=1))
        update = diff(local, base)
        results = [
            local,
            update,
            add_update(base, update),
            boost_update(local, base, 3.0),
            neurotoxin_mask(update, update, 0.5),
            loss_and_grad(base, data.features, data.labels)[1],
            celtibero_aggregate(base, [local, base, boost_update(local, base, 2.0)])[0],
            fedavg([local, base]),
            coordinate_median([local, base]),
        ]
        for result in results:
            assert not result.flat.flags.writeable
            with pytest.raises(ValueError):
                result.flat[0] = 1.0

    def test_inputs_are_never_frozen_or_aliased(self):
        vec = np.array([1.0, 2.0, 3.0])
        built = ModelWeights([(3,)], vec)
        assert vec.flags.writeable and not np.shares_memory(built.flat, vec)
        vec[0] = 9.0
        assert built.flat[0] == 1.0
        base = init_model((4, 3, 2), seed=2)
        data = gen_synthetic(2, 12, 4, 3.0, np.random.default_rng(32))
        local = train_local(base, data, TrainConfig(0.1, 4, epochs=1))
        assert not np.shares_memory(local.flat, base.flat)
        for result in (
            diff(local, base),
            add_update(base, diff(local, base)),
            boost_update(local, base, 1.0),
            neurotoxin_mask(diff(local, base), base, 0.5),
            fedavg([local, base]),
        ):
            assert not np.shares_memory(result.flat, base.flat)
            assert not np.shares_memory(result.flat, local.flat)

    def test_overflowing_boost_names_the_layer(self):
        base = make_weights([0.0, 0.0], [0.0])
        local = make_weights([1e-300, 0.0], [10.0])
        huge = make_weights([1e308], [0.0])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="layer 1: weights contain NaN or Inf"):
                boost_update(local, base, 1e308)
            with pytest.raises(ValueError, match="layer 0: weights contain NaN or Inf"):
                add_update(huge, huge)


class TestDiffAddUpdate:
    def test_diff_is_local_minus_global(self):
        local = make_weights([3.0, 1.0], [2.0])
        base = make_weights([1.0, 1.0], [5.0])
        update = diff(local, base)
        assert np.array_equal(layers_of(update)[0], [2.0, 0.0])
        assert np.array_equal(layers_of(update)[1], [-3.0])

    def test_add_update_round_trip(self):
        local = make_weights([0.25, -1.5], [4.0, 0.0, 1.0])
        base = make_weights([1.0, 1.0], [0.5, 0.5, 0.5])
        assert add_update(base, diff(local, base)) == local

    def test_shape_mismatch_names_first_bad_layer(self):
        a = make_weights([1.0, 2.0], [1.0])
        b = make_weights([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ShapeMismatchError, match="layer 1"):
            diff(a, b)
        with pytest.raises(ShapeMismatchError, match="layer 1"):
            diff(make_weights([1.0, 2.0]), a)
        square = ModelWeights([(2, 2)], np.zeros(4))
        with pytest.raises(ShapeMismatchError, match="layer 0"):
            add_update(square, make_weights(np.zeros(4)))

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, base_vals, delta_vals):
        n = min(len(base_vals), len(delta_vals))
        base = make_weights(base_vals[:n])
        local = make_weights(np.asarray(base_vals[:n]) + np.asarray(delta_vals[:n]))
        rebuilt = add_update(base, diff(local, base))
        assert np.allclose(rebuilt.flat, local.flat, atol=1e-9)


class TestCosineDistance:
    def test_identical_vectors_are_zero(self):
        assert cosine_distance(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors_are_one(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(1.0)

    def test_opposite_vectors_are_two(self):
        assert cosine_distance(np.array([2.0, 0.0]), np.array([-5.0, 0.0])) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "u, v",
        [([2.0, 0.0], [-5.0, 0.0]), ([1e200, 1e200], [-1e200, -1e200])],
    )
    def test_opposite_vectors_are_two_in_both_kernels(self, u, v):
        assert cosine_distance(np.array(u), np.array(v)) == pytest.approx(2.0)
        entries = pairwise_cosine_matrix([np.array(u), np.array(v)]).entries
        assert entries[0, 1] == entries[1, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        with pytest.raises(ValueError, match="NaN or Inf"):
            cosine_distance(np.array([1.0, bad]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="vector 2 contains NaN or Inf"):
            pairwise_cosine_matrix([np.ones(2), np.ones(2), np.array([bad, 0.0])])

    def test_forty_five_degrees(self):
        d = cosine_distance(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert d == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)

    def test_zero_norm_conventions(self):
        zero = np.zeros(3)
        some = np.array([0.1, 0.0, 0.0])
        assert cosine_distance(zero, some) == 1.0
        assert cosine_distance(some, zero) == 1.0
        assert cosine_distance(zero, np.zeros(3)) == 0.0

    @given(
        st.floats(min_value=1e-200, max_value=1e200),
        st.floats(min_value=1e-200, max_value=1e200),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, a, b):
        u = np.array([0.3, -0.7, 0.1])
        v = np.array([-0.2, 0.5, 0.9])
        assert cosine_distance(u, v) == pytest.approx(
            cosine_distance(a * u, b * v), abs=1e-12
        )

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_and_symmetry(self, a, b):
        n = min(len(a), len(b))
        u, v = np.asarray(a[:n]), np.asarray(b[:n])
        d = cosine_distance(u, v)
        assert 0.0 <= d <= 2.0
        assert d == pytest.approx(cosine_distance(v, u), abs=1e-12)


def cosine_inputs(rng, n, width):
    """``n`` rows of ``width`` at row scales 1e-200..1e200, with zero,
    duplicated and negated rows mixed in (or all rows equal)."""
    rows = rng.normal(size=(n, width)) * 10.0 ** rng.uniform(-200, 200, size=(n, 1))
    if rng.random() < 0.1:
        return np.repeat(rows[:1], n, axis=0)
    for i in range(n):
        pick = rng.random()
        if pick < 0.1:
            rows[i] = 0.0
        elif pick < 0.3:
            rows[i] = rows[rng.integers(n)]
        elif pick < 0.4:
            rows[i] = -rows[rng.integers(n)]
    return rows


class TestPerPairReference:
    """The blocked kernel gives bit for bit what one ``np.dot`` per pair
    gave (``oracles.per_pair_cosine_distances``), whether it copies its
    input or scales it in place."""

    def test_bit_identical_to_per_pair_kernel(self):
        rng = np.random.default_rng(42)
        for draw in range(60):
            n = int(rng.integers(2, 46))
            width = int(rng.integers(1, 1001)) if draw % 3 else int(rng.integers(1, 9))
            rows = cosine_inputs(rng, n, width)
            want = per_pair_cosine_distances(list(rows))
            # A list of vectors, a 2-D array, and a column block of a wider
            # matrix (as the aggregator passes one layer).
            wide = np.hstack([rng.normal(size=(n, 3)), rows, rng.normal(size=(n, 2))])
            for given_rows in (list(rows), rows, wide[:, 3 : 3 + width]):
                assert np.array_equal(pairwise_cosine_matrix(given_rows).entries, want)
            for i, j in rng.integers(n, size=(5, 2)):
                pair = per_pair_cosine_distances([rows[i], rows[j]])[0, 1]
                assert np.array_equal(cosine_distance(rows[i], rows[j]), pair)

    # Around the kernel's 16-row blocks, and a 200-client layer.
    @pytest.mark.parametrize("n", [2, 15, 16, 17, 33, 200])
    def test_in_place_on_layer_views_matches_copy_and_per_pair(self, n):
        rng = np.random.default_rng(700 + n)
        width = 37
        # Half the rows at 1e150, whose squared norms overflow unscaled,
        # every seventh row zero, and the last row a copy of the second.
        rows = rng.normal(size=(n, width)) * np.where(rng.random((n, 1)) < 0.5, 1e150, 1.0)
        rows[::7] = 0.0
        if n > 2:
            rows[-1] = rows[1]
        want = per_pair_cosine_distances(list(rows))
        # The rows as the layer columns of a wider update matrix, as the
        # aggregator passes them.
        updates = np.hstack([rng.normal(size=(n, 3)), rows, rng.normal(size=(n, 2))])
        outside = np.hstack([updates[:, :3], updates[:, -2:]])
        layer = updates[:, 3 : 3 + width]
        assert not layer.flags.c_contiguous
        assert np.array_equal(pairwise_cosine_matrix(layer).entries, want)
        assert np.array_equal(layer, rows)
        got = pairwise_cosine_matrix(layer, overwrite_input=True).entries
        assert np.array_equal(got, want)
        # The layer now holds each row scaled by the power of two that brings
        # its peak into [0.5, 1); the other columns are untouched.
        peaks = np.abs(rows).max(axis=1)
        assert np.array_equal(layer, np.ldexp(rows, -np.frexp(peaks)[1][:, None]))
        assert np.array_equal(np.hstack([updates[:, :3], updates[:, -2:]]), outside)

    def test_input_is_untouched_unless_overwrite_is_permitted(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(20, 9)) * 1e150
        rows[4] = 0.0
        before = rows.tobytes()
        want = per_pair_cosine_distances(list(rows))
        assert np.array_equal(pairwise_cosine_matrix(rows).entries, want)
        assert np.array_equal(pairwise_cosine_matrix(rows[:, 2:7]).entries,
                              per_pair_cosine_distances(list(rows[:, 2:7])))
        assert rows.tobytes() == before
        # A rejected input is left as it was, even with the permission.
        rows[5, 3] = np.nan
        before = rows.tobytes()
        with pytest.raises(ValueError, match="vector 5 contains NaN or Inf"):
            pairwise_cosine_matrix(rows, overwrite_input=True)
        assert rows.tobytes() == before

    def test_inputs_it_cannot_scale_in_place_are_copied(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(18, 8)) * 1e150
        read_only = rows.copy()
        read_only.flags.writeable = False
        for given_rows in (
            list(rows),  # a list of vectors
            (rows * 1e-150).astype(np.float32),  # other dtypes
            (rows * 1e-149).round().astype(np.int64),
            read_only,
            np.asfortranarray(rows),  # rows that are not contiguous
            np.repeat(rows, 2, axis=1)[:, ::2],
        ):
            before = [np.asarray(row).tobytes() for row in given_rows]
            want = per_pair_cosine_distances(list(given_rows))
            got = pairwise_cosine_matrix(given_rows, overwrite_input=True).entries
            assert np.array_equal(got, want)
            assert [np.asarray(row).tobytes() for row in given_rows] == before
