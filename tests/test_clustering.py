"""Two-cluster agglomerative detection against a pure-Python replay oracle."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celtibero import (
    LINKAGES,
    ClusterAssignment,
    DistanceMatrix,
    agglomerative_two_clusters,
    label_clusters,
    pairwise_cosine_matrix,
)
from .oracles import (
    cosine_distance,
    full_recompute_two_clusters,
    mean_pairwise,
    replay_two_clusters,
    replay_verdict,
)


def random_matrix(rng, n):
    upper = rng.uniform(0.0, 2.0, size=(n, n))
    sym = np.triu(upper, 1)
    sym = sym + sym.T
    return DistanceMatrix(sym)


def dyadic_matrix(rng, n):
    """Entries are multiples of 1/64 so single/complete linkage comparisons
    are exact in binary floating point even under reordering."""
    upper = rng.integers(0, 129, size=(n, n)) / 64.0
    sym = np.triu(upper, 1)
    sym = sym + sym.T
    return DistanceMatrix(sym)


def reference_matrix(rng, n, family):
    """A matrix on which the agglomeration must match the full-recompute
    reference. Families: 0 quarter-step ties, 1 all-equal, 2 all-zero,
    3 cosines of duplicated rows (colluding clients sit at distance 0),
    4 cosines of Gaussian rows at a scale from 1e-8 to 1e8 set by n."""
    if family == 0:
        quarters = np.triu(rng.integers(0, 9, size=(n, n)) / 4.0, 1)
        return DistanceMatrix(quarters + quarters.T)
    if family == 1:
        return DistanceMatrix(np.where(np.eye(n) == 1.0, 0.0, 0.75))
    if family == 2:
        return DistanceMatrix(np.zeros((n, n)))
    if family == 3:
        distinct = rng.normal(size=(max(1, n // 4), 6))
        return pairwise_cosine_matrix(distinct[rng.integers(0, distinct.shape[0], size=n)])
    return pairwise_cosine_matrix(10.0 ** (n % 17 - 8) * rng.normal(size=(n, 6)))


def clusters_of(assignment: ClusterAssignment):
    return sorted(assignment.members(1).tolist()), sorted(assignment.members(2).tolist())


class TestDistanceMatrix:
    def test_accepts_valid(self):
        m = DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert m.n == 2

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, 1.0], [0.9, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.1, 1.0], [1.0, 0.0]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, 2.5], [2.5, 0.0]]))

    @pytest.mark.parametrize(
        "spot, value",
        [((0, 1), np.nan), ((1, 1), np.nan), ((0, 2), np.inf)],
        ids=["nan-off-diagonal", "nan-on-diagonal", "inf"],
    )
    def test_rejects_non_finite_as_such(self, spot, value):
        entries = np.full((3, 3), 0.5)
        np.fill_diagonal(entries, 0.0)
        entries[spot] = entries[spot[::-1]] = value
        with pytest.raises(ValueError, match="must be finite"):
            DistanceMatrix(entries)

    @pytest.mark.parametrize(
        "entries, message",
        [
            (np.zeros((2, 3)), "distance matrix must be square, got shape (2, 3)"),
            (np.zeros(4), "distance matrix must be square, got shape (4,)"),
            (np.zeros((0, 0)), "distance matrix must cover at least one client"),
        ],
        ids=["non-square", "1-d", "empty"],
    )
    def test_rejects_a_non_square_or_empty_matrix(self, entries, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DistanceMatrix(entries)

    def test_entries_read_only(self):
        m = DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            m.entries[0, 1] = 0.5


class TestPairwiseCosineMatrix:
    def test_matches_scalar_function_exactly(self):
        rng = np.random.default_rng(3)
        vecs = [rng.normal(size=6) for _ in range(5)]
        m = pairwise_cosine_matrix(vecs).entries
        for i in range(5):
            for j in range(5):
                expected = 0.0 if i == j else cosine_distance(vecs[i], vecs[j])
                assert m[i, j] == expected

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError, match="need at least 2 update vectors"):
            pairwise_cosine_matrix([np.ones(3)])
        # A non-finite vector is named first.
        with pytest.raises(ValueError, match="vector 0 contains NaN or Inf"):
            pairwise_cosine_matrix([np.array([np.nan, 1.0])])

    def test_input_that_is_no_matrix_is_rejected(self):
        # Ragged rows fail in NumPy's conversion, before any NaN is looked for.
        for ragged in (
            [np.ones(3), np.ones(4)],
            [np.ones(3), np.array([np.inf, 0.0, 0.0]), np.ones(4)],
        ):
            with pytest.raises(ValueError) as raised:
                pairwise_cosine_matrix(ragged)
            assert "NaN or Inf" not in str(raised.value)
        # Vectors with more than one dimension are not flattened.
        for stacked in (np.ones((3, 2, 2)), [np.ones((2, 2))] * 3):
            with pytest.raises(ValueError, match=r"must be an \(n, w\) matrix"):
                pairwise_cosine_matrix(stacked)
        with pytest.raises(TypeError):
            pairwise_cosine_matrix(np.ones(3) for _ in range(2))
        # An empty list and a lone vector are fewer than two rows.
        for short in ([], np.ones(3)):
            with pytest.raises(ValueError, match="need at least 2 update vectors"):
                pairwise_cosine_matrix(short)


def colluding_rows(rng, n, width):
    """``n`` rows of ``width`` at row scales 10^-150..10^150, with zero rows,
    negated rows and at least one pair of identical rows."""
    rows = rng.normal(size=(n, width)) * 10.0 ** rng.uniform(-150, 150, size=(n, 1))
    pick = rng.random(n)
    rows[pick < 0.1] = 0.0
    negated = pick > 0.85
    rows[negated] = -rows[rng.integers(n, size=int(negated.sum()))]
    copies = rng.integers(n, size=max(1, n // 4))
    rows[rng.integers(n, size=copies.size)] = rows[copies]
    rows[0] = rows[-1]
    return rows


class TestKernelExactness:
    """The kernel's exactness contract, with exact equality, whether it copies
    its input or scales a layer view of a wider matrix in place: permuting
    the rows permutes the matrix, and identical rows get bit-identical
    distances to every other row."""

    @staticmethod
    def kernels(rows):
        yield pairwise_cosine_matrix(rows).entries
        pad = np.ones((rows.shape[0], 3))
        layer = np.hstack([pad, rows, pad])[:, 3:-3]
        yield pairwise_cosine_matrix(layer, overwrite_input=True).entries

    def check(self, rows, rng):
        n = rows.shape[0]
        perm = rng.permutation(n)
        # Each row's first index among the rows bit-identical to it.
        _, first, same = np.unique(
            rows.view(np.dtype((np.void, rows.strides[0]))).reshape(n),
            return_index=True,
            return_inverse=True,
        )
        first = first[same.reshape(n)]
        pairs = [(int(first[j]), j) for j in range(n) if first[j] != j]
        assert pairs
        for matrix, permuted in zip(self.kernels(rows), self.kernels(rows[perm])):
            assert np.array_equal(permuted, matrix[np.ix_(perm, perm)])
            for i, j in pairs:
                others = np.ones(n, dtype=bool)
                others[[i, j]] = False
                assert np.array_equal(matrix[i, others], matrix[j, others])

    def test_seeded_row_sets(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n, width = int(rng.integers(2, 71)), int(rng.integers(1, 901))
            self.check(colluding_rows(rng, n, width), rng)

    def test_mnist_width_layer(self):
        # The 784 x 64 weight layer of a 20-client MNIST-width model.
        rng = np.random.default_rng(784)
        self.check(colluding_rows(rng, 20, 784 * 64), rng)


class TestAgglomerativeTwoClusters:
    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_matches_replay_oracle_on_random_matrices(self, linkage):
        rng = np.random.default_rng(17)
        for _ in range(120):
            n = int(rng.integers(2, 9))
            m = random_matrix(rng, n)
            got = clusters_of(agglomerative_two_clusters(m, linkage=linkage))
            want = replay_two_clusters(m.entries, linkage=linkage)
            assert got == (sorted(want[0]), sorted(want[1]))

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_matches_oracle_on_tie_heavy_dyadic_matrices(self, linkage):
        rng = np.random.default_rng(23)
        for _ in range(150):
            n = int(rng.integers(3, 9))
            m = dyadic_matrix(rng, n)
            got = clusters_of(agglomerative_two_clusters(m, linkage=linkage))
            want = replay_two_clusters(m.entries, linkage=linkage)
            assert got == (sorted(want[0]), sorted(want[1]))

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    @pytest.mark.parametrize("make", [random_matrix, dyadic_matrix])
    def test_matches_oracle_over_many_merges(self, linkage, make):
        rng = np.random.default_rng(41)
        for n in (20, 27, 33, 40):
            m = make(rng, n)
            got = clusters_of(agglomerative_two_clusters(m, linkage=linkage))
            want = replay_two_clusters(m.entries, linkage=linkage)
            assert got == (sorted(want[0]), sorted(want[1]))

    def test_all_equal_distances_peel_off_last_index(self):
        n = 6
        entries = np.full((n, n), 0.5)
        np.fill_diagonal(entries, 0.0)
        assignment = agglomerative_two_clusters(DistanceMatrix(entries))
        c1, c2 = clusters_of(assignment)
        assert c1 == list(range(n - 1))
        assert c2 == [n - 1]

    def test_two_points_form_singletons(self):
        m = DistanceMatrix(np.array([[0.0, 1.3], [1.3, 0.0]]))
        c1, c2 = clusters_of(agglomerative_two_clusters(m))
        assert (c1, c2) == ([0], [1])

    def test_cluster_one_contains_index_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            assignment = agglomerative_two_clusters(random_matrix(rng, n))
            assert 0 in assignment.members(1)

    def test_linkages_can_disagree(self):
        # chain geometry: single linkage strings the chain together while
        # complete linkage cuts it in half
        points = np.array([0.0, 0.30, 0.62, 0.96, 1.32, 1.70])
        entries = np.abs(points[:, None] - points[None, :])
        m = DistanceMatrix(entries)
        single = clusters_of(agglomerative_two_clusters(m, linkage="single"))
        complete = clusters_of(agglomerative_two_clusters(m, linkage="complete"))
        assert single != complete

    def test_rejects_unknown_linkage(self):
        m = DistanceMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            agglomerative_two_clusters(m, linkage="ward")

    def test_rejects_a_single_client(self):
        with pytest.raises(ValueError, match="^clustering requires at least 2 clients$"):
            agglomerative_two_clusters(DistanceMatrix(np.zeros((1, 1))))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance_on_distinct_values(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        m = random_matrix(rng, n)
        perm = rng.permutation(n)
        permuted = DistanceMatrix(m.entries[np.ix_(perm, perm)])
        base_1, base_2 = clusters_of(agglomerative_two_clusters(m))
        got_1, got_2 = clusters_of(agglomerative_two_clusters(permuted))
        mapped = [sorted(perm[list(c)].tolist()) for c in (got_1, got_2)]
        assert sorted(map(tuple, mapped)) == sorted(
            map(tuple, ({tuple(base_1), tuple(base_2)}))
        )


class TestFullRecomputeReference:
    def test_bit_identical_labels(self):
        # Every family at every n up to 60, then one family per n, in turn,
        # at every ninth n up to 250.
        rng = np.random.default_rng(43)
        for n in [*range(2, 61), *range(61, 251, 9)]:
            for family in range(5) if n < 61 else (n % 5,):
                matrix = reference_matrix(rng, n, family)
                for linkage in LINKAGES:
                    got = agglomerative_two_clusters(matrix, linkage).cluster_of
                    want = full_recompute_two_clusters(matrix, linkage)
                    assert np.array_equal(got, want), (n, family, linkage)


class TestClusterScores:
    """``label_clusters`` scores each cluster as its size times the mean
    pairwise distance between its members."""

    def test_singleton_scores_zero(self):
        m = random_matrix(np.random.default_rng(0), 4)
        verdict = label_clusters(m, ClusterAssignment(np.array([1, 1, 2, 1])))
        assert verdict.score_2 == 0.0
        assert verdict.poisoned == (2,)

    def test_pair_and_triple_score_size_times_mean(self):
        entries = np.zeros((5, 5))
        pairs = {(0, 1): 0.2, (0, 2): 0.4, (1, 2): 0.6, (3, 4): 1.1}
        for (i, j), d in pairs.items():
            entries[i, j] = entries[j, i] = d
        for i in range(3):
            for j in (3, 4):
                entries[i, j] = entries[j, i] = 1.9
        m = DistanceMatrix(entries)
        verdict = label_clusters(m, ClusterAssignment(np.array([1, 1, 1, 2, 2])))
        assert verdict.score_1 == pytest.approx(3 * 0.4)
        assert verdict.score_2 == pytest.approx(2 * 1.1)
        assert verdict.benign == (3, 4) and verdict.poisoned == (0, 1, 2)

    def test_scores_keep_the_former_bits(self):
        # The former rule: size times a float density of sum / (k * (k - 1)).
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            m = random_matrix(rng, n)
            labels = rng.integers(1, 3, size=n)
            labels[rng.choice(n, size=2, replace=False)] = (1, 2)
            verdict = label_clusters(m, ClusterAssignment(labels))
            for label, score in ((1, verdict.score_1), (2, verdict.score_2)):
                members = np.flatnonzero(labels == label)
                k = members.size
                sub = m.entries[np.ix_(members, members)]
                former = k * float(sub.sum() / (k * (k - 1))) if k > 1 else 0.0
                assert type(score) is float and score == former
                assert score == pytest.approx(
                    k * mean_pairwise(m.entries, members.tolist()), abs=1e-12
                )


class TestLabelClusters:
    def test_smaller_score_is_poisoned(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            m = random_matrix(rng, n)
            assignment = agglomerative_two_clusters(m)
            verdict = label_clusters(m, assignment)
            want_b, want_p, s1, s2 = replay_verdict(m.entries)
            assert sorted(verdict.benign) == want_b
            assert sorted(verdict.poisoned) == want_p
            assert verdict.score_1 == pytest.approx(s1, abs=1e-9)
            assert verdict.score_2 == pytest.approx(s2, abs=1e-9)

    def test_tie_poisons_cluster_two(self):
        # two mirrored pairs: equal sizes and equal densities force a tie
        entries = np.zeros((4, 4))
        pairs = {
            (0, 1): 0.25,
            (2, 3): 0.25,
            (0, 2): 1.5,
            (0, 3): 1.5,
            (1, 2): 1.5,
            (1, 3): 1.5,
        }
        for (i, j), d in pairs.items():
            entries[i, j] = entries[j, i] = d
        m = DistanceMatrix(entries)
        assignment = agglomerative_two_clusters(m)
        verdict = label_clusters(m, assignment)
        assert verdict.score_1 == verdict.score_2
        assert sorted(verdict.poisoned) == sorted(assignment.members(2).tolist())
        assert 0 in verdict.benign

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([1, 2, 2], "assignment covers 3 clients, matrix has 4"),
            ([1, 2, 2, 1, 2], "assignment covers 5 clients, matrix has 4"),
            ([[1, 2], [2, 1]], "assignment must be 1-D, got shape (2, 2)"),
            ([1, 2, 3, 1], "cluster labels must be 1 or 2"),
            ([1, 0, 2, 2], "cluster labels must be 1 or 2"),
            ([1, 1.5, 2, 2], "cluster labels must be 1 or 2"),
            ([2, 2, 2, 2], "both clusters must be nonempty"),
            ([1, 1, 1, 1], "both clusters must be nonempty"),
        ],
        ids=[
            "too-few", "too-many", "not-1-d", "label-3", "label-0", "label-1.5", "no-cluster-1",
            "no-cluster-2",
        ],
    )
    def test_rejects_a_malformed_assignment(self, labels, message):
        m = random_matrix(np.random.default_rng(41), 4)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            label_clusters(m, ClusterAssignment(np.array(labels)))

    def test_verdict_holds_python_ints_and_serializes(self):
        m = random_matrix(np.random.default_rng(43), 7)
        verdict = label_clusters(m, agglomerative_two_clusters(m))
        for members in (verdict.benign, verdict.poisoned):
            assert type(members) is tuple
            assert all(type(i) is int for i in members)
        assert json.loads(json.dumps(dataclasses.asdict(verdict))) == {
            "benign": list(verdict.benign),
            "poisoned": list(verdict.poisoned),
            "score_1": verdict.score_1,
            "score_2": verdict.score_2,
        }

    def test_verdict_partitions_everyone(self):
        rng = np.random.default_rng(37)
        m = random_matrix(rng, 8)
        verdict = label_clusters(m, agglomerative_two_clusters(m))
        assert sorted(verdict.benign + verdict.poisoned) == list(range(8))
        assert verdict.benign
        assert verdict.poisoned
