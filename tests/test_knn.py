import numpy as np
import pytest

from biomm import knn
from biomm.errors import DimensionError, DomainError
from conftest import reference_loo_distances


def brute_classify(points, labels, k, q):
    """Full-sort oracle with the documented tie rules, written independently."""
    dists = []
    for i in range(points.shape[0]):
        acc = 0.0
        for j in range(points.shape[1]):
            acc += (points[i, j] - q[j]) ** 2
        dists.append(acc ** 0.5)
    ranked = sorted(range(len(dists)), key=lambda i: (dists[i], labels[i]))[:k]
    counts = {}
    for i in ranked:
        counts[labels[i]] = counts.get(labels[i], 0) + 1
    top = max(counts.values())
    tied = [c for c, v in counts.items() if v == top]
    if len(tied) > 1:
        means = {
            c: np.mean([dists[i] for i in ranked if labels[i] == c]) for c in tied
        }
        best = min(means.values())
        tied = sorted(c for c in tied if means[c] == best)
    return int(tied[0])


def nearest(rows, labels, k, q):
    """The vote among the k rows nearest q, by the rule every caller applies."""
    return knn.vote(np.asarray(labels), knn.distances(np.asarray(rows, dtype=np.float64), q), k)


class TestClassify:
    """The k-rule on its own through `vote` and `distances`, at any k, and
    `classify`, which applies it to a gallery at min(K, points)."""

    def test_exact_gallery_hit(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        result = nearest(points, [0, 1, 2], 1, np.array([1.0, 1.0]))
        assert result.label == 1
        assert result.mean_distance == 0.0

    def test_majority_two_of_three(self):
        points = np.array([[0.0], [0.1], [5.0]])
        result = nearest(points, [0, 0, 1], 3, np.array([0.0]))
        assert result.label == 0
        assert result.mean_distance == pytest.approx(0.05)

    def test_oracle_agreement_random(self):
        rng = np.random.RandomState(2)
        for trial in range(5):
            points = rng.standard_normal((60, 3))
            labels = rng.randint(0, 5, size=60)
            m = knn.KnnModel(points, labels)
            for k in (1, 2, 5, 10):
                for _ in range(20):
                    q = rng.standard_normal(3)
                    assert nearest(points, labels, k, q).label == brute_classify(
                        points, labels, k, q
                    )
            for _ in range(20):
                q = rng.standard_normal(3)
                assert knn.classify(m, q).label == brute_classify(points, labels, knn.K, q)

    def test_scale_invariance(self):
        rng = np.random.RandomState(3)
        points = rng.standard_normal((30, 4))
        labels = rng.randint(0, 3, size=30)
        for _ in range(10):
            q = rng.standard_normal(4)
            base = nearest(points, labels, 5, q).label
            for c in (0.1, 7.0, 1234.5):
                assert nearest(points * c, labels, 5, q * c).label == base

    def test_gallery_permutation_invariance(self):
        rng = np.random.RandomState(4)
        points = rng.standard_normal((40, 2))
        labels = rng.randint(0, 4, size=40)
        for _ in range(10):
            q = rng.standard_normal(2)
            expected = nearest(points, labels, 7, q)
            perm = rng.permutation(40)
            got = nearest(points[perm], labels[perm], 7, q)
            assert got.label == expected.label
            assert abs(got.mean_distance - expected.mean_distance) < 1e-12

    def test_even_k_tie_breaks_by_mean_distance(self):
        # k=2 forced tie: one vote each; class 1 is nearer on average
        points = np.array([[0.0], [1.0], [10.0]])
        result = nearest(points, [1, 0, 0], 2, np.array([0.25]))
        assert result.label == 1
        assert result.mean_distance == 0.25
        assert knn.classify(knn.KnnModel(points, [1, 0, 0]), np.array([0.25])) == result

    def test_full_tie_falls_back_to_smaller_id(self):
        # equidistant neighbors, one vote each, equal mean distance
        points = np.array([[-1.0], [1.0]])
        assert nearest(points, [1, 0], 2, np.array([0.0])).label == 0
        assert knn.classify(knn.KnnModel(points, [1, 0]), np.array([0.0])).label == 0

    def test_query_dimension_checked(self):
        m = knn.KnnModel(np.ones((3, 2)), [0, 1, 2])
        with pytest.raises(DimensionError):
            knn.classify(m, np.ones(3))



class TestGalleryArrays:
    def test_read_only(self):
        m = knn.KnnModel(np.ones((3, 2)), [0, 1, 2])
        for array in (m.points, m.labels):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_own_copies(self):
        points, labels = np.zeros((3, 2)), np.array([0, 1, 1])
        m = knn.KnnModel(points, labels)
        points[:] = 5.0
        labels[:] = 0
        assert m.points.sum() == 0.0 and m.labels.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("layout", [np.asfortranarray, lambda rows: rows.T.copy().T],
                             ids=["f-ordered", "transposed"])
    def test_input_layout_does_not_change_distances(self, layout):
        # 19-dimensional rows: numpy sums 8 or more values in an order set by
        # the memory layout, so the gallery keeps one layout, C order
        rng = np.random.RandomState(6)
        rows = rng.standard_normal((40, 19))
        labels = rng.randint(0, 5, size=40)
        c_ordered = knn.KnnModel(rows, labels)
        other = knn.KnnModel(layout(rows), labels)
        assert not layout(rows).flags.c_contiguous and other.points.flags.c_contiguous
        for q in rng.standard_normal((10, 19)):
            np.testing.assert_array_equal(knn.distances(other.points, q),
                                          knn.distances(c_ordered.points, q))
            assert knn.classify(other, q) == knn.classify(c_ordered, q)
        assert knn.leave_one_out(other) == knn.leave_one_out(c_ordered)


class TestLeaveOneOut:
    def random_gallery(self, rng, dim, n, classes):
        points = rng.standard_normal((n, dim))
        # duplicated rows put equal distances in every point's ranking
        points[n // 2:] = points[: n - n // 2]
        return points, rng.randint(0, classes, size=n)

    @pytest.mark.parametrize("dim", [1, 3, 19, 150])
    def test_equals_a_gallery_built_without_each_point(self, dim):
        rng = np.random.RandomState(dim)
        # two points vote among one, fewer than K
        for n, classes in ((2, 2), (4, 2), (9, 3), (40, 5)):
            points, labels = self.random_gallery(rng, dim, n, classes)
            results = knn.leave_one_out(knn.KnnModel(points, labels))
            assert len(results) == n
            for i, got in enumerate(results):
                keep = np.arange(n) != i
                assert got == knn.classify(knn.KnnModel(points[keep], labels[keep]), points[i])

    def test_mean_distances_match_the_per_point_reference(self):
        rng = np.random.RandomState(7)
        points, labels = self.random_gallery(rng, 19, 80, 20)
        got = [r.mean_distance for r in knn.leave_one_out(knn.KnnModel(points, labels))]
        np.testing.assert_array_equal(got, reference_loo_distances(points, labels))

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            knn.leave_one_out(knn.KnnModel(np.ones((1, 2)), [0]))
