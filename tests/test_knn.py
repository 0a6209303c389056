import numpy as np
import pytest

from biomm import knn
from biomm.errors import DimensionError, DomainError


def brute_classify(points, labels, k, q):
    """Full-sort oracle with the documented tie rules, written independently."""
    dists = []
    for i in range(points.shape[1]):
        acc = 0.0
        for j in range(points.shape[0]):
            acc += (points[j, i] - q[j]) ** 2
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


class TestClassify:
    def test_exact_gallery_hit(self):
        points = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        m = knn.KnnModel(points, [0, 1, 2], k=1)
        result = knn.classify(m, np.array([1.0, 1.0]))
        assert result.label == 1
        assert result.confidence == 1.0
        assert result.mean_distance == 0.0

    def test_majority_two_of_three(self):
        points = np.array([[0.0, 0.1, 5.0]])
        m = knn.KnnModel(points, [0, 0, 1], k=3)
        result = knn.classify(m, np.array([0.0]))
        assert result.label == 0
        assert result.confidence == pytest.approx(2.0 / 3.0)

    def test_oracle_agreement_random(self):
        rng = np.random.RandomState(2)
        for trial in range(5):
            points = rng.standard_normal((3, 60))
            labels = rng.randint(0, 5, size=60)
            for k in (1, 2, 5, 10):
                m = knn.KnnModel(points, labels, k=k)
                for _ in range(20):
                    q = rng.standard_normal(3)
                    assert knn.classify(m, q).label == brute_classify(
                        points, labels, k, q
                    )

    def test_scale_invariance(self):
        rng = np.random.RandomState(3)
        points = rng.standard_normal((4, 30))
        labels = rng.randint(0, 3, size=30)
        m = knn.KnnModel(points, labels, k=5)
        for _ in range(10):
            q = rng.standard_normal(4)
            base = knn.classify(m, q).label
            for c in (0.1, 7.0, 1234.5):
                scaled = knn.KnnModel(points * c, labels, k=5)
                assert knn.classify(scaled, q * c).label == base

    def test_gallery_permutation_invariance(self):
        rng = np.random.RandomState(4)
        points = rng.standard_normal((2, 40))
        labels = rng.randint(0, 4, size=40)
        m = knn.KnnModel(points, labels, k=7)
        for _ in range(10):
            q = rng.standard_normal(2)
            expected = knn.classify(m, q)
            perm = rng.permutation(40)
            shuffled = knn.KnnModel(points[:, perm], labels[perm], k=7)
            got = knn.classify(shuffled, q)
            assert got.label == expected.label
            assert got.confidence == expected.confidence
            assert abs(got.mean_distance - expected.mean_distance) < 1e-12

    def test_even_k_tie_breaks_by_mean_distance(self):
        # k=2 forced tie: one vote each; class 1 is nearer on average
        points = np.array([[0.0, 1.0, 10.0]])
        m = knn.KnnModel(points, [1, 0, 0], k=2)
        result = knn.classify(m, np.array([0.25]))
        assert result.label == 1
        assert result.confidence == 0.5

    def test_full_tie_falls_back_to_smaller_id(self):
        # equidistant neighbors, one vote each, equal mean distance
        points = np.array([[-1.0, 1.0]])
        m = knn.KnnModel(points, [1, 0], k=2)
        assert knn.classify(m, np.array([0.0])).label == 0

    def test_k_bounds(self):
        with pytest.raises(DomainError):
            knn.KnnModel(np.ones((2, 3)), [0, 1, 2], k=4)
        with pytest.raises(DomainError):
            knn.KnnModel(np.ones((2, 3)), [0, 1, 2], k=0)

    def test_query_dimension_checked(self):
        m = knn.KnnModel(np.ones((2, 3)), [0, 1, 2], k=1)
        with pytest.raises(DimensionError):
            knn.classify(m, np.ones(3))
