import numpy as np
import pytest
from conftest import reference_scatter

from biomm import lda, pca, pipeline, synth
from biomm.errors import ClassError, RankError, SingularityError
from biomm.ingest import LabeledDataset


def make_ds(features, labels):
    features = np.asarray(features, dtype=np.float64)
    c = max(labels) + 1
    return LabeledDataset(features, labels, tuple(f"c{i}" for i in range(c)))


def ridge(s_w):
    """The ridge fit_lda adds to S_W: DEFAULT_REG_SCALE * trace(S_W) / d."""
    return lda.DEFAULT_REG_SCALE * float(np.trace(s_w)) / s_w.shape[0]


def brute_total_scatter(features):
    m = features.mean(axis=1)
    x = features - m[:, None]
    return x @ x.T


def random_labeled(rng, dim, classes, per_class, spread=3.0):
    features = []
    labels = []
    for c in range(classes):
        mu = rng.standard_normal(dim) * spread
        for _ in range(per_class):
            features.append(mu + rng.standard_normal(dim))
            labels.append(c)
    return make_ds(np.column_stack(features), labels)


def loop_scatter(features, labels, classes):
    """S_W and S_B the long way: a loop over the classes and over each
    class's samples, summing one outer product at a time."""
    d = features.shape[0]
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    total = features.mean(axis=1)
    for c in range(classes):
        block = features[:, labels == c]
        mean = sum(block.T) / block.shape[1]
        for x in block.T:
            s_w += np.outer(x - mean, x - mean)
        s_b += block.shape[1] * np.outer(mean - total, mean - total)
    return s_w, s_b


def interleaved_with_duplicates(rng, dim, sizes):
    """Columns of classes of the given sizes in a shuffled label order, a
    third of them copies of other columns."""
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    features = 5.0 + 10.0 * rng.standard_normal((dim, labels.size))
    copies = rng.randint(0, labels.size, size=labels.size // 3)
    features[:, copies] = features[:, rng.randint(0, labels.size, size=copies.size)]
    return make_ds(features, labels.tolist())


def enrollment_datasets():
    """The face pixels, their PCA coordinates and the voice summaries that
    fit_system fits on for the 20-client gallery of seed 1."""
    gallery, _, _, _ = synth.make_enrollment_data(20, 4, 4, seed=1)
    enrollment = pipeline.Enrollment()
    for client_id, (faces, voices) in gallery.items():
        enrollment.add(client_id, faces, voices)
    pixels, summaries = zip(*enrollment._clients.values())
    face_ds = pipeline._stacked(pixels, enrollment.client_ids)
    coords = pca.project(pca.fit_pca(face_ds), face_ds.features)
    pca_ds = LabeledDataset(coords, face_ds.labels, face_ds.class_names)
    return face_ds, pca_ds, pipeline._stacked(summaries, enrollment.client_ids)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestScatter:
    def test_matches_a_grouping_by_class_masks(self):
        # random columns, shuffled classes with duplicate columns, and the
        # datasets fit_system fits on
        rng = np.random.RandomState(12)
        cases = []
        for _ in range(10):
            sizes = rng.randint(1, 13, size=rng.randint(2, 7))
            labels = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
            cases.append(make_ds(rng.standard_normal((rng.randint(1, 9), labels.size)), labels.tolist()))
            cases.append(interleaved_with_duplicates(rng, rng.randint(1, 9), sizes))
        cases.extend(enrollment_datasets())
        for ds in cases:
            pair, want = lda.scatter(ds), reference_scatter(ds)
            for name in ("s_w", "s_b", "total_mean"):
                assert_same_bits(getattr(pair, name), getattr(want, name))

    def test_interleaving_the_classes_keeps_the_bits(self):
        # any column order that keeps each class's samples in their order
        rng = np.random.RandomState(13)
        cases = list(enrollment_datasets())
        for _ in range(10):
            sizes = rng.randint(1, 13, size=rng.randint(2, 7))
            cases.append(interleaved_with_duplicates(rng, rng.randint(1, 9), sizes))
        for ds in cases:
            labels = rng.permutation(ds.labels)
            columns = np.empty_like(ds.features)
            for c in range(ds.num_classes):
                columns[:, labels == c] = ds.features[:, ds.labels == c]
            pair = lda.scatter(ds)
            moved = lda.scatter(LabeledDataset(columns, labels, ds.class_names))
            for name in ("s_w", "s_b", "total_mean"):
                assert_same_bits(getattr(moved, name), getattr(pair, name))

    def test_matches_a_per_class_loop(self):
        # classes of 8 or more samples are where a pairwise and a
        # sequential sum can differ in their last bits
        rng = np.random.RandomState(11)
        for _ in range(40):
            sizes = rng.randint(1, 13, size=rng.randint(2, 7))
            ds = interleaved_with_duplicates(rng, rng.randint(1, 9), sizes)
            pair = lda.scatter(ds)
            want = loop_scatter(ds.features, ds.labels, ds.num_classes)
            for got, expected in zip((pair.s_w, pair.s_b), want):
                np.testing.assert_allclose(
                    got, expected, rtol=0, atol=1e-12 * np.abs(expected).max()
                )
            np.testing.assert_allclose(
                pair.total_mean, ds.features.mean(axis=1), rtol=1e-12
            )

    def test_single_point_classes_have_zero_within(self):
        ds = make_ds(np.array([[0.0, 5.0], [0.0, 1.0]]), [0, 1])
        pair = lda.scatter(ds)
        np.testing.assert_array_equal(pair.s_w, np.zeros((2, 2)))

    def test_equal_class_means_zero_between(self):
        # both classes centered at the origin
        features = np.array([[1.0, -1.0, 2.0, -2.0], [0.0, 0.0, 0.0, 0.0]])
        ds = make_ds(features, [0, 0, 1, 1])
        pair = lda.scatter(ds)
        np.testing.assert_allclose(pair.s_b, np.zeros((2, 2)), atol=1e-12)

    def test_hand_worked_two_class(self):
        features = np.array([[0.0, 2.0, 5.0, 7.0], [0.0, 0.0, 1.0, 1.0]])
        ds = make_ds(features, [0, 0, 1, 1])
        pair = lda.scatter(ds)
        np.testing.assert_allclose(pair.total_mean, [3.5, 0.5])
        np.testing.assert_allclose(pair.s_w, [[4.0, 0.0], [0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(pair.s_b, [[25.0, 5.0], [5.0, 1.0]], atol=1e-12)

    def test_additivity(self):
        rng = np.random.RandomState(0)
        for _ in range(20):
            ds = random_labeled(
                rng,
                dim=rng.randint(2, 7),
                classes=rng.randint(2, 5),
                per_class=rng.randint(2, 6),
            )
            pair = lda.scatter(ds)
            total = brute_total_scatter(ds.features)
            np.testing.assert_allclose(
                pair.s_w + pair.s_b, total, atol=1e-8 * max(1.0, np.abs(total).max())
            )

    def test_psd(self):
        rng = np.random.RandomState(1)
        ds = random_labeled(rng, dim=4, classes=3, per_class=5)
        pair = lda.scatter(ds)
        from biomm import linalg

        for s in (pair.s_w, pair.s_b):
            values = linalg.sym_eig(s).values
            assert values.min() >= -1e-8 * max(1.0, values.max())

    def test_between_rank_bound(self):
        rng = np.random.RandomState(2)
        ds = random_labeled(rng, dim=6, classes=3, per_class=4)
        pair = lda.scatter(ds)
        from biomm import linalg

        values = linalg.sym_eig(pair.s_b).values
        significant = np.count_nonzero(values > 1e-8 * values.max())
        assert significant <= ds.num_classes - 1

    def test_more_than_2000_dimensions(self):
        rng = np.random.RandomState(14)
        ds = make_ds(rng.standard_normal((2001, 6)), [0, 0, 1, 1, 2, 2])
        assert lda.scatter(ds).s_w.shape == (2001, 2001)

    def test_single_class_rejected(self):
        ds = LabeledDataset(np.ones((2, 3)), [0, 0, 0], ("only",))
        with pytest.raises(ClassError):
            lda.scatter(ds)
        with pytest.raises(ClassError):
            lda.fit_lda(ds)


class TestFitLda:
    def test_two_class_matches_closed_form(self):
        rng = np.random.RandomState(3)
        for _ in range(20):
            ds = random_labeled(rng, dim=rng.randint(2, 6), classes=2, per_class=6)
            pair = lda.scatter(ds)
            reg = ridge(pair.s_w)
            s = lda.fit_lda(ds)
            assert s.retained == 1
            means = [ds.features[:, ds.labels == c].mean(axis=1) for c in (0, 1)]
            m_diff = means[0] - means[1]
            closed = np.linalg.solve(
                pair.s_w + reg * np.eye(ds.dim), m_diff
            )
            closed /= np.linalg.norm(closed)
            cos = abs(closed @ s.basis[:, 0])
            assert cos >= 1 - 1e-8

    def test_identical_class_means_rank_error(self):
        features = np.array([[1.0, -1.0, 2.0, -2.0], [1.0, -1.0, -1.0, 1.0]])
        ds = make_ds(features, [0, 0, 1, 1])
        with pytest.raises(RankError):
            lda.fit_lda(ds)

    def test_well_separated_clusters(self):
        rng = np.random.RandomState(4)
        features = []
        labels = []
        for c in range(5):
            mu = rng.standard_normal(8) * 60.0
            for _ in range(10):
                features.append(mu + rng.standard_normal(8) * 0.5)
                labels.append(c)
        ds = make_ds(np.column_stack(features), labels)
        s = lda.fit_lda(ds)
        assert s.retained == 4
        coords = pca.project(s, ds.features)
        means = np.column_stack(
            [coords[:, ds.labels == c].mean(axis=1) for c in range(5)]
        )
        within_std = np.concatenate(
            [coords[:, ds.labels == c].std(axis=1) for c in range(5)]
        ).max()
        for i in range(5):
            for j in range(i + 1, 5):
                gap = np.linalg.norm(means[:, i] - means[:, j])
                assert gap >= 10 * within_std

    def test_default_width_is_the_informative_rank(self):
        # five class means in the plane span at most two discriminants
        rng = np.random.RandomState(11)
        ds = random_labeled(rng, dim=2, classes=5, per_class=4)
        s = lda.fit_lda(ds)
        assert s.retained == 2

    def test_singular_sw_without_reg(self):
        # two samples per class at identical points: s_w = 0, so the
        # default ridge 1e-6 * trace(s_w) / d is 0 as well
        features = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        ds = make_ds(features, [0, 0, 1, 1])
        assert ridge(lda.scatter(ds).s_w) == 0.0
        with pytest.raises(SingularityError):
            lda.fit_lda(ds)

    def test_fisher_optimality_random_probes(self):
        rng = np.random.RandomState(6)
        ds = random_labeled(rng, dim=4, classes=2, per_class=8)
        pair = lda.scatter(ds)
        reg = ridge(pair.s_w)
        s = lda.fit_lda(ds)
        v = s.basis[:, 0]
        m = pair.s_w + reg * np.eye(ds.dim)

        def rayleigh(w):
            return (w @ pair.s_b @ w) / (w @ m @ w)

        best = rayleigh(v)
        probes = rng.standard_normal((1000, ds.dim))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        for w in probes:
            assert rayleigh(w) <= best + 1e-9

    def test_eigenvalue_ceiling(self):
        rng = np.random.RandomState(8)
        ds = random_labeled(rng, dim=6, classes=4, per_class=6)
        pair = lda.scatter(ds)
        from biomm import linalg

        pairs = linalg.gen_eig(pair.s_b, pair.s_w, ridge(pair.s_w))
        above = np.count_nonzero(pairs.values > 1e-8 * pairs.values.max())
        assert above <= ds.num_classes - 1


class TestLdaProject:
    def test_total_mean_maps_to_zero(self):
        rng = np.random.RandomState(9)
        ds = random_labeled(rng, dim=4, classes=3, per_class=4)
        s = lda.fit_lda(ds)
        np.testing.assert_allclose(
            pca.project(s, s.mean), np.zeros(s.retained), atol=1e-12
        )

    def test_one_dimensional_separation(self):
        features = np.array([[0.0, 2.0, 5.0, 7.0], [0.0, 0.0, 1.0, 1.0]])
        ds = make_ds(features, [0, 0, 1, 1])
        s = lda.fit_lda(ds)
        scores = pca.project(s, ds.features)[0]
        assert max(scores[:2]) < min(scores[2:]) or min(scores[:2]) > max(scores[2:])

    def test_train_coordinates_reproducible(self):
        rng = np.random.RandomState(10)
        ds = random_labeled(rng, dim=5, classes=3, per_class=4)
        s = lda.fit_lda(ds)
        coords = pca.project(s, ds.features)
        for i in range(ds.num_samples):
            np.testing.assert_allclose(
                pca.project(s, ds.features[:, i]), coords[:, i], atol=1e-12
            )
