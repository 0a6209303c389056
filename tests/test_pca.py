import numpy as np
import pytest

from biomm import linalg, pca
from biomm.errors import DimensionError, RankError
from biomm.ingest import LabeledDataset


def make_ds(features, labels=None, classes=None):
    features = np.asarray(features, dtype=np.float64)
    p = features.shape[1]
    if labels is None:
        half = p // 2
        labels = [0] * half + [1] * (p - half)
    c = max(labels) + 1
    names = classes or tuple(f"c{i}" for i in range(c))
    return LabeledDataset(features, labels, names)


class TestMeanCenter:
    def test_mean_of_two(self):
        ds = make_ds(np.array([[0.0, 2.0], [0.0, 4.0]]))
        np.testing.assert_array_equal(pca.mean_vector(ds), [1.0, 2.0])

    def test_single_column_is_identity(self):
        ds = LabeledDataset(np.array([[3.0], [7.0]]), [0], ("a",))
        np.testing.assert_array_equal(pca.mean_vector(ds), [3.0, 7.0])

    def test_equal_columns(self):
        ds = make_ds(np.tile([[1.5], [2.5]], (1, 6)))
        np.testing.assert_array_equal(pca.mean_vector(ds), [1.5, 2.5])

    def test_center_by_own_mean_sums_to_zero(self):
        rng = np.random.RandomState(0)
        ds = make_ds(rng.standard_normal((4, 10)))
        centered = pca.center(ds, pca.mean_vector(ds))
        np.testing.assert_allclose(centered.sum(axis=1), np.zeros(4), atol=1e-10)

    def test_center_by_zero_is_identity(self):
        ds = make_ds(np.array([[1.0, 3.0], [1.0, 3.0]]))
        np.testing.assert_array_equal(pca.center(ds, np.zeros(2)), ds.features)

    def test_center_explicit(self):
        ds = make_ds(np.array([[1.0, 3.0], [1.0, 3.0]]))
        out = pca.center(ds, np.array([2.0, 2.0]))
        np.testing.assert_array_equal(out, [[-1.0, 1.0], [-1.0, 1.0]])

    def test_center_dimension_mismatch(self):
        ds = make_ds(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            pca.center(ds, np.zeros(2))


class TestFitPca:
    def test_two_points_single_component(self):
        x1 = np.array([1.0, 0.0, 0.0])
        x2 = np.array([0.0, 1.0, 1.0])
        ds = make_ds(np.column_stack([x1, x2]))
        s = pca.fit_pca(ds)
        expected = (x1 - x2) / np.linalg.norm(x1 - x2)
        cos = abs(s.basis[:, 0] @ expected)
        assert cos >= 1 - 1e-10

    def test_axis_aligned_data(self):
        # three samples of two classes: p - C = 1 component, the one axis of spread
        rng = np.random.RandomState(1)
        spread = np.zeros((3, 3))
        spread[1] = rng.standard_normal(3) * 5
        ds = make_ds(spread)
        s = pca.fit_pca(ds)
        assert s.retained == 1
        np.testing.assert_allclose(np.abs(s.basis[:, 0]), [0.0, 1.0, 0.0], atol=1e-9)

    def test_gram_trick_matches_direct(self):
        rng = np.random.RandomState(2)
        features = rng.standard_normal((6, 10))  # p > d: direct path
        ds = make_ds(features)
        m = pca.mean_vector(ds)
        x = pca.center(ds, m)
        direct = linalg.sym_eig(x @ x.T).values
        gram = linalg.sym_eig(x.T @ x).values
        k = min(direct.size, gram.size)
        nonzero = direct[:k] > 1e-10 * direct[0]
        np.testing.assert_allclose(
            direct[:k][nonzero], gram[:k][nonzero], rtol=1e-8
        )

    def test_projection_reproduces_fit_coordinates(self):
        rng = np.random.RandomState(3)
        features = rng.standard_normal((20, 8))  # p < d: gram path
        ds = make_ds(features)
        s = pca.fit_pca(ds)
        # coordinates computed two ways must agree
        coords = pca.project(s, ds.features)
        for i in range(ds.num_samples):
            np.testing.assert_allclose(
                pca.project(s, ds.features[:, i]), coords[:, i], atol=1e-12
            )

    def test_orthonormal_basis(self):
        rng = np.random.RandomState(4)
        ds = make_ds(rng.standard_normal((30, 9)))
        s = pca.fit_pca(ds)
        assert s.retained == 9 - 2
        np.testing.assert_allclose(
            s.basis.T @ s.basis, np.eye(7), atol=1e-8
        )

    def test_energy_ordering(self):
        rng = np.random.RandomState(5)
        ds = make_ds(rng.standard_normal((12, 10)))
        s = pca.fit_pca(ds)
        coords = pca.project(s, ds.features)
        variances = coords.var(axis=1)
        assert np.all(np.diff(variances) <= 1e-10)

    def test_projection_is_contraction(self):
        rng = np.random.RandomState(6)
        ds = make_ds(rng.standard_normal((10, 8)))
        s = pca.fit_pca(ds)
        for i in range(ds.num_samples):
            centered = ds.features[:, i] - s.mean
            assert np.linalg.norm(s.basis @ (s.basis.T @ centered)) <= (
                np.linalg.norm(centered) + 1e-12
            )

    def test_rank_error_on_identical_samples(self):
        ds = make_ds(np.ones((4, 6)))
        with pytest.raises(RankError):
            pca.fit_pca(ds)

    def test_rank_error_reports_usable_rank(self):
        # rank-2 data in 5-D: columns cycle through 3 distinct points
        points = np.zeros((5, 3))
        points[0, 0] = 1.0
        points[1, 1] = 1.0
        points[2, 2] = 1.0
        ds = make_ds(points[:, [0, 1, 2, 0, 1, 2]])  # p - C = 4 components wanted
        # the width falls to the usable rank, and those components span the
        # data: every centered column is reproduced from its coordinates
        s = pca.fit_pca(ds)
        assert s.retained == 2
        np.testing.assert_allclose(s.basis.T @ s.basis, np.eye(2), atol=1e-12)
        centered = pca.center(ds, s.mean)
        np.testing.assert_allclose(s.basis @ pca.project(s, ds.features), centered, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.RandomState(8)
        ds = make_ds(rng.standard_normal((15, 9)))
        s1 = pca.fit_pca(ds)
        s2 = pca.fit_pca(ds)
        np.testing.assert_array_equal(s1.basis, s2.basis)
        np.testing.assert_array_equal(s1.mean, s2.mean)


class TestProject:
    def test_mean_projects_to_zero(self):
        rng = np.random.RandomState(9)
        ds = make_ds(rng.standard_normal((6, 8)))
        s = pca.fit_pca(ds)
        np.testing.assert_allclose(pca.project(s, s.mean), np.zeros(s.retained), atol=1e-12)

    def test_identity_basis_truncates(self):
        basis = np.eye(4)[:, :2]
        s = pca.Subspace(np.zeros(4), basis)
        np.testing.assert_array_equal(
            pca.project(s, np.array([1.0, 2.0, 3.0, 4.0])), [1.0, 2.0]
        )

    def test_dimension_mismatch(self):
        s = pca.Subspace(np.zeros(3), np.eye(3))
        with pytest.raises(DimensionError):
            pca.project(s, np.zeros(4))
