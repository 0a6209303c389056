import numpy as np
import pytest

from biomm import linalg
from biomm.errors import (
    DimensionError,
    DomainError,
    FactorizationError,
    SingularityError,
)


def charpoly_eigenvalues(a):
    """Brute-force oracle: eigenvalues as roots of the characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier recursion, roots from
    np.roots. Only trustworthy for n <= 4.
    """
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    roots = np.roots(coeffs)
    assert np.abs(roots.imag).max() < 1e-6
    return np.sort(roots.real)[::-1]


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


class TestPlumbing:
    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            linalg.as_vector([1.0, np.nan])

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(FactorizationError):
            linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_cholesky_reconstructs(self):
        rng = np.random.RandomState(1)
        g = rng.standard_normal((5, 5))
        a = g @ g.T + 5 * np.eye(5)
        l = linalg.cholesky(a)
        np.testing.assert_allclose(l @ l.T, a, atol=1e-10)


class TestSymEig:
    def test_identity(self):
        pairs = linalg.sym_eig(np.eye(3))
        np.testing.assert_allclose(pairs.values, [1.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(
            pairs.vectors.T @ pairs.vectors, np.eye(3), atol=1e-12
        )

    def test_diagonal(self):
        pairs = linalg.sym_eig(np.diag([5.0, 2.0, -1.0]))
        np.testing.assert_allclose(pairs.values, [5.0, 2.0, -1.0], atol=1e-12)
        # permuted standard basis up to sign; sign fix makes entries +1
        np.testing.assert_allclose(np.abs(pairs.vectors), np.eye(3), atol=1e-12)

    def test_hand_solved_2x2(self):
        # char poly of [[2,1],[1,2]]: (2-l)^2 - 1 = 0 -> l = 3, 1
        pairs = linalg.sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(pairs.values, [3.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(pairs.vectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(pairs.vectors[:, 1], [s, -s], atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg.sym_eig(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            linalg.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_zero_matrix(self):
        pairs = linalg.sym_eig(np.zeros((4, 4)))
        np.testing.assert_array_equal(pairs.values, np.zeros(4))

    def test_charpoly_oracle_small(self):
        rng = np.random.RandomState(7)
        for _ in range(50):
            n = rng.randint(2, 5)
            a = random_symmetric(rng, n, scale=rng.uniform(0.1, 10.0))
            pairs = linalg.sym_eig(a)
            expected = charpoly_eigenvalues(a)
            scale = max(1.0, np.abs(expected).max())
            np.testing.assert_allclose(pairs.values, expected, atol=1e-6 * scale)

    def test_certificate_random(self):
        # residual, orthonormality, trace, reconstruction on larger matrices
        rng = np.random.RandomState(11)
        for _ in range(50):
            n = rng.randint(2, 13)
            a = random_symmetric(rng, n)
            pairs = linalg.sym_eig(a)
            amax = max(1.0, np.abs(a).max())
            residual = a @ pairs.vectors - pairs.vectors * pairs.values
            assert np.abs(residual).max() <= 1e-8 * amax
            gram = pairs.vectors.T @ pairs.vectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-8
            trace = np.trace(a)
            assert abs(pairs.values.sum() - trace) <= 1e-8 * max(1.0, abs(trace))
            recon = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
            assert np.abs(recon - a).max() <= 1e-7 * amax

    def test_descending_order(self):
        rng = np.random.RandomState(3)
        a = random_symmetric(rng, 8)
        values = linalg.sym_eig(a).values
        assert np.all(np.diff(values) <= 1e-12)

    def test_deterministic(self):
        rng = np.random.RandomState(5)
        a = random_symmetric(rng, 6)
        p1 = linalg.sym_eig(a)
        p2 = linalg.sym_eig(a)
        np.testing.assert_array_equal(p1.values, p2.values)
        np.testing.assert_array_equal(p1.vectors, p2.vectors)


class TestGenEig:
    def test_zero_between_scatter(self):
        pairs = linalg.gen_eig(np.zeros((3, 3)), np.eye(3), 0.0)
        np.testing.assert_allclose(pairs.values, np.zeros(3), atol=1e-12)

    def test_identity_whitening_matches_sym_eig(self):
        rng = np.random.RandomState(2)
        s_b = random_symmetric(rng, 5)
        direct = linalg.sym_eig(s_b)
        gen = linalg.gen_eig(s_b, np.eye(5), 0.0)
        np.testing.assert_allclose(gen.values, direct.values, atol=1e-9)
        np.testing.assert_allclose(gen.vectors, direct.vectors, atol=1e-8)

    def test_hand_solved(self):
        # (s_w)^-1 s_b = diag(2, 0): leading pair (2, e1)
        s_b = np.array([[4.0, 0.0], [0.0, 0.0]])
        s_w = np.array([[2.0, 0.0], [0.0, 1.0]])
        pairs = linalg.gen_eig(s_b, s_w, 0.0)
        np.testing.assert_allclose(pairs.values[0], 2.0, atol=1e-12)
        np.testing.assert_allclose(pairs.vectors[:, 0], [1.0, 0.0], atol=1e-12)

    def test_consistency_residual(self):
        rng = np.random.RandomState(13)
        for _ in range(20):
            n = rng.randint(2, 9)
            s_b = random_symmetric(rng, n)
            g = rng.standard_normal((n, n))
            s_w = g @ g.T + 0.5 * np.eye(n)
            reg = 1e-3
            pairs = linalg.gen_eig(s_b, s_w, reg)
            m = np.linalg.solve(s_w + reg * np.eye(n), s_b)
            residual = m @ pairs.vectors - pairs.vectors * pairs.values
            assert np.abs(residual).max() <= 1e-7 * max(1.0, np.abs(m).max())

    def test_singular_without_reg(self):
        with pytest.raises(SingularityError):
            linalg.gen_eig(np.eye(2), np.zeros((2, 2)), 0.0)

    def test_near_singular_condition_estimate(self):
        s_w = np.diag([1.0, 1e-14])
        with pytest.raises(SingularityError):
            linalg.gen_eig(np.eye(2), s_w, 0.0)

    def test_unit_norm_vectors(self):
        rng = np.random.RandomState(17)
        s_b = random_symmetric(rng, 4)
        g = rng.standard_normal((4, 4))
        s_w = g @ g.T + np.eye(4)
        pairs = linalg.gen_eig(s_b, s_w, 1e-6)
        np.testing.assert_allclose(
            np.sqrt((pairs.vectors**2).sum(axis=0)), np.ones(4), atol=1e-9
        )
