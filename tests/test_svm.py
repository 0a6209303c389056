from dataclasses import replace

import numpy as np
import pytest

from biomm import svm
from biomm.errors import ClassError, ConvergenceError, DimensionError, DomainError
from biomm.ingest import LabeledDataset
from conftest import (
    dual_objective,
    kernel_eval,
    kkt_worst_violation,
    pack,
    reference_smo,
    reference_train_multiclass,
)

LINEAR = svm.KernelSpec("linear")
RBF2 = svm.KernelSpec("rbf", 2.0)


def make_ds(features, labels):
    c = max(labels) + 1
    return LabeledDataset(
        np.asarray(features, dtype=np.float64),
        labels,
        tuple(f"c{i}" for i in range(c)),
    )


def gaussian_clusters(rng, classes=5, per_class=10, dim=3, gap=40.0, spread=1.0):
    """per_class is one sample count for every class, or one count per class."""
    features, labels = [], []
    for c, count in enumerate(np.broadcast_to(per_class, (classes,))):
        mu = rng.standard_normal(dim) * gap
        for _ in range(count):
            features.append(mu + rng.standard_normal(dim) * spread)
            labels.append(c)
    return make_ds(np.column_stack(features), labels)


class TestKernels:
    def test_rbf_self_similarity(self):
        rng = np.random.RandomState(0)
        for _ in range(5):
            x = rng.standard_normal(4)
            gamma = rng.uniform(0.1, 10.0)
            assert kernel_eval(svm.KernelSpec("rbf", gamma), x, x) == 1.0

    def test_linear_dot(self):
        assert kernel_eval(LINEAR, [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_rbf_gamma2_unit_gap(self):
        got = kernel_eval(RBF2, np.array([0.0]), np.array([1.0]))
        assert abs(got - 0.1353352832366127) < 1e-12

    def test_symmetry(self):
        rng = np.random.RandomState(1)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        for spec in (LINEAR, RBF2):
            assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kernel_eval(LINEAR, [1.0], [1.0, 2.0])

    def test_bad_gamma(self):
        with pytest.raises(DomainError):
            svm.KernelSpec("rbf", -1.0)

    def test_matrix_matches_eval(self):
        rng = np.random.RandomState(2)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 5))
        for spec in (LINEAR, RBF2):
            k = svm.kernel_matrix(spec, a, b)
            for i in range(4):
                for j in range(5):
                    assert abs(k[i, j] - kernel_eval(spec, a[:, i], b[:, j])) < 1e-12


def grid_oracle_two_point():
    """Dense search over the feasible segment of the 2-point dual."""
    # x = -1 (y=-1), x = +1 (y=+1), linear kernel: K = [[1,-1],[-1,1]]
    k11 = k22 = 1.0
    k12 = -1.0
    best_t, best_obj = 0.0, -np.inf
    for t in np.arange(0.0, 100.0 + 1e-9, 1e-3):
        # a1 = a2 = t from the equality constraint; quadratic term:
        obj = 2 * t - 0.5 * (
            t * t * k11 + t * t * k22 - 2 * t * t * k12 * 1.0
        )
        if obj > best_obj:
            best_obj, best_t = obj, t
        if t > 2.0:  # objective is concave; no need to walk the whole box
            break
    return best_t, best_obj


class TestTrainBinary:
    def test_two_point_analytic_vs_grid(self):
        x = np.array([[-1.0, 1.0]])
        y = np.array([-1.0, 1.0])
        m = svm.train_binary(x, y, LINEAR, c=100.0)
        best_t, best_obj = grid_oracle_two_point()
        assert abs(best_t - 0.5) <= 1e-3
        np.testing.assert_allclose(np.abs(m.dual_coefs), [0.5, 0.5], atol=1e-3)
        assert abs(m.bias) <= 1e-3
        assert abs(dual_objective(m) - best_obj) <= 1e-3
        score, sign = svm.predict_binary(m, np.array([0.25]))
        assert abs(score - 0.25) <= 1e-3
        assert sign == 1

    def test_xor_rbf(self):
        x = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
        y = np.array([-1.0, 1.0, 1.0, -1.0])
        m = svm.train_binary(x, y, RBF2, c=10.0)
        for i in range(4):
            assert svm.predict_binary(m, x[:, i])[1] == y[i]

    def test_contradictory_duplicates(self):
        x = np.array([[0.0, 0.0]])
        y = np.array([1.0, -1.0])
        m = svm.train_binary(x, y, LINEAR, c=1.0)
        np.testing.assert_allclose(np.abs(m.dual_coefs), [1.0, 1.0], atol=1e-9)
        correct = sum(svm.predict_binary(m, x[:, i])[1] == y[i] for i in range(2))
        assert correct <= 1

    def test_dual_feasibility(self):
        rng = np.random.RandomState(3)
        for _ in range(10):
            n = rng.randint(4, 16)
            x = rng.standard_normal((3, n))
            y = np.sign(rng.standard_normal(n))
            y[y == 0] = 1.0
            if np.all(y == y[0]):
                y[0] = -y[0]
            c = rng.choice([0.5, 1.0, 10.0])
            m = svm.train_binary(x, y, RBF2, c=c)
            assert np.all(np.abs(m.dual_coefs) <= c + 1e-9)
            assert np.all(np.abs(m.dual_coefs) > 1e-12)  # pruned
            assert abs(m.dual_coefs.sum()) <= 1e-6

    def test_kkt_certificate_random(self):
        rng = np.random.RandomState(4)
        for trial in range(10):
            n = 14
            x = rng.standard_normal((2, n))
            y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            m = svm.train_binary(x, y, RBF2, c=10.0, tol=1e-3)
            assert kkt_worst_violation(m, x, y, c=10.0) <= 1e-3

    def test_kkt_certificate_small_c(self):
        # overlapping classes at a small C: in every trial some multipliers
        # sit exactly at C, so the bound cases of the stop rule are certified
        rng = np.random.RandomState(11)
        c = 0.5
        for trial in range(10):
            n = 20
            x = rng.standard_normal((2, n))
            y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            m = svm.train_binary(x, y, RBF2, c=c, tol=1e-3)
            assert np.any(np.abs(m.dual_coefs) == c)
            assert kkt_worst_violation(m, x, y, c=c) <= 1e-3

    def test_bias_without_free_multipliers(self):
        # two contradictory points at x = 0 end at C, the far point at 0; no
        # multiplier is free, so the bias is (m + M) / 2, and KKT pins it at 1
        x = np.array([[0.0, 0.0, 10.0]])
        y = np.array([1.0, -1.0, 1.0])
        m = svm.train_binary(x, y, LINEAR, c=0.5)
        np.testing.assert_array_equal(m.dual_coefs, [0.5, -0.5])
        assert m.bias == 1.0
        assert kkt_worst_violation(m, x, y, c=0.5) <= 1e-12

    def test_iteration_cap_raises_convergence_error(self, monkeypatch):
        # this problem takes three steps to reach a KKT gap of 1e-4
        x = np.array([[0.0, 0.3, 2.0, 2.5], [0.0, 1.0, 0.5, 1.5]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        monkeypatch.setattr(svm, "MAX_ITERATIONS", 2)
        with pytest.raises(ConvergenceError, match="2-iteration cap with KKT gap"):
            svm.train_binary(x, y, LINEAR, c=1.0, tol=1e-4)
        monkeypatch.setattr(svm, "MAX_ITERATIONS", 3)
        svm.train_binary(x, y, LINEAR, c=1.0, tol=1e-4)

    def test_separable_margin_constraints(self):
        # spec constraints (i)-(iii): y_i (w.x_i + b) >= 1 for separable data
        rng = np.random.RandomState(5)
        x = rng.standard_normal((2, 20))
        x[0, :10] += 8.0
        y = np.array([1.0] * 10 + [-1.0] * 10)
        tol = 1e-3
        m = svm.train_binary(x, y, LINEAR, c=1e4, tol=tol)
        for i in range(20):
            score, _ = svm.predict_binary(m, x[:, i])
            assert y[i] * score >= 1.0 - 10 * tol

    def test_margin_sv_score_is_unit(self):
        rng = np.random.RandomState(6)
        x = rng.standard_normal((3, 24))
        x[0, :12] += 3.0
        y = np.array([1.0] * 12 + [-1.0] * 12)
        tol = 1e-3
        m = svm.train_binary(x, y, RBF2, c=10.0, tol=tol)
        interior = np.abs(m.dual_coefs) < 10.0 - 1e-9
        assert interior.any()
        for idx in np.flatnonzero(interior):
            score, _ = svm.predict_binary(m, m.support_vectors[:, idx])
            assert abs(abs(score) - 1.0) <= 10 * tol

    def test_four_point_grid_objective(self):
        x = np.array([[0.0, 0.3, 2.0, 2.5], [0.0, 1.0, 0.5, 1.5]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        c = 1.0
        m = svm.train_binary(x, y, LINEAR, c=c, tol=1e-4)
        k = svm.kernel_matrix(LINEAR, x, x)
        q = np.outer(y, y) * k
        step = 0.01
        grid = np.arange(0.0, c + 1e-12, step)
        a1, a2, a3 = np.meshgrid(grid, grid, grid, indexing="ij")
        a4 = a1 + a2 - a3
        feasible = (a4 >= 0.0) & (a4 <= c)
        stacked = np.stack(
            [a1[feasible], a2[feasible], a3[feasible], a4[feasible]]
        )
        obj = stacked.sum(axis=0) - 0.5 * np.einsum(
            "in,ij,jn->n", stacked, q, stacked
        )
        assert abs(dual_objective(m) - obj.max()) <= 1e-3

    def test_single_class_rejected(self):
        with pytest.raises(ClassError):
            svm.train_binary(np.ones((2, 3)), np.ones(3), LINEAR, c=1.0)

    def test_monotone_capacity(self):
        rng = np.random.RandomState(7)
        x = rng.standard_normal((2, 16))
        x[0, :8] += 2.5
        y = np.array([1.0] * 8 + [-1.0] * 8)

        def train_acc(c):
            m = svm.train_binary(x, y, LINEAR, c=c)
            return sum(svm.predict_binary(m, x[:, i])[1] == y[i] for i in range(16))

        assert train_acc(1e4) >= train_acc(1e-2)


def random_problem(rng, size, dim=3):
    """size points with random labels, both classes present."""
    x = rng.standard_normal((dim, size))
    y = np.where(rng.uniform(size=size) < 0.5, 1.0, -1.0)
    y[:2] = 1.0, -1.0
    return x, y


def solve_stacked(problems, kernel, c, tol):
    """svm._smo on the problems' kernel matrices padded with zeros to the largest,
    and the unpadded kernel matrices. The padding labels are +1: only the
    machine sizes may tell the solver which entries are padding."""
    kernels = [svm.kernel_matrix(kernel, x, x) for x, _ in problems]
    n = max(y.size for _, y in problems)
    k = np.zeros((len(problems), n, n))
    labels = np.ones((len(problems), n))
    for b, ((_, y), kb) in enumerate(zip(problems, kernels)):
        k[b, :y.size, :y.size] = kb
        labels[b, :y.size] = y
    alphas, biases = svm._smo(k, labels, [y.size for _, y in problems], c, tol)
    return alphas, biases, kernels


def assert_lock_step_equals_reference(problems, kernel, c, tol):
    alphas, biases, kernels = solve_stacked(problems, kernel, c, tol)
    for (_, y), kb, a, bias in zip(problems, kernels, alphas, biases):
        ref_alphas, ref_bias = reference_smo(kb, y, c, tol)
        np.testing.assert_array_equal(a[:y.size], ref_alphas)
        np.testing.assert_array_equal(a[y.size:], 0.0)
        np.testing.assert_array_equal(bias, ref_bias)


def steps_alone(k, y, c, tol):
    """The number of steps reference_smo takes on one machine: the least cap it meets."""
    def converges(cap):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(svm, "MAX_ITERATIONS", cap)
            try:
                reference_smo(k, y, c, tol)
            except ConvergenceError:
                return False
            return True

    below, cap = 0, 1
    while not converges(cap):
        below, cap = cap, 2 * cap
    while cap - below > 1:
        mid = (below + cap) // 2
        below, cap = (below, mid) if converges(mid) else (mid, cap)
    return cap


# one step: the two points meet in the middle
ONE_STEP = (np.array([[-1.0, 1.0]]), np.array([-1.0, 1.0]))
# three steps to a KKT gap of 1e-4 at c = 1 (linear kernel)
THREE_STEPS = (np.array([[0.0, 0.3, 2.0, 2.5], [0.0, 1.0, 0.5, 1.5]]),
               np.array([1.0, 1.0, -1.0, -1.0]))


class TestLockStepSolver:
    """svm._smo on a stack of machines gives each machine exactly what the
    one-machine reference solver gives it."""

    @pytest.mark.parametrize("kernel", [LINEAR, RBF2], ids=["linear", "rbf"])
    @pytest.mark.parametrize("c", [0.5, 10.0, 1e4])
    @pytest.mark.parametrize("tol", [1e-3, 1e-4])
    def test_random_batches_match_reference(self, kernel, c, tol):
        # in 9 dimensions any labelling of at most 9 points is linearly
        # separable, so a linear machine at c = 1e4 needs tens of steps, not
        # the tens of thousands an inseparable problem can take
        dim = 9 if kernel == LINEAR else 3
        rng = np.random.RandomState(23)
        for _ in range(3):
            sizes = list(range(2, 10)) + list(rng.randint(2, 10, size=4))
            problems = [random_problem(rng, size, dim) for size in rng.permutation(sizes)]
            assert_lock_step_equals_reference(problems, kernel, c, tol)

    def test_machines_converging_after_very_different_step_counts(self):
        rng = np.random.RandomState(24)
        c, tol = 10.0, 1e-4
        problems = [ONE_STEP, random_problem(rng, 9), THREE_STEPS, random_problem(rng, 9), ONE_STEP]
        # the same machines among every kind of bias: no free multiplier, so
        # the bias is (m + M) / 2 (M = 0.09999999999999998 here); a single
        # free multiplier, a residue of rounding (y'a = 0 holds a lone free
        # one at 0 or c in exact arithmetic), whose bias 1.0 is not (m + M) / 2;
        # and every multiplier free (ONE_STEP)
        no_free = (np.array([[0.7, 0.3, 0.0]]), np.array([1.0, 1.0, -1.0]))
        one_free = (np.array([[0.0, 2.0, 3.0, 3.0]]), np.array([1.0, 1.0, 1.0, -1.0]))
        free = []
        for x, y in (no_free, one_free, ONE_STEP):
            v = reference_smo(svm.kernel_matrix(LINEAR, x, x), y, c, tol)[0] * y
            free.append(int(((v > np.minimum(0.0, y * c)) & (v < np.maximum(0.0, y * c))).sum()))
        assert free == [0, 1, ONE_STEP[1].size]
        mixed = [no_free, *problems[:2], one_free, *problems[2:], no_free]
        for stack in (problems, mixed):
            steps = [steps_alone(svm.kernel_matrix(LINEAR, x, x), y, c, tol) for x, y in stack]
            assert min(steps) == 1 and max(steps) >= 100
            assert_lock_step_equals_reference(stack, LINEAR, c, tol)

    def test_iteration_cap_counts_each_machines_steps(self, monkeypatch):
        problems = [ONE_STEP, THREE_STEPS, ONE_STEP]
        c, tol = 1.0, 1e-4
        steps = [steps_alone(svm.kernel_matrix(LINEAR, x, x), y, c, tol) for x, y in problems]
        assert steps == [1, 3, 1]
        monkeypatch.setattr(svm, "MAX_ITERATIONS", 2)
        with pytest.raises(ConvergenceError, match="2-iteration cap with KKT gap"):
            solve_stacked(problems, LINEAR, c, tol)
        monkeypatch.setattr(svm, "MAX_ITERATIONS", 3)
        assert_lock_step_equals_reference(problems, LINEAR, c, tol)

    @pytest.mark.parametrize("per_chunk, chunks", [(1, [1] * 10), (3, [3, 3, 3, 1])], ids=["1", "3"])
    def test_chunked_solve_equals_one_stack(self, monkeypatch, per_chunk, chunks):
        rng = np.random.RandomState(25)
        ds = gaussian_clusters(rng, classes=5, per_class=(2, 3, 5, 4, 3), gap=2.0)
        batches = []
        solve = svm._smo

        def recording_smo(k, y, size, c, tol):
            batches.append(len(size))
            return solve(k, y, size, c, tol)

        monkeypatch.setattr(svm, "_smo", recording_smo)
        whole = svm.train_multiclass(ds, RBF2, c=10.0)
        assert batches == [10]
        largest = 5 + 4  # points of the largest pair problem
        monkeypatch.setattr(svm, "STACK_BYTES", per_chunk * largest * largest * 8)
        batches.clear()
        assert_same_arrays(svm.train_multiclass(ds, RBF2, c=10.0), whole)
        assert batches == chunks


class TestPredictBinary:
    def test_zero_score_resolves_positive(self):
        m = svm.BinarySvm(
            support_vectors=np.array([[1.0]]),
            dual_coefs=np.array([0.0]),
            bias=0.0,
            kernel=LINEAR,
        )
        assert svm.predict_binary(m, np.array([5.0]))[1] == 1

    def test_far_from_svs_score_is_bias(self):
        m = svm.BinarySvm(
            support_vectors=np.array([[0.0]]),
            dual_coefs=np.array([2.0]),
            bias=-0.75,
            kernel=svm.KernelSpec("rbf", 2.0),
        )
        score, sign = svm.predict_binary(m, np.array([100.0]))
        assert abs(score - (-0.75)) < 1e-12
        assert sign == -1

    def test_sv_reordering_invariance(self):
        rng = np.random.RandomState(8)
        sv = rng.standard_normal((2, 6))
        coef = rng.standard_normal(6)
        m1 = svm.BinarySvm(sv, coef, 0.3, RBF2)
        perm = rng.permutation(6)
        m2 = svm.BinarySvm(sv[:, perm], coef[perm], 0.3, RBF2)
        for _ in range(5):
            q = rng.standard_normal(2)
            s1, _ = svm.predict_binary(m1, q)
            s2, _ = svm.predict_binary(m2, q)
            assert abs(s1 - s2) < 1e-12


class TestMulticlass:
    def test_two_classes_one_machine(self):
        rng = np.random.RandomState(9)
        ds = gaussian_clusters(rng, classes=2, per_class=5)
        model = svm.train_multiclass(ds, LINEAR, c=10.0)
        assert len(model.machines) == 1
        assert model.class_pairs.tolist() == [[0, 1]]

    def test_five_classes_ten_machines(self):
        rng = np.random.RandomState(10)
        ds = gaussian_clusters(rng, classes=5, per_class=4)
        model = svm.train_multiclass(ds, RBF2, c=10.0)
        assert len(model.machines) == 10

    def test_separated_clusters_perfect_training(self):
        rng = np.random.RandomState(11)
        ds = gaussian_clusters(rng, classes=5, per_class=10, gap=50.0, spread=0.5)
        model = svm.train_multiclass(ds, LINEAR, c=10.0)
        for i in range(ds.num_samples):
            label, _ = svm.predict_multiclass(model, ds.features[:, i])
            assert label == ds.labels[i]

    def test_two_class_prediction_matches_sign(self):
        rng = np.random.RandomState(12)
        ds = gaussian_clusters(rng, classes=2, per_class=6)
        model = svm.train_multiclass(ds, LINEAR, c=10.0)
        for _ in range(10):
            q = rng.standard_normal(ds.dim) * 20
            score, sign = svm.predict_binary(model.machines[0], q)
            label, votes = svm.predict_multiclass(model, q)
            assert label == (0 if sign > 0 else 1)

    def test_unanimous_vote(self):
        rng = np.random.RandomState(13)
        ds = gaussian_clusters(rng, classes=4, per_class=6, gap=30.0)
        model = svm.train_multiclass(ds, LINEAR, c=10.0)
        center = ds.features[:, ds.labels == 3].mean(axis=1)
        label, votes = svm.predict_multiclass(model, center)
        assert label == 3
        assert votes[3] == 3  # C-1 machines involve class 3

    def test_engineered_cyclic_tie(self):
        # hand-built machines force one vote per class; strengths decide
        def constant_machine(score):
            # rbf at the query's own location: k = 1, so coef + bias = score
            return svm.BinarySvm(
                support_vectors=np.zeros((1, 1)),
                dual_coefs=np.array([score]),
                bias=0.0,
                kernel=svm.KernelSpec("rbf", 1.0),
            )

        machines = (
            constant_machine(0.5),    # (0,1): votes 0, strength 0.5
            constant_machine(-0.9),   # (0,2): votes 2, strength 0.9
            constant_machine(0.7),    # (1,2): votes 1, strength 0.7
        )
        # one point of each class, all at the query's location
        model = pack(np.zeros((1, 3)), [0, 1, 2], machines)
        label, votes = svm.predict_multiclass(model, np.zeros(1))
        assert votes.tolist() == [1, 1, 1]
        assert label == 2


def reference_vote(model, x):
    """The per-machine vote loop that the packed path replaces."""
    votes = np.zeros(model.num_classes, dtype=np.int64)
    strengths = np.zeros(model.num_classes)
    for (i, j), machine in zip(model.class_pairs, model.machines):
        score, sign = svm.predict_binary(machine, x)
        winner = i if sign > 0 else j
        votes[winner] += 1
        strengths[winner] += abs(score)
    tied = np.flatnonzero(votes == votes.max())
    return int(tied[np.argmax(strengths[tied])]), votes, tied.size > 1


def random_shared_model(rng, classes, kernel, dim=3, pool=8):
    """Hand-built machines over one small pool of labelled points, every
    class among them, in canonical pair order: each machine's support
    vectors are drawn from the points of its two classes, in stored order,
    and one machine scores exactly 0 everywhere."""
    points = rng.standard_normal((dim, pool))
    labels = rng.permutation(np.arange(pool) % classes)
    machines = []
    for n, (i, j) in enumerate((i, j) for i in range(classes) for j in range(i + 1, classes)):
        members = np.flatnonzero((labels == i) | (labels == j))
        cols = np.sort(rng.choice(members, size=rng.randint(1, members.size + 1), replace=False))
        coefs = rng.standard_normal(cols.size)
        bias = rng.standard_normal() * 0.5
        if n == 0:
            coefs, bias = np.zeros(cols.size), 0.0
        machines.append(svm.BinarySvm(points[:, cols], coefs, bias, kernel))
    return pack(points, labels, machines)


# the stored arrays of a model, and those it derives from them
ARRAYS = ("points", "labels", "dual_coefs", "biases")
DERIVED = ("class_pairs", "sv_index", "machine", "sv_rows", "sv_sq_norms")


def assert_same_arrays(a, b):
    assert a.num_classes == b.num_classes and a.kernel == b.kernel
    for name in ARRAYS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def repacked(model):
    """The model packed again from its machine views; it must equal the original."""
    again = pack(model.points, model.labels, model.machines)
    assert_same_arrays(again, model)
    return again


def assert_same_machine(a, b):
    np.testing.assert_array_equal(a.support_vectors, b.support_vectors)
    np.testing.assert_array_equal(a.dual_coefs, b.dual_coefs)
    assert a.bias == b.bias and a.kernel == b.kernel


class TestPackedDecisions:
    @pytest.mark.parametrize("kernel", [LINEAR, RBF2], ids=["linear", "rbf"])
    def test_trained_model_matches_per_machine_oracle(self, kernel):
        rng = np.random.RandomState(17)
        ds = gaussian_clusters(rng, classes=5, per_class=6, gap=2.0, spread=1.0)
        model = svm.train_multiclass(ds, kernel, c=10.0)
        total = np.count_nonzero(model.dual_coefs)
        assert total == sum(m.support_vectors.shape[1] for m in model.machines)
        assert model.points.shape[1] == ds.num_samples < total  # shared SVs
        again = repacked(model)
        queries = [ds.features[:, i] for i in range(ds.num_samples)]
        queries += [rng.standard_normal(ds.dim) * 3.0 for _ in range(20)]
        for q in queries:
            values = svm.decision_values(model, q)
            oracle = [svm.predict_binary(m, q)[0] for m in model.machines]
            np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(svm.decision_values(again, q), values)
            label, votes = svm.predict_multiclass(model, q)
            ref_label, ref_votes, _ = reference_vote(model, q)
            assert label == ref_label
            assert votes.tolist() == ref_votes.tolist()

    @pytest.mark.parametrize("kernel", [LINEAR, RBF2], ids=["linear", "rbf"])
    def test_hand_built_models_match_vote_loop_and_tie_breaks(self, kernel):
        rng = np.random.RandomState(18)
        ties = 0
        for trial in range(40):
            model = random_shared_model(rng, classes=4 + trial % 3, kernel=kernel)
            assert model.points.shape[1] == 8
            again = repacked(model)
            for _ in range(5):
                q = rng.standard_normal(3)
                values = svm.decision_values(model, q)
                oracle = [svm.predict_binary(m, q)[0] for m in model.machines]
                np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=1e-12)
                np.testing.assert_array_equal(svm.decision_values(again, q), values)
                label, votes = svm.predict_multiclass(model, q)
                ref_label, ref_votes, tied = reference_vote(model, q)
                assert label == ref_label
                assert votes.tolist() == ref_votes.tolist()
                ties += tied
        assert ties >= 10  # the tie-break was exercised, not only clear majorities

    def test_machine_without_support_vectors_scores_its_bias(self):
        empty = svm.BinarySvm(np.zeros((2, 0)), np.zeros(0), -0.25, RBF2)
        other = svm.BinarySvm(np.ones((2, 1)), np.array([2.0]), 0.5, RBF2)
        for machines in ((empty, empty, empty), (empty, other, empty)):
            model = pack(np.ones((2, 3)), [0, 1, 2], machines)
            q = np.array([0.3, -0.2])
            np.testing.assert_allclose(
                svm.decision_values(model, q),
                [svm.predict_binary(m, q)[0] for m in machines], rtol=1e-12, atol=1e-12,
            )
            for view, machine in zip(model.machines, machines):
                assert_same_machine(view, machine)

    def test_packed_arrays_are_read_only(self):
        model = random_shared_model(np.random.RandomState(19), 4, RBF2)
        for name in ARRAYS + DERIVED:
            with pytest.raises(ValueError):
                getattr(model, name)[...] = 0

    def test_query_dimension_checked(self):
        model = random_shared_model(np.random.RandomState(20), 4, RBF2)
        with pytest.raises(DimensionError):
            svm.decision_values(model, np.zeros(4))


def kernel_matrix_values(model, x):
    """Every machine's decision value from a kernel_matrix row, the way
    decision_values formed it before the model kept its rows and norms."""
    row = svm.kernel_matrix(model.kernel, model.points, x[:, None])[:, 0]
    sums = np.bincount(model.machine, weights=model.dual_coefs * row[model.sv_index],
                       minlength=model.biases.size)
    return sums + model.biases


class TestStoredRows:
    @pytest.mark.parametrize("kernel", [LINEAR, RBF2], ids=["linear", "rbf"])
    def test_decision_values_equal_kernel_matrix_bit_for_bit(self, kernel):
        rng = np.random.RandomState(21)
        ds = gaussian_clusters(rng, classes=6, per_class=5, dim=5, gap=2.0)
        models = [svm.train_multiclass(ds, kernel, c=10.0)]
        models += [random_shared_model(rng, 3 + n % 4, kernel, dim=5) for n in range(10)]
        for model in models:
            queries = [model.points[:, 0], np.zeros(5)]
            queries += [rng.standard_normal(5) * 3.0 for _ in range(10)]
            for q in queries:
                np.testing.assert_array_equal(svm.decision_values(model, q),
                                              kernel_matrix_values(model, q))

    def test_rows_and_norms_are_derived_and_read_only(self):
        model = random_shared_model(np.random.RandomState(22), 4, RBF2)
        for current in (model, replace(model, points=model.points * 2.0)):
            rows = current.sv_rows
            assert rows.flags.c_contiguous
            np.testing.assert_array_equal(rows, current.points.T)
            np.testing.assert_array_equal(current.sv_sq_norms, (rows * rows).sum(axis=1))
            for array in (rows, current.sv_sq_norms):
                with pytest.raises(ValueError):
                    array[0] = 0.0

    def test_winners_follow_the_sign_of_each_score(self):
        model = random_shared_model(np.random.RandomState(23), 4, RBF2)
        scores = np.linspace(-1.0, 1.0, model.biases.size)
        scores[0] = 0.0  # exactly 0 votes for the positive class
        expected = [i if s >= 0 else j for (i, j), s in zip(model.class_pairs, scores)]
        assert svm.machine_winners(model, scores).tolist() == expected


def assert_views_equal_trained_machines(ds):
    model = svm.train_multiclass(ds, RBF2, c=10.0)
    classes = ds.num_classes
    assert len(model.machines) == len(model.class_pairs) == classes * (classes - 1) // 2
    for (i, j), view in zip(model.class_pairs, model.machines):
        mask = (ds.labels == i) | (ds.labels == j)
        y = np.where(ds.labels[mask] == i, 1.0, -1.0)
        assert_same_machine(view, svm.train_binary(ds.features[:, mask], y, RBF2, 10.0))


class TestMachineViews:
    def test_trained_model_views_equal_trained_machines(self):
        rng = np.random.RandomState(21)
        assert_views_equal_trained_machines(
            gaussian_clusters(rng, classes=4, per_class=5, gap=2.0, spread=1.0))

    def test_unequal_classes_views_equal_trained_machines(self):
        # pair problems of 5, 7 and 8 points are padded to 8 in one stack
        rng = np.random.RandomState(21)
        assert_views_equal_trained_machines(
            gaussian_clusters(rng, classes=3, per_class=(2, 3, 5), gap=2.0, spread=1.0))

    def test_pack_stores_each_support_vector_once(self):
        # the machines share their support vectors; the model holds each
        # point once, and every machine's view takes its vectors from them
        model = random_shared_model(np.random.RandomState(22), 5, LINEAR)
        columns = {col.tobytes() for col in model.points.T}
        assert len(columns) == model.points.shape[1]
        used = [col.tobytes() for m in model.machines for col in m.support_vectors.T]
        assert set(used) <= columns
        assert len(used) > len(set(used))


def shuffled(ds, rng):
    """ds with its columns in random order, so that the classes interleave."""
    order = rng.permutation(ds.num_samples)
    return make_ds(ds.features[:, order], ds.labels[order].tolist())


def training_set(case):
    rng = np.random.RandomState(26)
    if case == "separable":  # far clusters: most points are not support vectors
        return shuffled(gaussian_clusters(rng, classes=4, per_class=6, gap=40.0), rng)
    ds = shuffled(gaussian_clusters(rng, classes=5, per_class=(2, 3, 5, 4, 3), gap=2.0), rng)
    if case == "duplicates":  # point 0 comes twice more and point 1 once more
        extra = [0, 1, 0]
        return make_ds(np.hstack([ds.features, ds.features[:, extra]]),
                       ds.labels.tolist() + ds.labels[extra].tolist())
    return ds


class TestOneKernelTraining:
    """train_multiclass gathers every machine's block from one kernel matrix
    and lays out its coefficients by point index; the per-pair route of the
    reference, packed by value, must give the same arrays, bit for bit."""

    @pytest.mark.parametrize("kernel", [LINEAR, RBF2], ids=["linear", "rbf"])
    @pytest.mark.parametrize("case", ["unequal", "separable", "duplicates"])
    @pytest.mark.parametrize("per_chunk", [None, 1, 3], ids=["one-stack", "chunks-of-1", "chunks-of-3"])
    def test_equals_per_pair_reference(self, monkeypatch, kernel, case, per_chunk):
        ds = training_set(case)
        if per_chunk is not None:
            largest = sum(sorted(np.bincount(ds.labels))[-2:])  # points of the largest pair
            monkeypatch.setattr(svm, "STACK_BYTES", per_chunk * largest * largest * 8)
        model = svm.train_multiclass(ds, kernel, c=10.0)
        assert_same_arrays(model, reference_train_multiclass(ds, kernel, c=10.0))
        pair_points = (ds.num_classes - 1) * ds.num_samples
        if case == "separable" and kernel == LINEAR:
            assert np.count_nonzero(model.dual_coefs) < pair_points / 2  # most multipliers were pruned

    def test_pruned_multipliers_are_stored_as_positive_zeros(self, monkeypatch):
        # every multiplier of "unequal" is 0.51 or more, so at a tolerance
        # of 0.6 some nonzero multipliers are pruned
        ds = training_set("unequal")
        monkeypatch.setattr(svm, "PRUNE_TOL", 0.6)
        model = svm.train_multiclass(ds, RBF2, c=10.0)
        assert_same_arrays(model, reference_train_multiclass(ds, RBF2, c=10.0))
        zeros = model.dual_coefs == 0.0
        assert zeros.any() and not np.signbit(model.dual_coefs[zeros]).any()

    @pytest.mark.parametrize("dim", [3, 19])
    def test_pair_block_does_not_depend_on_the_other_columns(self, dim):
        # 80 points, as 20 clients of 4 utterances, of which a pair problem takes 8
        rng = np.random.RandomState(27)
        a = rng.standard_normal((dim, 80)) * 10.0 ** rng.randint(-2, 3, (dim, 1))
        for x in (a, np.asfortranarray(a)):
            for spec in (LINEAR, RBF2, svm.KernelSpec("rbf", 0.01)):
                whole = svm.kernel_matrix(spec, x, x)
                for _ in range(20):
                    block = np.sort(rng.choice(80, size=rng.randint(2, 17), replace=False))
                    alone = svm.kernel_matrix(spec, x[:, block], x[:, block])
                    np.testing.assert_array_equal(alone, whole[np.ix_(block, block)])


class TestModelInvariants:
    @staticmethod
    def machine(dim=2, n=2, kernel=RBF2):
        return svm.BinarySvm(np.ones((dim, n)), np.ones(n), 0.0, kernel)

    @staticmethod
    def model(**changes):
        """A valid three-class model with some of its fields replaced: four
        points of classes 0, 1, 2, 1, so the machines (0, 1), (0, 2) and
        (1, 2) take the points 0, 1, 3; 0, 2; and 1, 2, 3."""
        fields = dict(
            num_classes=3,
            points=np.arange(8.0).reshape(2, 4),
            labels=[0, 1, 2, 1],
            dual_coefs=[1.0, -1.0, 0.0, 0.0, 0.5, 2.0, 0.0, -2.0],
            biases=[0.0, 0.1, 0.2],
            kernel=RBF2,
        )
        return svm.SvmModel(**{**fields, **changes})

    def test_valid_fields_build_a_model(self):
        model = self.model()
        assert model.class_pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert model.machine.tolist() == [0, 0, 0, 1, 1, 2, 2, 2]
        assert model.sv_index.tolist() == [0, 1, 3, 0, 2, 1, 2, 3]
        assert [m.support_vectors.shape[1] for m in model.machines] == [2, 1, 2]
        np.testing.assert_array_equal(model.machines[2].support_vectors, [[1.0, 3.0], [5.0, 7.0]])

    @classmethod
    def derived_models(cls):
        """Models of 2 to 8 classes, hand-built, packed and trained, with the
        classes' points interleaved and the highest class first or last."""
        rng = np.random.RandomState(24)
        models = [cls.model(), cls.model(labels=[2, 0, 1, 2], dual_coefs=[1.0] * 8)]
        models += [random_shared_model(rng, classes, RBF2) for classes in (2, 3, 5, 8)]
        ds = gaussian_clusters(rng, classes=4, per_class=(1, 2, 3, 4), gap=2.0, spread=1.0)
        models.append(svm.train_multiclass(shuffled(ds, rng), RBF2, c=10.0))
        return models

    # the class pairs, each coefficient's machine and each coefficient's
    # point column are derived from the labels, not passed in; the tests
    # below read them on derived_models
    @pytest.mark.parametrize(
        "holds",
        [
            lambda pairs, c: ((pairs >= 0) & (pairs < c)).all(),
            lambda pairs, c: len({(i, j) for i, j in pairs.tolist()}) == len(pairs) == c * (c - 1) // 2,
            lambda pairs, c: (pairs[:, 0] < pairs[:, 1]).all(),
        ],
        ids=["out-of-range", "repeated", "reversed"],
    )
    def test_pairs_must_cover_every_ordered_pair_once(self, holds):
        for model in self.derived_models():
            assert model.class_pairs.shape == (model.biases.size, 2)
            assert holds(model.class_pairs, model.num_classes)

    @pytest.mark.parametrize(
        "holds", [lambda ids, end: ids.min() >= 0, lambda ids, end: ids.max() < end],
        ids=["negative", "past-end"],
    )
    def test_column_index_in_range(self, holds):
        for model in self.derived_models():
            assert model.sv_index.shape == model.dual_coefs.shape
            assert holds(model.sv_index, model.points.shape[1])
            # machine k takes exactly the columns of its two classes
            for k, (i, j) in enumerate(model.class_pairs):
                np.testing.assert_array_equal(
                    model.sv_index[model.machine == k],
                    np.flatnonzero((model.labels == i) | (model.labels == j)))

    @pytest.mark.parametrize(
        "holds", [lambda ids, end: ids.min() >= 0, lambda ids, end: ids.max() < end],
        ids=["negative", "past-end"],
    )
    def test_machine_id_in_range(self, holds):
        for model in self.derived_models():
            assert model.machine.shape == model.dual_coefs.shape
            assert holds(model.machine, model.biases.size)
            assert (np.diff(model.machine) >= 0).all()  # machine by machine

    def test_one_machine_per_pair(self):
        with pytest.raises(DomainError):
            pack(np.ones((2, 2)), [0, 1], (self.machine(), self.machine()))

    @pytest.mark.parametrize("biases", [[0.0, 0.1], [0.0, 0.1, 0.2, 0.3]], ids=["short", "long"])
    def test_one_bias_per_pair(self, biases):
        with pytest.raises(DomainError):
            self.model(biases=biases)

    def test_at_least_two_classes(self):
        with pytest.raises(ClassError):
            self.model(num_classes=1, labels=[0, 0, 0, 0], dual_coefs=[], biases=[])

    @pytest.mark.parametrize("labels", [[0, 1, 3, 1], [0, 1, -1, 1]], ids=["past-end", "negative"])
    def test_label_in_range(self, labels):
        with pytest.raises(DomainError):
            self.model(labels=labels)

    def test_every_class_has_a_point(self):
        with pytest.raises(DomainError, match="every class"):
            self.model(labels=[0, 1, 1, 1])

    @pytest.mark.parametrize(
        "field, value",
        [("labels", [0, 1, 2]), ("dual_coefs", [1.0] * 9), ("dual_coefs", [1.0] * 7)],
        ids=["labels-short", "coefs-long", "coefs-short"],
    )
    def test_entry_counts_agree(self, field, value):
        with pytest.raises(DimensionError):
            self.model(**{field: value})

    def test_support_vectors_form_a_matrix(self):
        with pytest.raises(DimensionError):
            self.model(points=np.arange(4.0))

    def test_machines_share_dimension(self):
        with pytest.raises(DimensionError):
            pack(np.ones((2, 3)), [0, 1, 2],
                 (self.machine(), self.machine(dim=3), self.machine()))

    def test_machines_share_kernel(self):
        with pytest.raises(DomainError):
            pack(np.ones((2, 3)), [0, 1, 2],
                 (self.machine(), self.machine(kernel=LINEAR), self.machine()))

    def test_pack_refuses_a_vector_outside_its_two_classes(self):
        # machine (0, 1) holds the point of class 2
        points = np.arange(6.0).reshape(2, 3)
        outside = svm.BinarySvm(points[:, [0, 2]], np.ones(2), 0.0, RBF2)
        with pytest.raises(DomainError, match="no point of its classes"):
            pack(points, [0, 1, 2], (outside, self.machine(n=0), self.machine(n=0)))

    def test_one_coefficient_per_support_vector(self):
        with pytest.raises(DimensionError):
            svm.BinarySvm(np.ones((2, 3)), np.ones(2), 0.0, RBF2)
