import numpy as np
import pytest

from biomm import svm
from biomm.errors import ClassError, DimensionError, DomainError, FoldError
from biomm.ingest import LabeledDataset
from conftest import dual_objective, kkt_worst_violation

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
    features, labels = [], []
    for c in range(classes):
        mu = rng.standard_normal(dim) * gap
        for _ in range(per_class):
            features.append(mu + rng.standard_normal(dim) * spread)
            labels.append(c)
    return make_ds(np.column_stack(features), labels)


class TestKernels:
    def test_rbf_self_similarity(self):
        rng = np.random.RandomState(0)
        for _ in range(5):
            x = rng.standard_normal(4)
            gamma = rng.uniform(0.1, 10.0)
            assert svm.kernel_eval(svm.KernelSpec("rbf", gamma), x, x) == 1.0

    def test_linear_dot(self):
        assert svm.kernel_eval(LINEAR, [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_rbf_gamma2_unit_gap(self):
        got = svm.kernel_eval(RBF2, np.array([0.0]), np.array([1.0]))
        assert abs(got - 0.1353352832366127) < 1e-12

    def test_symmetry(self):
        rng = np.random.RandomState(1)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        for spec in (LINEAR, RBF2):
            assert svm.kernel_eval(spec, x, y) == svm.kernel_eval(spec, y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            svm.kernel_eval(LINEAR, [1.0], [1.0, 2.0])

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
                    assert abs(k[i, j] - svm.kernel_eval(spec, a[:, i], b[:, j])) < 1e-12


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

        pairs = ((0, 1), (0, 2), (1, 2))
        machines = (
            constant_machine(0.5),    # (0,1): votes 0, strength 0.5
            constant_machine(-0.9),   # (0,2): votes 2, strength 0.9
            constant_machine(0.7),    # (1,2): votes 1, strength 0.7
        )
        model = svm.pack(3, pairs, machines)
        label, votes = svm.predict_multiclass(model, np.zeros(1))
        assert votes.tolist() == [1, 1, 1]
        assert label == 2

        # permuting the machines must not change the verdict
        order = [2, 0, 1]
        permuted = svm.pack(
            3,
            [pairs[i] for i in order],
            [machines[i] for i in order],
        )
        assert svm.predict_multiclass(permuted, np.zeros(1))[0] == 2


class TestCrossValidate:
    def test_ceiling_case(self):
        # every fold holds duplicates of its training points
        point = np.eye(5) * 100.0
        features = np.repeat(point, 5, axis=1)
        labels = np.repeat(np.arange(5), 5)
        ds = make_ds(features, labels.tolist())
        acc = svm.cross_validate(ds, LINEAR, c=10.0, folds=5, seed=0)
        assert acc == 100.0

    def test_shuffled_labels_near_chance(self):
        rng = np.random.RandomState(14)
        ds = gaussian_clusters(rng, classes=5, per_class=10, gap=30.0)
        accs = []
        for seed in (0, 1, 2):
            shuffled = LabeledDataset(
                ds.features,
                rng.permutation(ds.labels),
                ds.class_names,
            )
            accs.append(
                svm.cross_validate(shuffled, RBF2, c=10.0, folds=10, seed=seed)
            )
        assert 5.0 <= np.mean(accs) <= 40.0

    def test_deterministic(self):
        rng = np.random.RandomState(15)
        ds = gaussian_clusters(rng, classes=3, per_class=6)
        a = svm.cross_validate(ds, RBF2, c=10.0, folds=5, seed=42)
        b = svm.cross_validate(ds, RBF2, c=10.0, folds=5, seed=42)
        assert a == b

    def test_fold_error(self):
        rng = np.random.RandomState(16)
        ds = gaussian_clusters(rng, classes=2, per_class=3)
        with pytest.raises(FoldError):
            svm.cross_validate(ds, LINEAR, c=1.0, folds=7, seed=0)


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
    """Hand-built machines whose support vectors come from one small pool,
    packed in shuffled pair order; one machine scores exactly 0 everywhere."""
    points = rng.standard_normal((dim, pool))
    pairs = [(i, j) for i in range(classes) for j in range(i + 1, classes)]
    machines = []
    for n, _ in enumerate(pairs):
        cols = rng.choice(pool, size=rng.randint(1, pool + 1), replace=False)
        coefs = rng.standard_normal(cols.size)
        bias = rng.standard_normal() * 0.5
        if n == 0:
            coefs, bias = np.zeros(cols.size), 0.0
        machines.append(svm.BinarySvm(points[:, cols], coefs, bias, kernel))
    order = rng.permutation(len(pairs))
    return svm.pack(classes, [pairs[k] for k in order], [machines[k] for k in order])


ARRAYS = ("class_pairs", "support_vectors", "sv_index", "machine", "dual_coefs", "biases")


def assert_same_arrays(a, b):
    assert a.num_classes == b.num_classes and a.kernel == b.kernel
    for name in ARRAYS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def repacked(model):
    """The model packed again from its machine views; it must equal the original."""
    again = svm.pack(model.num_classes, model.class_pairs, model.machines)
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
        total = model.sv_index.size
        assert total == sum(m.support_vectors.shape[1] for m in model.machines)
        assert model.support_vectors.shape[1] <= ds.num_samples < total  # shared SVs
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
            assert model.support_vectors.shape[1] <= 8
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
            model = svm.pack(3, ((0, 1), (0, 2), (1, 2)), machines)
            q = np.array([0.3, -0.2])
            np.testing.assert_allclose(
                svm.decision_values(model, q),
                [svm.predict_binary(m, q)[0] for m in machines], rtol=1e-12, atol=1e-12,
            )
            for view, machine in zip(model.machines, machines):
                assert_same_machine(view, machine)

    def test_packed_arrays_are_read_only(self):
        model = random_shared_model(np.random.RandomState(19), 4, RBF2)
        for name in ARRAYS:
            with pytest.raises(ValueError):
                getattr(model, name)[...] = 0

    def test_query_dimension_checked(self):
        model = random_shared_model(np.random.RandomState(20), 4, RBF2)
        with pytest.raises(DimensionError):
            svm.decision_values(model, np.zeros(4))


class TestMachineViews:
    def test_trained_model_views_equal_trained_machines(self):
        rng = np.random.RandomState(21)
        ds = gaussian_clusters(rng, classes=4, per_class=5, gap=2.0, spread=1.0)
        model = svm.train_multiclass(ds, RBF2, c=10.0)
        assert len(model.machines) == len(model.class_pairs) == 6
        for (i, j), view in zip(model.class_pairs, model.machines):
            mask = (ds.labels == i) | (ds.labels == j)
            y = np.where(ds.labels[mask] == i, 1.0, -1.0)
            assert_same_machine(view, svm.train_binary(ds.features[:, mask], y, RBF2, 10.0))

    def test_pack_stores_each_support_vector_once(self):
        model = random_shared_model(np.random.RandomState(22), 5, LINEAR)
        columns = {col.tobytes() for col in model.support_vectors.T}
        assert len(columns) == model.support_vectors.shape[1]
        used = {col.tobytes() for m in model.machines for col in m.support_vectors.T}
        assert used == columns


class TestModelInvariants:
    @staticmethod
    def machine(dim=2, n=2, kernel=RBF2):
        return svm.BinarySvm(np.ones((dim, n)), np.ones(n), 0.0, kernel)

    @staticmethod
    def model(**changes):
        """A valid three-class model with some of its fields replaced."""
        fields = dict(
            num_classes=3,
            class_pairs=((0, 1), (0, 2), (1, 2)),
            support_vectors=np.arange(6.0).reshape(2, 3),
            sv_index=[0, 1, 2, 1, 0],
            machine=[0, 0, 1, 2, 2],
            dual_coefs=[1.0, -1.0, 0.5, 2.0, -2.0],
            biases=[0.0, 0.1, 0.2],
            kernel=RBF2,
        )
        return svm.SvmModel(**{**fields, **changes})

    def test_valid_fields_build_a_model(self):
        model = self.model()
        assert [m.support_vectors.shape[1] for m in model.machines] == [2, 1, 2]
        np.testing.assert_array_equal(model.machines[2].support_vectors, [[1.0, 0.0], [4.0, 3.0]])

    @pytest.mark.parametrize(
        "pairs",
        [((0, 1), (0, 2), (1, 3)), ((0, 1), (0, 1), (1, 2)), ((0, 1), (0, 2), (2, 1))],
        ids=["out-of-range", "repeated", "reversed"],
    )
    def test_pairs_must_cover_every_ordered_pair_once(self, pairs):
        with pytest.raises(DomainError):
            self.model(class_pairs=pairs)

    def test_one_machine_per_pair(self):
        with pytest.raises(DomainError):
            svm.pack(2, ((0, 1),), (self.machine(), self.machine()))

    @pytest.mark.parametrize("biases", [[0.0, 0.1], [0.0, 0.1, 0.2, 0.3]], ids=["short", "long"])
    def test_one_bias_per_pair(self, biases):
        with pytest.raises(DomainError):
            self.model(biases=biases)

    def test_at_least_two_classes(self):
        with pytest.raises(ClassError):
            self.model(num_classes=1, class_pairs=(), biases=[])

    @pytest.mark.parametrize("index", [[0, 1, 3, 1, 0], [0, 1, -1, 1, 0]], ids=["past-end", "negative"])
    def test_column_index_in_range(self, index):
        with pytest.raises(DomainError):
            self.model(sv_index=index)

    @pytest.mark.parametrize("ids", [[0, 0, 1, 2, 3], [0, 0, -1, 2, 2]], ids=["past-end", "negative"])
    def test_machine_id_in_range(self, ids):
        with pytest.raises(DomainError):
            self.model(machine=ids)

    @pytest.mark.parametrize(
        "field, value",
        [("sv_index", [0, 1, 2, 1]), ("machine", [0, 0, 1, 2, 2, 2]), ("dual_coefs", [1.0] * 4)],
        ids=["index-short", "machine-long", "coefs-short"],
    )
    def test_entry_counts_agree(self, field, value):
        with pytest.raises(DimensionError):
            self.model(**{field: value})

    def test_support_vectors_form_a_matrix(self):
        with pytest.raises(DimensionError):
            self.model(support_vectors=np.arange(3.0))

    def test_machines_share_dimension(self):
        with pytest.raises(DimensionError):
            svm.pack(3, ((0, 1), (0, 2), (1, 2)),
                     (self.machine(), self.machine(dim=3), self.machine()))

    def test_machines_share_kernel(self):
        with pytest.raises(DomainError):
            svm.pack(3, ((0, 1), (0, 2), (1, 2)),
                     (self.machine(), self.machine(kernel=LINEAR), self.machine()))

    def test_one_coefficient_per_support_vector(self):
        with pytest.raises(DimensionError):
            svm.BinarySvm(np.ones((2, 3)), np.ones(2), 0.0, RBF2)
