"""Soft-margin kernel SVM trained by sequential minimal optimization.

The dual (maximize sum a_i - 1/2 sum a_i a_j y_i y_j K_ij subject to
0 <= a_i <= C and sum a_i y_i = 0) is solved two multipliers at a time
with the analytic clipped update, as LIBSVM solves it: the first
multiplier is the maximal KKT violator, the second the one whose pairing
with it gains most in the second-order model of the objective, and the
solver stops on the KKT gap and returns the bias with the multipliers.
Multiclass problems train one machine per unordered class pair and
predict by majority vote.

A one-vs-one model is stored in one packed layout, in memory and in the
model file (libsvm-style; Chang & Lin, "LIBSVM", ACM TIST 2(3), 2011):
machines of C classes share training points, so their support vectors are
stored once, as the columns of one deduplicated matrix, and each machine
keeps only the column indices and dual coefficients of its own support
vectors, plus its bias. `pack` builds that layout from trained machines; a
probe then costs one kernel row against the deduplicated matrix and one
segmented sum that gives every machine's decision value. Single machines
(`SvmModel.machines`) are views rebuilt from the packed arrays on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassError,
    ConvergenceError,
    DimensionError,
    DomainError,
    FoldError,
)
from .ingest import LabeledDataset

MAX_ITERATIONS = 100_000
PRUNE_TOL = 1e-12
TAU = 1e-12  # LIBSVM's floor on the curvature of a working-set direction


@dataclass(frozen=True)
class KernelSpec:
    """Kernel selector: "linear" or "rbf" (gamma required for rbf)."""

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and (self.gamma is None or self.gamma <= 0):
            raise DomainError("rbf kernel requires gamma > 0")


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """k(x, y): dot product for linear, exp(-gamma*||x-y||^2) for rbf."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"kernel operands differ in shape ({x.shape} vs {y.shape})")
    if spec.kind == "linear":
        return float(x @ y)
    diff = x - y
    return float(np.exp(-spec.gamma * (diff * diff).sum()))


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise kernel values between the columns of a and b."""
    if a.shape[0] != b.shape[0]:
        raise DimensionError("kernel operands differ in dimension")
    if spec.kind == "linear":
        return a.T @ b
    sq_a = (a * a).sum(axis=0)[:, None]
    sq_b = (b * b).sum(axis=0)[None, :]
    sq = np.maximum(sq_a + sq_b - 2.0 * (a.T @ b), 0.0)
    return np.exp(-spec.gamma * sq)


@dataclass(frozen=True, eq=False)
class BinarySvm:
    """One trained two-class machine.

    dual_coefs stores a_i * y_i for the retained support vectors, so the
    decision function is sum_i dual_coefs_i * k(sv_i, x) + bias.
    """

    support_vectors: np.ndarray
    dual_coefs: np.ndarray
    bias: float
    kernel: KernelSpec

    def __post_init__(self):
        if np.ndim(self.support_vectors) != 2 or np.shape(self.dual_coefs) != (
            np.shape(self.support_vectors)[1],
        ):
            raise DimensionError(
                "support vectors must be a d x n matrix with one dual coefficient per column"
            )


# the array fields of SvmModel and their element types
_ARRAY_FIELDS = (
    ("class_pairs", np.intp),
    ("support_vectors", np.float64),
    ("sv_index", np.intp),
    ("machine", np.intp),
    ("dual_coefs", np.float64),
    ("biases", np.float64),
)


@dataclass(frozen=True, eq=False)
class SvmModel:
    """One-vs-one multiclass model in the packed layout; its arrays are read-only.

    Machine k decides class_pairs[k] = (i, j), i < j: a score >= 0 votes
    for i, a score < 0 for j. The pairs may come in any order, but each of
    the C(C-1)/2 pairs exactly once. Entry e is one support vector of
    machine machine[e]: the column sv_index[e] of support_vectors, with
    dual coefficient dual_coefs[e].
    """

    num_classes: int
    class_pairs: np.ndarray      # P x 2: per machine, (positive, negative) class
    support_vectors: np.ndarray  # d x n: every distinct support vector once
    sv_index: np.ndarray         # per entry: its column in support_vectors
    machine: np.ndarray          # per entry: its machine, 0..P-1
    dual_coefs: np.ndarray       # per entry: a_i * y_i
    biases: np.ndarray           # per machine
    kernel: KernelSpec

    def __post_init__(self):
        n = self.num_classes
        if n < 2:
            raise ClassError("a one-vs-one model needs at least two classes")
        for name, dtype in _ARRAY_FIELDS:
            array = np.array(getattr(self, name), dtype=dtype, order="C")
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        every_pair = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if (self.class_pairs.shape != (len(every_pair), 2)
                or sorted(map(tuple, self.class_pairs.tolist())) != every_pair
                or self.biases.shape != (len(every_pair),)):
            raise DomainError(
                f"need one machine and bias for each pair (i, j), i < j, of classes 0..{n - 1}"
            )
        if self.support_vectors.ndim != 2:
            raise DimensionError("support vectors must be a d x n matrix")
        if self.sv_index.ndim != 1 or not (
            self.sv_index.shape == self.machine.shape == self.dual_coefs.shape
        ):
            raise DimensionError("need one column index, machine and dual coefficient per entry")
        for name, bound in (("sv_index", self.support_vectors.shape[1]),
                            ("machine", len(every_pair))):
            values = getattr(self, name)
            if values.size and (values.min() < 0 or values.max() >= bound):
                raise DomainError(f"{name} entries must lie in 0..{bound - 1}")

    @property
    def machines(self) -> tuple:
        """One BinarySvm per machine, in class_pairs order, built from the packed arrays."""
        views = []
        for k, bias in enumerate(self.biases):
            entries = self.machine == k
            views.append(BinarySvm(
                self.support_vectors[:, self.sv_index[entries]],
                self.dual_coefs[entries],
                float(bias),
                self.kernel,
            ))
        return tuple(views)


def pack(num_classes: int, pairs, machines) -> SvmModel:
    """The one-vs-one model whose machine k is machines[k], deciding pairs[k].

    Equal support vectors of all machines are stored once, as one column of
    the model's matrix, in order of first appearance.
    """
    kernels = {machine.kernel for machine in machines}
    if len(kernels) != 1:
        raise DomainError("all machines must share one kernel")
    if len({machine.support_vectors.shape[0] for machine in machines}) != 1:
        raise DimensionError("all machines must have support vectors of one dimension")

    # one row per support vector of every machine; equal rows share one slot,
    # numbered in order of first appearance
    rows = np.ascontiguousarray(np.concatenate(
        [machine.support_vectors for machine in machines], axis=1, dtype=np.float64
    ).T)
    slots = {}
    sv_index = [slots.setdefault(row.tobytes(), len(slots)) for row in rows]
    distinct = np.frombuffer(b"".join(slots), dtype=np.float64)
    counts = [machine.support_vectors.shape[1] for machine in machines]
    return SvmModel(
        num_classes=num_classes,
        class_pairs=pairs,
        support_vectors=distinct.reshape(len(slots), rows.shape[1]).T,
        sv_index=sv_index,
        machine=np.repeat(np.arange(len(machines)), counts),
        dual_coefs=np.concatenate([machine.dual_coefs for machine in machines], dtype=np.float64),
        biases=[machine.bias for machine in machines],
        kernel=kernels.pop(),
    )


def _smo(k: np.ndarray, y: np.ndarray, c: float, tol: float):
    """LIBSVM's SMO on a precomputed kernel matrix. Returns (alphas, bias).

    Solves min 1/2 a'Qa - sum(a), Q = (y y') * K, over 0 <= a <= c and
    y'a = 0 (Fan, Chen & Lin, JMLR 6, 2005; Chang & Lin, ACM TIST 2(3),
    2011). The state is signed, which spares every case split on y:
    v = y * a lies in [0, c] where y = +1 and in [-c, 0] where y = -1, and
    score = -y * G = y - K v, G = Qa - 1 being the dual gradient. Each step
    raises v_i for the i in I_up (v_i below its bound) of largest score m,
    and lowers v_j for the j in I_low (v_j above its bound) maximizing b^2/a,
    b = m - score_j > 0, a = K_ii + K_jj - 2 K_ij floored at TAU. Both move
    by b/a or less, so neither passes its bound, and one that reaches it is
    set to it exactly. The loop stops once the KKT gap m - M, M the least
    score over I_low, is at most tol. The bias is the mean score over free
    multipliers, or (m + M) / 2 when every multiplier is at a bound.
    """
    lower, upper = np.where(y > 0, 0.0, -c), np.where(y > 0, c, 0.0)
    diag = np.diag(k)
    curvature = np.maximum(diag[:, None] + diag - 2.0 * k, TAU)
    v = np.zeros(y.size)
    score = y.copy()
    for steps in range(MAX_ITERATIONS + 1):
        up = np.where(v < upper, score, -np.inf)
        low = np.where(v > lower, score, np.inf)
        i = up.argmax()
        top, bottom = up[i], low.min()
        if top - bottom <= tol:
            break
        if steps == MAX_ITERATIONS:
            raise ConvergenceError(
                f"SMO hit the {MAX_ITERATIONS}-iteration cap with KKT gap "
                f"{top - bottom:.3e} > tol {tol:.3e}"
            )
        gain = np.maximum(top - low, 0.0)
        j = (gain * gain / curvature[i]).argmax()
        room_up, room_down = upper[i] - v[i], v[j] - lower[j]
        step = min(gain[j] / curvature[i, j], room_up, room_down)
        new_i = upper[i] if step == room_up else v[i] + step
        new_j = lower[j] if step == room_down else v[j] - step
        score -= k[i] * (new_i - v[i]) + k[j] * (new_j - v[j])
        v[i], v[j] = new_i, new_j
    free = (v > lower) & (v < upper)
    bias = score[free].mean() if free.any() else 0.5 * (top + bottom)
    return y * v, float(bias)


def train_binary(
    x: np.ndarray, y: np.ndarray, kernel: KernelSpec, c: float, tol: float = 1e-3
) -> BinarySvm:
    """Train one soft-margin machine on columns of x with labels in {-1,+1}."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[1],):
        raise DimensionError("x must be d x n with one label per column")
    if not (np.all(np.abs(y) == 1.0)):
        raise DomainError("labels must be -1 or +1")
    if np.all(y == 1.0) or np.all(y == -1.0):
        raise ClassError("both classes must be present")
    if c <= 0 or tol <= 0:
        raise DomainError("c and tol must be positive")

    k = kernel_matrix(kernel, x, x)
    alphas, bias = _smo(k, y, c, tol)
    keep = np.flatnonzero(alphas > PRUNE_TOL)
    return BinarySvm(
        support_vectors=x[:, keep].copy(),
        dual_coefs=(alphas * y)[keep],
        bias=bias,
        kernel=kernel,
    )


def predict_binary(m: BinarySvm, x) -> tuple[float, int]:
    """Decision value and sign; a score of exactly 0 resolves to +1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.support_vectors.shape[0],):
        raise DimensionError(
            f"input dimension {x.shape} != support vector dimension "
            f"{m.support_vectors.shape[0]}"
        )
    score = float(m.dual_coefs @ kernel_matrix(m.kernel, m.support_vectors, x[:, None])[:, 0])
    score += m.bias
    return score, (1 if score >= 0 else -1)


def train_multiclass(
    ds: LabeledDataset, kernel: KernelSpec, c: float, tol: float = 1e-3
) -> SvmModel:
    """One-vs-one training: a machine for every unordered class pair."""
    if ds.num_classes < 2:
        raise ClassError("multiclass training needs at least two classes")
    pairs = []
    machines = []
    for i in range(ds.num_classes):
        for j in range(i + 1, ds.num_classes):
            mask = (ds.labels == i) | (ds.labels == j)
            x = ds.features[:, mask]
            y = np.where(ds.labels[mask] == i, 1.0, -1.0)
            pairs.append((i, j))
            machines.append(train_binary(x, y, kernel, c, tol))
    return pack(ds.num_classes, pairs, machines)


def decision_values(m: SvmModel, x) -> np.ndarray:
    """Every machine's decision value at x, in m.class_pairs order.

    One kernel row against the deduplicated support vectors, then one
    segmented sum of dual coefficient times kernel value per machine.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.support_vectors.shape[0],):
        raise DimensionError(
            f"input dimension {x.shape} != support vector dimension "
            f"{m.support_vectors.shape[0]}"
        )
    row = kernel_matrix(m.kernel, m.support_vectors, x[:, None])[:, 0]
    sums = np.bincount(m.machine, weights=m.dual_coefs * row[m.sv_index], minlength=m.biases.size)
    return sums + m.biases


def predict_multiclass(m: SvmModel, x) -> tuple[int, np.ndarray]:
    """Majority vote across pairwise machines.

    A machine's score of exactly 0 votes for its positive class. Vote ties
    break by the larger sum of |score| over the machines the tied class
    won, then by the smaller class id.
    """
    scores = decision_values(m, x)
    winners = np.where(scores >= 0, m.class_pairs[:, 0], m.class_pairs[:, 1])
    votes = np.bincount(winners, minlength=m.num_classes)
    strengths = np.bincount(winners, weights=np.abs(scores), minlength=m.num_classes)
    top = votes.max()
    tied = np.flatnonzero(votes == top)
    if tied.size == 1:
        return int(tied[0]), votes
    best = tied[np.argmax(strengths[tied])]  # argmax keeps the smaller id on ties
    return int(best), votes


def _stratified_folds(labels: np.ndarray, folds: int, seed: int):
    """Deal each class's shuffled samples round-robin across folds."""
    rng = np.random.default_rng(seed)
    assignment = np.zeros(labels.size, dtype=np.int64)
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        members = members[rng.permutation(members.size)]
        assignment[members] = np.arange(members.size) % folds
    return assignment


def cross_validate(
    ds: LabeledDataset,
    kernel: KernelSpec,
    c: float,
    folds: int = 10,
    seed: int = 42,
    tol: float = 1e-3,
) -> float:
    """Stratified k-fold cross-validation accuracy, as a percentage."""
    if folds < 2:
        raise DomainError("folds must be >= 2")
    if folds > ds.num_samples:
        raise FoldError(f"{folds} folds exceed {ds.num_samples} samples")
    assignment = _stratified_folds(ds.labels, folds, seed)
    correct = 0
    for f in range(folds):
        test_idx = np.flatnonzero(assignment == f)
        if test_idx.size == 0:
            continue
        train_idx = np.flatnonzero(assignment != f)
        train_labels = ds.labels[train_idx]
        present = np.unique(train_labels)
        if present.size < 2:
            # degenerate fold: the only trainable answer is the sole class
            correct += int(np.sum(ds.labels[test_idx] == present[0]))
            continue
        remap = {int(orig): new for new, orig in enumerate(present)}
        sub = LabeledDataset(
            ds.features[:, train_idx],
            np.array([remap[int(l)] for l in train_labels]),
            tuple(ds.class_names[int(orig)] for orig in present),
        )
        model = train_multiclass(sub, kernel, c, tol)
        for t in test_idx:
            label, _ = predict_multiclass(model, ds.features[:, t])
            if int(present[label]) == int(ds.labels[t]):
                correct += 1
    return 100.0 * correct / ds.num_samples
