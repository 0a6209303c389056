"""Soft-margin kernel SVM trained by sequential minimal optimization.

The dual (maximize sum a_i - 1/2 sum a_i a_j y_i y_j K_ij subject to
0 <= a_i <= C and sum a_i y_i = 0) is solved two multipliers at a time
with the analytic clipped update; the partner multiplier is picked by the
largest |E_1 - E_2|, the standard proxy for the largest objective step.
Multiclass problems train one machine per unordered class pair and
predict by majority vote.

A one-vs-one model is packed once, when it is built (libsvm-style; Chang &
Lin, "LIBSVM", ACM TIST 2(3), 2011): machines of C classes share training
points, so their support vectors are stored once, as the columns of one
deduplicated matrix, and each machine keeps only the column indices and
dual coefficients of its own support vectors, plus its bias. A probe then
costs one kernel row against the deduplicated matrix and one segmented sum
that gives every machine's decision value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ClassError,
    ConvergenceError,
    DimensionError,
    DomainError,
    FoldError,
)
from .ingest import LabeledDataset

MAX_PASSES = 100_000
PRUNE_TOL = 1e-12


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


@dataclass(frozen=True)
class BinarySvm:
    """One trained two-class machine.

    dual_coefs stores a_i * y_i for the retained support vectors, so the
    decision function is sum_i dual_coefs_i * k(sv_i, x) + bias.
    """

    support_vectors: np.ndarray
    dual_coefs: np.ndarray
    bias: float
    kernel: KernelSpec
    c: float

    def __post_init__(self):
        if np.ndim(self.support_vectors) != 2 or np.shape(self.dual_coefs) != (
            np.shape(self.support_vectors)[1],
        ):
            raise DimensionError(
                "support vectors must be a d x n matrix with one dual coefficient per column"
            )


class PackedMachines(NamedTuple):
    """The machines of an SvmModel in one layout; entry e belongs to machine[e]."""

    support_vectors: np.ndarray  # d x n, every distinct support vector once
    sv_index: np.ndarray         # per entry: its column in support_vectors
    machine: np.ndarray          # per entry: its machine, in SvmModel.machines order
    dual_coefs: np.ndarray       # per entry: a_i * y_i
    biases: np.ndarray           # per machine
    positive: np.ndarray         # per machine: the class a score >= 0 votes for
    negative: np.ndarray         # per machine: the class a score < 0 votes for
    kernel: KernelSpec


@dataclass(frozen=True)
class SvmModel:
    """One-vs-one multiclass model: one BinarySvm per unordered class pair.

    For pair (i, j) with i < j the machine's positive class is i. The pairs
    may come in any order, but each of the C(C-1)/2 pairs exactly once, and
    all machines share one kernel and one dimension. `packed` is derived
    from the machines when the model is built.
    """

    num_classes: int
    class_pairs: tuple
    machines: tuple
    packed: PackedMachines = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "packed", _pack(self))


def _pack(m: SvmModel) -> PackedMachines:
    n = m.num_classes
    if n < 2:
        raise ClassError("a one-vs-one model needs at least two classes")
    every_pair = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = [tuple(int(v) for v in pair) for pair in m.class_pairs]
    if sorted(pairs) != every_pair or len(m.machines) != len(pairs):
        raise DomainError(
            f"need one machine for each pair (i, j), i < j, of classes 0..{n - 1}"
        )
    kernels = {machine.kernel for machine in m.machines}
    if len(kernels) != 1:
        raise DomainError("all machines must share one kernel")
    if len({machine.support_vectors.shape[0] for machine in m.machines}) != 1:
        raise DimensionError("all machines must have support vectors of one dimension")

    # one row per support vector of every machine; equal rows share one slot,
    # numbered in order of first appearance
    rows = np.ascontiguousarray(np.concatenate(
        [machine.support_vectors for machine in m.machines], axis=1, dtype=np.float64
    ).T)
    slots = {}
    sv_index = np.array(
        [slots.setdefault(row.tobytes(), len(slots)) for row in rows], dtype=np.intp
    )
    distinct = np.frombuffer(b"".join(slots), dtype=np.float64)
    counts = [machine.support_vectors.shape[1] for machine in m.machines]
    positive, negative = np.array(pairs, dtype=np.intp).T
    packed = PackedMachines(
        support_vectors=np.ascontiguousarray(distinct.reshape(len(slots), rows.shape[1]).T),
        sv_index=sv_index,
        machine=np.repeat(np.arange(len(counts)), counts),
        dual_coefs=np.concatenate(
            [machine.dual_coefs for machine in m.machines], dtype=np.float64
        ),
        biases=np.array([machine.bias for machine in m.machines], dtype=np.float64),
        positive=positive,
        negative=negative,
        kernel=kernels.pop(),
    )
    for array in packed[:-1]:
        array.flags.writeable = False
    return packed


def _smo(k: np.ndarray, y: np.ndarray, c: float, tol: float):
    """Core SMO loop on a precomputed kernel matrix. Returns (alphas, bias)."""
    n = y.size
    alphas = np.zeros(n)
    bias = 0.0
    errors = -y.astype(np.float64)  # f(x_i) - y_i with all-zero alphas

    def take_step(i1, i2):
        nonlocal bias, errors
        if i1 == i2:
            return False
        a1, a2 = alphas[i1], alphas[i2]
        y1, y2 = y[i1], y[i2]
        e1, e2 = errors[i1], errors[i2]
        s = y1 * y2
        if s > 0:
            low, high = max(0.0, a1 + a2 - c), min(c, a1 + a2)
        else:
            low, high = max(0.0, a2 - a1), min(c, c + a2 - a1)
        if low >= high:
            return False
        k11, k12, k22 = k[i1, i1], k[i1, i2], k[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2_new = float(np.clip(a2 + y2 * (e1 - e2) / eta, low, high))
        else:
            # flat direction: evaluate the dual objective at both endpoints
            v1 = (e1 + y1) - bias - a1 * y1 * k11 - a2 * y2 * k12
            v2 = (e2 + y2) - bias - a1 * y1 * k12 - a2 * y2 * k22

            def dual_obj(a2c):
                a1c = a1 + s * (a2 - a2c)
                return (
                    a1c + a2c
                    - 0.5 * a1c * a1c * k11
                    - 0.5 * a2c * a2c * k22
                    - s * a1c * a2c * k12
                    - y1 * a1c * v1
                    - y2 * a2c * v2
                )

            obj_low, obj_high = dual_obj(low), dual_obj(high)
            if obj_low > obj_high + 1e-12:
                a2_new = low
            elif obj_high > obj_low + 1e-12:
                a2_new = high
            else:
                return False
        if abs(a2_new - a2) < 1e-12 * (a2_new + a2 + 1e-12):
            return False
        a1_new = min(max(a1 + s * (a2 - a2_new), 0.0), c)

        # bias keeping the updated margin support vector exactly on its margin
        b1 = bias - e1 - y1 * (a1_new - a1) * k11 - y2 * (a2_new - a2) * k12
        b2 = bias - e2 - y1 * (a1_new - a1) * k12 - y2 * (a2_new - a2) * k22
        if 0.0 < a1_new < c:
            new_bias = b1
        elif 0.0 < a2_new < c:
            new_bias = b2
        else:
            new_bias = 0.5 * (b1 + b2)

        errors += (
            y1 * (a1_new - a1) * k[i1, :]
            + y2 * (a2_new - a2) * k[i2, :]
            + (new_bias - bias)
        )
        alphas[i1], alphas[i2] = a1_new, a2_new
        bias = new_bias
        errors[i1] = float((alphas * y) @ k[:, i1] + bias - y1)
        errors[i2] = float((alphas * y) @ k[:, i2] + bias - y2)
        return True

    def examine(i2):
        y2, a2, e2 = y[i2], alphas[i2], errors[i2]
        r2 = e2 * y2
        if not ((r2 < -tol and a2 < c) or (r2 > tol and a2 > 0)):
            return False
        non_bound = np.flatnonzero((alphas > 0) & (alphas < c))
        if non_bound.size > 1:
            gaps = np.abs(errors[non_bound] - e2)
            i1 = int(non_bound[np.argmax(gaps)])
            if take_step(i1, i2):
                return True
        for i1 in non_bound:
            if take_step(int(i1), i2):
                return True
        for i1 in range(n):
            if take_step(i1, i2):
                return True
        return False

    passes = 0
    examine_all = True
    while passes < MAX_PASSES:
        passes += 1
        changed = 0
        if examine_all:
            for i in range(n):
                changed += examine(i)
        else:
            for i in np.flatnonzero((alphas > 0) & (alphas < c)):
                changed += examine(int(i))
        if examine_all:
            if changed == 0:
                return alphas, bias
            examine_all = False
        elif changed == 0:
            examine_all = True
    worst = _worst_kkt_violation(alphas, y, errors, c, tol)
    raise ConvergenceError(
        f"SMO hit the {MAX_PASSES}-pass cap; worst KKT violation {worst:.3e}"
    )


def _worst_kkt_violation(alphas, y, errors, c, tol):
    margins = y * (errors + y)  # y_i * f(x_i)
    worst = 0.0
    for a, m in zip(alphas, margins):
        if a <= 0:
            worst = max(worst, 1.0 - m)
        elif a >= c:
            worst = max(worst, m - 1.0)
        else:
            worst = max(worst, abs(m - 1.0))
    return worst


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

    # refine the bias from margin support vectors when any exist
    margin = np.flatnonzero((alphas > PRUNE_TOL) & (alphas < c - PRUNE_TOL))
    if margin.size:
        f_no_bias = (alphas * y) @ k[:, margin]
        bias = float((y[margin] - f_no_bias).mean())

    keep = np.flatnonzero(alphas > PRUNE_TOL)
    return BinarySvm(
        support_vectors=x[:, keep].copy(),
        dual_coefs=(alphas * y)[keep],
        bias=float(bias),
        kernel=kernel,
        c=float(c),
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
    return SvmModel(ds.num_classes, tuple(pairs), tuple(machines))


def decision_values(m: SvmModel, x) -> np.ndarray:
    """Every machine's decision value at x, in m.machines order.

    One kernel row against the deduplicated support vectors, then one
    segmented sum of dual coefficient times kernel value per machine.
    """
    p = m.packed
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p.support_vectors.shape[0],):
        raise DimensionError(
            f"input dimension {x.shape} != support vector dimension "
            f"{p.support_vectors.shape[0]}"
        )
    row = kernel_matrix(p.kernel, p.support_vectors, x[:, None])[:, 0]
    sums = np.bincount(p.machine, weights=p.dual_coefs * row[p.sv_index], minlength=p.biases.size)
    return sums + p.biases


def predict_multiclass(m: SvmModel, x) -> tuple[int, np.ndarray]:
    """Majority vote across pairwise machines.

    A machine's score of exactly 0 votes for its positive class. Vote ties
    break by the larger sum of |score| over the machines the tied class
    won, then by the smaller class id.
    """
    scores = decision_values(m, x)
    winners = np.where(scores >= 0, m.packed.positive, m.packed.negative)
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
