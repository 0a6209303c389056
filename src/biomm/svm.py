"""Soft-margin kernel SVM trained by sequential minimal optimization.

The dual (maximize sum a_i - 1/2 sum a_i a_j y_i y_j K_ij subject to
0 <= a_i <= C and sum a_i y_i = 0) is solved two multipliers at a time
with the analytic clipped update, as LIBSVM solves it: the first
multiplier is the maximal KKT violator, the second the one whose pairing
with it gains most in the second-order model of the objective, and the
solver stops on the KKT gap and returns the bias with the multipliers.
Multiclass problems train one machine per unordered class pair and
predict by majority vote. The machines of a one-vs-one model are solved
together in lock step: one vectorized step moves every machine that has
not yet converged, and each machine takes exactly the steps it would take
alone, so the model equals the one that training them one at a time gives.
The step works on a stack that holds the moving machines alone and shrinks
as they converge, and the biases are taken per group of machines with
equal free-multiplier counts, not machine by machine.

A one-vs-one model is stored in one dense layout, in memory and in the
model file, as LIBSVM stores one (Chang & Lin, "LIBSVM", ACM TIST 2(3),
2011): the training points once each, their class labels, one bias per
machine and one dual coefficient per (machine, point of its two classes),
exactly 0.0 where the multiplier was pruned. Each coefficient's machine and
point follow from the labels; the model derives them when it is built
(`_entries`), and training gathers each machine's block of one kernel
matrix over all points from the same derivation. A probe costs one kernel
row against the points and one segmented sum that gives every machine's
decision value. A 0.0 coefficient adds a zero (0.0 times a finite kernel
value) to its machine's sum, which leaves the sum's bits as they are, so
the model decides exactly as one of support vectors alone. The row-major points and their squared norms are
derived with the model too, and the row shares `kernel_matrix`'s arithmetic
bit for bit. `SvmModel.machines` are views of the nonzero coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClassError,
    ConvergenceError,
    DimensionError,
    DomainError,
)
from .ingest import LabeledDataset

MAX_ITERATIONS = 100_000
PRUNE_TOL = 1e-12
TAU = 1e-12  # LIBSVM's floor on the curvature of a working-set direction
STACK_BYTES = 1 << 22  # the most kernel-matrix bytes `_smo` solves in one stack


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


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise kernel values between the columns of a and b.

    An entry depends only on its two columns, bit for bit, so a block of at
    least 2 x 2 equals the matrix of its own points: the dot products come
    from a general matrix product, never BLAS's symmetric one (a.T @ a),
    which rounds an entry by where it falls, and each squared norm is summed
    along its own contiguous row.
    """
    if a.shape[0] != b.shape[0]:
        raise DimensionError("kernel operands differ in dimension")
    a_rows = np.array(a.T, order="C")  # a copy, never the buffer of b
    return _kernel_rows(spec, a_rows, _squared_norms(a_rows), b)


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row, summed along the contiguous row."""
    return (rows * rows).sum(axis=1)


def _kernel_rows(spec: KernelSpec, a_rows: np.ndarray, sq_a: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """The kernel values between the rows of the C-ordered a_rows, whose
    squared norms are sq_a, and the columns of b: the arithmetic of
    `kernel_matrix`, for callers that keep a_rows and sq_a."""
    gram = a_rows @ b
    if spec.kind == "linear":
        return gram
    sq_b = np.ascontiguousarray((b * b).T).sum(axis=1)[None, :]
    sq = np.maximum(sq_a[:, None] + sq_b - 2.0 * gram, 0.0)
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


# the stored array fields of SvmModel and their element types
_ARRAY_FIELDS = (
    ("points", np.float64),
    ("labels", np.intp),
    ("dual_coefs", np.float64),
    ("biases", np.float64),
)


def _entries(labels: np.ndarray, num_classes: int) -> tuple:
    """(machine, point) of each coefficient: machine k, the k-th pair (i, j)
    of np.triu_indices(num_classes, 1), takes the points labelled i or j in
    stored order. Each point's C - 1 machines, listed point by point, are put
    in machine order by one stable sort."""
    other = np.arange(num_classes - 1) + (np.arange(num_classes - 1) >= labels[:, None])
    low, high = np.minimum(labels[:, None], other), np.maximum(labels[:, None], other)
    machine = (low * (2 * num_classes - low - 1) // 2 + high - low - 1).ravel()  # triu index
    order = np.argsort(machine, kind="stable")
    return machine[order], np.repeat(np.arange(labels.size), num_classes - 1)[order]


@dataclass(frozen=True, eq=False)
class SvmModel:
    """One-vs-one multiclass model in the dense layout; its arrays are read-only.

    Machine k decides class_pairs[k] = (i, j), the k-th pair of
    np.triu_indices: a score >= 0 votes for i, a score < 0 for j. It has one
    dual coefficient a * y per point of classes i and j, in stored order,
    0.0 where the point is not a support vector; dual_coefs holds them
    machine by machine. The fields after kernel are derived from the others
    when the model is built, read-only, and stored nowhere.
    """

    num_classes: int
    points: np.ndarray      # d x n: every training point once, in training order
    labels: np.ndarray      # per point: its class
    dual_coefs: np.ndarray  # per (machine, point of its two classes): a_i * y_i
    biases: np.ndarray      # per machine
    kernel: KernelSpec
    class_pairs: np.ndarray = field(init=False, repr=False)  # P x 2: (positive, negative) class
    sv_index: np.ndarray = field(init=False, repr=False)     # per coefficient: its point's column
    machine: np.ndarray = field(init=False, repr=False)      # per coefficient: its machine
    sv_rows: np.ndarray = field(init=False, repr=False)      # points.T, C-ordered
    sv_sq_norms: np.ndarray = field(init=False, repr=False)  # per row of sv_rows

    def __post_init__(self):
        classes = self.num_classes
        if classes < 2:
            raise ClassError("a one-vs-one model needs at least two classes")
        for name, dtype in _ARRAY_FIELDS:
            array = np.array(getattr(self, name), dtype=dtype, order="C")
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        # the counts first: a class count from a file must not size an
        # array unless the stored biases are that many already
        if self.biases.shape != (classes * (classes - 1) // 2,):
            raise DomainError(f"need one bias for each pair of classes 0..{classes - 1}")
        if self.points.ndim != 2:
            raise DimensionError("the points must be a d x n matrix")
        n = self.points.shape[1]
        if self.labels.shape != (n,) or self.dual_coefs.shape != ((classes - 1) * n,):
            raise DimensionError(f"need one label and {classes - 1} dual coefficients per point")
        if not np.array_equal(np.unique(self.labels), np.arange(classes)):
            raise DomainError(f"labels must be classes 0..{classes - 1}, every class at least once")
        machine, sv_index = _entries(self.labels, classes)
        rows = np.array(self.points.T, order="C")
        for name, array in (("class_pairs", np.column_stack(np.triu_indices(classes, 1))),
                            ("sv_index", sv_index), ("machine", machine),
                            ("sv_rows", rows), ("sv_sq_norms", _squared_norms(rows))):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def machines(self) -> tuple:
        """One BinarySvm per machine, in class_pairs order, holding the points
        of its nonzero coefficients."""
        kept = np.flatnonzero(self.dual_coefs)
        starts = np.searchsorted(self.machine[kept], np.arange(1, self.biases.size))
        return tuple(
            BinarySvm(self.points[:, self.sv_index[entries]], self.dual_coefs[entries],
                      float(bias), self.kernel)
            for entries, bias in zip(np.split(kept, starts), self.biases)
        )


def _smo(k: np.ndarray, y: np.ndarray, size, c: float, tol: float):
    """LIBSVM's SMO on B machines at once, in lock step. Returns (alphas, biases).

    Machine b solves min 1/2 a'Qa - sum(a), Q = (y y') * K, over
    0 <= a <= c and y'a = 0 (Fan, Chen & Lin, JMLR 6, 2005; Chang & Lin,
    ACM TIST 2(3), 2011) on its kernel matrix k[b] (B x n x n) and labels
    y[b] (B x n), of which the first size[b] entries are real; the rest is
    padding whose kernel entries must be 0. Padding gets lower = upper = 0,
    so it never enters I_up or I_low and never moves.

    The state is signed, which spares every case split on y: v = y * a lies
    in [0, c] where y = +1 and in [-c, 0] where y = -1, and
    score = -y * G = y - K v, G = Qa - 1 being the dual gradient. Each step
    raises v_i for the i in I_up (v_i below its bound) of largest score m,
    and lowers v_j for the j in I_low (v_j above its bound) maximizing b^2/a,
    b = m - score_j > 0, a = K_ii + K_jj - 2 K_ij floored at TAU. Both move
    by b/a or less, so neither passes its bound, and one that reaches it is
    set to it exactly. A machine stops once its KKT gap m - M, M the least
    score over I_low, is at most tol, and never moves again, so each machine
    takes exactly the steps it would take alone. Its bias is the mean score
    over its free multipliers, or (m + M) / 2 when every multiplier is at a
    bound.

    The stack holds the state of the moving machines alone: v, score, the
    bounds and the kernel and curvature blocks. A machine that stops has its
    v, score, m and M written back and leaves the stack, so no step gathers
    the state of every machine. The biases are then taken per group of
    machines with one count f of free multipliers: their free scores form
    a B_f x f matrix, summed along its rows and divided by f, which adds in
    the order score[b, free[b]].mean() adds, bit for bit. np.add.reduceat
    adds a segment in another order and moves the last bit of some biases.
    """
    batch, n = y.shape
    real = np.arange(n) < np.asarray(size)[:, None]
    lower = np.where(real & (y < 0), -c, 0.0)
    upper = np.where(real & (y > 0), c, 0.0)
    diag = np.diagonal(k, axis1=1, axis2=2)
    curvature = np.maximum(diag[:, :, None] + diag[:, None, :] - 2.0 * k, TAU)
    # each machine's final state, written when it stops
    v_out, score_out = np.empty((batch, n)), np.empty((batch, n))
    top, bottom = np.empty(batch), np.empty(batch)
    # the stack: row r of v, score, lo and hi holds the state of moving
    # machine ids[r], and rows r * n .. r * n + n - 1 of k and curvature its
    # blocks, so entry (r, i) of a state array is its flat entry base[r] + i
    ids, v, score, lo, hi = np.arange(batch), np.zeros((batch, n)), y.copy(), lower, upper
    k, curvature, base = k.reshape(-1, n), curvature.reshape(-1, n), np.arange(batch) * n
    for steps in range(MAX_ITERATIONS + 1):
        up = np.where(v < hi, score, -np.inf)
        low = np.where(v > lo, score, np.inf)
        i = up.argmax(axis=1)
        m, least = up.take(base + i), low.min(axis=1)
        open_ = m - least > tol
        if not open_.all():
            done, stopped = ~open_, ids[~open_]
            v_out[stopped], score_out[stopped] = v[done], score[done]
            top[stopped], bottom[stopped] = m[done], least[done]
            ids, v, score, lo, hi, i, m, least, low = (
                a[open_] for a in (ids, v, score, lo, hi, i, m, least, low))
            if ids.size == 0:
                break
            blocks = np.repeat(open_, n)
            k, curvature, base = k[blocks], curvature[blocks], np.arange(ids.size) * n
        if steps == MAX_ITERATIONS:
            raise ConvergenceError(
                f"SMO hit the {MAX_ITERATIONS}-iteration cap with KKT gap "
                f"{(m - least).max():.3e} > tol {tol:.3e}"
            )
        fi = base + i
        gain = np.maximum(m[:, None] - low, 0.0)
        curve_i = curvature.take(fi, axis=0)
        fj = base + (gain * gain / curve_i).argmax(axis=1)
        v_i, v_j, hi_i, lo_j = v.take(fi), v.take(fj), hi.take(fi), lo.take(fj)
        room_up, room_down = hi_i - v_i, v_j - lo_j
        step = np.minimum(np.minimum(gain.take(fj) / curve_i.take(fj), room_up), room_down)
        new_i = np.where(step == room_up, hi_i, v_i + step)
        new_j = np.where(step == room_down, lo_j, v_j - step)
        score -= (k.take(fi, axis=0) * (new_i - v_i)[:, None]
                  + k.take(fj, axis=0) * (new_j - v_j)[:, None])
        v.put(fi, new_i)
        v.put(fj, new_j)
    free = (v_out > lower) & (v_out < upper)
    counts = free.sum(axis=1)
    biases = 0.5 * (top + bottom)
    for count in np.unique(counts[counts > 0]):
        group = np.flatnonzero(counts == count)
        biases[group] = score_out[group][free[group]].reshape(-1, count).sum(axis=1) / count
    return y * v_out, biases


def _check_problem(x: np.ndarray, y: np.ndarray) -> None:
    if x.ndim != 2 or y.shape != (x.shape[1],):
        raise DimensionError("x must be d x n with one label per column")
    if not (np.abs(y) == 1.0).all():
        raise DomainError("labels must be -1 or +1")
    if (y == 1.0).all() or (y == -1.0).all():
        raise ClassError("both classes must be present")


def _solve(k: np.ndarray, index: np.ndarray, y: np.ndarray, c: float, tol: float):
    """Machine b trains on the points index[b] of the kernel matrix k, labelled
    y[b] (B x n each; a machine of fewer points is padded at the end with
    y = 0). The machines' blocks of k are gathered into zero-padded stacks of
    at most STACK_BYTES (at least one machine each) that `_smo` solves.
    Returns the B x n multipliers a, 0 on padding, and the biases.
    """
    if c <= 0 or tol <= 0:
        raise DomainError("c and tol must be positive")
    batch, n = y.shape
    real = y != 0
    alphas, biases = np.empty((batch, n)), np.empty(batch)
    per_chunk = max(1, STACK_BYTES // (8 * n * n))
    for start in range(0, batch, per_chunk):
        part = slice(start, start + per_chunk)
        rows, pad = index[part], real[part]
        stack = k[rows[:, :, None], rows[:, None, :]]
        stack *= pad[:, :, None] & pad[:, None, :]
        alphas[part], biases[part] = _smo(stack, y[part], pad.sum(axis=1), c, tol)
    return alphas, biases


def train_binary(
    x: np.ndarray, y: np.ndarray, kernel: KernelSpec, c: float, tol: float = 1e-3
) -> BinarySvm:
    """Train one soft-margin machine on columns of x with labels in {-1,+1}."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_problem(x, y)
    alphas, biases = _solve(kernel_matrix(kernel, x, x), np.arange(y.size)[None], y[None], c, tol)
    keep = np.flatnonzero(alphas[0] > PRUNE_TOL)
    return BinarySvm(x[:, keep], (alphas[0] * y)[keep], float(biases[0]), kernel)


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
    """One-vs-one training: a machine for every unordered class pair, all solved together.

    Machine (i, j), i < j, trains on the points of classes i (+1) and j (-1)
    in training order, with its block of one kernel matrix over all points.
    """
    if ds.num_classes < 2:
        raise ClassError("multiclass training needs at least two classes")
    x, labels = ds.features, ds.labels
    # machine b's points, in training order, fill row b of the padded index,
    # in the order of the model's coefficients
    machine, point = _entries(labels, ds.num_classes)
    sizes = np.bincount(machine)
    pos = np.arange(point.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    index = np.zeros((sizes.size, sizes.max()), dtype=np.intp)
    y = np.zeros(index.shape)
    index[machine, pos] = point
    first = np.triu_indices(ds.num_classes, 1)[0]
    y[machine, pos] = np.where(labels[point] == first[machine], 1.0, -1.0)
    alphas, biases = _solve(kernel_matrix(kernel, x, x), index, y, c, tol)
    return SvmModel(
        num_classes=ds.num_classes,
        points=x,
        labels=labels,
        dual_coefs=np.where(alphas > PRUNE_TOL, alphas * y, 0.0)[machine, pos],
        biases=biases,
        kernel=kernel,
    )


def decision_values(m: SvmModel, x) -> np.ndarray:
    """Every machine's decision value at x, in m.class_pairs order.

    One kernel row against the points, formed from the model's sv_rows and
    sv_sq_norms by `kernel_matrix`'s arithmetic (so it equals
    kernel_matrix(m.kernel, m.points, x[:, None]) bit for bit), then one
    segmented sum of dual coefficient times kernel value per machine.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.points.shape[0],):
        raise DimensionError(f"input dimension {x.shape} != point dimension {m.points.shape[0]}")
    row = _kernel_rows(m.kernel, m.sv_rows, m.sv_sq_norms, x[:, None])[:, 0]
    sums = np.bincount(m.machine, weights=m.dual_coefs * row[m.sv_index], minlength=m.biases.size)
    return sums + m.biases


def machine_winners(m: SvmModel, scores: np.ndarray) -> np.ndarray:
    """The class each machine votes for, given its decision value: the
    positive class at a score >= 0, the negative class below."""
    return np.where(scores >= 0, m.class_pairs[:, 0], m.class_pairs[:, 1])


def predict_multiclass(m: SvmModel, x) -> tuple[int, np.ndarray]:
    """Majority vote across pairwise machines.

    A machine's score of exactly 0 votes for its positive class. Vote ties
    break by the larger sum of |score| over the machines the tied class
    won, then by the smaller class id.
    """
    scores = decision_values(m, x)
    winners = machine_winners(m, scores)
    votes = np.bincount(winners, minlength=m.num_classes)
    strengths = np.bincount(winners, weights=np.abs(scores), minlength=m.num_classes)
    top = votes.max()
    tied = np.flatnonzero(votes == top)
    if tied.size == 1:
        return int(tied[0]), votes
    best = tied[np.argmax(strengths[tied])]  # argmax keeps the smaller id on ties
    return int(best), votes
