import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from biomm import knn, lda, mfcc, pca, pipeline, svm
from biomm.errors import ConvergenceError, DimensionError, DomainError


def kernel_eval(spec: svm.KernelSpec, x, y) -> float:
    """k(x, y) of one pair of points, the definition `svm.kernel_matrix` is
    checked against: dot product for linear, exp(-gamma*||x-y||^2) for rbf."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"kernel operands differ in shape ({x.shape} vs {y.shape})")
    if spec.kind == "linear":
        return float(x @ y)
    diff = x - y
    return float(np.exp(-spec.gamma * (diff * diff).sum()))


def reconstruct_alphas(machine, x_train):
    """Per-training-point alpha magnitudes, matched positionally.

    Pruned points carry alpha 0. Support vectors preserve training order,
    so a forward scan with exact column equality recovers the assignment
    (identical columns are interchangeable for KKT purposes).
    """
    n = x_train.shape[1]
    alphas = np.zeros(n)
    sv = machine.support_vectors
    coef = np.abs(machine.dual_coefs)
    j = 0
    for i in range(n):
        if j < sv.shape[1] and np.array_equal(x_train[:, i], sv[:, j]):
            alphas[i] = coef[j]
            j += 1
    assert j == sv.shape[1], "support vectors did not align with training columns"
    return alphas


def kkt_worst_violation(machine, x_train, y_train, c):
    """Worst violation of the three KKT cases over all training points,
    for a machine trained with box constraint c.

    a=0      -> y*f >= 1 (violation: 1 - y*f)
    0<a<c    -> y*f = 1  (violation: |y*f - 1|)
    a=c      -> y*f <= 1 (violation: y*f - 1)
    """
    alphas = reconstruct_alphas(machine, x_train)
    worst = 0.0
    for i in range(x_train.shape[1]):
        score, _ = svm.predict_binary(machine, x_train[:, i])
        margin = y_train[i] * score
        a = alphas[i]
        if a <= 1e-9:
            worst = max(worst, 1.0 - margin)
        elif a >= c - 1e-9:
            worst = max(worst, margin - 1.0)
        else:
            worst = max(worst, abs(margin - 1.0))
    return worst


def dual_objective(machine):
    """Dual objective value of a trained machine (computable from SVs alone)."""
    coef = machine.dual_coefs
    k = svm.kernel_matrix(machine.kernel, machine.support_vectors, machine.support_vectors)
    return float(np.abs(coef).sum() - 0.5 * coef @ k @ coef)


def reference_smo(k: np.ndarray, y: np.ndarray, c: float, tol: float):
    """LIBSVM's SMO on one machine, one step per loop pass: the solver that
    `svm._smo` runs on a stack of machines in lock step. Returns (alphas, bias)."""
    lower, upper = np.where(y > 0, 0.0, -c), np.where(y > 0, c, 0.0)
    diag = np.diag(k)
    curvature = np.maximum(diag[:, None] + diag - 2.0 * k, svm.TAU)
    v = np.zeros(y.size)
    score = y.copy()
    for steps in range(svm.MAX_ITERATIONS + 1):
        up = np.where(v < upper, score, -np.inf)
        low = np.where(v > lower, score, np.inf)
        i = up.argmax()
        top, bottom = up[i], low.min()
        if top - bottom <= tol:
            break
        if steps == svm.MAX_ITERATIONS:
            raise ConvergenceError(
                f"SMO hit the {svm.MAX_ITERATIONS}-iteration cap with KKT gap "
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


def pack(points, labels, machines) -> svm.SvmModel:
    """The one-vs-one model over the labelled points (d x n, one class label
    per column) whose machine k, for the k-th class pair (i, j), i < j, in
    np.triu_indices order, is machines[k].

    Each machine's coefficients go into the dense layout: one row per
    machine over the points of its two classes, in stored order, holding
    each support vector's dual coefficient at the first point not yet taken
    that equals it, at or after the previous one's (support vectors keep
    training order; equal points are interchangeable), and 0.0 elsewhere.
    A support vector that equals no such point lies outside its machine's
    two classes and is refused. The layout that `svm.train_multiclass`
    derives from point indices, built here pair by pair from the values of
    the machines' support vectors.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    num_classes = int(labels.max()) + 1
    kernels = {machine.kernel for machine in machines}
    if len(kernels) != 1:
        raise DomainError("all machines must share one kernel")
    if {machine.support_vectors.shape[0] for machine in machines} != {points.shape[0]}:
        raise DimensionError("every machine's support vectors must have the points' dimension")
    pairs = [(i, j) for i in range(num_classes) for j in range(i + 1, num_classes)]
    rows = []
    for (i, j), machine in zip(pairs, machines):
        members = [p for p in range(points.shape[1]) if labels[p] in (i, j)]
        row = np.zeros(len(members))
        at = 0
        for sv, coef in zip(machine.support_vectors.T, machine.dual_coefs):
            while at < len(members) and not np.array_equal(points[:, members[at]], sv):
                at += 1
            if at == len(members):
                raise DomainError(f"a support vector of machine {(i, j)} is no point of its classes")
            row[at] = coef
            at += 1
        rows.append(row)
    return svm.SvmModel(
        num_classes=num_classes,
        points=points,
        labels=labels,
        dual_coefs=np.concatenate(rows),
        biases=[machine.bias for machine in machines],
        kernel=kernels.pop(),
    )


def reference_train_multiclass(ds, kernel, c: float, tol: float = 1e-3) -> svm.SvmModel:
    """One-vs-one training the long way: a kernel matrix per pair problem,
    stacked with zero padding in chunks of STACK_BYTES, solved by `svm._smo`,
    one BinarySvm per machine, then `pack`. `svm.train_multiclass` must give
    the same arrays."""
    problems = []
    for i in range(ds.num_classes):
        for j in range(i + 1, ds.num_classes):
            mask = (ds.labels == i) | (ds.labels == j)
            problems.append((ds.features[:, mask], np.where(ds.labels[mask] == i, 1.0, -1.0)))
    n = max(y.size for _, y in problems)
    per_chunk = max(1, svm.STACK_BYTES // (8 * n * n))
    machines = []
    for start in range(0, len(problems), per_chunk):
        chunk = problems[start:start + per_chunk]
        k = np.zeros((len(chunk), n, n))
        labels = np.zeros((len(chunk), n))
        for b, (x, y) in enumerate(chunk):
            k[b, :y.size, :y.size] = svm.kernel_matrix(kernel, x, x)
            labels[b, :y.size] = y
        alphas, biases = svm._smo(k, labels, [y.size for _, y in chunk], c, tol)
        for (x, y), a, bias in zip(chunk, alphas, biases):
            keep = np.flatnonzero(a[:y.size] > svm.PRUNE_TOL)
            machines.append(svm.BinarySvm(x[:, keep], (a[:y.size] * y)[keep], float(bias), kernel))
    return pack(ds.features, ds.labels, machines)


def reference_scatter(ds) -> lda.ScatterPair:
    """`lda.scatter` with the columns grouped by a mask per class, each
    class's columns in the order given, then concatenated in class order.
    `lda.scatter` must give the same bits."""
    counts = np.bincount(ds.labels)
    columns = np.concatenate([ds.features[:, ds.labels == c] for c in range(counts.size)], axis=1)
    starts = np.cumsum(counts) - counts
    class_sums = np.add.reduceat(columns, starts, axis=1)
    class_means = class_sums / counts
    total_mean = class_sums.sum(axis=1) / counts.sum()
    centered = columns - np.repeat(class_means, counts, axis=1)
    diff = class_means - total_mean[:, None]
    return lda.ScatterPair(centered @ centered.T, (diff * counts) @ diff.T, total_mean)


def reference_loo_distances(points, labels) -> np.ndarray:
    """Leave-one-out mean distance of each gallery point, the long way: the
    other points, selected by mask, and the vote among the min(knn.K,
    points - 1) of them nearest point i. `knn.leave_one_out` must give the
    same bits."""
    n = points.shape[0]
    out = np.zeros(n)
    for i in range(n):
        keep = np.arange(n) != i
        dists = knn.distances(points[keep], points[i])
        out[i] = knn.vote(labels[keep], dists, min(knn.K, n - 1)).mean_distance
    return out


def reference_tau_fused(m) -> float:
    """`SystemModel.tau_fused` written out: the fused score of a face at
    tau_dist and a unanimous voice vote."""
    return m.w_face * (1.0 / (1.0 + m.tau_dist)) + (1.0 - m.w_face)


def reference_identify(m, face_image, voice_recording) -> pipeline.Decision:
    """`pipeline.identify` computed the long way: the face by `knn.classify`
    over the whole gallery, the voice by `svm.predict_multiclass`, and the
    score, fusion, candidate and rejection rules written out, with
    `reference_tau_fused`. The served decision must equal it."""
    nearest = knn.classify(m.face_gallery, pca.project(m.face, face_image.gray))
    q_voice = pca.project(m.voice_lda, mfcc.extract(voice_recording))
    voice_label, votes = svm.predict_multiclass(m.voice_svm, q_voice)
    w = m.w_face
    face_score = 1.0 / (1.0 + nearest.mean_distance)
    voice_score = int(votes[voice_label]) / (m.voice_svm.num_classes - 1)
    fused = w * face_score + (1.0 - w) * voice_score
    rejected = nearest.mean_distance > m.tau_dist and fused < reference_tau_fused(m)
    candidate = nearest.label if w * face_score >= (1.0 - w) * voice_score else voice_label
    names = m.class_names
    return pipeline.Decision(
        mode=pipeline.MODE_IDENTIFY,
        claimed_id=None,
        face_score=face_score,
        voice_score=voice_score,
        fused_score=fused,
        verdict=pipeline.VERDICT_REJECT if rejected else pipeline.VERDICT_ACCEPT,
        client_id=None if rejected else names[candidate],
        face_id=names[nearest.label],
        voice_id=names[voice_label],
    )


def reference_verify(m, face_image, voice_recording, claimed_id) -> pipeline.Decision:
    """`pipeline.verify` computed the long way: a one-client gallery of the
    claimed client's rows, selected by mask and built for the claim, the vote
    among the min(knn.K, its points) of them nearest the probe, and the
    claimed client's vote count from the full one-vs-one vote of
    `svm.predict_multiclass`, fused and thresholded at `reference_tau_fused`.
    The served decision must equal it."""
    cid = m.class_names.index(claimed_id)
    points = m.face_gallery.points[m.face_gallery.labels == cid]
    client = knn.KnnModel(points, np.zeros(points.shape[0], dtype=np.int64))
    dists = knn.distances(client.points, pca.project(m.face, face_image.gray))
    nearest = knn.vote(client.labels, dists, min(knn.K, points.shape[0]))
    face_score = 1.0 / (1.0 + nearest.mean_distance)
    q_voice = pca.project(m.voice_lda, mfcc.extract(voice_recording))
    _, votes = svm.predict_multiclass(m.voice_svm, q_voice)
    voice_score = int(votes[cid]) / (m.voice_svm.num_classes - 1)
    fused = m.w_face * face_score + (1.0 - m.w_face) * voice_score
    accepted = fused >= reference_tau_fused(m)
    return pipeline.Decision(
        mode=pipeline.MODE_VERIFY,
        claimed_id=claimed_id,
        face_score=face_score,
        voice_score=voice_score,
        fused_score=fused,
        verdict=pipeline.VERDICT_ACCEPT if accepted else pipeline.VERDICT_REJECT,
        client_id=claimed_id if accepted else None,
    )
