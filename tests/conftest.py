import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from biomm import svm


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
