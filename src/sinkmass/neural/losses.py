"""Training losses and their gradients w.r.t. the network output.

Regression losses come in three kinds (L1, L2, absolute percentage error)
and two spaces. In log space the targets are replaced by their natural log
and the network output is already interpreted as log-mass, so no transform
is applied to it; consequently log-L1 on (y, net) equals L1 on (ln y, net)
exactly. Classification uses softmax cross-entropy.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..errors import NonPositiveTargetInLogSpace, ShapeMismatch


class LossKind(str, Enum):
    L1 = "l1"
    L2 = "l2"
    APE = "ape"


class LossSpace(str, Enum):
    LINEAR = "linear"
    LOG = "log"


def _targets(space: LossSpace, y: np.ndarray) -> np.ndarray:
    if space is LossSpace.LOG:
        if np.any(y <= 0):
            raise NonPositiveTargetInLogSpace("log-space losses need positive targets")
        return np.log(y)
    return y


def regression_loss(
    kind: LossKind, space: LossSpace, y: np.ndarray, yhat: np.ndarray
) -> tuple[float, np.ndarray]:
    """Scalar loss and its gradient w.r.t. ``yhat`` for one batch, computed
    in ``yhat``'s float dtype (float64 if it has none); the targets are
    transformed in float64 and then cast to it."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat)
    if yhat.dtype.kind != "f":
        yhat = yhat.astype(float)
    if y.shape != yhat.shape or y.size == 0:
        raise ShapeMismatch("loss needs equal-length, non-empty batches")
    t = _targets(space, y).astype(yhat.dtype, copy=False)
    n = y.size
    diff = yhat - t
    if kind is LossKind.L1:
        return float(np.mean(np.abs(diff))), np.sign(diff) / n
    if kind is LossKind.L2:
        return float(np.mean(diff**2)), 2.0 * diff / n
    denom = np.abs(t)
    return float(np.mean(np.abs(diff) / denom)), np.sign(diff) / (denom * n)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and gradient w.r.t. the logits, in the
    logits' dtype. The log-likelihood is the log-softmax of the max-shifted
    logits, which stays finite where the picked class's probability
    underflows to zero (in float32, at logit gaps above about 104)."""
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeMismatch("cross_entropy needs (B, K) logits and (B,) labels")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    n = logits.shape[0]
    rows = np.arange(n)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[rows, labels]))
    grad = e / total
    grad[rows, labels] -= 1.0
    return loss, grad / n
