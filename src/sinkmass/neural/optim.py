"""AdamW with decoupled weight decay and the cosine annealing schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeMismatch

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8


@dataclass
class AdamWState:
    """First/second moment accumulators plus the shared step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One in-place update with bias-corrected moments of exactly the
    parameters named in ``grads``; the others, and their moments, are left
    untouched.

    Weight decay is decoupled: it shrinks the weights directly instead of
    flowing through the gradient moments, so a zero-gradient parameter with
    decay lambda still contracts by (1 - lr*lambda) per step. Gradients are
    cast to the weights' dtype, so the moments and the update run in its
    precision.
    """
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for name, g in grads.items():
        w = params[name]
        g = g.astype(w.dtype, copy=False)
        if g.shape != w.shape:
            raise ShapeMismatch(f"gradient for {name} has shape {g.shape}, want {w.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(w)
            state.v[name] = np.zeros_like(w)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        w -= lr * m_hat / (np.sqrt(v_hat) + EPS)
        if weight_decay > 0.0:
            w -= lr * weight_decay * w


def cosine_lr(step: int, total_steps: int, lr_max: float, lr_min: float) -> float:
    """Cosine annealing from lr_max (step 0) down to lr_min (final step)."""
    if total_steps <= 0:
        return lr_min
    frac = min(max(step / total_steps, 0.0), 1.0)
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * frac))
