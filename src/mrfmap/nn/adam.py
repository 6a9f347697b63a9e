"""Adam optimizer with bias correction (Kingma & Ba 2015, Algorithm 1).

``adam_update`` performs, per parameter array and in this order of
floating-point operations::

    m = BETA1 * m;  m += (1 - BETA1) * g
    v = BETA2 * v;  v += (1 - BETA2) * g * g
    p -= lr * (m / (1 - BETA1**t)) / (sqrt(v / (1 - BETA2**t)) + EPS)

The test suite compares a trajectory against a scalar recurrence written
in the same order bit for bit, so a change to this order is a change in
behaviour. Adam makes no promise that |p| falls monotonically: on
f(p) = p**2 with lr = 0.1 it overshoots zero and oscillates with shrinking
peaks before it settles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..files import number, real_rows

DEFAULT_LR = 1e-4
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    learning_rate: float = DEFAULT_LR
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray],
                   learning_rate: float = DEFAULT_LR) -> "AdamState":
        state = cls(learning_rate=learning_rate)
        state.m = {k: np.zeros_like(p) for k, p in params.items()}
        state.v = {k: np.zeros_like(p) for k, p in params.items()}
        return state


def adam_update(state: AdamState, params: dict[str, np.ndarray],
                grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One Adam step; parameters are updated in place and returned.

    ``grads`` must hold exactly the keys of ``params``, each a real, finite
    array (or nested list) of its parameter's shape, and the learning rate
    must be a finite positive number; otherwise ValueError is raised before
    anything changes.
    """
    lr = number("learning_rate", state.learning_rate)
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"learning_rate must be finite and positive, got {lr}")
    missing = [key for key in params if key not in grads]
    extra = [key for key in grads if key not in params]
    if missing or extra:
        raise ValueError(f"gradient keys differ from the parameters: "
                         f"missing {missing}, extra {extra}")
    checked = {}
    for key, p in params.items():
        shape = np.shape(grads[key])
        if shape != p.shape:
            raise ValueError(f"gradient shape {shape} != param shape {p.shape} for {key!r}")
        # One row, so that a bad gradient's message stays one line long.
        checked[key] = real_rows(f"gradient {key!r}", np.reshape(grads[key], (1, -1)),
                                 dtype=p.dtype).reshape(p.shape)
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for key, p in params.items():
        g, m, v = checked[key], state.m[key], state.v[key]
        # In place on two scratch arrays, in the documented order; a product
        # or sum with its operands swapped has the same bits.
        s, root = np.empty_like(p), np.empty_like(p)
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=s)
        m += s
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=s)
        s *= g
        v += s
        np.divide(m, bc1, out=s)
        s *= lr
        np.divide(v, bc2, out=root)
        np.sqrt(root, out=root)
        root += EPS
        s /= root
        p -= s
    return params
