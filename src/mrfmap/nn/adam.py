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

from dataclasses import dataclass, field

import numpy as np

from ..files import fits, number, real_rows

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

    The learning rate must be a finite positive number and the step count a
    nonnegative integer (``files.number``): at step -1 the first bias
    correction would divide by 0.
    Each parameter must be a writeable array of a floating dtype, and each
    moment a writeable array of its parameter's dtype, as the step writes
    both in place. ``grads`` and both moments must fit the parameters'
    names and shapes (``files.fits``), and each gradient must be a real,
    finite array (or nested list). Otherwise ValueError is raised, naming
    every array at fault of the first rule broken, before anything changes.
    """
    lr = number("learning_rate", state.learning_rate)
    if lr <= 0:
        raise ValueError(f"learning_rate must be finite and positive, got {lr}")
    step = number("step", state.step, integral=True)
    if step < 0:
        raise ValueError(f"step must be a nonnegative integer, got {step}")
    bad = [repr(key) for key, p in params.items()
           if not (isinstance(p, np.ndarray) and np.issubdtype(p.dtype, np.floating)
                   and p.flags.writeable)]
    if bad:
        raise ValueError("parameters that are not writeable arrays of a floating dtype: "
                         f"{', '.join(bad)}")
    shapes = {key: p.shape for key, p in params.items()}
    for name, arrays in (("gradients", grads), ("moments m", state.m), ("moments v", state.v)):
        fits(name, arrays, shapes)
    bad = [f"{name}[{key!r}]" for name, moments in (("m", state.m), ("v", state.v))
           for key, p in params.items()
           if not (isinstance(moments[key], np.ndarray) and moments[key].dtype == p.dtype
                   and moments[key].flags.writeable)]
    if bad:
        raise ValueError("moments that are not writeable arrays of their parameters' "
                         f"dtypes: {', '.join(bad)}")
    # One row, so that a bad gradient's message stays one line long.
    checked = {key: real_rows(f"gradient {key!r}", np.reshape(grads[key], (1, -1)),
                              dtype=p.dtype).reshape(p.shape) for key, p in params.items()}
    state.step = t = step + 1
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
