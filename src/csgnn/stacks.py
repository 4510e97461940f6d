"""Conventions shared by the functions that take one matrix or a stack of them.

A stack has shape (..., n, m). A per-matrix quantity (a step size, a
coefficient, a distance, a bound) is a scalar for one matrix and an array
over the stack's leading axes for a stack. Each matrix of a stack gets the
bits a call on that matrix alone gives. `freeze` is how every frozen
container stores its arrays: as read-only copies.
"""

from __future__ import annotations

import numpy as np


def any_of(cond) -> bool:
    """Whether any per-matrix condition holds; a single one is taken as is."""
    return bool(cond.any()) if isinstance(cond, np.ndarray) else bool(cond)


def per_matrix(x):
    """A scalar as is; a per-matrix array with two trailing unit axes, so
    each value broadcasts over its own matrix."""
    return x[..., None, None] if isinstance(x, np.ndarray) else x


def scalar_or_stack(x):
    """A per-matrix result: a float for one matrix, the array for a stack."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def transposed(x: np.ndarray) -> np.ndarray:
    """The transpose of every matrix of a stack."""
    return np.swapaxes(x, -1, -2)


def all_symmetric(a: np.ndarray) -> bool:
    """Whether every matrix of a stack (or the one matrix) equals its transpose exactly."""
    return bool(np.array_equal(a, transposed(a)))


def freeze(obj, name: str, dtype=float, default=None) -> np.ndarray:
    """Set field `name` of the frozen dataclass `obj` to a read-only copy, as
    `dtype`, of its value (of `default` where that is None); returns the copy."""
    value = getattr(obj, name)
    arr = np.array(default if value is None else value, dtype=dtype)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr
