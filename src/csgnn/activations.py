"""LeakyReLU family used by both dynamical systems.

Slopes live in (0, 1] so the derivative stays in [0, 1]; slope 1 degrades to
the identity, which the hand-computable test oracles rely on.
"""

from __future__ import annotations

import numpy as np


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    # For slope in (0, 1], max(x, slope*x) picks x on the positive side and
    # slope*x on the negative side: the same bits as np.where(x > 0, x, slope*x).
    # The result overwrites slope*x, so no third array of x's size is live.
    y = slope * x
    return np.maximum(x, y, out=y)

def leaky_relu_prime(x: np.ndarray, slope: float) -> np.ndarray:
    # Subgradient at the kink is resolved to the negative-side slope.
    return np.where(x > 0, 1.0, slope)
