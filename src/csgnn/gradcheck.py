"""Central finite-difference verification of the hand-written reverse pass.

The analytic backward is checked against central differences of the training
loss, tensor by tensor, on random small instances drawn one at a time. Each
tensor's differences come from one stacked forward over all its bumped
copies (the stack convention of `stacks.py`). Instances whose adjacency
pre-activations sit within KINK_GUARD of a LeakyReLU kink are resampled: the
loss is only differentiable off that set, and finite differences straddle it.
The feature layer has no kink on the symmetric graphs drawn here, where its
LeakyReLU cancels pairwise.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .equivariant import equivariant_linear, max_step_adjacency
from .graph import Graph
from .network import NetworkParams, forward
from .training import (TrainConfig, backward, cross_entropy_logit_grad, init_params,
                       masked_cross_entropy, params_to_tensors, rebuild_params)

FD_STEP = 1e-6
KINK_GUARD = 2e-4
N_MAX = 6
DROPOUT_CHOICES = (0.0, 0.3)
MAX_TRIES = 80


def random_instance(rng):
    """A random (graph, params, dropout seed) triple at a smooth point of the
    loss: at most N_MAX nodes, dropout from DROPOUT_CHOICES, MAX_TRIES draws.

    Every training-mode forward from a fresh generator on the seed draws the
    same dropout masks, so the loss is a deterministic function of the parameters.
    """
    for _ in range(MAX_TRIES):
        n = int(rng.integers(4, N_MAX + 1))
        c_in = int(rng.integers(2, 4))
        c_out = int(rng.integers(2, 4))
        upper = np.triu(rng.random((n, n)) < 0.5, k=1)
        labels = rng.integers(0, c_out, n)
        mask = rng.random(n) < 0.6
        if not mask.any():
            mask[0] = True
        g = Graph(edges=np.argwhere(upper), features=rng.standard_normal((n, c_in)),
                  labels=labels, train_mask=mask)
        cfg = TrainConfig(
            hidden_dim=int(rng.integers(2, 5)),
            num_layers=int(rng.integers(1, 4)),
            h=0.3,
            alpha=-0.3 - abs(rng.standard_normal()),
            dropout_p=float(rng.choice(DROPOUT_CHOICES)),
            share_weights=bool(rng.integers(0, 2)),
            seed=int(rng.integers(0, 2**31)),
        )
        params = init_params(c_in, c_out, n, cfg, rng)
        # keep coefficients away from the |k| subgradient tie and the step clamp
        layers = []
        for layer in params.layers:
            k = layer.adjacency.coeffs.k.copy()
            k = np.where(np.abs(k) < 0.05, 0.05 * np.sign(k) + (k == 0) * 0.05, k)
            k *= 1.0 + rng.random(8)
            coeffs = dataclasses.replace(layer.adjacency.coeffs, k=k)
            h_adj = 0.5 * max_step_adjacency(coeffs)
            layers.append(dataclasses.replace(
                layer, adjacency=dataclasses.replace(layer.adjacency, coeffs=coeffs, h=h_adj)))
        if params.share_weights:
            layers = [layers[0]] * len(layers)
        params = dataclasses.replace(params, layers=tuple(layers))

        _, trace = _seeded_forward(g, params, cfg.seed)
        if _smooth_point(trace, params):
            return g, params, cfg.seed
    raise RuntimeError("could not find a smooth random instance")


def _smooth_point(trace, params: NetworkParams) -> bool:
    # every layer's pre-activation M(A_l), the last one's included, stays off the kink
    return not any(np.any(np.abs(equivariant_linear(a, layer.adjacency.coeffs)) < KINK_GUARD)
                   for a, layer in zip(trace.adjacency_states, params.layers))


def _seeded_forward(g: Graph, params: NetworkParams, seed: int):
    return forward(g, params, mode="train", rng=np.random.default_rng(seed))


def loss_at(g: Graph, params: NetworkParams, seed: int) -> float:
    """The training loss under the seed's dropout masks; one per member for
    stacked parameters, whose members all share those masks."""
    logits, _ = _seeded_forward(g, params, seed)
    return masked_cross_entropy(logits, g.labels, g.train_mask)


def analytic_gradients(g: Graph, params: NetworkParams, seed: int) -> dict:
    logits, trace = _seeded_forward(g, params, seed)
    logit_grad = cross_entropy_logit_grad(logits, g.labels, g.train_mask)
    return backward(trace, g, params, logit_grad)


def fd_gradients(g: Graph, params: NetworkParams, seed: int) -> dict:
    """Central differences (L(+FD_STEP) - L(-FD_STEP)) / (2 FD_STEP) of the
    loss in every entry of every trainable tensor.

    Each tensor's 2*size bumped copies (the base with one entry moved by
    +FD_STEP, then each by -FD_STEP) run as one stack through `loss_at`; the other
    tensors stay unstacked, and a loss that does not depend on the stacked
    tensor (the last layer's unread k) serves every copy. A stack has at most
    2 * 16 members, the largest tensor `random_instance` draws being a 4 x 4 K.
    """
    tensors = params_to_tensors(params)
    out = {}
    for key, base in tensors.items():
        base = np.asarray(base, dtype=float)
        size = base.size
        # bumped[s, i]: the flat base with entry i moved by +FD_STEP (s = 0) or -FD_STEP (s = 1)
        bumped = np.tile(base.reshape(-1), (2, size, 1))
        entry = np.arange(size)
        bumped[0, entry, entry] += FD_STEP
        bumped[1, entry, entry] -= FD_STEP
        stack = bumped.reshape((2 * size,) + base.shape)
        losses = loss_at(g, rebuild_params(params, {**tensors, key: stack}), seed)
        losses = np.broadcast_to(losses, (2 * size,))
        out[key] = ((losses[:size] - losses[size:]) / (2.0 * FD_STEP)).reshape(base.shape)
    return out


def max_gradient_rel_error(rng) -> float:
    """Worst per-tensor relative deviation between backward and central FD;
    NaN if any deviation is NaN."""
    g, params, seed = random_instance(rng)
    analytic = analytic_gradients(g, params, seed)
    numeric = fd_gradients(g, params, seed)
    errors = [float(np.abs(analytic[key] - fd).max()) / max(float(np.abs(fd).max()), 1e-8)
              for key, fd in numeric.items()]
    return np.nan if np.isnan(errors).any() else max([0.0] + errors)
