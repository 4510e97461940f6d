"""Central finite-difference verification of the hand-written reverse pass.

The analytic backward is checked against central differences of the training
loss, tensor by tensor, on random small instances. Instances whose adjacency
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


def random_instance(rng, n_max: int = 6, dropout_choices=(0.0, 0.3), max_tries: int = 80):
    """A random (graph, params, dropout seed) triple at a smooth point of the loss.

    Every training-mode forward from a fresh generator on the seed draws the
    same dropout masks, so the loss is a deterministic function of the
    parameters.
    """
    for _ in range(max_tries):
        n = int(rng.integers(4, n_max + 1))
        c_in = int(rng.integers(2, 4))
        c_out = int(rng.integers(2, 4))
        upper = np.triu(rng.random((n, n)) < 0.5, k=1)
        adjacency = (upper | upper.T).astype(float)
        labels = rng.integers(0, c_out, n)
        mask = rng.random(n) < 0.6
        if not mask.any():
            mask[0] = True
        g = Graph(adjacency=adjacency, features=rng.standard_normal((n, c_in)),
                  labels=labels, train_mask=mask)
        cfg = TrainConfig(
            hidden_dim=int(rng.integers(2, 5)),
            num_layers=int(rng.integers(1, 4)),
            h=0.3,
            alpha=-0.3 - abs(rng.standard_normal()),
            dropout_p=float(rng.choice(dropout_choices)),
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
    logits, _ = _seeded_forward(g, params, seed)
    return masked_cross_entropy(logits, g.labels, g.train_mask)


def analytic_gradients(g: Graph, params: NetworkParams, seed: int) -> dict:
    logits, trace = _seeded_forward(g, params, seed)
    logit_grad = cross_entropy_logit_grad(logits, g.labels, g.train_mask)
    return backward(trace, g, params, logit_grad)


def fd_gradients(g: Graph, params: NetworkParams, seed: int, step: float = FD_STEP) -> dict:
    tensors = params_to_tensors(params)
    out = {}
    for key, base in tensors.items():
        base = np.asarray(base, dtype=float)
        grad = np.zeros_like(base)
        flat = grad.reshape(-1)
        for idx in range(base.size):
            for sign in (+1.0, -1.0):
                bumped = dict(tensors)
                arr = np.array(base)
                arr.reshape(-1)[idx] += sign * step
                bumped[key] = arr
                p = rebuild_params(params, bumped)
                flat[idx] += sign * loss_at(g, p, seed)
        out[key] = grad / (2.0 * step)
    return out


def max_gradient_rel_error(rng, step: float = FD_STEP) -> float:
    """Worst per-tensor relative deviation between backward and central FD;
    NaN if any deviation is NaN."""
    g, params, seed = random_instance(rng)
    analytic = analytic_gradients(g, params, seed)
    numeric = fd_gradients(g, params, seed, step)
    errors = []
    for key, fd in numeric.items():
        diff = float(np.abs(analytic[key] - fd).max())
        scale = max(float(np.abs(fd).max()), 1e-8)
        errors.append(diff / scale)
    return np.nan if np.isnan(errors).any() else max([0.0] + errors)
