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

from .dynamics import Parameterization
from .equivariant import max_step_adjacency
from .graph import Graph
from .network import NetworkParams, forward
from .training import (TrainConfig, backward, collapse_shared_grads,
                       cross_entropy_logit_grad, init_params, masked_cross_entropy,
                       params_to_tensors, rebuild_params)

FD_STEP = 1e-6
KINK_GUARD = 2e-4


def random_instance(rng, n_max: int = 6, dropout_choices=(0.0, 0.3), max_tries: int = 80):
    """A random (graph, params, masks) triple at a smooth point of the loss."""
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
            parameterization=rng.choice([Parameterization.LEARN_K, Parameterization.LEARN_W]),
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

        mask_rng = np.random.default_rng(cfg.seed)
        _, trace = forward(g, params, mode="train", rng=mask_rng)
        masks = None
        if trace.input_mask is not None:
            masks = [trace.input_mask, *trace.layer_masks, trace.final_mask]
        if _smooth_point(trace):
            return g, params, masks
    raise RuntimeError("could not find a smooth random instance")


def _smooth_point(trace) -> bool:
    return not any(np.any(np.abs(adj_pre) < KINK_GUARD) for adj_pre in trace.layer_adj_pre)


def loss_at(g: Graph, params: NetworkParams, masks) -> float:
    mode = "eval" if masks is None else "train"
    logits, _ = forward(g, params, mode=mode, dropout_masks=masks)
    return masked_cross_entropy(logits, g.labels, g.train_mask)


def analytic_gradients(g: Graph, params: NetworkParams, masks) -> dict:
    mode = "eval" if masks is None else "train"
    logits, trace = forward(g, params, mode=mode, dropout_masks=masks)
    seed = cross_entropy_logit_grad(logits, g.labels, g.train_mask)
    return collapse_shared_grads(backward(trace, g, params, seed), params)


def fd_gradients(g: Graph, params: NetworkParams, masks, step: float = FD_STEP) -> dict:
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
                p = rebuild_params(params, bumped, clamp_steps=False)
                flat[idx] += sign * loss_at(g, p, masks)
        out[key] = grad / (2.0 * step)
    return out


def max_gradient_rel_error(rng, step: float = FD_STEP) -> float:
    """Worst per-tensor relative deviation between backward and central FD."""
    g, params, masks = random_instance(rng)
    analytic = analytic_gradients(g, params, masks)
    numeric = fd_gradients(g, params, masks, step)
    worst = 0.0
    for key, fd in numeric.items():
        diff = float(np.abs(analytic[key] - fd).max())
        scale = max(float(np.abs(fd).max()), 1e-8)
        worst = max(worst, diff / scale)
    return worst
