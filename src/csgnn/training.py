"""Gradient-based training: masked cross-entropy, hand-written reverse mode,
Adam with decoupled weight decay, and the end-to-end training loop.

Gradients are propagated manually through the recorded forward trace, one
layer at a time through each step's own pullback. After every optimizer step
the per-layer step sizes are re-clamped to their contractive bounds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .dynamics import LayerParams, feature_field_vjp, max_feature_step
from .equivariant import (AdjacencyStepConfig, EquivariantCoeffs, adjacency_step_vjp,
                          max_step_adjacency)
from .graph import Graph
from .network import CoupledLayer, ForwardTrace, NetworkParams, adjacency_states, forward

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8

GROUP_EMBED = "embed"
GROUP_NODE = "node"
GROUP_ADJ = "adj"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameter surface: per-group learning rates and weight decay,
    dropout, architecture knobs, and the step-size / contractivity margin."""

    epochs: int = 200
    lr_embed: float = 1e-2
    lr_node: float = 1e-2
    lr_adj: float = 1e-2
    wd_embed: float = 5e-4
    wd_node: float = 5e-4
    wd_adj: float = 5e-4
    dropout_p: float = 0.0
    hidden_dim: int = 16
    num_layers: int = 2
    h: float = 0.5
    alpha: float = -1.0
    leaky_slope: float = 0.1
    share_weights: bool = False
    # "learn_k" is the only value: the feature layer learns K alone. The key
    # stays readable for configs that name it (perfbench's train-n1000 does).
    parameterization: str = "learn_k"
    patience: int = 50
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h must be finite and positive, got {self.h}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        for name in ("hidden_dim", "num_layers", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("lr_embed", "lr_node", "lr_adj", "wd_embed", "wd_node", "wd_adj"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
        if not (np.isfinite(self.alpha) and self.alpha <= 0):
            raise ValueError(f"alpha must be finite and nonpositive, got {self.alpha}")
        if not 0.0 < self.leaky_slope <= 1.0:
            raise ValueError(f"leaky_slope must lie in (0, 1], got {self.leaky_slope}")
        if self.parameterization != "learn_k":
            raise ValueError(f"parameterization must be 'learn_k', got {self.parameterization!r}:"
                             " the learn_w parameterization was removed")

    def group_lr(self, group: str) -> float:
        return {GROUP_EMBED: self.lr_embed, GROUP_NODE: self.lr_node, GROUP_ADJ: self.lr_adj}[group]

    def group_wd(self, group: str) -> float:
        return {GROUP_EMBED: self.wd_embed, GROUP_NODE: self.wd_node, GROUP_ADJ: self.wd_adj}[group]


def _masked_rows(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> tuple:
    """(mask, the masked rows' logits shifted by their maxima, their labels),
    after checking that the mask selects a node and every masked label names
    a class."""
    logits = np.asarray(logits, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask selects no nodes")
    sel = logits[mask]
    lab = np.asarray(labels)[mask]
    if lab.min() < 0 or lab.max() >= logits.shape[1]:
        raise ValueError("label out of range on a masked node")
    return mask, sel - sel.max(axis=1, keepdims=True), lab


def masked_cross_entropy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Mean negative log-softmax of the true class over masked nodes."""
    _, shifted, lab = _masked_rows(logits, labels, mask)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float((lse - shifted[np.arange(len(lab)), lab]).mean())


def cross_entropy_logit_grad(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """d(masked CE)/d(logits): (softmax - onehot)/count on masked rows, zero elsewhere."""
    mask, shifted, lab = _masked_rows(logits, labels, mask)
    out = np.zeros(np.shape(logits))
    ex = np.exp(shifted)
    probs = ex / ex.sum(axis=1, keepdims=True)
    probs[np.arange(len(lab)), lab] -= 1.0
    out[mask] = probs / len(lab)
    return out


def backward(trace: ForwardTrace, g: Graph, params: NetworkParams,
             logit_grad: np.ndarray) -> dict:
    """Reverse pass over a recorded trace; returns the gradients `adam_step`
    takes, keyed exactly like `params_to_tensors(params)`.

    A shared slot's gradient sums its layers' gradients in ascending layer
    order. Nothing reads the last layer's adjacency output, so `forward` does
    not compute it, its adjacency step is not pulled back and its share of
    the "k" gradient is zero. `g`, the graph `forward` ran on, is not read:
    the trace holds every adjacency state the pass needs.
    """
    L = params.depth
    if len(trace.adjacency_states) != L or len(trace.layer_dropped) != L:
        raise ValueError("trace does not match the given parameters")

    grads = {}
    grads["classifier_w"] = trace.final_dropped.T @ logit_grad
    grads["classifier_b"] = logit_grad.sum(axis=0)
    f_bar = logit_grad @ params.classifier_w.T
    if trace.final_mask is not None:
        f_bar = f_bar * trace.final_mask
    a_bar = np.zeros_like(trace.adjacency_states[-1])
    per_layer = [None] * L

    for l in range(L - 1, -1, -1):
        layer = params.layers[l]
        a_prev = trace.adjacency_states[l]
        # adjacency step A_next = A + h*sigma(M(A))
        if l == L - 1:
            k_grad = np.zeros(8)
        else:
            a_bar, k_grad = adjacency_step_vjp(a_prev, layer.adjacency, a_bar)

        # feature step F_next = F_d + h*X(F_d, A)
        f_d_bar, a_field_bar, K_grad = feature_field_vjp(
            trace.layer_dropped[l], a_prev, layer.feature, layer.feature.h * f_bar)
        a_bar = a_bar + a_field_bar
        per_layer[l] = {"K": K_grad, "k": k_grad}
        f_d_bar = f_d_bar + f_bar

        mask = trace.layer_masks[l]
        f_bar = f_d_bar if mask is None else f_d_bar * mask

    grads["encoder"] = trace.input_dropped.T @ f_bar
    for l, layer_grads in enumerate(per_layer):
        for name, grad in layer_grads.items():
            key = f"layer{_layer_slot(params, l)}.{name}"
            grads[key] = grads.get(key, 0.0) + grad
    return grads


# --- trainable-tensor views -------------------------------------------------

def _layer_slot(params: NetworkParams, l: int) -> int:
    return 0 if params.share_weights else l


def params_to_tensors(params: NetworkParams) -> dict:
    """Flat dict of the trainable tensors (one slot when weights are shared)."""
    out = {"encoder": params.encoder, "classifier_w": params.classifier_w,
           "classifier_b": params.classifier_b}
    for l, layer in enumerate(params.layers):
        slot = _layer_slot(params, l)
        if slot != l:
            continue
        out[f"layer{slot}.K"] = layer.feature.K
        out[f"layer{slot}.k"] = layer.adjacency.coeffs.k
    return out


def tensor_group(key: str) -> str:
    """The parameter group of a tensor key; any key not named here (the GCN
    baseline's weights among them) is in the node group."""
    if key in ("encoder", "classifier_w", "classifier_b"):
        return GROUP_EMBED
    if key.endswith(".k"):
        return GROUP_ADJ
    return GROUP_NODE


def rebuild_params(params: NetworkParams, tensors: dict, config: TrainConfig = None,
                   g: Graph = None) -> NetworkParams:
    """New NetworkParams with updated tensors and re-clamped step sizes.

    The adjacency step is clamped to its nonexpansive bound for the new
    coefficients. Given the graph `g`, each feature step is clamped to
    min(configured h, max_feature_step(A_l, layer)) against the new K and
    the layer's own adjacency state A_l, stepped from g's adjacency with the
    new coefficients. The clamp is a projection: no gradient flows through it.
    Without `config` the stored step sizes are the starting point, and without
    `g` the feature steps stay as stored.
    """
    layers = []
    for l, layer in enumerate(params.layers):
        slot = _layer_slot(params, l)
        fp = layer.feature
        coeffs = EquivariantCoeffs(k=np.asarray(tensors[f"layer{slot}.k"], dtype=float),
                                   alpha=layer.adjacency.coeffs.alpha)
        h_adj = min(layer.adjacency.h if config is None else config.h, max_step_adjacency(coeffs))
        layers.append(CoupledLayer(
            feature=dataclasses.replace(fp, K=tensors[f"layer{slot}.K"],
                                        h=fp.h if config is None else config.h),
            adjacency=dataclasses.replace(layer.adjacency, coeffs=coeffs, h=h_adj)))
    if g is not None:
        layers = [dataclasses.replace(layer, feature=dataclasses.replace(
                      layer.feature, h=min(layer.feature.h, max_feature_step(a, layer.feature))))
                  for layer, a in zip(layers, adjacency_states(g.adjacency, layers))]
    return NetworkParams(
        encoder=tensors["encoder"],
        layers=tuple(layers),
        classifier_w=tensors["classifier_w"],
        classifier_b=tensors["classifier_b"],
        dropout_p=params.dropout_p,
        share_weights=params.share_weights,
    )


# --- Adam --------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment buffers keyed like the trainable tensors."""

    m: dict
    v: dict
    t: int = 0

    @classmethod
    def init(cls, tensors: dict) -> "AdamState":
        return cls(m={k: np.zeros_like(v) for k, v in tensors.items()},
                   v={k: np.zeros_like(v) for k, v in tensors.items()})


def adam_step(tensors: dict, grads: dict, state: AdamState, config: TrainConfig):
    """Bias-corrected Adam update with decoupled per-group weight decay.

    Returns (new_tensors, state); the state is updated in place.
    """
    state.t += 1
    t = state.t
    out = {}
    for key, p in tensors.items():
        grad = np.asarray(grads[key], dtype=float)
        if grad.shape != np.shape(p):
            raise ValueError(f"gradient shape mismatch for {key}")
        lr = config.group_lr(tensor_group(key))
        wd = config.group_wd(tensor_group(key))
        state.m[key] = BETA1 * state.m[key] + (1 - BETA1) * grad
        state.v[key] = BETA2 * state.v[key] + (1 - BETA2) * grad * grad
        m_hat = state.m[key] / (1 - BETA1 ** t)
        v_hat = state.v[key] / (1 - BETA2 ** t)
        out[key] = p - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS)) - lr * wd * p
    return out, state


def select_checkpoint(initial, epochs: int, patience: int, epoch_step):
    """Run up to `epochs` epochs; returns the checkpoint with the best
    validation accuracy (`initial` when no epoch completes).

    `epoch_step(epoch, current)` trains one epoch from `current` and returns
    (next checkpoint, its validation accuracy), or None to stop. Validation
    accuracy is coarse on small splits: a tie takes the later checkpoint, and
    training stops after `patience` epochs without a strict improvement.
    """
    best, best_val, since_best, current = initial, -np.inf, 0, initial
    for epoch in range(epochs):
        step = epoch_step(epoch, current)
        if step is None:
            break
        current, val_acc = step
        if val_acc > best_val:
            best, best_val, since_best = current, val_acc, 0
            continue
        if val_acc == best_val:
            best = current
        since_best += 1
        if since_best >= patience:
            break
    return best


# --- initialization and the training loop -------------------------------------

def _uniform_init(rng, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


def init_params(c_in: int, c_out: int, n: int, config: TrainConfig, rng) -> NetworkParams:
    """Seeded parameter initialization.

    Encoder and classifier draw uniform +-sqrt(6/(fan_in+fan_out)). K starts
    near-diffusive, at half the identity plus small uniform noise, so the
    early feature flow smooths along edges instead of fighting itself. The
    node count `n` is not read; it stays in the signature for callers that
    pass the arguments positionally.
    """
    c = config.hidden_dim
    encoder = _uniform_init(rng, c_in, c)
    classifier_w = _uniform_init(rng, c, c_out)
    classifier_b = np.zeros(c_out)
    slots = [(0.5 * np.eye(c) + 0.1 * _uniform_init(rng, c, c), 1e-2 * rng.standard_normal(8))
             for _ in range(1 if config.share_weights else config.num_layers)]
    layers = []
    for l in range(config.num_layers):
        K, k = slots[0 if config.share_weights else l]
        coeffs = EquivariantCoeffs(k=k, alpha=config.alpha)
        layers.append(CoupledLayer(
            feature=LayerParams(h=config.h, K=K, leaky_slope=config.leaky_slope),
            adjacency=AdjacencyStepConfig(coeffs=coeffs,
                                          h=min(config.h, max_step_adjacency(coeffs)),
                                          leaky_slope=config.leaky_slope),
        ))
    return NetworkParams(encoder=encoder, layers=tuple(layers),
                         classifier_w=classifier_w, classifier_b=classifier_b,
                         dropout_p=config.dropout_p, share_weights=config.share_weights)


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return float("nan")
    pred = logits[mask].argmax(axis=1)
    return float((pred == np.asarray(labels)[mask]).mean())


def require_train_and_val(g: Graph) -> None:
    """Refuse a graph without a node to fit or a node to select checkpoints on."""
    if not g.train_mask.any() or not g.val_mask.any():
        raise ValueError("training requires nonempty train and validation masks")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_acc: float
    test_acc: float


def train(g_attacked: Graph, config: TrainConfig):
    """Train on the (possibly poisoned) graph; returns (best params, history).

    The model only ever sees `g_attacked`. The checkpoint is picked by
    `select_checkpoint`; a non-finite loss or forward pass, or an Adam step
    that leaves a non-finite tensor, stops training there.
    """
    require_train_and_val(g_attacked)
    rng = np.random.default_rng(config.seed)
    c_out = int(g_attacked.labels.max()) + 1
    params = init_params(g_attacked.feat_dim, c_out, g_attacked.n, config, rng)

    params = rebuild_params(params, params_to_tensors(params), config, g_attacked)

    state = AdamState.init(params_to_tensors(params))
    history = []

    def epoch_step(epoch, params):
        try:
            logits, trace = forward(g_attacked, params, mode="train", rng=rng)
            loss = masked_cross_entropy(logits, g_attacked.labels, g_attacked.train_mask)
            if not np.isfinite(loss):
                return None
            seed_grad = cross_entropy_logit_grad(logits, g_attacked.labels, g_attacked.train_mask)
            grads = backward(trace, g_attacked, params, seed_grad)
            del trace  # one trace alive at a time
            # a step that overflows to inf or nan stops training just below
            with np.errstate(over="ignore", invalid="ignore"):
                tensors, _ = adam_step(params_to_tensors(params), grads, state, config)
            if not all(np.isfinite(t).all() for t in tensors.values()):
                return None
            params = rebuild_params(params, tensors, config, g_attacked)
            eval_logits = forward(g_attacked, params, mode="eval")[0]
        except FloatingPointError:
            return None
        val_acc = accuracy(eval_logits, g_attacked.labels, g_attacked.val_mask)
        test_acc = accuracy(eval_logits, g_attacked.labels, g_attacked.test_mask)
        history.append(EpochRecord(epoch=epoch, train_loss=loss,
                                   val_acc=val_acc, test_acc=test_acc))
        return params, val_acc

    return select_checkpoint(params, config.epochs, config.patience, epoch_step), history


def history_to_csv(history: list) -> str:
    lines = ["epoch,train_loss,val_acc,test_acc"]
    for rec in history:
        lines.append(f"{rec.epoch},{rec.train_loss:.10g},{rec.val_acc:.10g},{rec.test_acc:.10g}")
    return "\n".join(lines) + "\n"
