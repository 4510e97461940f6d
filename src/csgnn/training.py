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

from .dynamics import (LayerParams, feature_field_vjp, feature_step_bound,
                       gradient_operator_sq_norm)
from .equivariant import (AdjacencyStepConfig, EquivariantCoeffs, adjacency_step_vjp,
                          max_step_adjacency)
from .graph import Graph
from .network import CoupledLayer, ForwardTrace, NetworkParams, adjacency_states, forward
from .stacks import scalar_or_stack

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameter surface: one Adam learning rate and one decoupled weight
    decay for every trainable tensor, dropout, architecture knobs, and the
    step-size / contractivity margin."""

    epochs: int = 200
    lr: float = 1e-2
    weight_decay: float = 5e-4
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
        for name in ("lr", "weight_decay"):
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


def _masked_rows(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> tuple:
    """(mask, the masked rows' logits shifted by their maxima, their labels),
    after checking that the mask selects a node and every masked label names
    a class; stacked logits (..., n, classes) give stacked rows."""
    logits = np.asarray(logits, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask selects no nodes")
    sel = logits[..., mask, :]
    lab = np.asarray(labels)[mask]
    if lab.min() < 0 or lab.max() >= logits.shape[-1]:
        raise ValueError("label out of range on a masked node")
    return mask, sel - sel.max(axis=-1, keepdims=True), lab


def masked_cross_entropy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Mean negative log-softmax of the true class over masked nodes; one
    loss per member for stacked logits."""
    _, shifted, lab = _masked_rows(logits, labels, mask)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    return scalar_or_stack((lse - shifted[..., np.arange(len(lab)), lab]).mean(axis=-1))


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

    The pullbacks form the n x n cotangent on a layer's input adjacency only
    on request. Nothing reads the one on A_0, so layer 0 does not ask for it
    and its adjacency pullback spends the cotangent on A_1 in place; above
    layer 0 the two pullbacks' cotangents are summed in place.

    The trace is spent: each layer's input adjacency is taken off
    `trace.adjacency_states` as that layer is pulled back, so the list is
    empty on return and A_l is freed before the layers below it run.
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
    a_bar = 0.0  # the unread A_L's cotangent; 0.0 + x turns a -0.0 into +0.0
    per_layer = [None] * L

    for l in range(L - 1, -1, -1):
        layer = params.layers[l]
        a_prev = trace.adjacency_states.pop()  # A_l, the last one left
        # nothing reads the cotangent on A_0, so layer 0's pullbacks skip it
        need_a_bar = l > 0
        # adjacency step A_next = A + h*sigma(M(A))
        if l == L - 1:
            k_grad = np.zeros(8)
        else:
            a_bar, k_grad = adjacency_step_vjp(a_prev, layer.adjacency, a_bar, need_a_bar)

        # feature step F_next = F_d + h*X(F_d, A)
        f_d_bar, a_field_bar, K_grad = feature_field_vjp(
            trace.layer_dropped[l], a_prev, layer.feature, layer.feature.h * f_bar, need_a_bar)
        if need_a_bar:
            a_bar = np.add(a_bar, a_field_bar, out=a_field_bar)
            del a_field_bar  # a_bar alone holds the buffer, which layer 0 spends
        per_layer[l] = {"K": K_grad, "k": k_grad}
        f_d_bar += f_bar

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


def rebuild_params(params: NetworkParams, tensors: dict, config: TrainConfig = None,
                   g: Graph = None):
    """New NetworkParams with updated tensors and re-clamped step sizes.

    The adjacency step is clamped to its nonexpansive bound for the new
    coefficients. Given the graph `g`, each feature step is clamped to
    min(configured h, max_feature_step(A_l, layer)) against the new K and
    the layer's own adjacency state A_l, stepped from g's adjacency with the
    new coefficients; layer 0's graph term is the one `g` caches. The clamp
    is a projection: no gradient flows through it.
    Without `config` the stored step sizes are the starting point, and without
    `g` the feature steps stay as stored; one of `tensors` may then be a stack
    (see `NetworkParams`), which gets one adjacency clamp per member.
    Given `g` it returns (params, [A_0..A_{L-1}]), the adjacency states it
    stepped, which `forward` accepts for these params.
    """
    layers = []
    for l, layer in enumerate(params.layers):
        slot = _layer_slot(params, l)
        fp = layer.feature
        coeffs = EquivariantCoeffs(k=np.asarray(tensors[f"layer{slot}.k"], dtype=float),
                                   alpha=layer.adjacency.coeffs.alpha)
        h_adj = scalar_or_stack(np.minimum(layer.adjacency.h if config is None else config.h,
                                           max_step_adjacency(coeffs)))
        layers.append(CoupledLayer(
            feature=dataclasses.replace(fp, K=tensors[f"layer{slot}.K"],
                                        h=fp.h if config is None else config.h),
            adjacency=dataclasses.replace(layer.adjacency, coeffs=coeffs, h=h_adj)))
    if g is not None:
        # layer 0 reads g's own adjacency, whose graph term g computes once,
        # here before any state is stepped, so its n x n temporaries do not
        # meet theirs; the feature clamp changes no adjacency step, so these
        # are the new params' states
        s2 = [g.gradient_operator_sq_norm]
        states = adjacency_states(g.adjacency, layers)
        s2 += [gradient_operator_sq_norm(a) for a in states[1:]]
        layers = [dataclasses.replace(layer, feature=dataclasses.replace(
                      layer.feature, h=min(layer.feature.h, feature_step_bound(s, layer.feature))))
                  for layer, s in zip(layers, s2)]
    params = NetworkParams(
        encoder=tensors["encoder"],
        layers=tuple(layers),
        classifier_w=tensors["classifier_w"],
        classifier_b=tensors["classifier_b"],
        dropout_p=params.dropout_p,
        share_weights=params.share_weights,
    )
    return params if g is None else (params, states)


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


def adam_step(tensors: dict, grads: dict, state: AdamState, config: TrainConfig) -> dict:
    """Bias-corrected Adam update with decoupled weight decay, at `config`'s one
    learning rate and decay for every tensor.

    Returns the new tensors; the state is updated in place.
    """
    state.t += 1
    t = state.t
    lr, wd = config.lr, config.weight_decay
    out = {}
    for key, p in tensors.items():
        grad = np.asarray(grads[key], dtype=float)
        if grad.shape != np.shape(p):
            raise ValueError(f"gradient shape mismatch for {key}")
        state.m[key] = BETA1 * state.m[key] + (1 - BETA1) * grad
        state.v[key] = BETA2 * state.v[key] + (1 - BETA2) * grad * grad
        m_hat = state.m[key] / (1 - BETA1 ** t)
        v_hat = state.v[key] / (1 - BETA2 ** t)
        out[key] = p - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS)) - lr * wd * p
    return out


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


def checkpoint_accuracies(g: Graph, params: NetworkParams, history: list) -> tuple:
    """(val_acc, test_acc) of the checkpoint `params` that `train(g, ...)`
    returned with `history`: the record of the last epoch with the highest
    val_acc, `select_checkpoint`'s tie rule, whose eval forward scored it. With
    no record (`epochs=0`, or a first step gone non-finite) `params` are the
    initial ones, and one eval forward scores them."""
    if history:
        best = max(history, key=lambda rec: (rec.val_acc, rec.epoch))
        return best.val_acc, best.test_acc
    logits, _ = forward(g, params, mode="eval")
    return accuracy(logits, g.labels, g.val_mask), accuracy(logits, g.labels, g.test_mask)


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


@dataclass(slots=True)
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

    params, states = rebuild_params(params, params_to_tensors(params), config, g_attacked)
    # each parameter set's adjacency states are stepped once, by
    # rebuild_params, and handed on to its forwards; at dropout_p == 0 the
    # train-mode forward draws no mask, so one epoch's eval forward serves as
    # the next epoch's train-mode forward (`ahead`)
    ahead = None

    state = AdamState.init(params_to_tensors(params))
    history = []

    def epoch_step(epoch, params):
        nonlocal states, ahead
        try:
            if ahead is None:
                ahead = forward(g_attacked, params, mode="train", rng=rng, states=states)
            logits, trace = ahead
            ahead = states = None  # the trace holds them now
            loss = masked_cross_entropy(logits, g_attacked.labels, g_attacked.train_mask)
            if not np.isfinite(loss):
                return None
            seed_grad = cross_entropy_logit_grad(logits, g_attacked.labels, g_attacked.train_mask)
            grads = backward(trace, g_attacked, params, seed_grad)
            del trace  # one trace alive at a time
            tensors = adam_step(params_to_tensors(params), grads, state, config)
            if not all(np.isfinite(t).all() for t in tensors.values()):
                return None
            params, states = rebuild_params(params, tensors, config, g_attacked)
            eval_logits, trace = forward(g_attacked, params, mode="eval", states=states)
            if params.dropout_p == 0.0:
                ahead = eval_logits, trace
            del trace
        except FloatingPointError:
            return None
        val_acc = accuracy(eval_logits, g_attacked.labels, g_attacked.val_mask)
        test_acc = accuracy(eval_logits, g_attacked.labels, g_attacked.test_mask)
        history.append(EpochRecord(epoch=epoch, train_loss=loss,
                                   val_acc=val_acc, test_acc=test_acc))
        return params, val_acc

    # a value that overflows to inf or nan anywhere in an epoch stops training
    # at the check that finds it, without a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        return select_checkpoint(params, config.epochs, config.patience, epoch_step), history


def history_to_csv(history: list) -> str:
    lines = ["epoch,train_loss,val_acc,test_acc"]
    for rec in history:
        lines.append(f"{rec.epoch},{rec.train_loss:.10g},{rec.val_acc:.10g},{rec.test_acc:.10g}")
    return "\n".join(lines) + "\n"
