"""The full coupled network: encoder, L coupled Euler layers, classifier.

Each layer first moves the features with the previous adjacency state, then
moves the adjacency, so layer l maps (F, A) to (F + h*X(F, A), A + h*sigma(M(A))).
Dropout (inverted scaling) is applied to the raw input, to the features before
every layer, and once more before the classifier; evaluation mode is a pure
function of (graph, parameters).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .dynamics import LayerParams, feature_step, max_feature_step, symmetrized
from .equivariant import AdjacencyStepConfig, EquivariantCoeffs, adjacency_step, max_step_adjacency
from .graph import Graph, PerturbationBudget, frobenius_distance, l1_vec_distance
from .stacks import all_symmetric, freeze, scalar_or_stack, transposed


@dataclass(frozen=True)
class CoupledLayer:
    feature: LayerParams
    adjacency: AdjacencyStepConfig


@dataclass(frozen=True)
class NetworkParams:
    """Full trainable state: encoder, L coupled layers, linear classifier.

    Any one tensor may be a stack along leading axes (the stack convention of
    `stacks.py`): `forward` then runs one network per member, and the shape
    checks read the trailing axes.
    """

    encoder: np.ndarray        # c_in x c
    layers: tuple
    classifier_w: np.ndarray   # c x c_out
    classifier_b: np.ndarray   # c_out
    dropout_p: float = 0.0
    share_weights: bool = False

    def __post_init__(self):
        enc = freeze(self, "encoder")
        cw = freeze(self, "classifier_w")
        cb = freeze(self, "classifier_b")
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("need at least one coupled layer")
        if enc.ndim < 2 or cw.ndim < 2 or enc.shape[-1] != cw.shape[-2]:
            raise ValueError("encoder output width must match classifier input width")
        if cb.shape[-1:] != cw.shape[-1:]:
            raise ValueError("classifier bias length must match output width")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must lie in [0, 1)")
        c = enc.shape[-1]
        for l, K in enumerate(layer.feature.K for layer in layers):
            if K.shape[-2:] != (c, c):
                raise ValueError(f"layer {l}'s K has shape {K.shape}; the encoder width is {c}")
        for l, layer in enumerate(layers[1:] if self.share_weights else (), start=1):
            if not (np.array_equal(layer.feature.K, layers[0].feature.K)
                    and np.array_equal(layer.adjacency.coeffs.k, layers[0].adjacency.coeffs.k)):
                raise ValueError(f"share_weights is set, but layer {l}'s K or k differs from layer 0's")
        object.__setattr__(self, "layers", layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def hidden_dim(self) -> int:
        return self.encoder.shape[-1]


@dataclass
class ForwardTrace:
    """What the reverse pass reads from one forward pass.

    adjacency_states[l] is layer l's input adjacency A_l, for l = 0..L-1;
    input_dropped is the raw input after dropout, layer_dropped[l] the
    features entering layer l's step after dropout, and final_dropped the
    features the classifier reads. The masks are the applied multiplicative
    dropout masks, None in evaluation mode.
    """

    adjacency_states: list
    input_dropped: np.ndarray
    layer_dropped: list
    final_dropped: np.ndarray
    layer_masks: list
    final_mask: np.ndarray


def _dropout_mask(shape, p: float, rng) -> np.ndarray:
    return (rng.random(shape) >= p) / (1.0 - p)


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {what}")


def adjacency_states(a0: np.ndarray, layers) -> list:
    """[A_0..A_{L-1}], the adjacency each layer reads, from an exactly symmetric
    A_0 (or a stack of them). Nothing reads A_L, so it is not computed."""
    states = [a0]
    for l, layer in enumerate(layers[:-1]):
        states.append(adjacency_step(states[-1], layer.adjacency, assume_symmetric=True))
        _check_finite(states[-1], f"adjacency after layer {l + 1}")
    return states


def _feature_states(f: np.ndarray, states: list, layers, masks) -> list:
    """The features entering each layer's step, after its dropout mask, then F_L."""
    fs = []
    for l, (a, layer, mask) in enumerate(zip(states, layers, masks)):
        fs.append(f if mask is None else f * mask)
        f = feature_step(fs[-1], a, layer.feature)
        _check_finite(f, f"features after layer {l + 1}")
    return fs + [f]


def forward(g: Graph, params: NetworkParams, mode: str = "eval", rng=None):
    """Run the network; returns (logits, trace).

    `mode` is "train" (dropout active; `rng` draws the masks, the input's
    first, then one per layer, then the classifier's) or "eval" (dropout is
    the identity).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if g.features.shape[1] != params.encoder.shape[-2]:
        raise ValueError(
            f"feature width {g.features.shape[1]} does not match encoder input {params.encoder.shape[-2]}")
    use_dropout = mode == "train" and params.dropout_p > 0.0
    if use_dropout and rng is None:
        raise ValueError("train mode with dropout needs an rng")
    shapes = [g.features.shape] + [(g.n, params.hidden_dim)] * (params.depth + 1)
    input_mask, *layer_masks, final_mask = [
        _dropout_mask(shape, params.dropout_p, rng) if use_dropout else None for shape in shapes]

    f_in = g.features if input_mask is None else g.features * input_mask
    f = f_in @ params.encoder
    _check_finite(f, "encoded features")
    states = adjacency_states(g.adjacency, params.layers)
    *layer_dropped, f = _feature_states(f, states, params.layers, layer_masks)
    f_out = f if final_mask is None else f * final_mask
    logits = f_out @ params.classifier_w + params.classifier_b[..., None, :]
    _check_finite(logits, "logits")
    return logits, ForwardTrace(states, f_in, layer_dropped, f_out, layer_masks, final_mask)


def evolve(f0: np.ndarray, a0: np.ndarray, layers) -> tuple:
    """Apply the L coupled Euler layers to an embedded state, without dropout.

    Returns ([F_0..F_L], [A_0..A_{L-1}]); stacked states and layers evolve one
    trajectory per state. Raises ValueError unless every A_0 is exactly
    symmetric (the adjacency step keeps it so), FloatingPointError on a
    non-finite state.
    """
    f0, a0 = np.asarray(f0, dtype=float), np.asarray(a0, dtype=float)
    if not all_symmetric(a0):
        raise ValueError("the adjacency A0 must be exactly symmetric (an undirected graph)")
    states = adjacency_states(a0, layers)
    return _feature_states(f0, states, layers, [None] * len(states)), states


def weighted_distance(m1: float, m2: float, s1: tuple, s2: tuple) -> float:
    """d_{m1,m2}((F,A),(F*,A*)) = m1 ||F-F*||_F + m2 ||vec(A)-vec(A*)||_1.

    One distance per pair of states for stacked states.
    """
    if m1 <= 0 or m2 <= 0:
        raise ValueError("weights must be positive")
    f1, a1 = s1
    f2, a2 = s2
    return m1 * frobenius_distance(f1, f2) + m2 * l1_vec_distance(a1, a2)


_EPS = np.finfo(float).eps


def _max_row_gap(g: np.ndarray) -> float:
    """Upper bound on the largest pairwise euclidean distance between rows of g
    (of each matrix, for a stack).

    The rows are centred first, so a shared offset does not cancel the
    differences away, and the Gram-form squared distances are padded by a
    bound on their rounding error: with the largest centred squared row norm
    s, the squared norms and inner products are each off by at most about
    c eps s/2 and the sums by about 2 eps s, and centring moves each row by at
    most eps sqrt(s)/2.
    """
    g = g - g.mean(axis=-2, keepdims=True)
    sq = (g * g).sum(axis=-1)
    # |g_i|^2 + |g_j|^2 - 2 g_i.g_j built in the Gram matrix's own buffer: one
    # n x n array, where the plain expression holds two at once
    d2 = g @ transposed(g)
    d2 *= -2.0
    d2 += sq[..., :, None]
    d2 += sq[..., None, :]
    s = sq.max(axis=-1)
    d2 = d2.max(axis=(-2, -1)) + 2.0 * (g.shape[-1] + 4) * _EPS * s
    gap = (np.sqrt(np.maximum(d2, 0.0)) + 2.0 * _EPS * np.sqrt(s)) * (1.0 + 4.0 * _EPS)
    return scalar_or_stack(gap)


def lipschitz_upper(f: np.ndarray, layer: LayerParams, max_abs_entry: float) -> float:
    """Bound on the l1->Frobenius Lipschitz constant of A -> X(F, A).

    Valid for all adjacency matrices whose entries are bounded by
    `max_abs_entry` in absolute value. Assembled by sub-multiplicativity:
    both the outer aggregation and the inner edge differences are linear in A
    with entrywise factors at most `max_abs_entry`, the activation is
    1-Lipschitz with sigma(0)=0, and each edge row of G(A)F has euclidean
    norm at most the largest pairwise row gap of F. Stacked features and
    layers (and one `max_abs_entry` each) give one bound per state.
    """
    f = np.asarray(f, dtype=float)
    k2 = np.linalg.norm(symmetrized(layer.K), 2, axis=(-2, -1))
    lip = 4.0 * np.asarray(max_abs_entry, dtype=float) * _max_row_gap(f) * k2
    return scalar_or_stack(lip)


def trajectory_bound(fs: list, as_: list, layers, budget: PerturbationBudget) -> tuple:
    """(bound, [lip_1..lip_L]): the certified output-distance bound
    eps_feat + eps_adj * (1 + sum_l h_l lip_l) over the clean trajectory
    (fs, as_) that `evolve` returns for `layers`, and each layer's mixed
    Lipschitz bound over the l1 ball of radius eps_adj around its clean
    adjacency state. Raises FloatingPointError where the bound is not finite.
    """
    # a budget near the float range overflows the bound, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        lips = [lipschitz_upper(fs[l], layer.feature,
                                np.abs(as_[l]).max(axis=(-2, -1)) + budget.eps_adj)
                for l, layer in enumerate(layers)]
        h = np.stack([layer.feature.h for layer in layers], axis=-1)
        bound = budget.eps_feat + budget.eps_adj * (1.0 + (np.stack(lips, axis=-1) * h).sum(axis=-1))
    if not np.all(np.isfinite(bound)):
        raise FloatingPointError(f"the certified bound for eps_feat={budget.eps_feat} and "
                                 f"eps_adj={budget.eps_adj} is not finite")
    return scalar_or_stack(bound), lips


def certificate(f0: np.ndarray, a0: np.ndarray, layers, budget: PerturbationBudget) -> dict:
    """Per-layer expansivity certificate for the coupled layers on an embedded state.

    Runs the clean trajectory and takes its `trajectory_bound`: every
    admissible perturbed adjacency state stays in the l1 ball of radius
    eps_adj around the clean one, by adjacency nonexpansiveness. The
    admissible adjacency perturbations are the symmetric ones: A0 must be
    exactly symmetric, as `evolve` checks, and so must A0 + dA. Stacked states
    and layers, and budgets holding arrays, give one certificate per state.
    """
    fs, as_ = evolve(f0, a0, layers)
    bound, lips = trajectory_bound(fs, as_, layers, budget)
    rows = [{
        "layer": l + 1,
        "h_feature": layer.feature.h,
        "h_adjacency": layer.adjacency.h,
        "h_adjacency_max": max_step_adjacency(layer.adjacency.coeffs),
        "h_feature_safe": max_feature_step(as_[l], layer.feature, l1_radius=budget.eps_adj),
        "lipschitz_upper": lips[l],
    } for l, layer in enumerate(layers)]
    return {"eps_feat": budget.eps_feat, "eps_adj": budget.eps_adj, "layers": rows, "bound": bound}


# Checkpoint format (version 1): the magic bytes b"CSGNNCKPT", a little-endian
# uint32 version, a uint64 length-prefixed JSON header, then the raw
# little-endian float64 buffers of the arrays `_body_layout` lists, in its
# order; the header's "arrays" names each with its shape. Each layer's header
# still carries the fields of `_FIXED_LAYER_FIELDS`, which once told the
# parameterizations apart, so checkpoints keep their bytes; one whose fields
# differ is refused.

_MAGIC = b"CSGNNCKPT"
_VERSION = 1
_FIXED_LAYER_FIELDS = {"has_K": True, "has_W": False, "parameterization": "learn_k"}


def _body_layout(depth: int) -> list:
    """(name, number of axes) of each body array, in body order: the encoder
    and classifier, then each layer's channel mixer K and its eight free
    adjacency coefficients k. A checkpoint never holds stacked parameters."""
    return [("encoder", 2), ("classifier_w", 2), ("classifier_b", 1),
            *((f"layer{l}.{key}", axes) for l in range(depth) for key, axes in (("K", 2), ("k", 1)))]


def save_checkpoint(params: NetworkParams, path) -> None:
    arrays = [params.encoder, params.classifier_w, params.classifier_b]
    for layer in params.layers:
        arrays += [layer.feature.K, layer.adjacency.coeffs.k]
    header = {
        "dropout_p": params.dropout_p,
        "share_weights": params.share_weights,
        "layers": [
            {
                **_FIXED_LAYER_FIELDS,
                "h_feature": layer.feature.h,
                "feature_slope": layer.feature.leaky_slope,
                "h_adjacency": layer.adjacency.h,
                "adjacency_slope": layer.adjacency.leaky_slope,
                "alpha": layer.adjacency.coeffs.alpha,
            }
            for layer in params.layers
        ],
        "arrays": [{"name": name, "shape": list(arr.shape)}
                   for (name, _), arr in zip(_body_layout(len(params.layers)), arrays)],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


_HEADER_KEYS = ("arrays", "dropout_p", "layers", "share_weights")
_LAYER_NUMBERS = ("h_feature", "feature_slope", "h_adjacency", "adjacency_slope", "alpha")
_LAYER_KEYS = (*_LAYER_NUMBERS, *_FIXED_LAYER_FIELDS)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(f"checkpoint {message}")


def _require_keys(obj, keys, where: str) -> None:
    _require(isinstance(obj, dict), f"{where} is not an object")
    missing = [key for key in keys if key not in obj]
    _require(not missing, f"{where} lacks key(s) {', '.join(missing)}")


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _checked_header(header) -> list:
    """Validate a checkpoint header; returns (array name, shape) in body order.

    Every key must be present, numbers finite, flags boolean, the arrays
    exactly those `_body_layout` lists for the header's layers, in its order,
    and each shape a list of that many non-negative integers.
    """
    _require_keys(header, _HEADER_KEYS, "header")
    _require(_is_finite_number(header["dropout_p"]), "dropout_p must be a finite number")
    _require(isinstance(header["share_weights"], bool), "share_weights must be a boolean")
    _require(isinstance(header["layers"], list), "layers must be a list")
    _require(isinstance(header["arrays"], list), "arrays must be a list")
    for l, meta in enumerate(header["layers"]):
        _require_keys(meta, _LAYER_KEYS, f"layer {l}")
        for key in _LAYER_NUMBERS:
            _require(_is_finite_number(meta[key]), f"layer {l} {key} must be a finite number")
        # types too: 1 == True, but a has_K of 1 is not a boolean
        got = [f"{key} {meta[key]!r}" for key, want in _FIXED_LAYER_FIELDS.items()
               if type(meta[key]) is not type(want) or meta[key] != want]
        _require(not got, f"layer {l} must be learn_k with a K array and without a W array, "
                 f"got {' and '.join(got)}: the learn_w parameterization was removed, as was "
                 "the identity K")
    for spec in header["arrays"]:
        _require_keys(spec, ("name", "shape"), "array entry")
    layout = _body_layout(len(header["layers"]))
    expected = [name for name, _ in layout]
    found = [spec["name"] for spec in header["arrays"]]
    _require(found == expected, f"arrays must be {expected}, in this order; got {found}")
    for (name, axes), spec in zip(layout, header["arrays"]):
        shape = spec["shape"]
        _require(isinstance(shape, list) and len(shape) == axes
                 and all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape),
                 f"array {name!r} has shape {shape!r}; expected {axes} axes of non-negative "
                 "integers")
    return [(name, tuple(spec["shape"])) for name, spec in zip(expected, header["arrays"])]


def load_checkpoint(path) -> NetworkParams:
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    pos = len(_MAGIC) + 12

    def take(count: int) -> memoryview:
        nonlocal pos
        if count > len(raw) - pos:
            raise ValueError("truncated checkpoint")
        pos += count
        return raw[pos - count:pos]

    if bytes(raw[:len(_MAGIC)]) != _MAGIC:
        raise ValueError("not a network checkpoint")
    if len(raw) < pos:
        raise ValueError("truncated checkpoint")
    version, hlen = struct.unpack_from("<IQ", raw, len(_MAGIC))
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    header = json.loads(bytes(take(hlen)).decode())
    data = {}
    for name, shape in _checked_header(header):
        arr = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
        _require(np.isfinite(arr).all(), f"array {name!r} has non-finite entries")
        data[name] = arr
    if pos != len(raw):
        raise ValueError("trailing bytes in checkpoint")
    layers = []
    for l, meta in enumerate(header["layers"]):
        layers.append(CoupledLayer(
            feature=LayerParams(
                h=meta["h_feature"],
                K=data[f"layer{l}.K"],
                leaky_slope=meta["feature_slope"],
            ),
            adjacency=AdjacencyStepConfig(
                coeffs=EquivariantCoeffs(k=data[f"layer{l}.k"], alpha=meta["alpha"]),
                h=meta["h_adjacency"],
                leaky_slope=meta["adjacency_slope"],
            ),
        ))
    return NetworkParams(
        encoder=data["encoder"],
        layers=tuple(layers),
        classifier_w=data["classifier_w"],
        classifier_b=data["classifier_b"],
        dropout_p=header["dropout_p"],
        share_weights=header["share_weights"],
    )
