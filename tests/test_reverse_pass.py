"""The reverse pass forms the cotangent on A only on request, spends the
trace and the last cotangent, and keeps its n x n temporaries few, with the
bits of the out-of-place pass kept here as the oracle."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from csgnn import training
from csgnn.dynamics import _laplacian_apply, feature_field_vjp, symmetrized
from csgnn.equivariant import (_sums, adjacency_step_vjp, coeff_gradients, equivariant_linear,
                               equivariant_linear_adjoint)
from csgnn.gradcheck import random_instance
from csgnn.network import forward
from csgnn.sbm import gen_sbm
from csgnn.training import (TrainConfig, backward, cross_entropy_logit_grad, init_params,
                            params_to_tensors, rebuild_params)


# --- the out-of-place reverse pass, as the oracle ------------------------------

def oracle_feature_field_vjp(f, a, params, x_bar):
    scale = 1.0 + params.leaky_slope
    b = a * a
    v = scale * _laplacian_apply(b, f)
    p_bar = -(x_bar @ symmetrized(params.K))
    u_bar = scale * p_bar
    f_bar = _laplacian_apply(b, u_bar)
    b_bar = (u_bar * f).sum(axis=1)[:, None] - u_bar @ f.T
    k_tilde_bar = -v.T @ x_bar
    return f_bar, 2.0 * a * b_bar, 0.5 * (k_tilde_bar + k_tilde_bar.T)


def oracle_adjacency_step_vjp(a, cfg, a_bar):
    pre = equivariant_linear(a, cfg.coeffs, assume_symmetric=True)
    m_bar = cfg.h * np.where(pre > 0, 1.0, cfg.leaky_slope) * a_bar
    raw_k = coeff_gradients(a, m_bar, _sums(m_bar))
    a_bar = a_bar + equivariant_linear_adjoint(m_bar, cfg.coeffs, _sums(m_bar))
    return a_bar, raw_k[1:] - raw_k[0] * np.sign(cfg.coeffs.k)


def oracle_backward(trace, params, logit_grad):
    L = params.depth
    grads = {"classifier_w": trace.final_dropped.T @ logit_grad,
             "classifier_b": logit_grad.sum(axis=0)}
    f_bar = logit_grad @ params.classifier_w.T
    if trace.final_mask is not None:
        f_bar = f_bar * trace.final_mask
    a_bar = np.zeros_like(trace.adjacency_states[-1])
    per_layer = [None] * L
    for l in range(L - 1, -1, -1):
        layer = params.layers[l]
        a_prev = trace.adjacency_states[l]
        if l == L - 1:
            k_grad = np.zeros(8)
        else:
            a_bar, k_grad = oracle_adjacency_step_vjp(a_prev, layer.adjacency, a_bar)
        f_d_bar, a_field_bar, K_grad = oracle_feature_field_vjp(
            trace.layer_dropped[l], a_prev, layer.feature, layer.feature.h * f_bar)
        a_bar = a_bar + a_field_bar
        per_layer[l] = {"K": K_grad, "k": k_grad}
        f_d_bar = f_d_bar + f_bar
        mask = trace.layer_masks[l]
        f_bar = f_d_bar if mask is None else f_d_bar * mask
    grads["encoder"] = trace.input_dropped.T @ f_bar
    for l, layer_grads in enumerate(per_layer):
        slot = 0 if params.share_weights else l
        for name, grad in layer_grads.items():
            key = f"layer{slot}.{name}"
            grads[key] = grads.get(key, 0.0) + grad
    return grads


def same_bits(x, y) -> bool:
    """Equal shapes and bytes: np.array_equal, and the signs of zeros too."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def assert_same_gradients(g, params, seed, scale=1.0):
    """backward against the oracle on one seeded training forward; `scale`
    multiplies the loss's logit cotangent (-0.0 turns it into signed zeros)."""
    logits, trace = forward(g, params, mode="train", rng=np.random.default_rng(seed))
    logit_grad = scale * cross_entropy_logit_grad(logits, g.labels, g.train_mask)
    expected = oracle_backward(trace, params, logit_grad)  # backward spends the trace
    got = backward(trace, g, params, logit_grad)
    assert trace.adjacency_states == []
    assert got.keys() == expected.keys()
    for key in expected:
        assert np.array_equal(got[key], expected[key]), key
        assert same_bits(got[key], expected[key]), key


def sbm_instance(n, num_layers, dropout_p, share_weights=False):
    g = gen_sbm(n, classes=2, p_in=20 / n, p_out=5 / n, feat_dim=16, signal=1.3, seed=0)
    cfg = TrainConfig(seed=0, num_layers=num_layers, dropout_p=dropout_p,
                      share_weights=share_weights)
    params = init_params(g.feat_dim, 2, g.n, cfg, np.random.default_rng(0))
    return g, rebuild_params(params, params_to_tensors(params), cfg, g)[0]


# --- every gradient keeps its bits -------------------------------------------

def test_gradients_match_the_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(400):
        g, params, seed = random_instance(rng)
        assert_same_gradients(g, params, seed)
        seen.add((params.depth, params.dropout_p, params.share_weights))
        if len(seen) == 12:
            break
    # every depth 1-3, both dropout choices, shared weights and not
    assert seen == {(depth, p, shared) for depth in (1, 2, 3) for p in (0.0, 0.3)
                    for shared in (False, True)}


@pytest.mark.parametrize("num_layers, dropout_p", [(2, 0.0), (3, 0.3)])
def test_gradients_match_the_oracle_on_a_large_graph(num_layers, dropout_p):
    g, params = sbm_instance(256, num_layers, dropout_p)
    assert_same_gradients(g, params, seed=1)


def test_gradients_match_the_oracle_on_a_negative_zero_cotangent():
    # -0.0 times the loss's cotangent holds -0.0 wherever that is +0.0, and
    # every zero of the pass can carry a sign; the sign must match too
    g, params = sbm_instance(40, 3, 0.3, share_weights=True)
    assert_same_gradients(g, params, seed=2, scale=-0.0)


def test_a_negative_zero_in_the_last_cotangent_on_a_becomes_positive(monkeypatch):
    # nothing reads A_L, so the cotangent on A_{L-1} is 0.0 plus the feature
    # pullback's, as the out-of-place sum formed it: a -0.0 there becomes +0.0
    g, params = sbm_instance(40, 3, 0.0)
    returned, received = [], []

    def with_negative_zeros(*args):
        f_bar, a_bar, k_bar = feature_field_vjp(*args)
        if a_bar is not None:
            a_bar[::2] = -0.0
            returned.append(a_bar.copy())
        return f_bar, a_bar, k_bar

    def recording(a, cfg, a_bar, *args):
        received.append(a_bar.copy())
        return adjacency_step_vjp(a, cfg, a_bar, *args)

    monkeypatch.setattr(training, "feature_field_vjp", with_negative_zeros)
    monkeypatch.setattr(training, "adjacency_step_vjp", recording)
    logits, trace = forward(g, params, mode="eval")
    backward(trace, g, params, cross_entropy_logit_grad(logits, g.labels, g.train_mask))
    assert len(returned) == len(received) == 2
    assert same_bits(received[0], 0.0 + returned[0])
    assert not (np.signbit(received[0]) & (received[0] == 0)).any()


# --- the pullbacks form the cotangent on A only on request ----------------------

def pullback_instance(rng, n=30, c=5):
    g, params = sbm_instance(n, 2, 0.0)
    a = forward(g, params, mode="eval")[1].adjacency_states[1]
    f = rng.standard_normal((n, c))
    layer = dataclasses.replace(params.layers[1], feature=dataclasses.replace(
        params.layers[1].feature, K=rng.standard_normal((c, c))))
    cotangent = rng.standard_normal((n, n))
    cotangent[rng.random((n, n)) < 0.3] = -0.0
    return a, f, layer, cotangent


def test_feature_field_vjp_forms_the_cotangent_on_a_only_on_request():
    rng = np.random.default_rng(3)
    a, f, layer, _ = pullback_instance(rng)
    x_bar = rng.standard_normal(f.shape)
    x_bar[::3] = -0.0
    expected = oracle_feature_field_vjp(f, a, layer.feature, x_bar)
    asked = feature_field_vjp(f, a, layer.feature, x_bar)
    assert all(same_bits(x, y) for x, y in zip(asked, expected))
    f_bar, a_bar, k_bar = feature_field_vjp(f, a, layer.feature, x_bar, need_a_bar=False)
    assert a_bar is None
    assert same_bits(f_bar, expected[0]) and same_bits(k_bar, expected[2])


def test_adjacency_step_vjp_forms_the_cotangent_on_a_only_on_request():
    rng = np.random.default_rng(4)
    a, _, layer, cotangent = pullback_instance(rng)
    before = cotangent.copy()
    expected = oracle_adjacency_step_vjp(a, layer.adjacency, cotangent)
    asked = adjacency_step_vjp(a, layer.adjacency, cotangent)
    assert all(same_bits(x, y) for x, y in zip(asked, expected))
    assert same_bits(cotangent, before)  # asked for, the pullback only reads the cotangent
    # not asked for, it spends the cotangent it is given, so it gets a copy
    a_bar, k_grad = adjacency_step_vjp(a, layer.adjacency, cotangent.copy(), need_a_bar=False)
    assert a_bar is None and same_bits(k_grad, expected[1])


# --- memory ----------------------------------------------------------------------

def test_backward_holds_at_most_two_adjacency_sized_arrays():
    """At n=300 and L=2, backward's tracemalloc peak above its entry is two
    n x n float64 arrays, the spent cotangent on A_1 and M(A_0) in layer 0's
    adjacency pullback, plus one 64-row block of k1*A_0 and two of the (n, c)
    feature arrays (the pass that kept the caller's cotangent read 3.07 n x n)."""
    n = 300
    g, params = sbm_instance(n, 2, 0.0)
    c = params.encoder.shape[1]
    rng = np.random.default_rng(0)
    logits, trace = forward(g, params, mode="train", rng=rng)
    logit_grad = cross_entropy_logit_grad(logits, g.labels, g.train_mask)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        backward(trace, g, params, logit_grad)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * n * n + 64 * n + 2 * n * c), peak / (8 * n * n)
